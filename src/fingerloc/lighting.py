"""Occupancy-driven lighting control: meet a lux target at minimum power.

Dimmable luminaires are set by solving a small linear program over the
occupied grid cells; unoccupied cells carry no constraint, which is where
the energy saving over an all-on baseline comes from.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import InfeasibleError
from .geometry import Grid
from .simplex import solve_bounded_lp

__all__ = ["LightingScenario", "light_gain", "illuminance", "solve_lighting"]

FEASIBILITY_MARGIN = 1e-9


def light_gain(light_pos, height_m, peak_lux, target):
    """Illuminance a ceiling luminaire delivers to a floor location.

    Inverse-square law with the cosine of the incidence angle cubed:
    ``peak * h**3 / (h**2 + d**2)**1.5`` for horizontal offset ``d``,
    so a target directly below the light receives ``peak_lux``.

    ``light_pos`` and ``target`` are ``(..., 2)`` floor coordinates; all
    arguments broadcast.
    """
    height_m = np.asarray(height_m, dtype=float)
    peak_lux = np.asarray(peak_lux, dtype=float)
    if not np.all(height_m > 0):
        raise ValueError("mounting height must be positive")
    if not np.all(peak_lux >= 0):
        raise ValueError("peak illuminance must be nonnegative")
    offset = np.asarray(target, dtype=float) - np.asarray(light_pos, dtype=float)
    d2 = offset[..., 0] ** 2 + offset[..., 1] ** 2
    return peak_lux * height_m ** 3 / (height_m ** 2 + d2) ** 1.5


@dataclass(frozen=True)
class LightingScenario:
    """Room geometry, the dimmable luminaires, and the photometric requirement.

    Attributes:
        grid: candidate occupant locations.
        light_xy: (L, 2) floor positions of the luminaires, L >= 1.
        power_w: (L,) electrical power of each luminaire at full output, > 0.
        peak_lux: (L,) illuminance each delivers straight below it, > 0.
        height_m: (L,) mounting height of each above the floor, > 0.
        target_lux: minimum illuminance at every occupied cell.
        env_lux: ambient (daylight) illuminance per grid cell.
        gains: (cells, lights) illuminance of each light at full power,
            computed once from the grid and the lights.
    """

    grid: Grid
    light_xy: np.ndarray
    power_w: np.ndarray
    peak_lux: np.ndarray
    height_m: np.ndarray
    target_lux: float
    env_lux: np.ndarray
    gains: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xy = np.array(self.light_xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2 or len(xy) == 0:
            raise ValueError(f"need a non-empty (lights, 2) array of light positions, "
                             f"got shape {xy.shape}")
        env = np.array(self.env_lux, dtype=float)
        arrays = {"light_xy": xy, "env_lux": env}
        for name in ("power_w", "peak_lux", "height_m"):
            value = np.array(getattr(self, name), dtype=float)
            if value.shape != (len(xy),) or not np.all(value > 0):
                raise ValueError(f"{name} needs one positive value per light, got {value}")
            arrays[name] = value
        if not (self.target_lux > 0):
            raise ValueError("the illuminance target must be positive")
        if env.shape != (len(self.grid),):
            raise ValueError("ambient illuminance needs one value per grid cell")
        if not np.all(np.isfinite(env)) or np.any(env < 0):
            raise ValueError("ambient illuminance must be finite and nonnegative")
        arrays["gains"] = light_gain(xy, arrays["height_m"], arrays["peak_lux"],
                                     self.grid.xy[:, None, :])
        for name, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def gain_matrix(self, cell_indices) -> np.ndarray:
        """Per-cell-per-light illuminance at full power, shape (cells, lights)."""
        return self.gains[np.asarray(cell_indices, dtype=int)]


def illuminance(scenario: LightingScenario, switches, cells) -> np.ndarray:
    """Total illuminance at grid cells under dimmer settings, row by row.

    ``switches`` is (..., lights) and ``cells`` (...) grid indices; they
    broadcast, so one call scores every step's settings at its own cell.
    """
    sw = np.asarray(switches, dtype=float)
    if sw.shape[-1:] != scenario.power_w.shape:
        raise ValueError("need one dimmer setting per light")
    cells = np.asarray(cells, dtype=int)
    return np.vecdot(scenario.gains[cells], sw) + scenario.env_lux[cells]


def solve_lighting(scenario: LightingScenario, occupied) -> tuple:
    """Pick dimmer settings meeting the lux target at occupied cells at min power.

    The sets are independent programs, so they are solved as one
    block-diagonal LP (one block of gain rows per non-empty set, the light
    powers tiled as costs): the sum is at its minimum exactly when every
    block is.

    Args:
        scenario: room, lights, and illuminance requirement.
        occupied: boolean (sets, cells) mask; every set cell of a row must
            reach ``target_lux`` under that row's settings.

    Returns:
        (switches, power_w): the power-optimal (sets, lights) dimmer settings
        in [0, 1] and their (sets,) power draw; all lights off
        (``power_w == 0.0``) for an empty row.

    Raises:
        InfeasibleError: some occupied cell misses the target even with every
            light fully on; the violated grid indices of the first such row
            ride on the exception.
    """
    occupied = np.asarray(occupied)
    if occupied.dtype != bool or occupied.ndim != 2 or occupied.shape[1] != len(scenario.grid):
        raise ValueError(f"need a boolean (sets, {len(scenario.grid)}) occupancy mask, "
                         f"got {occupied.dtype} {occupied.shape}")
    # row-major: each row's cells in ascending order, row after row
    rows, cells = np.nonzero(occupied)
    gains = scenario.gain_matrix(cells)
    need = scenario.target_lux - scenario.env_lux[cells]
    short = gains.sum(axis=1) < need - FEASIBILITY_MARGIN
    if np.any(short):
        first = rows[np.argmax(short)]
        violated = tuple(cells[short & (rows == first)].tolist())
        raise InfeasibleError(
            f"occupied set {first}: {len(violated)} cell(s) cannot reach "
            f"{scenario.target_lux} lux even with all lights on",
            violated=violated,
        )

    powers = scenario.power_w
    sizes = occupied.sum(axis=1)
    switches = np.zeros((len(occupied), len(powers)))
    lit = np.flatnonzero(sizes)
    if lit.size:
        blocks = np.split(gains, np.cumsum(sizes[lit])[:-1])
        x = solve_bounded_lp(np.tile(powers, lit.size), sparse.block_diag(blocks, format="csr"),
                             need, np.ones(lit.size * len(powers)))
        switches[lit] = x.reshape(lit.size, len(powers))
    # np.vecdot sums each row like a 1-D dot product; a matrix product rounds differently
    return switches, np.vecdot(switches, powers)
