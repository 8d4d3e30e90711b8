"""Measurement grids and antenna-array layouts for fingerprint localization."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "circular_array"]


@dataclass(frozen=True)
class Grid:
    """A row-major rectangular lattice of candidate positions.

    Point k sits at ``origin + ((k mod nx) * spacing, (k div nx) * spacing)``:
    x varies fastest and rows stack upward in y.  Every likelihood map,
    database block row and estimated index refers to positions by k.  ``xy``
    holds the (N, 2) coordinates in that order, computed once and read-only;
    equality compares the four defining fields only.

    Args:
        origin: the ``(x, y)`` pair of point 0 (lower-left corner), finite reals.
        nx: number of columns (>= 1).
        ny: number of rows (>= 1).
        spacing: inter-point distance in meters (> 0, and large enough that
            no two points round to the same coordinates).
    """

    origin: tuple
    nx: int
    ny: int
    spacing: float
    xy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nx, ny = self.nx, self.ny
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (nx, ny)):
            raise ValueError(f"grid dimensions must be positive integers, got nx={nx!r} ny={ny!r}")
        nx, ny = int(nx), int(ny)
        spacing = self.spacing
        if not (isinstance(spacing, numbers.Real) and not isinstance(spacing, bool)
                and spacing > 0 and math.isfinite(spacing)):
            raise ValueError(f"grid spacing must be positive and finite, got {spacing!r}")
        spacing = float(spacing)
        try:
            x0, y0 = self.origin
        except (TypeError, ValueError):
            raise ValueError(f"grid origin must be an (x, y) pair, got {self.origin!r}") from None
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                   for v in (x0, y0)):
            raise ValueError(f"grid origin coordinates must be finite reals, got {self.origin!r}")
        origin = (float(x0), float(y0))
        # far from the origin a small spacing rounds away and points coincide
        for start, n in zip(origin, (nx, ny)):
            if np.any(np.diff(start + np.arange(n) * spacing) <= 0):
                raise ValueError(f"grid spacing {spacing} is below float resolution at {start}")
        k = np.arange(nx * ny)
        xy = np.stack([origin[0] + (k % nx) * spacing, origin[1] + (k // nx) * spacing], axis=1)
        xy.flags.writeable = False
        for name, value in (("origin", origin), ("nx", nx), ("ny", ny),
                            ("spacing", spacing), ("xy", xy)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return self.nx * self.ny


def circular_array(centers, radius_m: float, n_elements: int) -> np.ndarray:
    """Element k of a uniform circular array at ``center + r (cos 2 pi k / n, sin 2 pi k / n)``.

    ``centers`` is (..., 2); the result is (..., n_elements, 2).
    """
    angles = [2.0 * math.pi * k / n_elements for k in range(n_elements)]
    unit = np.array([(math.cos(a), math.sin(a)) for a in angles])
    return np.asarray(centers, dtype=float)[..., None, :] + radius_m * unit
