"""Trajectory tracking: recursive grid Bayes filtering and a particle filter."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateUpdateError, NumericError
from .geometry import Grid, Position, uniform_grid_shape
from .matching import MODE_LOG_LIKELIHOOD, LikelihoodMap

__all__ = [
    "MobilityModel",
    "ParticleSet",
    "transition_matrix",
    "grid_bayes_step",
    "particle_predict",
    "particle_update",
    "resample_systematic",
]

DEFAULT_P_STATIC = 0.3
DEFAULT_ACCEL_SIGMA = 0.5
DEFAULT_PARTICLES = 1000


@dataclass(frozen=True)
class MobilityModel:
    """Two-mode user mobility: dwell in place, or take a Gaussian random step.

    With probability ``p_static`` the user stays on its cell; otherwise it
    displaces by a zero-mean Gaussian step with standard deviation
    ``accel_sigma * dt**2`` per axis, truncated at ``max_step`` (defaults to
    four standard deviations).
    """

    p_static: float = DEFAULT_P_STATIC
    accel_sigma: float = DEFAULT_ACCEL_SIGMA
    dt: float = 1.0
    max_step: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.p_static <= 1.0):
            raise ValueError("p_static must lie in [0, 1]")
        if self.accel_sigma < 0 or self.dt <= 0:
            raise ValueError("accel_sigma must be >= 0 and dt > 0")
        if self.max_step is not None and self.max_step < 0:
            raise ValueError("max_step must be non-negative")

    @property
    def step_sigma(self) -> float:
        return self.accel_sigma * self.dt ** 2

    @property
    def step_limit(self) -> float:
        return self.max_step if self.max_step is not None else 4.0 * self.step_sigma


def transition_matrix(grid: Grid, model: MobilityModel) -> np.ndarray:
    """Cell-to-cell transition probabilities for the two-mode mobility model.

    Row r holds P(next cell | current cell r): ``p_static`` on the diagonal
    plus ``1 - p_static`` spread over cells by the Gaussian probability mass
    falling in each destination cell (product of 1-D interval masses),
    truncated at ``max_step`` from the source and renormalized.

    Args:
        grid: row-major uniform grid (positive spacing).
        model: mobility parameters.

    Returns:
        (N, N) array with rows summing to 1 within 1e-12.
    """
    uniform_grid_shape(grid)  # validates the lattice
    xy = grid.as_array()
    n = len(grid)
    h = grid.spacing
    sigma = model.step_sigma

    dx = xy[None, :, 0] - xy[:, None, 0]
    dy = xy[None, :, 1] - xy[:, None, 1]
    dist = np.hypot(dx, dy)

    if sigma == 0.0:
        kernel = np.eye(n)
    else:
        half = h / 2.0
        mass_x = ndtr((dx + half) / sigma) - ndtr((dx - half) / sigma)
        mass_y = ndtr((dy + half) / sigma) - ndtr((dy - half) / sigma)
        kernel = mass_x * mass_y
        kernel[dist > model.step_limit] = 0.0
        totals = kernel.sum(axis=1, keepdims=True)
        if np.any(totals <= 0):
            raise NumericError("mobility kernel truncation removed all destination mass")
        kernel = kernel / totals

    trans = model.p_static * np.eye(n) + (1.0 - model.p_static) * kernel
    trans /= trans.sum(axis=1, keepdims=True)
    return trans


def grid_bayes_step(prev: LikelihoodMap, trans: np.ndarray, obs: LikelihoodMap) -> LikelihoodMap:
    """One recursive Bayes update on the grid, in the log domain.

    ``L_t(u) = obs(u) + ln sum_u' trans[u' -> u] exp(prev(u'))`` computed with
    the usual max-shift for stability, then renormalized so the maximum is 0.
    """
    if prev.grid != obs.grid:
        raise ValueError("prior and observation maps must share one grid")
    if prev.mode != MODE_LOG_LIKELIHOOD or obs.mode != MODE_LOG_LIKELIHOOD:
        raise ValueError("grid Bayes filtering works on log-likelihood maps")
    n = len(prev.grid)
    if trans.shape != (n, n):
        raise ValueError(f"transition matrix shape {trans.shape} does not match grid size {n}")
    shift = float(np.max(prev.values))
    mass = np.exp(prev.values - shift)
    mixed = trans.T @ mass
    if np.any(mixed <= 0.0):
        raise NumericError("predictive mass vanished; transition matrix starves some cells")
    values = obs.values + np.log(mixed) + shift
    values = values - np.max(values)
    return LikelihoodMap(grid=prev.grid, values=values, mode=MODE_LOG_LIKELIHOOD)


# ---------------------------------------------------------------------------
# particle filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleSet:
    """Weighted particles over continuous positions."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        w = np.array(self.weights, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] == 0:
            raise ValueError("positions must form a non-empty (P, 2) array")
        if w.shape != (pos.shape[0],):
            raise ValueError("need exactly one weight per particle")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 within 1e-9, got {total}")
        pos.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.positions.shape[0]

    def effective_sample_size(self) -> float:
        return float(1.0 / np.sum(self.weights ** 2))


def particle_predict(ps: ParticleSet, pdr_step, pdr_sigma: float, seed) -> ParticleSet:
    """Propagate particles by a dead-reckoned step plus Gaussian jitter.

    Weights are unchanged; only positions move.
    """
    step = np.asarray(pdr_step, dtype=float)
    if step.shape != (2,):
        raise ValueError("pdr_step must be a (dx, dy) pair")
    if pdr_sigma < 0:
        raise ValueError("pdr_sigma must be non-negative")
    rng = np.random.default_rng(seed)
    jitter = rng.normal(0.0, pdr_sigma, size=ps.positions.shape) if pdr_sigma > 0 else 0.0
    return ParticleSet(positions=ps.positions + step + jitter, weights=ps.weights)


def _corner_indices(grid: Grid, nx: int, ny: int, origin: Position, pos) -> np.ndarray:
    h = grid.spacing
    x = min(max(pos[0], origin.x), origin.x + (nx - 1) * h)
    y = min(max(pos[1], origin.y), origin.y + (ny - 1) * h)
    ix = int(min((x - origin.x) // h, max(nx - 2, 0)))
    iy = int(min((y - origin.y) // h, max(ny - 2, 0)))
    cols = [ix, ix + 1] if nx > 1 else [ix]
    rows = [iy, iy + 1] if ny > 1 else [iy]
    return np.array([r * nx + c for r in rows for c in cols], dtype=int)


def particle_update(ps: ParticleSet, lmap: LikelihoodMap, grid: Grid | None = None,
                    seed=0, estimator: str = "mean") -> tuple:
    """Weight particles by the observation likelihood and estimate the position.

    Each particle's likelihood is regressed from the grid: the inverse-
    distance-weighted average of the likelihoods at the 4 surrounding grid
    points (all weight on a coincident grid point).  Weights are multiplied
    and renormalized; systematic resampling runs when the effective sample
    size drops below half the particle count.

    Args:
        ps: current particles.
        lmap: the step's observation log-likelihood map, e.g. from
            :func:`fingerloc.matching.mle_rssi_rspd`.
        grid: estimation grid; defaults to the map's grid.
        seed: stream for the embedded resampling step.
        estimator: ``"mean"`` for the weighted mean position (default) or
            ``"mode"`` for the highest-weight particle.

    Returns:
        (ParticleSet, Position): the updated (possibly resampled) particles
        and the point estimate from the post-update weights.
    """
    if grid is None:
        grid = lmap.grid
    if lmap.grid != grid:
        raise ValueError("likelihood map grid does not match the estimation grid")
    if estimator not in ("mean", "mode"):
        raise ValueError(f"unknown estimator {estimator!r}")
    nx, ny, origin = uniform_grid_shape(grid)
    xy = grid.as_array()
    shift = float(np.max(lmap.values))
    dens = np.exp(lmap.values - shift)  # common shift cancels in normalization

    lik = np.empty(len(ps), dtype=float)
    for i, pos in enumerate(ps.positions):
        corners = _corner_indices(grid, nx, ny, origin, pos)
        d = np.hypot(xy[corners, 0] - pos[0], xy[corners, 1] - pos[1])
        exact = d <= 0.0
        if np.any(exact):
            lik[i] = dens[corners[np.argmax(exact)]]
        else:
            w = 1.0 / d
            lik[i] = float(np.dot(w, dens[corners]) / np.sum(w))

    raw = ps.weights * lik
    total = float(raw.sum())
    if total <= 0.0:
        raise DegenerateUpdateError(
            "all particles received zero likelihood", likelihoods=lik)
    weights = raw / total

    if estimator == "mean":
        est = weights @ ps.positions
        estimate = Position(float(est[0]), float(est[1]))
    else:
        best = int(np.argmax(weights))
        estimate = Position(float(ps.positions[best, 0]), float(ps.positions[best, 1]))

    updated = ParticleSet(positions=ps.positions, weights=weights)
    if updated.effective_sample_size() < len(updated) / 2.0:
        updated = resample_systematic(updated, seed)
    return updated, estimate


def resample_systematic(ps: ParticleSet, seed, size: int | None = None) -> ParticleSet:
    """Systematic resampling: one uniform offset, evenly spaced selection points.

    Copy counts stay within one of ``size * weight`` for every particle, and
    equal weights reproduce the input set unchanged.
    """
    size = len(ps) if size is None else int(size)
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = np.random.default_rng(seed)
    u0 = rng.random() / size
    points = u0 + np.arange(size) / size
    cum = np.cumsum(ps.weights)
    cum[-1] = max(cum[-1], 1.0)  # guard against roundoff shrinking the last bin
    idx = np.searchsorted(cum, points, side="right")
    idx = np.minimum(idx, len(ps) - 1)
    positions = ps.positions[idx]
    weights = np.full(size, 1.0 / size)
    return ParticleSet(positions=positions, weights=weights)
