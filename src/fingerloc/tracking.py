"""Trajectory tracking: recursive grid Bayes filtering and a particle filter."""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateUpdateError, NumericError
from .geometry import Grid

__all__ = [
    "GridTransition",
    "transition_matrix",
    "grid_bayes_step",
    "particle_predict",
    "particle_update",
    "resample_systematic",
]

# callers resample once the effective sample size drops below this share of the particles
RESAMPLE_ESS_FRACTION = 0.5


@dataclass(frozen=True, eq=False)
class GridTransition:
    """The two-mode mobility model on a row-major grid, as two axis kernels.

    A Gaussian step from cell ``s`` lands in cell ``s + (dx, dy)`` with mass
    ``mass_y[ry + dy] * mass_x[rx + dx]`` before normalization, so the 2-D
    stencil is the outer product ``mass_y (x) mass_x``.  ``tx`` and ``ty``
    are the ``(nx, nx)`` and ``(ny, ny)`` Toeplitz matrices of the two
    masses over the grid's axes, ``tx[x', x] = mass_x[rx + x - x']`` within
    the reach and 0 beyond it.  ``totals[s]`` is the stencil mass that stays
    on the grid from ``s``, the outer product of the two matrices' row sums,
    so ``P(s -> u) = p_static [s == u] + (1 - p_static) stencil[u - s] /
    totals[s]``.  The dense N x N matrix is never formed: :meth:`predict`
    applies it as two small products, ``ty^T (mass / totals) tx``, in
    O(N (nx + ny)) time and O(nx^2 + ny^2 + N) memory.

    Raises NumericError when some source cell keeps no stencil mass.
    """

    mass_x: np.ndarray
    mass_y: np.ndarray
    p_static: float
    shape: tuple  # (ny, nx)
    tx: np.ndarray = field(init=False, repr=False)
    ty: np.ndarray = field(init=False, repr=False)
    totals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ny, nx = (int(n) for n in self.shape)
        masses = [np.array(m, dtype=float) for m in (self.mass_x, self.mass_y)]
        if any(m.ndim != 1 or m.size % 2 != 1 for m in masses):
            raise ValueError("each axis mass must be a 1-D array of odd length")
        if ny < 1 or nx < 1 or any(np.any(m < 0) for m in masses):
            raise ValueError("need a positive grid shape and non-negative axis masses")
        tx, ty = _toeplitz(masses[0], nx), _toeplitz(masses[1], ny)
        totals = np.multiply.outer(ty.sum(axis=1), tx.sum(axis=1))
        if np.any(totals <= 0):
            raise NumericError("mobility kernel truncation removed all destination mass")
        for name, value in zip(("mass_x", "mass_y", "tx", "ty", "totals"),
                               (*masses, tx, ty, totals)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "shape", (ny, nx))

    @property
    def stencil(self) -> np.ndarray:
        """The 2-D step kernel ``mass_y (x) mass_x``, (2ry + 1, 2rx + 1)."""
        return np.multiply.outer(self.mass_y, self.mass_x)

    def predict(self, mass: np.ndarray) -> np.ndarray:
        """Predictive mass ``sum_s P(s -> u) mass[s]`` for every cell u, (N,)."""
        spread = self.ty.T @ (mass.reshape(self.shape) / self.totals) @ self.tx
        return self.p_static * mass + (1.0 - self.p_static) * spread.ravel()


def _toeplitz(mass: np.ndarray, n: int) -> np.ndarray:
    """``(n, n)`` matrix of ``mass[r + j - i]`` at ``[i, j]`` within the reach r, else 0."""
    r = mass.size // 2
    off = np.arange(n)[None, :] - np.arange(n)[:, None]  # j - i
    return np.where(np.abs(off) <= r, mass[np.clip(off + r, 0, 2 * r)], 0.0)


def _axis_mass(n: int, h: float, sigma: float) -> np.ndarray:
    """1-D interval masses of a Gaussian step along an axis of n cells, (2r + 1,).

    Offsets beyond four sigmas are left out, so r is the reach in cells.
    """
    if sigma == 0.0:
        return np.ones(1)
    limit = 4.0 * sigma
    # one cell past floor(limit / h) absorbs its rounding; the mask decides
    r = int(min(limit / h + 1.0, n - 1))
    d = np.abs(np.arange(-r, r + 1) * h)
    d = d[d <= limit]
    half = h / 2.0
    # each interval mass from its lower tail, -|d|: on the upper side both
    # ndtr terms would sit near 1 and their difference lose its digits, so
    # mirrored offsets get exactly equal masses
    return ndtr((half - d) / sigma) - ndtr((-half - d) / sigma)


def transition_matrix(grid: Grid, p_static: float, step_sigma: float) -> GridTransition:
    """Cell-to-cell transition probabilities for two-mode user mobility.

    With probability ``p_static`` the user stays on its cell; otherwise it
    takes a zero-mean Gaussian step of ``step_sigma`` per axis, spread over
    cells by the probability mass falling in each destination cell (product
    of 1-D interval masses), truncated at four step standard deviations per
    axis (a square around the source, not a disk) and renormalized over the
    grid.  The kernel depends only on the cell offset and factorizes over
    the axes, so it is held as two 1-D masses of side ``2r + 1``, r the
    reach in cells along that axis (at most the grid's extent), and their
    Toeplitz matrices over the grid's axes: O(nx^2 + ny^2) memory, not N^2.

    Args:
        grid: the survey lattice.
        p_static: probability of dwelling in place, in [0, 1].
        step_sigma: per-axis standard deviation of a step, m, >= 0.

    Returns:
        GridTransition whose outgoing mass from every cell is 1 within 1e-12.
    """
    if not (0.0 <= p_static <= 1.0):
        raise ValueError("p_static must lie in [0, 1]")
    if not (step_sigma >= 0.0):
        raise ValueError("step_sigma must be >= 0")
    h = grid.spacing
    return GridTransition(mass_x=_axis_mass(grid.nx, h, step_sigma),
                          mass_y=_axis_mass(grid.ny, h, step_sigma),
                          p_static=p_static, shape=(grid.ny, grid.nx))


def _log_row(values, n: int, name: str) -> np.ndarray:
    """``values`` as a float (n,) row; ValueError unless it is one, all finite."""
    row = np.asarray(values, dtype=float)
    if row.shape != (n,):
        raise ValueError(f"{name} needs one value per grid point, got {row.shape} for {n}")
    if not np.all(np.isfinite(row)):
        raise ValueError(f"{name} values must be finite")
    return row


def grid_bayes_step(prev, trans: GridTransition, obs) -> np.ndarray:
    """One recursive Bayes update on the grid, in the log domain.

    ``L_t(u) = obs(u) + ln sum_u' P(u' -> u) exp(prev(u'))`` computed with
    the usual max-shift for stability, then renormalized so the maximum is 0.
    ``prev`` and ``obs`` are finite (N,) log-likelihood rows over the
    transition's grid; so is the result.
    """
    n = trans.shape[0] * trans.shape[1]
    prev = _log_row(prev, n, "prior")
    obs = _log_row(obs, n, "observation")
    shift = float(np.max(prev))
    mixed = trans.predict(np.exp(prev - shift))
    if np.any(mixed <= 0.0):
        raise NumericError("predictive mass vanished; the transition starves some cells")
    values = obs + np.log(mixed) + shift
    return values - np.max(values)


# ---------------------------------------------------------------------------
# particle filter
# ---------------------------------------------------------------------------

def _particles(positions, weights) -> tuple:
    """``positions`` as a float (P, 2) block and ``weights`` as its (P,) row, P >= 1."""
    pos = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] == 0:
        raise ValueError("positions must form a non-empty (P, 2) array")
    if w.shape != (pos.shape[0],):
        raise ValueError("need exactly one weight per particle")
    return pos, w


def particle_predict(positions, pdr_step, pdr_sigma: float, rng) -> np.ndarray:
    """Particle positions moved by a dead-reckoned step plus Gaussian jitter.

    The jitter, ``pdr_sigma`` per axis, is drawn from the generator ``rng``
    (none is drawn at ``pdr_sigma == 0``).
    """
    step = np.asarray(pdr_step, dtype=float)
    if step.shape != (2,):
        raise ValueError("pdr_step must be a (dx, dy) pair")
    if pdr_sigma < 0:
        raise ValueError("pdr_sigma must be non-negative")
    positions = np.asarray(positions, dtype=float)
    jitter = rng.normal(0.0, pdr_sigma, size=positions.shape) if pdr_sigma > 0 else 0.0
    return positions + step + jitter


def particle_update(positions, weights, grid: Grid, values) -> tuple:
    """Reweight particles by the observation likelihood and estimate the position.

    Each particle's likelihood is regressed from the grid: the
    inverse-distance-weighted average of the likelihoods at the 1, 2 or 4
    grid points around its position clamped into the grid (all weight on
    the first coincident grid point).  Weights are multiplied and
    renormalized, so they come out non-negative and summing to 1.

    Args:
        positions: (P, 2) particle positions, P >= 1.
        weights: (P,) non-negative particle weights.
        grid: the lattice the likelihoods sit on.
        values: the step's finite (N,) observation log-likelihoods over the
            grid, e.g. one row of the (T, N) block that
            :func:`fingerloc.matching.mle_rssi_rspd` returns for a walk.

    Returns:
        (weights, estimate, ess): the (P,) updated weights, the (2,) weighted
        mean position under them, and their effective sample size.
    """
    pos, prior = _particles(positions, weights)
    values = _log_row(values, len(grid), "observation")
    nx, ny, (x0, y0), h, xy = grid.nx, grid.ny, grid.origin, grid.spacing, grid.xy
    shift = float(np.max(values))
    dens = np.exp(values - shift)  # common shift cancels in normalization

    x = np.clip(pos[:, 0], x0, x0 + (nx - 1) * h)
    y = np.clip(pos[:, 1], y0, y0 + (ny - 1) * h)
    ix = np.minimum((x - x0) // h, max(nx - 2, 0)).astype(int)
    iy = np.minimum((y - y0) // h, max(ny - 2, 0)).astype(int)
    cols = ix[:, None] + np.arange(min(nx, 2))
    rows = iy[:, None] + np.arange(min(ny, 2))
    corners = (rows[:, :, None] * nx + cols[:, None, :]).reshape(len(pos), -1)  # (P, k)
    d = np.hypot(xy[corners, 0] - pos[:, :1], xy[corners, 1] - pos[:, 1:])
    exact = d <= 0.0
    hit = exact.any(axis=1)
    lik = np.empty(len(pos))
    lik[hit] = dens[corners[hit, np.argmax(exact[hit], axis=1)]]
    w = 1.0 / d[~hit]
    lik[~hit] = np.vecdot(w, dens[corners[~hit]]) / np.sum(w, axis=1)

    raw = prior * lik
    total = float(raw.sum())
    if total <= 0.0:
        raise DegenerateUpdateError(
            "all particles received zero likelihood", likelihoods=lik)
    weights = raw / total
    return weights, weights @ pos, float(1.0 / np.sum(weights ** 2))


def resample_systematic(positions, weights, rng) -> tuple:
    """Systematic resampling: one uniform offset, evenly spaced selection points.

    The offset is the one uniform drawn from the generator ``rng``.  The set
    keeps its size P and comes back with equal weights ``1 / P``.  Copy
    counts stay within one of ``P * weight`` for every particle, and equal
    weights reproduce the input positions unchanged.

    Returns:
        (positions, weights): the (P, 2) resampled positions and (P,) weights.
    """
    pos, w = _particles(positions, weights)
    size = len(pos)
    u0 = rng.random() / size
    points = u0 + np.arange(size) / size
    cum = np.cumsum(w)
    cum[-1] = max(cum[-1], 1.0)  # guard against roundoff shrinking the last bin
    idx = np.minimum(np.searchsorted(cum, points, side="right"), size - 1)
    return pos[idx], np.full(size, 1.0 / size)
