"""Snapshot position estimation: likelihood maps, matchers, and hybrid combining."""

import math
from dataclasses import dataclass

import numpy as np

from .features import wrap_angle
from .geometry import Grid
from .stats import (
    GammaParams,
    VonMisesParams,
    gamma_logpdf,
    vonmises_logpdf,
)

__all__ = [
    "LikelihoodMap",
    "HybridConfig",
    "mle_rssi_rspd",
    "binary_likelihood",
    "threshold_set",
    "hybrid_match",
    "fingerprint_sqerr",
]

MODE_LOG_LIKELIHOOD = "log_likelihood"
MODE_SQUARED_ERROR = "squared_error"


@dataclass(frozen=True)
class LikelihoodMap:
    """One value per grid point, either a log-likelihood or a squared error."""

    grid: Grid
    values: np.ndarray
    mode: str = MODE_LOG_LIKELIHOOD

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.grid),):
            raise ValueError(
                f"need one value per grid point, got {values.shape} for {len(self.grid)}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("likelihood map values must be finite")
        if self.mode not in (MODE_LOG_LIKELIHOOD, MODE_SQUARED_ERROR):
            raise ValueError(f"unknown map mode {self.mode!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def argbest(self) -> int:
        """Index of the best grid point: argmax for log-likelihoods, argmin for errors."""
        if self.mode == MODE_LOG_LIKELIHOOD:
            return int(np.argmax(self.values))
        return int(np.argmin(self.values))


@dataclass(frozen=True)
class HybridConfig:
    """Weight for combining correlation and phase error maps."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")


def mle_rssi_rspd(target_features, db) -> tuple:
    """Maximum-likelihood matching of power/phase features.

    Args:
        target_features: iterable of ``(key, value)`` with RSSI features as
            positive linear powers and phase features in radians; the block
            type stored at each key (Gamma vs von Mises) selects the density.
        db: FingerprintDatabase with one fitted model block per key.

    Returns:
        (map, index): the summed log-likelihood map over the grid and its
        argmax (lowest index on ties).
    """
    feats = list(target_features)
    if len(feats) == 0:
        raise ValueError("at least one target feature is required")
    values = np.zeros(len(db.grid), dtype=float)
    for key, value in feats:
        model = db.block(key, (GammaParams, VonMisesParams))
        if isinstance(model, GammaParams):
            if value <= 0:
                raise ValueError(f"feature {key!r} must be positive for a power model")
            values += gamma_logpdf(float(value), model)
        else:
            values += vonmises_logpdf(float(value), model)
    lmap = LikelihoodMap(grid=db.grid, values=values, mode=MODE_LOG_LIKELIHOOD)
    return lmap, int(np.argmax(values))


def binary_likelihood(bits, maps) -> LikelihoodMap:
    """Log-likelihood of a detection bit vector under per-sensor detection maps.

    Args:
        bits: one 0/1 detection bit per sensor.
        maps: one DetectionMap per sensor, all on the same grid.

    Returns:
        LikelihoodMap with ``sum_m b ln p_m + (1-b) ln(1-p_m)`` per cell.
    """
    maps = list(maps)
    bits = np.asarray(bits)
    if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
        raise ValueError(f"need a vector of 0/1 detection bits, got {bits!r}")
    if len(maps) != bits.size:
        raise ValueError(f"got {bits.size} bits but {len(maps)} detection maps")
    grid = maps[0].grid
    values = np.zeros(len(grid), dtype=float)
    for bit, dmap in zip(bits, maps):
        if dmap.grid != grid:
            raise ValueError("all detection maps must share one grid")
        if bit:
            values += np.log(dmap.probs)
        else:
            values += np.log1p(-dmap.probs)
    return LikelihoodMap(grid=grid, values=values, mode=MODE_LOG_LIKELIHOOD)


def threshold_set(lmap: LikelihoodMap, eta: float) -> np.ndarray:
    """Grid indices whose value exceeds ``eta``; never empty.

    Falls back to the single best index when nothing clears the threshold,
    so the result always contains the argmax.
    """
    idx = np.nonzero(lmap.values > eta)[0]
    if idx.size == 0:
        return np.array([int(np.argmax(lmap.values))], dtype=int)
    return idx.astype(int)


def hybrid_match(err_xcorr: LikelihoodMap, err_phase: LikelihoodMap,
                 cfg: HybridConfig) -> tuple:
    """Combine correlation and phase squared-error maps.

    Returns:
        (index, map): argmin of ``err_xcorr + gamma * err_phase`` (lowest
        index on ties) and the combined squared-error map.
    """
    if err_xcorr.grid != err_phase.grid:
        raise ValueError("error maps must share one grid")
    if err_xcorr.mode != MODE_SQUARED_ERROR or err_phase.mode != MODE_SQUARED_ERROR:
        raise ValueError("hybrid matching combines squared-error maps")
    combined = err_xcorr.values + cfg.gamma * err_phase.values
    lmap = LikelihoodMap(grid=err_xcorr.grid, values=combined, mode=MODE_SQUARED_ERROR)
    return int(np.argmin(combined)), lmap


def fingerprint_sqerr(targets, reference, *, wrap: bool = False) -> np.ndarray:
    """Squared error of real fingerprints against every row of a block.

    Args:
        targets: real (..., d) fingerprints, e.g. one per trial.
        reference: real (N, d) block, one vector per grid point.
        wrap: the entries are angles, compared by wrapped differences.

    Returns:
        (..., N): the summed squared error of every target against every row.
    """
    a = np.asarray(targets)
    b = np.asarray(reference)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise ValueError("squared errors compare real fingerprints; take magnitudes first")
    if b.ndim != 2 or a.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: targets {a.shape} vs reference {b.shape}")
    delta = a[..., None, :] - b
    if wrap:
        delta = wrap_angle(delta)
    return np.sum(np.abs(delta) ** 2, axis=-1)
