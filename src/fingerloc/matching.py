"""Snapshot position estimation: likelihood maps and block matchers."""

import numpy as np

from .features import wrap_angle
from .stats import (
    _CROSS_CHUNK,
    GammaParams,
    VonMisesParams,
    gamma_logpdf,
    vonmises_logpdf,
)

__all__ = [
    "mle_rssi_rspd",
    "binary_likelihood",
    "threshold_set",
    "fingerprint_sqerr",
]


def mle_rssi_rspd(features: dict, db) -> tuple:
    """Maximum-likelihood matching of power/phase features, every snapshot at once.

    Args:
        features: ``{key: value}`` with RSSI features as positive linear
            powers and phase features in radians; every value is a scalar or
            an array of one common shape, e.g. (T,) for T snapshots.  The
            block type stored at each key (Gamma vs von Mises) selects the
            density.
        db: FingerprintDatabase with one fitted model block per key.

    Returns:
        (values, index): the (..., N) log-likelihoods over the grid, summed
        over the keys in the dict's order, and their (...) argmax (lowest
        index on ties).
    """
    if not features:
        raise ValueError("at least one target feature is required")
    shapes = {np.shape(value) for value in features.values()}
    if len(shapes) != 1:
        raise ValueError(f"features must share one shape, got {sorted(shapes)}")
    values = np.zeros(shapes.pop() + (len(db.grid),))
    for key, value in features.items():
        model = db.block(key, (GammaParams, VonMisesParams))
        x = np.asarray(value, dtype=float)[..., None]
        if isinstance(model, GammaParams):
            if np.any(x <= 0):
                raise ValueError(f"feature {key!r} must be positive for a power model")
            values += gamma_logpdf(x, model)
        else:
            values += vonmises_logpdf(x, model)
    if not np.all(np.isfinite(values)):
        raise ValueError("likelihood map values must be finite")
    return values, np.argmax(values, axis=-1)


def binary_likelihood(bits, probs) -> np.ndarray:
    """Log-likelihood of detection bits under per-sensor detection maps.

    Args:
        bits: (..., S) 0/1 detection bits, one column per sensor, e.g. one
            row per step.
        probs: (S, N) detection probability of every sensor at every grid
            point, each strictly inside (0, 1).

    Returns:
        (..., N): ``sum_m b_m ln p_m + (1 - b_m) ln(1 - p_m)`` per cell,
        summed over the sensors in order.
    """
    probs = np.asarray(probs, dtype=float)
    bits = np.asarray(bits)
    if bits.ndim == 0 or not np.all((bits == 0) | (bits == 1)):
        raise ValueError(f"need 0/1 detection bits, one column per sensor, got {bits!r}")
    if probs.ndim != 2 or probs.shape[0] != bits.shape[-1]:
        raise ValueError(f"got {bits.shape[-1]} bits per row but detection maps "
                         f"of shape {probs.shape}, not (sensors, grid points)")
    if not np.all((probs > 0.0) & (probs < 1.0)):
        raise ValueError("detection probabilities must lie strictly inside (0, 1)")
    values = np.zeros(bits.shape[:-1] + probs.shape[1:])
    for s, p in enumerate(probs):
        fired = bits[..., s, None] == 1
        # in place, each cell once: no (..., N) temporary per sensor
        np.add(values, np.log(p), out=values, where=fired)
        np.add(values, np.log1p(-p), out=values, where=~fired)
    return values


def threshold_set(values, eta: float) -> np.ndarray:
    """(N,) mask of the grid points whose value in the (N,) row exceeds ``eta``.

    The row's argmax is always set, so the mask is never empty: it is the
    single best point when nothing clears the threshold.
    """
    values = np.asarray(values)
    mask = values > eta
    mask[np.argmax(values)] = True
    return mask


def fingerprint_sqerr(targets, reference, *, wrap: bool = False) -> np.ndarray:
    """Squared error of real fingerprints against every row of a block.

    Args:
        targets: real (..., d) fingerprints, e.g. one per trial.
        reference: real (N, d) block, one vector per grid point.
        wrap: the entries are angles, compared by wrapped differences.

    Returns:
        (..., N): the summed squared error of every target against every row,
        taken over chunks of targets so no temporary grows with targets*N*d.
    """
    a = np.asarray(targets)
    b = np.asarray(reference)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise ValueError("squared errors compare real fingerprints; take magnitudes first")
    if b.ndim != 2 or a.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: targets {a.shape} vs reference {b.shape}")
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty((len(rows), len(b)), float if wrap else np.result_type(a, b))
    step = max(1, _CROSS_CHUNK // max(1, b.size))
    for lo in range(0, len(rows), step):
        delta = rows[lo:lo + step, None, :] - b
        if wrap:
            delta = wrap_angle(delta)
        np.sum(np.square(delta, out=delta), axis=-1, out=out[lo:lo + step])
    return out.reshape(a.shape[:-1] + (len(b),))
