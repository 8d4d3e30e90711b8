"""Fingerprint extraction from impulse responses and raw sample buffers.

A fingerprint is a plain array: complex for a correlation, real for powers
and phases, with the measurement or grid point on its leading axes.
"""

import math

import numpy as np

__all__ = [
    "xcorr",
    "xcorr_rows",
    "mean_power",
    "relative_phase",
    "wrap_angle",
]

_TWO_PI = 2.0 * math.pi


def xcorr(a, b, max_lag: int) -> np.ndarray:
    """Cross-correlation on a symmetric lag window.

    The entry at lag tau is ``sum_t a(t) * conj(b(t - tau))``, with both
    sequences zero-padded outside their support.  Output is ordered by
    ascending lag, ``out[i]`` holding lag ``i - max_lag``; so if ``b`` is a
    copy of ``a`` delayed by k samples the peak appears at lag ``-k``.

    Args:
        a: first sequence (complex or real, non-empty).
        b: second sequence (conjugated side).
        max_lag: half-width of the lag window,
            ``0 <= max_lag <= max(len(a), len(b)) - 1``.

    Returns:
        Complex array of length ``2 * max_lag + 1``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size == 0 or b.size == 0:
        raise ValueError("cross-correlation inputs must be non-empty")
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("cross-correlation inputs must be 1-D")
    if not (0 <= max_lag <= max(a.size, b.size) - 1):
        raise ValueError(
            f"max_lag must lie in [0, {max(a.size, b.size) - 1}], got {max_lag}"
        )
    # full linear correlation covers lags -(len(b)-1) .. len(a)-1
    full = np.correlate(a, b, mode="full")
    out = np.zeros(2 * max_lag + 1, dtype=complex)
    lo = max(-max_lag, -(b.size - 1))
    hi = min(max_lag, a.size - 1)
    if lo <= hi:
        out[lo + max_lag: hi + max_lag + 1] = full[lo + b.size - 1: hi + b.size]
    return out


def xcorr_rows(a, b, max_lag: int) -> np.ndarray:
    """:func:`xcorr` of every row pair of two equal-shape (..., n) blocks.

    Each lag is one ``np.vecdot`` over all rows.  It sums a row's products
    in the order of the dot product behind ``np.correlate``, so a block
    gives the same bits as one :func:`xcorr` call per row, but computes
    only the ``2 * max_lag + 1`` lags asked for.

    Returns:
        Complex (..., 2 * max_lag + 1).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim == 0 or a.shape[-1] == 0:
        raise ValueError(f"row blocks must have equal non-empty shapes, got "
                         f"{a.shape} and {b.shape}")
    n = a.shape[-1]
    if not (0 <= max_lag <= n - 1):
        raise ValueError(f"max_lag must lie in [0, {n - 1}], got {max_lag}")
    out = np.empty(a.shape[:-1] + (2 * max_lag + 1,), dtype=complex)
    # lag tau sums a(t) conj(b(t - tau)); np.vecdot conjugates its first argument
    for tau in range(-max_lag, max_lag + 1):
        if tau >= 0:
            out[..., tau + max_lag] = np.vecdot(b[..., :n - tau], a[..., tau:])
        else:
            out[..., tau + max_lag] = np.vecdot(b[..., -tau:], a[..., :n + tau])
    return out


def mean_power(y) -> np.ndarray:
    """Received power of a sample block, row by row: the mean squared
    magnitude of each (n,) row of ``y (..., n)``, of shape (...)."""
    arr = np.asarray(y, dtype=complex)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"sample block must have non-empty rows, got shape {arr.shape}")
    return np.mean(np.abs(arr) ** 2, axis=-1)


def relative_phase(y_i, y_j) -> np.ndarray:
    """Relative phase of two sample blocks, row by row.

    Args:
        y_i, y_j: equal-shape (..., n) blocks of synchronized samples.

    Returns:
        (...): the argument of the averaged sample cross-product
        ``mean(y_i * conj(y_j))`` in (-pi, pi], equal bit for bit to that
        formula on each 1-D row.  The block product is
        ``np.multiply(y_i, np.conj(y_j))``: written ``y_i * np.conj(y_j)``
        on a block of 256 KB or more, numpy reuses the conjugate as the
        output and multiplies with the operands swapped, and the complex
        product's imaginary part rounds differently in the last bit then.
    """
    yi = np.asarray(y_i, dtype=complex)
    yj = np.asarray(y_j, dtype=complex)
    if yi.shape != yj.shape or yi.ndim == 0 or yi.shape[-1] == 0:
        raise ValueError(f"sample blocks must have equal non-empty shapes, got "
                         f"{yi.shape} and {yj.shape}")
    return np.angle(np.mean(np.multiply(yi, np.conj(yj)), axis=-1))


def wrap_angle(theta) -> np.ndarray:
    """Wrap angles to (-pi, pi], as an array of the input's shape."""
    wrapped = np.mod(np.asarray(theta, dtype=float) + math.pi, _TWO_PI) - math.pi
    # mod maps exact odd multiples of pi to -pi; the convention here is (-pi, pi]
    return np.where(wrapped == -math.pi, math.pi, wrapped)
