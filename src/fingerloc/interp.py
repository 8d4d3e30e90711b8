"""Cross-frequency, cross-bandwidth, and spatial projection of fingerprints.

These routines let a database trained at a few frequencies/bandwidths on a
coarse grid serve matching at other emitter parameters on a denser grid.
Fingerprints are plain arrays with the lag or element-pair axis last: a
complex array is a correlation fingerprint, a real one a phase difference.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .database import FingerprintDatabase
from .features import wrap_angle
from .geometry import Grid
from .simulate import SPEED_OF_LIGHT
from .stats import kriging_fit, kriging_predict

__all__ = [
    "UcaGeometry",
    "windowed_sinc_lowpass",
    "bandwidth_interp",
    "freq_interp_xcorr",
    "estimate_aoa",
    "phasediff_freq_interp",
    "spatial_densify",
    "normalize_power",
]

AOA_GRID_STEP_DEG = 0.5
LOWPASS_TAPS = 63


@dataclass(frozen=True)
class UcaGeometry:
    """Uniform circular array: element k sits at azimuth 2 pi k / n."""

    n_elements: int
    radius_m: float

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("a circular array needs at least two elements")
        if not (self.radius_m > 0):
            raise ValueError("radius must be positive")


def windowed_sinc_lowpass(cutoff_ratio: float, n_taps: int = LOWPASS_TAPS) -> np.ndarray:
    """Hamming-windowed sinc low-pass with unit DC gain.

    ``cutoff_ratio`` is the cutoff as a fraction of the Nyquist frequency.
    The ideal low-pass response ``c sinc(c m)``, m the tap offset from the
    filter's centre, tapered by a Hamming window (Harris 1978) and scaled
    so the taps sum to 1.
    """
    if not (0.0 < cutoff_ratio < 1.0):
        raise ValueError("cutoff ratio must lie in (0, 1)")
    m = np.arange(n_taps) - (n_taps - 1) / 2
    h = cutoff_ratio * np.sinc(cutoff_ratio * m) * np.hamming(n_taps)
    total = h.sum()
    if not total > 0.0:  # a subnormal cutoff: every tap underflows to 0
        raise ValueError(f"cutoff ratio {cutoff_ratio!r} is too small for {n_taps} taps")
    return h / total


def bandwidth_interp(values, train_bw_hz: float, target_bw_hz: float) -> np.ndarray:
    """Project correlation fingerprints to a narrower emitter bandwidth.

    Filters every lag-domain vector (the last axis of a block) with a 63-tap
    Hamming windowed-sinc low-pass of cutoff ``target_bw / train_bw``
    (fraction of Nyquist on the critically sampled lag axis).  The lag
    support is preserved; equal bandwidths return the input untouched.
    """
    x = np.asarray(values)
    if not np.iscomplexobj(x) or x.ndim == 0:
        raise ValueError("bandwidth projection applies to complex correlation fingerprints")
    if not (train_bw_hz > 0 and target_bw_hz > 0):
        raise ValueError("bandwidths must be positive")
    if target_bw_hz > train_bw_hz:
        raise ValueError("cannot widen a fingerprint beyond its training bandwidth")
    if target_bw_hz == train_bw_hz:
        return x
    taps = windowed_sinc_lowpass(target_bw_hz / train_bw_hz)
    # Zero-phase center slice of the direct convolution of each row, one
    # shifted slice of the whole block per tap: output k sums
    # taps[i] * x[k + center - i] over the taps that land inside the row, in
    # ascending x order (a "same" mode would grow rows shorter than the taps).
    d = x.shape[-1]
    center = (len(taps) - 1) // 2
    out = np.zeros(x.shape, dtype=np.result_type(x, taps))
    for i in range(len(taps) - 1, -1, -1):
        tap, shift = taps[i], center - i
        lo, hi = max(0, -shift), min(d, d - shift)
        if lo < hi:
            out[..., lo:hi] += tap * x[..., lo + shift:hi + shift]
    return out


def freq_interp_xcorr(train_freqs_hz, train_fps, target_freq_hz: float) -> tuple:
    """Predict correlation fingerprints at an untrained frequency.

    Magnitudes follow a straight line in dB over log10 frequency, fitted per
    delay bin (and per grid point of a block) as one least-squares solve
    with a right-hand side per bin; phases are copied from the nearest
    training frequency.  Bins whose training magnitude is not positive
    cannot enter the regression: they are flagged and filled, within their
    row, with the geometric mean of the nearest live bins' predictions on
    each side (one side's value at an edge, 0 in an all-dead row).

    Args:
        train_freqs_hz: training frequencies, at least two distinct.
        train_fps: one complex vector or block per frequency, all of one
            shape (a list, or an array with the frequency as leading axis).
        target_freq_hz: frequency to predict at.

    Returns:
        (fingerprint, flags): the prediction with the training values'
        shape, and the boolean array of filled bins of the same shape.
    """
    freqs = np.asarray(train_freqs_hz, dtype=float)
    fps = [np.asarray(fp) for fp in train_fps]
    if (freqs.ndim != 1 or len(fps) != freqs.size or freqs.size < 2
            or not freqs.min() < freqs.max()):
        raise ValueError("need one fingerprint per training frequency, "
                         "at least two distinct")
    if np.any(freqs <= 0) or not (target_freq_hz > 0):
        raise ValueError("frequencies must be positive")
    if any(fp.shape != fps[0].shape or fp.ndim == 0 for fp in fps):
        raise ValueError("training fingerprints must share one shape")
    if not all(np.iscomplexobj(fp) for fp in fps):
        raise ValueError("frequency projection applies to complex correlation fingerprints")

    mags = np.abs(np.array(fps))  # (freqs, ..., dim)
    nearest = int(np.argmin(np.abs(freqs - target_freq_hz)))
    live = np.all(mags > 0.0, axis=0)
    with np.errstate(divide="ignore"):
        db = np.where(live, 10.0 * np.log10(mags), 0.0)
    design = np.column_stack([np.log10(freqs), np.ones_like(freqs)])
    coef, *_ = np.linalg.lstsq(design, db.reshape(freqs.size, -1), rcond=None)
    pred_db = coef[0] * np.log10(target_freq_hz) + coef[1]
    pred = 10.0 ** (pred_db.reshape(live.shape) / 10.0)

    dim = live.shape[-1]
    pos = np.arange(dim)
    left = np.maximum.accumulate(np.where(live, pos, -1), axis=-1)
    right = np.flip(np.minimum.accumulate(np.flip(np.where(live, pos, dim), -1), axis=-1), -1)
    from_left = np.take_along_axis(pred, np.maximum(left, 0), axis=-1)
    from_right = np.take_along_axis(pred, np.minimum(right, dim - 1), axis=-1)
    has_left, has_right = left >= 0, right < dim
    fill = np.where(has_left & has_right, np.sqrt(from_left * from_right),
                    np.where(has_left, from_left, np.where(has_right, from_right, 0.0)))
    pred = np.where(live, pred, fill)

    return pred * np.exp(1j * np.angle(fps[nearest])), ~live


def _element_phases(geom: UcaGeometry, freq_hz: float, aoa_rad) -> np.ndarray:
    """Phase ``(2 pi f r / c) * cos(aoa - 2 pi k / n)`` of element k, on a last axis."""
    k = np.arange(geom.n_elements)
    gain = 2.0 * math.pi * freq_hz * geom.radius_m / SPEED_OF_LIGHT
    return gain * np.cos(np.asarray(aoa_rad)[..., None] - 2.0 * math.pi * k / geom.n_elements)


def _steering_pair_diffs(geom: UcaGeometry, freq_hz: float, aoa_grid: np.ndarray,
                         pairs) -> np.ndarray:
    phases = _element_phases(geom, freq_hz, aoa_grid)
    cols_i = [p[0] for p in pairs]
    cols_j = [p[1] for p in pairs]
    return phases[:, cols_i] - phases[:, cols_j]  # (n_angles, n_pairs)


def estimate_aoa(values, pairs, geom: UcaGeometry, freq_hz: float) -> tuple:
    """Dominant-path azimuth from inter-element phase differences.

    Scans a 0.5-degree azimuth grid and maximizes the circular correlation
    between measured and predicted pair phases (lowest angle on ties), for
    every vector of a block at once.  The confidence is the resultant length
    of the per-pair agreement phasors at the best angle: 1 for a perfect
    planar fit, near 0 for a flat fit.

    Args:
        values: real (N, pairs) phase differences, one vector per grid point.
        pairs: the (i, j) element pair of each column.

    Returns:
        (aoa_rad, confidence): (N,) arrays, one value per vector.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or len(pairs) != values.shape[-1]:
        raise ValueError(f"need one element pair per phase difference, got {len(pairs)} "
                         f"pairs for shape {values.shape}")
    if not (freq_hz > 0):
        raise ValueError("frequency must be positive")
    grid = np.deg2rad(np.arange(0.0, 360.0, AOA_GRID_STEP_DEG))
    pred = _steering_pair_diffs(geom, freq_hz, grid, pairs)
    # each angle's score is the real part of its agreement phasors' sum, and
    # cos(x) is Re exp(ix) bit for bit; only the best angle's phasors are formed
    best = np.argmax(np.cos(values[:, None, :] - pred).sum(axis=-1), axis=-1)
    # the scan sums each angle's pairs in pair order (pred's pair axis is its
    # outer one); cumsum adds the best angle's phasors in that order too
    total = np.cumsum(np.exp(1j * (values - pred[best])), axis=-1)[:, -1]
    return grid[best], np.abs(total / values.shape[-1])


def phasediff_freq_interp(values, pairs, geom: UcaGeometry,
                          train_freq_hz: float, target_freq_hz: float) -> tuple:
    """Re-project phase differences to another frequency via the dominant path.

    Fits the dominant arrival azimuth of every vector of the (N, pairs)
    block ``values`` at the training frequency (see :func:`estimate_aoa`),
    then emits the ideal steering pair phases at the target frequency for
    that azimuth.

    Returns:
        (phases, aoa_rad, confidence): the (N, pairs) projected phase
        differences and (N,) arrays; the confidence is the phasor-fit
        resultant length used downstream to weight spatial interpolation.
    """
    if not (train_freq_hz > 0 and target_freq_hz > 0):
        raise ValueError("frequencies must be positive")
    aoa, confidence = estimate_aoa(values, pairs, geom, train_freq_hz)
    return wrap_angle(_steering_pair_diffs(geom, target_freq_hz, aoa, pairs)), aoa, confidence


def _nearest_training(train_xy: np.ndarray, query_xy: np.ndarray) -> np.ndarray:
    """Per query, the index of the closest training point (lowest on ties)."""
    d2 = np.sum((train_xy[None, :, :] - query_xy[:, None, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=1)


def _densify_correlation(stacks, train: Grid, target: Grid):
    """Krige every key's dB magnitudes (floored per key) in one lattice solve."""
    if not stacks:
        return []
    db = []
    for stack in stacks:
        mags = np.abs(stack)
        floor = 1e-12 * float(np.max(mags)) if np.max(mags) > 0 else 1e-300
        db.append(10.0 * np.log10(np.maximum(mags, floor)))
    mean = kriging_predict(kriging_fit(train, np.concatenate(db, axis=1)), target)
    out_mags = np.split(10.0 ** (mean / 10.0), np.cumsum([s.shape[1] for s in stacks])[:-1],
                        axis=1)
    nearest = _nearest_training(train.xy, target.xy)
    return [m * np.exp(1j * np.angle(stack[nearest])) for m, stack in zip(out_mags, stacks)]


def _densify_phasediff(stack, train_xy, query_xy, confidences):
    n_train = stack.shape[0]
    phasors = np.exp(1j * stack)
    conf = np.asarray(confidences, dtype=float)
    if conf.shape != (n_train,):
        raise ValueError("need one confidence per training point")
    d = np.hypot(train_xy[None, :, 0] - query_xy[:, None, 0],
                 train_xy[None, :, 1] - query_xy[:, None, 1])  # (queries, train)
    nearest = np.argsort(d, axis=1)[:, :min(4, n_train)]
    dn = np.take_along_axis(d, nearest, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = conf[nearest] / dn
        # all-zero confidences: fall back to distance alone
        w = np.where(np.sum(w, axis=1, keepdims=True) <= 0.0, 1.0 / dn, w)
        mix = (w[:, :, None] * phasors[nearest]).sum(axis=1)
        # a query on a training point copies its vector
        return np.where(dn[:, :1] <= 0.0, stack[nearest[:, 0]], np.angle(mix))


def spatial_densify(db: FingerprintDatabase, factor: int,
                    confidences: dict) -> FingerprintDatabase:
    """Interpolate a fingerprint database onto an integer refinement of its grid.

    The target lattice shares the survey's origin and far edges, with
    ``factor`` times the points per unit length: ``(nx - 1) * factor + 1``
    columns and ``(ny - 1) * factor + 1`` rows at ``spacing / factor``.
    Every block is an array with the grid as its leading axis, and its dtype
    says what it holds.  A complex block is a correlation fingerprint,
    interpolated per delay bin by kriging on dB magnitudes, every bin of
    every complex block in one lattice solve (phases copied from the
    nearest training point).  A real block is a phase difference,
    interpolated as unit phasors averaged over the 4 nearest training
    points, weighted by inverse distance times the per-training-point
    confidence.

    Args:
        db: training database whose blocks are all arrays.
        factor: positive integer refinement of the survey spacing (1 keeps
            the survey lattice).
        confidences: ``{key: (n_train,) array}`` of phasor-fit confidences,
            one entry for every phase-difference key.

    Returns:
        A new database on the refined lattice.
    """
    if len(db.blocks) == 0:
        raise ValueError("database holds no fingerprints")
    if not (isinstance(factor, numbers.Integral) and not isinstance(factor, bool)
            and factor >= 1):
        raise ValueError(f"densify factor must be a positive integer, got {factor!r}")
    train = db.grid
    target = Grid(train.origin, (train.nx - 1) * factor + 1, (train.ny - 1) * factor + 1,
                  train.spacing / factor)

    # every block as (points, values): one column per delay bin or element pair
    fps = {key: db.block(key, np.ndarray) for key in sorted(db.blocks)}
    flat = {key: fp.reshape(len(fp), -1) for key, fp in fps.items()}
    corr = [key for key, fp in fps.items() if np.iscomplexobj(fp)]
    values = dict(zip(corr, _densify_correlation([flat[key] for key in corr], train, target)))
    blocks = {}
    for key, fp in fps.items():
        if key not in values:
            values[key] = _densify_phasediff(flat[key], train.xy, target.xy,
                                             confidences.get(key))
        blocks[key] = values[key].reshape((len(target),) + fp.shape[1:])

    return FingerprintDatabase(grid=target, blocks=blocks)


def normalize_power(stack) -> np.ndarray:
    """Scale correlation fingerprints by the largest per-sensor power.

    The power of each vector is the magnitude of its center (zero-lag) entry.
    ``stack`` is complex (..., keys, d), one set of ``keys`` fingerprints per
    leading index (a measurement or a grid point); every vector of a set is
    divided by the set's largest power, so an unknown transmit power cancels
    out of the whole fingerprint set.
    """
    stack = np.asarray(stack)
    if not np.iscomplexobj(stack) or stack.ndim < 2 or 0 in stack.shape[-2:]:
        raise ValueError(f"need a complex (..., keys, d) stack of correlation fingerprints, "
                         f"got {stack.dtype} {stack.shape}")
    d = stack.shape[-1]
    if d % 2 == 0:
        raise ValueError("correlation fingerprints must have an odd lag count")
    scale = np.max(np.abs(stack[..., d // 2]), axis=-1)
    if np.any(scale <= 0.0):
        raise ValueError("all fingerprints have zero power at lag 0")
    return stack / scale[..., None, None]
