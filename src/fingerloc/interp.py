"""Cross-frequency, cross-bandwidth, and spatial projection of fingerprints.

These routines let a database trained at a few frequencies/bandwidths on a
coarse grid serve matching at other emitter parameters on a denser grid.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.signal

from .database import FingerprintDatabase
from .geometry import Grid
from .signals import (
    CORRELATION_KINDS,
    FingerprintKind,
    FingerprintMeta,
    FingerprintVector,
    wrap_angle,
)
from .simulate import SPEED_OF_LIGHT
from .stats import KrigingKernel, fit_loglinear, kriging_fit, kriging_predict

__all__ = [
    "UcaGeometry",
    "PhasorFit",
    "PhasediffProjection",
    "windowed_sinc_lowpass",
    "bandwidth_interp",
    "freq_interp_xcorr",
    "uca_steering",
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


class PhasorFit(NamedTuple):
    aoa_rad: float
    confidence: float


class PhasediffProjection(NamedTuple):
    vector: FingerprintVector
    aoa_rad: float
    confidence: float


def windowed_sinc_lowpass(cutoff_ratio: float, n_taps: int = LOWPASS_TAPS) -> np.ndarray:
    """Hamming-windowed sinc low-pass with unit DC gain.

    ``cutoff_ratio`` is the cutoff as a fraction of the Nyquist frequency.
    """
    if not (0.0 < cutoff_ratio < 1.0):
        raise ValueError("cutoff ratio must lie in (0, 1)")
    return scipy.signal.firwin(n_taps, cutoff_ratio)


def bandwidth_interp(fp: FingerprintVector, train_bw_hz: float,
                     target_bw_hz: float) -> FingerprintVector:
    """Project a correlation fingerprint to a narrower emitter bandwidth.

    Filters the lag-domain vector with a 63-tap Hamming windowed-sinc
    low-pass of cutoff ``target_bw / train_bw`` (fraction of Nyquist on the
    critically sampled lag axis).  The lag support is preserved; equal
    bandwidths return the input untouched.
    """
    if fp.kind not in CORRELATION_KINDS:
        raise ValueError("bandwidth projection applies to correlation fingerprints")
    if not (train_bw_hz > 0 and target_bw_hz > 0):
        raise ValueError("bandwidths must be positive")
    if target_bw_hz > train_bw_hz:
        raise ValueError("cannot widen a fingerprint beyond its training bandwidth")
    if target_bw_hz == train_bw_hz:
        return fp
    taps = windowed_sinc_lowpass(target_bw_hz / train_bw_hz)
    # Zero-phase center slice of the full convolution; np.convolve's "same"
    # mode would return max(len, taps) and grow short fingerprints.
    full = np.convolve(fp.values, taps)
    start = (len(taps) - 1) // 2
    values = full[start:start + len(fp.values)]
    meta = FingerprintMeta(sensor=fp.meta.sensor, pair=fp.meta.pair, pairs=fp.meta.pairs,
                           freq_hz=fp.meta.freq_hz, bandwidth_hz=float(target_bw_hz))
    return FingerprintVector(kind=fp.kind, values=values, meta=meta)


def freq_interp_xcorr(train_freqs_hz, train_fps, target_freq_hz: float,
                      return_flags: bool = False):
    """Predict a correlation fingerprint at an untrained frequency.

    Magnitudes follow a per-delay-bin straight line in dB over log10
    frequency; phases are copied from the nearest training frequency.  Bins
    whose training magnitude is not positive cannot enter the regression:
    they are flagged and filled with the geometric mean of the neighboring
    bins' predictions.

    Args:
        train_freqs_hz: training frequencies, at least two distinct.
        train_fps: one FingerprintVector per frequency, equal kind/dim.
        target_freq_hz: frequency to predict at.
        return_flags: also return the boolean array of filled bins.

    Returns:
        The predicted FingerprintVector (and the flag array if requested).
    """
    freqs = np.asarray(train_freqs_hz, dtype=float)
    fps = list(train_fps)
    if freqs.ndim != 1 or len(fps) != freqs.size or freqs.size < 2:
        raise ValueError("need one fingerprint per training frequency, at least two")
    kind = fps[0].kind
    dim = fps[0].dim
    if kind not in CORRELATION_KINDS:
        raise ValueError("frequency projection applies to correlation fingerprints")
    for fp in fps:
        if fp.kind is not kind or fp.dim != dim:
            raise ValueError("training fingerprints must share kind and dimension")
    if not (target_freq_hz > 0):
        raise ValueError("target frequency must be positive")

    mags = np.abs(np.array([fp.values for fp in fps]))  # (n_freqs, dim)
    nearest = int(np.argmin(np.abs(freqs - target_freq_hz)))
    phases = np.angle(fps[nearest].values)

    pred = np.zeros(dim, dtype=float)
    flags = np.zeros(dim, dtype=bool)
    for j in range(dim):
        col = mags[:, j]
        if np.all(col > 0.0):
            model = fit_loglinear(freqs, 10.0 * np.log10(col))
            pred[j] = 10.0 ** (model.predict_db(target_freq_hz) / 10.0)
        else:
            flags[j] = True
    for j in np.nonzero(flags)[0]:
        left = next((pred[i] for i in range(j - 1, -1, -1) if not flags[i]), None)
        right = next((pred[i] for i in range(j + 1, dim) if not flags[i]), None)
        if left is not None and right is not None:
            pred[j] = math.sqrt(left * right)
        elif left is not None:
            pred[j] = left
        elif right is not None:
            pred[j] = right
        else:
            pred[j] = 0.0

    values = pred * np.exp(1j * phases)
    base = fps[nearest].meta
    meta = FingerprintMeta(sensor=base.sensor, pair=base.pair, pairs=base.pairs,
                           freq_hz=float(target_freq_hz), bandwidth_hz=base.bandwidth_hz)
    out = FingerprintVector(kind=kind, values=values, meta=meta)
    return (out, flags) if return_flags else out


def uca_steering(geom: UcaGeometry, freq_hz: float, aoa_rad: float) -> np.ndarray:
    """Unit-magnitude array response of a circular array to a planar wavefront.

    Element k (at azimuth 2 pi k / n) sees phase
    ``(2 pi f r / c) * cos(aoa - 2 pi k / n)``.
    """
    if not (freq_hz > 0):
        raise ValueError("frequency must be positive")
    k = np.arange(geom.n_elements)
    gain = 2.0 * math.pi * freq_hz * geom.radius_m / SPEED_OF_LIGHT
    phases = gain * np.cos(aoa_rad - 2.0 * math.pi * k / geom.n_elements)
    return np.exp(1j * phases)


def _steering_pair_diffs(geom: UcaGeometry, freq_hz: float, aoa_grid: np.ndarray,
                         pairs) -> np.ndarray:
    k = np.arange(geom.n_elements)
    gain = 2.0 * math.pi * freq_hz * geom.radius_m / SPEED_OF_LIGHT
    phases = gain * np.cos(aoa_grid[:, None] - 2.0 * math.pi * k / geom.n_elements)
    cols_i = [p[0] for p in pairs]
    cols_j = [p[1] for p in pairs]
    return phases[:, cols_i] - phases[:, cols_j]  # (n_angles, n_pairs)


def estimate_aoa(fp: FingerprintVector, geom: UcaGeometry, freq_hz: float) -> PhasorFit:
    """Dominant-path azimuth from inter-element phase differences.

    Scans a 0.5-degree azimuth grid and maximizes the circular correlation
    between measured and predicted pair phases (lowest angle on ties).  The
    confidence is the resultant length of the per-pair agreement phasors at
    the best angle: 1 for a perfect planar fit, near 0 for a flat fit.
    """
    if fp.kind is not FingerprintKind.PHASE_DIFF:
        raise ValueError("azimuth estimation needs a phase-difference fingerprint")
    if fp.meta.pairs is None or len(fp.meta.pairs) != fp.dim:
        raise ValueError("fingerprint must carry one element pair per entry in meta.pairs")
    grid = np.deg2rad(np.arange(0.0, 360.0, AOA_GRID_STEP_DEG))
    pred = _steering_pair_diffs(geom, freq_hz, grid, fp.meta.pairs)
    agree = np.exp(1j * (fp.values[None, :] - pred))
    resultant = np.abs(agree.mean(axis=1))
    score = np.real(agree.sum(axis=1))
    best = int(np.argmax(score))
    return PhasorFit(aoa_rad=float(grid[best]), confidence=float(resultant[best]))


def phasediff_freq_interp(fp: FingerprintVector, geom: UcaGeometry,
                          train_freq_hz: float, target_freq_hz: float) -> PhasediffProjection:
    """Re-project phase differences to another frequency via the dominant path.

    Fits the dominant arrival azimuth at the training frequency, then emits
    the ideal steering pair phases at the target frequency for that azimuth.

    Returns:
        (vector, aoa_rad, confidence); the confidence is the phasor-fit
        resultant length used downstream to weight spatial interpolation.
    """
    if not (train_freq_hz > 0 and target_freq_hz > 0):
        raise ValueError("frequencies must be positive")
    fit = estimate_aoa(fp, geom, train_freq_hz)
    pred = _steering_pair_diffs(geom, target_freq_hz,
                                np.array([fit.aoa_rad]), fp.meta.pairs)[0]
    values = wrap_angle(pred)
    meta = FingerprintMeta(sensor=fp.meta.sensor, pair=fp.meta.pair, pairs=fp.meta.pairs,
                           freq_hz=float(target_freq_hz), bandwidth_hz=fp.meta.bandwidth_hz)
    vector = FingerprintVector(kind=FingerprintKind.PHASE_DIFF, values=values, meta=meta)
    return PhasediffProjection(vector=vector, aoa_rad=fit.aoa_rad, confidence=fit.confidence)


def _nearest_training(train_xy: np.ndarray, query_xy: np.ndarray) -> np.ndarray:
    """Per query, the index of the closest training point (lowest on ties)."""
    d2 = np.sum((train_xy[None, :, :] - query_xy[:, None, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=1)


def _densify_correlation(stack, train_xy, query_xy, kernel, optimize):
    dim = stack.shape[1]
    mags = np.abs(stack)
    floor = 1e-12 * float(np.max(mags)) if np.max(mags) > 0 else 1e-300
    mags = np.maximum(mags, floor)

    out_mags = np.empty((query_xy.shape[0], dim), dtype=float)
    for j in range(dim):
        model = kriging_fit(train_xy, 10.0 * np.log10(mags[:, j]),
                            kernel=kernel, optimize_length_scale=optimize)
        mean, _ = kriging_predict(model, query_xy)
        out_mags[:, j] = 10.0 ** (mean / 10.0)
    return out_mags * np.exp(1j * np.angle(stack[_nearest_training(train_xy, query_xy)]))


def _densify_phasediff(stack, train_xy, query_xy, confidences):
    n_train, dim = stack.shape
    phasors = np.exp(1j * stack)
    conf = np.ones(n_train) if confidences is None else np.asarray(confidences, dtype=float)
    if conf.shape != (n_train,):
        raise ValueError("need one confidence per training point")

    out = np.empty((query_xy.shape[0], dim), dtype=float)
    take = min(4, n_train)
    for q, pos in enumerate(query_xy):
        d = np.hypot(train_xy[:, 0] - pos[0], train_xy[:, 1] - pos[1])
        nearest = np.argsort(d)[:take]
        if d[nearest[0]] <= 0.0:
            out[q] = stack[nearest[0]]
            continue
        w = conf[nearest] / d[nearest]
        if np.sum(w) <= 0.0:
            w = 1.0 / d[nearest]  # all-zero confidences: fall back to distance alone
        mix = (w[:, None] * phasors[nearest]).sum(axis=0)
        out[q] = np.angle(mix)
    return out


def spatial_densify(db: FingerprintDatabase, target_grid: Grid,
                    kernel: KrigingKernel | None = None,
                    confidences: dict | None = None,
                    optimize_length_scale: bool = False) -> FingerprintDatabase:
    """Interpolate a fingerprint database onto a denser grid.

    Correlation fingerprints are interpolated per delay bin by kriging on dB
    magnitudes (phases copied from the nearest training point).  Phase-
    difference fingerprints are interpolated as unit phasors averaged over
    the 4 nearest training points, weighted by inverse distance times the
    per-training-point confidence when one is supplied.

    Args:
        db: training database whose blocks are all raw fingerprint vectors.
        target_grid: grid to interpolate onto (inside the training hull;
            outside points fall back to nearest-neighbor with a warning).
        kernel: optional kriging hyper-parameters (defaults per key).
        confidences: optional ``{key: (n_train,) array}`` of phasor-fit
            confidences for phase-difference keys.
        optimize_length_scale: marginal-likelihood length-scale selection.

    Returns:
        A new database on ``target_grid`` marked ``derived``.
    """
    if len(db.blocks) == 0:
        raise ValueError("database holds no fingerprints")
    train_xy = db.grid.as_array()
    query_xy = target_grid.as_array()
    lo = train_xy.min(axis=0)
    hi = train_xy.max(axis=0)
    outside = np.nonzero(
        (query_xy[:, 0] < lo[0]) | (query_xy[:, 0] > hi[0])
        | (query_xy[:, 1] < lo[1]) | (query_xy[:, 1] > hi[1])
    )[0]
    if outside.size:
        warnings.warn(
            f"{outside.size} query point(s) outside the training hull; "
            "using nearest-neighbor values there",
            stacklevel=2,
        )

    blocks = {}
    for key in sorted(db.blocks):
        fp = db.block(key, FingerprintVector)
        if fp.kind in CORRELATION_KINDS:
            values = _densify_correlation(fp.values, train_xy, query_xy, kernel,
                                          optimize_length_scale)
        elif fp.kind is FingerprintKind.PHASE_DIFF:
            conf = None if confidences is None else confidences.get(key)
            values = _densify_phasediff(fp.values, train_xy, query_xy, conf)
        else:
            raise ValueError(
                f"key {key!r}: only correlation and phase-difference fingerprints densify"
            )
        values[outside] = fp.values[_nearest_training(train_xy, query_xy[outside])]
        blocks[key] = FingerprintVector(kind=fp.kind, values=values, meta=fp.meta)

    meta = replace(db.meta, derived=True, extra=dict(db.meta.extra))
    return FingerprintDatabase(grid=target_grid, blocks=blocks, meta=meta)


def normalize_power(fps) -> list:
    """Scale correlation fingerprints by the largest per-sensor power.

    The power of each vector is the magnitude of its center (zero-lag) entry;
    every vector is divided by the maximum across the list, so an unknown
    transmit power cancels out of the whole fingerprint set.  Blocks (N, d)
    are normalized per grid point.
    """
    fps = list(fps)
    if len(fps) == 0:
        raise ValueError("at least one fingerprint is required")
    centers = []
    for fp in fps:
        if fp.kind not in CORRELATION_KINDS:
            raise ValueError("power normalization applies to correlation fingerprints")
        if fp.dim % 2 == 0:
            raise ValueError("correlation fingerprints must have an odd lag count")
        centers.append(np.abs(fp.values[..., fp.dim // 2]))
    scale = np.max(centers, axis=0)
    if np.any(scale <= 0.0):
        raise ValueError("all fingerprints have zero power at lag 0")
    return [
        FingerprintVector(kind=fp.kind, values=fp.values / scale[..., None], meta=fp.meta)
        for fp in fps
    ]
