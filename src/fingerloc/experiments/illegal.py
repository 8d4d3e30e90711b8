"""Unknown-emitter study: localize an off-training-frequency transmitter.

Three circular-array sensors learn raw-signal correlation and
phase-difference fingerprints at a few training frequencies on a coarse
grid.  The database is then projected to the emitter's frequency and
bandwidth, densified spatially, and power-normalized so the emitter's
unknown transmit power cancels.  Matching fuses the two fingerprint kinds
with a weight gamma that is swept, since no principled value exists.
"""

import math
import os

import numpy as np

from ..database import FingerprintDatabase
from ..features import relative_phase, xcorr_rows
from ..interp import (
    UcaGeometry,
    bandwidth_interp,
    freq_interp_xcorr,
    normalize_power,
    phasediff_freq_interp,
    spatial_densify,
    windowed_sinc_lowpass,
)
from ..matching import fingerprint_sqerr
from ..simulate import ChannelModel, TxSignalSpec, derive_seed, simulate_links
from ..stats import kriging_cond
from .common import (
    build_grid,
    cdf_table,
    load_db,
    load_measurements,
    median,
    save_db,
    save_measurements,
    write_csv,
    write_json,
)
from .defaults import CHANNEL

_TAG_TRAIN_BITS = 401
_TAG_TRAIN_NOISE = 402
_TAG_TRIALS = 403
_TAG_TRIAL_BITS = 404
_TAG_TRIAL_NOISE = 405

DEFAULTS = {
    "out_dir": "results/illegal_hybrid",
    "scenario": {
        "grid": {"nx": 7, "ny": 7, "spacing_m": 2.0, "origin": [0.0, 0.0]},
        "sensors": [[-1.0, -1.0], [13.0, -1.0], [6.0, 13.0]],
        "uca": {"elements": 3, "radius_m": 0.05},
        "train_freqs_hz": [8.0e8, 1.5e9, 2.5e9],
        "train_bandwidth_hz": 1.0e7,
        "sample_rate_hz": 1.0e7,
        "tap_count": 8,
        "bits": 256,
        "train_snapshots": 6,
        "snr_db": 23.0,
        "target": {"freq_hz": 1.2e9, "bandwidth_hz": 5.0e6, "tx_power_scale": 1.0},
        "channel": dict(CHANNEL),
        # Interpolated database lives on a grid this many times denser.
        "densify_factor": 2,
        "pulse_taps": 63,
        "measurements": None,
    },
    "evaluation": {
        "trials": 200,
        "gamma_sweep": [0.0, 0.25, 1.0, 4.0, 16.0, 1e12],
    },
}


def uca_geom(cfg: dict) -> UcaGeometry:
    u = cfg["scenario"]["uca"]
    return UcaGeometry(n_elements=u["elements"], radius_m=u["radius_m"])


def sensor_elements(cfg: dict) -> np.ndarray:
    """Circular-array element positions, (sensors, elements, 2)."""
    geom = uca_geom(cfg)
    angles = [2.0 * math.pi * k / geom.n_elements for k in range(geom.n_elements)]
    return np.array([[(sx + geom.radius_m * math.cos(ang), sy + geom.radius_m * math.sin(ang))
                      for ang in angles]
                     for sx, sy in cfg["scenario"]["sensors"]], dtype=float)


def _xcorr_pairs(cfg: dict) -> list:
    """(sensor, element a, element b >= a) of every correlation fingerprint, in key order."""
    n = cfg["scenario"]["uca"]["elements"]
    return [(si, a, b) for si in range(len(cfg["scenario"]["sensors"]))
            for a in range(n) for b in range(a, n)]


def xcorr_keys(cfg: dict) -> list:
    return [f"xc:{si}:{a}-{b}" for si, a, b in _xcorr_pairs(cfg)]


def phase_keys(cfg: dict) -> list:
    return [f"pd:{si}" for si in range(len(cfg["scenario"]["sensors"]))]


def _element_pairs(n: int) -> tuple:
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


def measure_fingerprints(cfg: dict, tx_xy: np.ndarray, freq_hz: float, pulse: tuple,
                         tags: tuple, ids: np.ndarray, power_scale: float) -> tuple:
    """Raw fingerprints of a block of measurements.

    Measurement m transmits from ``tx_xy[m]``; ``ids`` and the (bits, noise)
    ``tags`` key its streams as :func:`simulate_links` takes them.  Noise is
    at the configured SNR relative to each element's own clean signal
    power, so scaling the transmit power rescales the buffers without
    reshaping them.

    Returns:
        ``xcorr`` complex (measurements, xcorr keys, 2 * taps - 1): each
        element pair's received-sample correlation divided by the buffer
        length, and ``phase`` real (measurements, sensors, element pairs).
    """
    scn = cfg["scenario"]
    n = scn["uca"]["elements"]
    max_lag = scn["tap_count"] - 1
    n_sensors = len(scn["sensors"])
    setup = {"model": ChannelModel(seed=cfg["seed"], **scn["channel"]), "freq_hz": freq_hz,
             "bandwidth_hz": scn["sample_rate_hz"], "tap_count": scn["tap_count"],
             "snr_db": scn["snr_db"], "tx_spec": TxSignalSpec(length=scn["bits"], pulse=pulse),
             "amplitude": math.sqrt(power_scale)}
    # flat element indices of each correlation fingerprint's two buffers
    first, second = (list(idx) for idx in zip(*[(si * n + a, si * n + b)
                                                 for si, a, b in _xcorr_pairs(cfg)]))
    # each sensor's element pairs, as the phase fingerprint orders them
    pair_a, pair_b = (list(idx) for idx in zip(*_element_pairs(n)))
    xc = np.empty((len(tx_xy), len(first), 2 * max_lag + 1), dtype=complex)
    ph = np.empty((len(tx_xy), n_sensors, len(pair_a)))
    for sl, y in simulate_links(tx_xy, sensor_elements(cfg), ids, tags[1], bits_tag=tags[0],
                                **setup):
        flat = y.reshape(len(y), n_sensors * n, -1)
        xc[sl] = xcorr_rows(flat[:, first], flat[:, second], max_lag) / y.shape[-1]
        ph[sl] = relative_phase(y[:, :, pair_a], y[:, :, pair_b])
    return xc, ph


def measurement_shapes(cfg: dict) -> dict:
    scn = cfg["scenario"]
    lead = (len(scn["train_freqs_hz"]), len(build_grid(cfg)), scn["train_snapshots"])
    return {"xcorr": (lead + (len(xcorr_keys(cfg)), 2 * scn["tap_count"] - 1), complex),
            "phase": (lead + (len(scn["sensors"]), len(_element_pairs(scn["uca"]["elements"]))),
                      float)}


def simulate_measurements(cfg: dict) -> dict:
    """Training fingerprints at every (frequency, point, snapshot).

    Returns:
        ``xcorr`` complex (freqs, points, snaps, xcorr keys, lag dim) and
        ``phase`` real (freqs, points, snaps, sensors, element pairs).
    """
    scn = cfg["scenario"]
    grid = build_grid(cfg)
    n_snap = scn["train_snapshots"]
    point_snap = np.indices((len(grid), n_snap)).reshape(2, -1)
    points = np.repeat(grid.xy, n_snap, axis=0)
    xc, ph = [], []
    for fi, freq in enumerate(scn["train_freqs_hz"]):
        ids = np.stack([np.full(len(points), fi), *point_snap], axis=1)
        x, p = measure_fingerprints(cfg, points, freq, (1.0,),
                                    (_TAG_TRAIN_BITS, _TAG_TRAIN_NOISE), ids, 1.0)
        xc.append(x.reshape((len(grid), n_snap) + x.shape[1:]))
        ph.append(p.reshape((len(grid), n_snap) + p.shape[1:]))
    return {"xcorr": np.stack(xc), "phase": np.stack(ph)}


def build_database(cfg: dict, xc: np.ndarray, ph: np.ndarray) -> tuple:
    """Snapshot-averaged training fingerprints projected to the emitter.

    Per key, one block call per stage: frequency projection of the
    correlation fingerprints to the target frequency, bandwidth narrowing to
    the target bandwidth, and phase-difference re-projection via the fitted
    arrival azimuth; then spatial densification onto the fine grid and
    per-point power normalization.

    Returns:
        (database, filled_bins): the projected map, and for
        ``learn_log.json`` the delay bins the frequency projection filled
        from their neighbors.
    """
    scn = cfg["scenario"]
    geom = uca_geom(cfg)
    freqs = list(scn["train_freqs_hz"])
    t_freq = scn["target"]["freq_hz"]
    t_bw = scn["target"]["bandwidth_hz"]
    train_bw = scn["train_bandwidth_hz"]
    xkeys = xcorr_keys(cfg)
    nearest_fi = int(np.argmin(np.abs(np.asarray(freqs) - t_freq)))

    xc_avg = xc.mean(axis=2)  # (freqs, points, keys, dim)
    ph_avg = np.angle(np.exp(1j * ph).sum(axis=2))  # circular mean

    blocks = {}
    filled_bins = 0
    for ki, key in enumerate(xkeys):
        fp, flags = freq_interp_xcorr(freqs, xc_avg[:, :, ki], t_freq)
        blocks[key] = bandwidth_interp(fp, train_bw, t_bw)
        filled_bins += int(np.count_nonzero(flags))
    pairs = _element_pairs(geom.n_elements)
    confidences = {}
    for si, key in enumerate(phase_keys(cfg)):
        blocks[key], _, confidences[key] = phasediff_freq_interp(
            ph_avg[nearest_fi, :, si], pairs, geom, freqs[nearest_fi], t_freq)

    coarse = FingerprintDatabase(grid=build_grid(cfg), blocks=blocks)
    dense = spatial_densify(coarse, scn["densify_factor"], confidences=confidences)
    blocks = dict(dense.blocks)
    normed = normalize_power(np.stack([blocks[key] for key in xkeys], axis=1))
    blocks.update((key, normed[:, ki]) for ki, key in enumerate(xkeys))
    return FingerprintDatabase(grid=dense.grid, blocks=blocks), filled_bins


def draw_trials(cfg: dict) -> np.ndarray:
    """Uniform emitter positions inside the training hull, shape (trials, 2)."""
    rng = np.random.default_rng(derive_seed(cfg["seed"], _TAG_TRIALS))
    return rng.uniform(cfg["scenario"]["grid"]["origin"], build_grid(cfg).xy[-1],
                       size=(cfg["evaluation"]["trials"], 2))


def trial_fingerprints(cfg: dict, trials: np.ndarray) -> tuple:
    """The emitter's fingerprints in every trial.

    Returns:
        (xcorr, phase): power-normalized correlations, complex (trials,
        xcorr keys, 2 * taps - 1), and phase differences, real (trials,
        sensors, element pairs).
    """
    scn = cfg["scenario"]
    t_freq = scn["target"]["freq_hz"]
    t_bw = scn["target"]["bandwidth_hz"]
    # Complex baseband at the critically sampled rate: a bandwidth of B
    # occupies |f| < B/2 of the fs/2 Nyquist band, so the cutoff is B / fs.
    ratio = t_bw / scn["sample_rate_hz"]
    pulse = tuple(windowed_sinc_lowpass(ratio, scn["pulse_taps"]))
    xc, ph = measure_fingerprints(cfg, trials, t_freq, pulse, (_TAG_TRIAL_BITS, _TAG_TRIAL_NOISE),
                                  np.arange(len(trials))[:, None], scn["target"]["tx_power_scale"])
    return normalize_power(xc), ph


def error_maps(db: FingerprintDatabase, xc: dict, pd: dict) -> tuple:
    """Summed squared-error maps over the database grid for both kinds.

    ``xc`` and ``pd`` map each key to its (..., d) fingerprints, e.g. one
    per trial; each key costs one scan of its block, and the keys add up in
    the dicts' order.  Correlation fingerprints are compared by magnitude,
    phase differences by wrapped differences.

    Returns:
        (xcorr, phase): (..., N) squared errors over the grid.
    """
    vx = sum(fingerprint_sqerr(np.abs(fp), np.abs(db.block(key, np.ndarray)))
             for key, fp in xc.items())
    vp = sum(fingerprint_sqerr(fp, db.block(key, np.ndarray), wrap=True)
             for key, fp in pd.items())
    return vx, vp


def _best_points(errors: np.ndarray) -> np.ndarray:
    """Per row of a (trials, N) squared-error block, its argmin (lowest index on ties)."""
    if not np.all(np.isfinite(errors)):
        raise ValueError("squared-error maps must be finite")
    return np.argmin(errors, axis=1)


def evaluate(cfg: dict, db: FingerprintDatabase) -> tuple:
    """All trials x {pure xcorr, pure phasediff, hybrid per gamma}.

    Each method matches every trial with one argmin over its error block;
    the hybrid block of weight gamma is ``xcorr + gamma * phasediff``.

    Returns:
        (columns, summary): the ``trials.csv`` columns, each trial's methods
        in that order before the next trial's, and the summary dict.
    """
    trials = draw_trials(cfg)
    sweep = [float(g) for g in cfg["evaluation"]["gamma_sweep"]]
    pts = db.grid.xy
    xc, ph = trial_fingerprints(cfg, trials)
    vx, vp = error_maps(db, dict(zip(xcorr_keys(cfg), np.moveaxis(xc, 1, 0))),
                        dict(zip(phase_keys(cfg), np.moveaxis(ph, 1, 0))))
    # (trials, methods): xcorr, phasediff, then the hybrid of each gamma
    best = np.stack([_best_points(vx), _best_points(vp),
                     *(_best_points(vx + g * vp) for g in sweep)], axis=1)
    err = np.hypot(*np.moveaxis(pts[best.T] - trials, -1, 0))  # (methods, trials)
    est, n_methods = best.ravel(), best.shape[1]
    columns = {"trial": np.repeat(np.arange(len(trials)), n_methods),
               "method": np.tile(["xcorr", "phasediff"] + ["hybrid"] * len(sweep), len(trials)),
               "gamma": ["", "", *sweep] * len(trials),
               "true_x": np.repeat(trials[:, 0], n_methods),
               "true_y": np.repeat(trials[:, 1], n_methods),
               "est_index": est, "est_x": pts[est, 0], "est_y": pts[est, 1],
               "error_m": err.T.ravel()}

    errors = {"xcorr": err[0], "phasediff": err[1]}
    hybrid_errors = dict(zip(sweep, err[2:]))
    med = {m: median(v) for m, v in errors.items()}
    hybrid_med = {g: median(v) for g, v in hybrid_errors.items()}
    best_gamma = min(hybrid_med, key=lambda g: (hybrid_med[g], g))
    summary = {
        "trials": len(trials),
        "mean": {**{m: float(np.mean(v)) for m, v in errors.items()},
                 "hybrid": {repr(g): float(np.mean(v)) for g, v in hybrid_errors.items()}},
        "median": {**med, "hybrid": {repr(g): v for g, v in hybrid_med.items()}},
        "cdf": {"xcorr": cdf_table(errors["xcorr"]),
                "phasediff": cdf_table(errors["phasediff"]),
                "hybrid_best": cdf_table(hybrid_errors[best_gamma])},
        "best_gamma": best_gamma,
        "best_hybrid_median": hybrid_med[best_gamma],
        "endpoints_exact": {"xcorr": bool(np.array_equal(best[:, 2], best[:, 0])),
                            "phasediff": bool(np.array_equal(best[:, -1], best[:, 1]))},
        "hybrid_beats_both": hybrid_med[best_gamma] <= min(med.values()),
    }
    return columns, summary


def cmd_simulate(cfg: dict, out_dir: str) -> dict:
    arrays = simulate_measurements(cfg)
    save_measurements(cfg, out_dir, arrays)
    xc = arrays["xcorr"]
    summary = {"points": xc.shape[1], "freqs": xc.shape[0], "snapshots": xc.shape[2]}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def cmd_learn(cfg: dict, out_dir: str) -> dict:
    arrays = load_measurements(cfg, out_dir, simulate_measurements, measurement_shapes(cfg))
    xc = arrays["xcorr"]
    db, filled_bins = build_database(cfg, xc, arrays["phase"])
    save_db(cfg, out_dir, db)
    # the conditioning of the kriging that densified the coarse survey grid
    log = {"points": len(db), "derived": True, "filled_bins": filled_bins,
           "kriging_cond": kriging_cond(build_grid(cfg)),
           "per_point_samples": [int(xc.shape[2])] * xc.shape[1],
           "target_freq_hz": cfg["scenario"]["target"]["freq_hz"],
           "target_bandwidth_hz": cfg["scenario"]["target"]["bandwidth_hz"]}
    write_json(os.path.join(out_dir, "learn_log.json"), log)
    return log


def cmd_localize(cfg: dict, out_dir: str) -> dict:
    db = load_db(cfg, out_dir, cmd_learn)
    columns, summary = evaluate(cfg, db)
    write_csv(os.path.join(out_dir, "trials.csv"), columns)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary
