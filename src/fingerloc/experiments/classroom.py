"""Classroom study: seat-level localization from channel-response fingerprints.

A 12x12 seat grid is surveyed by five wall/ceiling sensors (four corner
antennas plus a three-element circular array in the center).  Fingerprints
are cross-correlations of per-antenna channel impulse responses for every
antenna pair; matching is Gaussian maximum likelihood over the grid, with a
received-power Euclidean matcher as the baseline.  Evaluation is
leave-one-out over the per-seat snapshots.
"""

import itertools
import math
import os

import numpy as np

from ..database import FingerprintDatabase
from ..features import xcorr_rows
from ..matching import fingerprint_sqerr
from ..simulate import ChannelModel, simulate_links
from ..stats import GaussianStats, fit_gaussian, gaussian_loglik, gaussian_loo_loglik
from .common import (
    build_grid,
    cdf_table,
    load_db,
    load_measurements,
    save_db,
    save_measurements,
    summarize_errors,
    write_csv,
    write_json,
)
from .defaults import CHANNEL

_TAG_CIR_NOISE = 101

DEFAULTS = {
    "out_dir": "results/classroom_cir",
    "scenario": {
        "grid": {"nx": 12, "ny": 12, "spacing_m": 0.78, "origin": [0.0, 0.0]},
        "freq_hz": 1.9575e9,
        "bandwidth_hz": 3.6e6,
        "tap_count": 8,
        "snapshots": 20,
        "snr_db": 25.0,
        # Corner sensors sit this far outside the seat grid's corners.
        "corner_offset_m": 0.5,
        "uca": {"elements": 3, "radius_m": 0.05},
        "channel": dict(CHANNEL),
        "measurements": None,
    },
    "matching": {
        # Diagonal loading for fingerprint covariance fits (times trace/dim).
        "loading_eps": 1e-3,
    },
    "evaluation": {},
}


def antenna_layout(cfg: dict) -> np.ndarray:
    """Antenna positions (antennas, 2): four corner antennas just outside the
    seat grid, then the center array."""
    scn = cfg["scenario"]
    g = scn["grid"]
    x0, y0 = g["origin"]
    x1, y1 = build_grid(cfg).xy[-1].tolist()
    off = scn["corner_offset_m"]
    antennas = [(x0 - off, y0 - off), (x1 + off, y0 - off),
                (x0 - off, y1 + off), (x1 + off, y1 + off)]
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    n = scn["uca"]["elements"]
    r = scn["uca"]["radius_m"]
    for k in range(n):
        ang = 2.0 * math.pi * k / n
        antennas.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    return np.array(antennas, dtype=float)


def pair_keys(n_antennas: int) -> list:
    return [f"xc:{i}-{j}" for i in range(n_antennas) for j in range(i + 1, n_antennas)]


def measurement_shapes(cfg: dict) -> dict:
    scn = cfg["scenario"]
    return {"cirs": ((len(build_grid(cfg)), scn["snapshots"], len(antenna_layout(cfg)),
                      scn["tap_count"]), complex)}


def simulate_measurements(cfg: dict) -> dict:
    """Noisy per-antenna channel responses ``cirs`` (seats, snapshots, antennas, taps).

    Each snapshot redraws the diffuse paths and adds receiver noise at the
    configured per-snapshot SNR (noise power referenced to that response's
    own energy, so every snapshot meets the stated SNR exactly).
    """
    scn = cfg["scenario"]
    grid = build_grid(cfg)
    antennas = antenna_layout(cfg)
    n_snap, taps = scn["snapshots"], scn["tap_count"]
    setup = {"model": ChannelModel(seed=cfg["seed"], **scn["channel"]),
             "freq_hz": scn["freq_hz"], "bandwidth_hz": scn["bandwidth_hz"],
             "tap_count": taps, "snr_db": scn["snr_db"]}
    ids = np.indices((len(grid), n_snap)).reshape(2, -1).T  # (seat, snapshot) per measurement
    seats = np.repeat(grid.xy, n_snap, axis=0)
    out = np.empty((len(seats), len(antennas), taps), dtype=complex)
    for sl, y in simulate_links(seats, antennas, ids, _TAG_CIR_NOISE, **setup):
        out[sl] = y
    return {"cirs": out.reshape(len(grid), n_snap, len(antennas), taps)}


def training_cirs(cfg: dict, out_dir: str) -> np.ndarray:
    return load_measurements(cfg, out_dir, simulate_measurements,
                             measurement_shapes(cfg))["cirs"]


def received_power(cirs: np.ndarray) -> np.ndarray:
    """Per-antenna received power, real (seats, snapshots, antennas)."""
    return np.sum(np.abs(cirs) ** 2, axis=-1)


def pair_features(cirs: np.ndarray):
    """Each antenna pair's key and fingerprints, one pair at a time.

    Yields ``(key, xc)`` for every pair ``(i, j)``, ``i < j``, in
    :func:`pair_keys` order: ``xc`` is complex (..., 2*taps-1), the
    :func:`~fingerloc.features.xcorr` of antennas i and j of every response
    in ``cirs (..., antennas, taps)``, from one
    :func:`~fingerloc.features.xcorr_rows` call.  A caller that finishes
    with a pair before taking the next never holds all pairs' features.
    """
    taps = cirs.shape[-1]
    for i, j in itertools.combinations(range(cirs.shape[-2]), 2):
        yield f"xc:{i}-{j}", xcorr_rows(cirs[..., i, :], cirs[..., j, :], taps - 1)


def build_database(cfg: dict, cirs: np.ndarray) -> FingerprintDatabase:
    """Fit the per-seat Gaussian pair models and mean-power baseline vectors,
    each pair's model from its own features (see :func:`pair_features`)."""
    loading = cfg["matching"]["loading_eps"]
    blocks = {key: fit_gaussian(xc, loading) for key, xc in pair_features(cirs)}
    blocks["rssi"] = received_power(cirs).mean(axis=1)
    return FingerprintDatabase(grid=build_grid(cfg), blocks=blocks)


def model_health(db: FingerprintDatabase, keys: list) -> dict:
    """Numerical health of the stored pair models, for ``learn_log.json``.

    ``loading`` is the [min, max] diagonal loading and ``gaussian_cond`` the
    largest 2-norm condition number ``max D / min D`` of any covariance
    ``V diag(D) V^H``, ``D = eigvals + loading``, read from the stored
    eigenvalues; it is None when some smallest ``D`` is not positive.
    ``per_key`` holds the same two fields for each key's block; the
    top-level ones span every key and seat.
    """
    per_key = {}
    for key in keys:
        block = db.block(key, GaussianStats)
        D = block.eigvals + block.loading[:, None]
        lo, hi = np.min(D, axis=-1), np.max(D, axis=-1)
        per_key[key] = {
            "loading": [float(block.loading.min()), float(block.loading.max())],
            "gaussian_cond": float(np.max(hi / lo)) if np.all(lo > 0) else None,
        }
    conds = [health["gaussian_cond"] for health in per_key.values()]
    return {
        "loading": [min(h["loading"][0] for h in per_key.values()),
                    max(h["loading"][1] for h in per_key.values())],
        "gaussian_cond": None if None in conds else max(conds),
        "per_key": per_key,
    }


def cmd_simulate(cfg: dict, out_dir: str) -> dict:
    arrays = simulate_measurements(cfg)
    save_measurements(cfg, out_dir, arrays)
    seats, snapshots, antennas, taps = arrays["cirs"].shape
    summary = {"seats": seats, "snapshots": snapshots, "antennas": antennas, "taps": taps}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def cmd_learn(cfg: dict, out_dir: str) -> dict:
    cirs = training_cirs(cfg, out_dir)
    db = build_database(cfg, cirs)
    save_db(cfg, out_dir, db)
    keys = pair_keys(cirs.shape[2])
    log = {
        "points": len(db),
        "pairs": len(keys),
        "per_point_samples": [int(cirs.shape[1])] * len(db),
        **model_health(db, keys),
    }
    write_json(os.path.join(out_dir, "learn_log.json"), log)
    return log


def loo_scores(cfg: dict, cirs: np.ndarray, db: FingerprintDatabase) -> tuple:
    """Leave-one-out scores of every (seat, snapshot) trial against every seat.

    Trials score against the learned per-seat models in ``db``, one
    cross-scoring call per antenna pair on its stored block.  A trial's true
    seat instead scores it under the model fitted to that seat's other
    snapshots (and the baseline under their mean power), so a trial never
    matches against a model trained on itself.  Those held-out scores come
    from one :func:`~fingerloc.stats.gaussian_loo_loglik` call per pair over
    every seat, which downdates each seat's stored fit in closed form.
    Neither call factorizes anything: both read the stored eigenpairs.  Each
    pair's features are scored both ways and summed before the next pair's
    are built (see :func:`pair_features`).

    Returns:
        (loglik, sqerr): (trials, seats) summed pair log-likelihoods and
        received-power squared distances, trial ``seat * snapshots + snapshot``.

    Raises:
        NumericError: a stored or held-out covariance is singular to
            working precision.
    """
    n_seats, n_snap = cirs.shape[:2]
    n_trials = n_seats * n_snap
    trials = np.arange(n_trials)
    true_seat = trials // n_snap
    loading = cfg["matching"]["loading_eps"]

    loglik = np.zeros((n_trials, n_seats))
    held_out = np.zeros(n_trials)
    for key, xc in pair_features(cirs):
        block = db.block(key, GaussianStats)
        loglik += gaussian_loglik(xc.reshape(n_trials, -1), block)
        held_out += gaussian_loo_loglik(xc, block, loading).reshape(n_trials)
    loglik[trials, true_seat] = held_out

    rssi = received_power(cirs)
    means = db.block("rssi", np.ndarray)  # (seats, antennas)
    sqerr = fingerprint_sqerr(rssi.reshape(n_trials, -1), means)
    fold_means = (n_snap * means[:, None, :] - rssi) / (n_snap - 1)
    sqerr[trials, true_seat] = ((rssi - fold_means) ** 2).sum(axis=-1).reshape(n_trials)
    return loglik, sqerr


def evaluate_loo(cfg: dict, cirs: np.ndarray, db: FingerprintDatabase) -> tuple:
    """Leave-one-out evaluation over every (seat, snapshot) trial (see :func:`loo_scores`).

    Returns:
        (columns, summary): the ``trials.csv`` columns, every trial of one
        method before the next's, and the summary dict.
    """
    loglik, sqerr = loo_scores(cfg, cirs, db)
    est = {"cir_mle": np.argmax(loglik, axis=1), "rssi_euclid": np.argmin(sqerr, axis=1)}
    seat, snapshot = np.indices(cirs.shape[:2]).reshape(2, -1)
    true_seat = np.tile(seat, len(est))
    chosen = np.concatenate(list(est.values()))
    pts = build_grid(cfg).xy
    err = np.hypot(*(pts[chosen] - pts[true_seat]).T)
    columns = {"method": np.repeat(list(est), len(seat)), "seat": true_seat,
               "snapshot": np.tile(snapshot, len(est)), "true_x": pts[true_seat, 0],
               "true_y": pts[true_seat, 1], "est_index": chosen, "est_x": pts[chosen, 0],
               "est_y": pts[chosen, 1], "error_m": err}
    errors = dict(zip(est, err.reshape(len(est), -1)))
    summary = {
        "methods": {m: summarize_errors(v) for m, v in errors.items()},
        "cdf": {m: cdf_table(v) for m, v in errors.items()},
        "grid_spacing_m": cfg["scenario"]["grid"]["spacing_m"],
        "trials_per_method": len(seat),
    }
    return columns, summary


def cmd_localize(cfg: dict, out_dir: str) -> dict:
    db = load_db(cfg, out_dir, cmd_learn)
    columns, summary = evaluate_loo(cfg, training_cirs(cfg, out_dir), db)
    write_csv(os.path.join(out_dir, "trials.csv"), columns)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary
