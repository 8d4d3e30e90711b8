"""Wi-Fi study: power/phase fingerprints fused with dead reckoning.

Three two-antenna sensors survey a room grid.  Per sensor the fingerprint is
the received power (Gamma-modeled) and the phase of the averaged
cross-product between its antennas (von-Mises-modeled).  A walking target is
localized per step by grid maximum likelihood over RSSI only, phase only,
and both, and by a particle filter that additionally fuses noisy step
vectors from pedestrian dead reckoning.
"""

import math
import os

import numpy as np

from ..database import FingerprintDatabase
from ..features import mean_power, relative_phase
from ..matching import mle_rssi_rspd
from ..simulate import (
    ChannelModel,
    TxSignalSpec,
    derive_seed,
    seeded_streams,
    simulate_links,
    simulate_pdr,
)
from ..stats import fit_gamma, fit_vonmises
from ..tracking import (
    RESAMPLE_ESS_FRACTION,
    particle_predict,
    particle_update,
    resample_systematic,
)
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

_TAG_TRAIN_BITS = 201
_TAG_TRAIN_NOISE = 202
_TAG_WALK_BITS = 203
_TAG_WALK_NOISE = 204
_TAG_WALK = 205
_TAG_PDR = 206
_TAG_PF = 207

DEFAULTS = {
    "out_dir": "results/wifi_rssi_rspd",
    "scenario": {
        "grid": {"nx": 10, "ny": 10, "spacing_m": 1.0, "origin": [0.0, 0.0]},
        "sensors": [[-0.5, 4.5], [9.5, -0.5], [9.5, 9.5]],
        "antenna_sep_m": 0.06,
        "freq_hz": 2.412e9,
        "bandwidth_hz": 2.0e7,
        "tap_count": 8,
        "bits": 64,
        "train_snapshots": 40,
        "snr_db": 6.0,
        # Cluttered-office propagation: shallow power gradient, strong
        # line of sight.  Power alone separates cells poorly here, which
        # is exactly the regime where phase differences pay off.
        "channel": dict(CHANNEL, pathloss_exponent=1.0, rician_k_db=12.0),
        "walk": {"steps": 500, "step_sigma_m": 0.4, "start": [4.5, 4.5]},
        "measurements": None,
    },
    "tracking": {"particles": 1000, "pdr_sigma_m": 0.2},
    "evaluation": {},
}


def room_bounds(cfg: dict) -> tuple:
    """(x0, y0, x1, y1): the survey grid's first and last point."""
    return (*cfg["scenario"]["grid"]["origin"], *build_grid(cfg).xy[-1].tolist())


def sensor_antennas(cfg: dict) -> np.ndarray:
    """Antenna positions (sensors, 2, 2): per sensor its two antennas, split along x."""
    half = cfg["scenario"]["antenna_sep_m"] / 2.0
    return np.array([[(sx - half, sy), (sx + half, sy)]
                     for sx, sy in cfg["scenario"]["sensors"]], dtype=float)


def measure_features(cfg: dict, tx_xy: np.ndarray, tags: tuple, ids: np.ndarray) -> np.ndarray:
    """Measurements in blocks: (rssi, rspd) per sensor, shape (measurements, sensors, 2).

    Measurement m transmits from ``tx_xy[m]``; ``ids`` and the (bits, noise)
    ``tags`` key its streams as :func:`simulate_links` takes them.  Noise is
    at the configured SNR relative to each antenna's clean signal power.
    """
    scn = cfg["scenario"]
    antennas = sensor_antennas(cfg)
    setup = {"model": ChannelModel(seed=cfg["seed"], **scn["channel"]),
             "freq_hz": scn["freq_hz"], "bandwidth_hz": scn["bandwidth_hz"],
             "tap_count": scn["tap_count"], "snr_db": scn["snr_db"],
             "tx_spec": TxSignalSpec(length=scn["bits"])}
    out = np.empty((len(tx_xy), len(antennas), 2))
    for sl, y in simulate_links(tx_xy, antennas, ids, tags[1], bits_tag=tags[0], **setup):
        out[sl, :, 0] = mean_power(y[:, :, 0])
        out[sl, :, 1] = relative_phase(y[:, :, 0], y[:, :, 1])
    return out


def measurement_shapes(cfg: dict) -> dict:
    scn = cfg["scenario"]
    return {"features": ((len(build_grid(cfg)), scn["train_snapshots"],
                          len(scn["sensors"]), 2), float)}


def simulate_measurements(cfg: dict) -> dict:
    """Training ``features`` (points, snapshots, sensors, 2): (rssi, rspd) pairs."""
    scn = cfg["scenario"]
    grid = build_grid(cfg)
    n_snap = scn["train_snapshots"]
    ids = np.indices((len(grid), n_snap)).reshape(2, -1).T  # (point, snapshot) per measurement
    feats = measure_features(cfg, np.repeat(grid.xy, n_snap, axis=0),
                             (_TAG_TRAIN_BITS, _TAG_TRAIN_NOISE), ids)
    return {"features": feats.reshape(len(grid), n_snap, len(scn["sensors"]), 2)}


def build_database(cfg: dict, feats: np.ndarray) -> FingerprintDatabase:
    """Gamma power model and von Mises phase model per sensor per grid point."""
    blocks = {}
    for s in range(feats.shape[2]):
        blocks[f"rssi:{s}"] = fit_gamma(feats[:, :, s, 0])
        blocks[f"rspd:{s}"] = fit_vonmises(feats[:, :, s, 1])
    return FingerprintDatabase(grid=build_grid(cfg), blocks=blocks)


def generate_walk(cfg: dict) -> np.ndarray:
    """Reflecting Gaussian random walk inside the room, shape (steps+1, 2)."""
    scn = cfg["scenario"]
    x0, y0, x1, y1 = room_bounds(cfg)
    rng = np.random.default_rng(derive_seed(cfg["seed"], _TAG_WALK))
    pos = np.array(scn["walk"]["start"], dtype=float)
    path = [pos.copy()]
    sigma = scn["walk"]["step_sigma_m"]
    for _ in range(scn["walk"]["steps"]):
        pos = pos + rng.normal(0.0, sigma, size=2)
        # one bounce off each wall keeps the walk inside for small steps
        if pos[0] < x0:
            pos[0] = 2 * x0 - pos[0]
        if pos[0] > x1:
            pos[0] = 2 * x1 - pos[0]
        if pos[1] < y0:
            pos[1] = 2 * y0 - pos[1]
        if pos[1] > y1:
            pos[1] = 2 * y1 - pos[1]
        pos = np.clip(pos, (x0, y0), (x1, y1))
        path.append(pos.copy())
    return np.array(path)


def walk_features(cfg: dict, path: np.ndarray) -> np.ndarray:
    """(rssi, rspd) per sensor measured at walk positions 1..T, shape (T, sensors, 2)."""
    return measure_features(cfg, path[1:], (_TAG_WALK_BITS, _TAG_WALK_NOISE),
                            np.arange(1, len(path))[:, None])


def evaluate_walk(cfg: dict, db: FingerprintDatabase, with_pf: bool) -> tuple:
    """Per-step errors of the static matchers (and the particle filter).

    Steps are indexed 1..T; a zero-step walk yields empty columns.  Each
    static matcher scores every step in one call.  The particle filter starts
    uniform over the room, advances by the noisy dead-reckoning step, and
    is reweighted by the step's row of the combined power+phase map; each
    step records the filter's effective sample size before resampling and
    whether it resampled.

    Returns (columns, summary): the ``trials.csv`` (with the filter
    ``track.csv``) columns.
    """
    path = generate_walk(cfg)
    n_steps = cfg["scenario"]["walk"]["steps"]

    walk_feats = walk_features(cfg, path)
    # per sensor its power then its phase: the order the combined map sums in
    features = {f"{kind}:{s}": walk_feats[:, s, k]
                for s in range(walk_feats.shape[1])
                for k, kind in enumerate(("rssi", "rspd"))}
    maps = {method: mle_rssi_rspd({key: value for key, value in features.items()
                                   if key.startswith(prefix)}, db)
            for method, prefix in (("rssi", "rssi:"), ("rspd", "rspd:"), ("rssi_rspd", ""))}
    errors = {method: np.hypot(*(db.grid.xy[idx] - path[1:]).T)
              for method, (_, idx) in maps.items()}
    columns = {"step": np.arange(1, n_steps + 1), "true_x": path[1:, 0], "true_y": path[1:, 1],
               **{f"err_{m}": v for m, v in errors.items()}}
    if with_pf:
        tr = cfg["tracking"]
        n_part = tr["particles"]
        est, errors["pf"], ess = np.empty((n_steps, 2)), np.empty(n_steps), np.empty(n_steps)
        resampled = np.zeros(n_steps, dtype=bool)
        if n_steps > 0:
            pdr = simulate_pdr(path, tr["pdr_sigma_m"],
                               np.random.default_rng(derive_seed(cfg["seed"], _TAG_PDR)))
            rng = np.random.default_rng(derive_seed(cfg["seed"], _TAG_PF, 0))
            x0, y0, x1, y1 = room_bounds(cfg)
            positions = rng.uniform((x0, y0), (x1, y1), size=(n_part, 2))
            weights = np.full(n_part, 1.0 / n_part)
        # step t (from 1) jitters from stream (seed, tag, 1, t), resamples from (seed, tag, 2, t)
        streams = zip(seeded_streams(cfg["seed"], _TAG_PF, 1, columns["step"]),
                      seeded_streams(cfg["seed"], _TAG_PF, 2, columns["step"]))
        for t, (jitter_rng, resample_rng) in enumerate(streams):
            positions = particle_predict(positions, pdr[t], tr["pdr_sigma_m"], jitter_rng)
            weights, est[t], ess[t] = particle_update(positions, weights, db.grid,
                                                      maps["rssi_rspd"][0][t])
            if ess[t] < RESAMPLE_ESS_FRACTION * n_part:
                positions, weights = resample_systematic(positions, weights, resample_rng)
                resampled[t] = True
            errors["pf"][t] = math.hypot(est[t, 0] - path[t + 1, 0], est[t, 1] - path[t + 1, 1])
        columns.update(est_x=est[:, 0], est_y=est[:, 1], err_pf=errors["pf"], ess=ess,
                       resampled=resampled)

    summary = {"methods": {m: summarize_errors(v) for m, v in errors.items()},
               "steps": n_steps}
    if n_steps > 0:
        summary["cdf"] = {m: cdf_table(v) for m, v in errors.items()}
    if with_pf and n_steps > 0:
        means = {m: summary["methods"][m]["mean"] for m in errors}
        summary["ordering"] = {
            "rssi_ge_rspd": means["rssi"] >= means["rspd"],
            "rspd_ge_combined": means["rspd"] >= means["rssi_rspd"],
            "combined_ge_pf": means["rssi_rspd"] >= means["pf"],
            "pf_gain_rel": (means["rssi_rspd"] - means["pf"]) / means["rssi_rspd"]
            if means["rssi_rspd"] > 0 else 0.0,
        }
    return columns, summary


def cmd_simulate(cfg: dict, out_dir: str) -> dict:
    arrays = simulate_measurements(cfg)
    save_measurements(cfg, out_dir, arrays)
    feats = arrays["features"]
    summary = {"points": feats.shape[0], "snapshots": feats.shape[1],
               "sensors": feats.shape[2]}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def cmd_learn(cfg: dict, out_dir: str) -> dict:
    feats = load_measurements(cfg, out_dir, simulate_measurements,
                              measurement_shapes(cfg))["features"]
    db = build_database(cfg, feats)
    save_db(cfg, out_dir, db)
    log = {"points": len(db), "sensors": feats.shape[2],
           "per_point_samples": [int(feats.shape[1])] * len(db)}
    write_json(os.path.join(out_dir, "learn_log.json"), log)
    return log


def cmd_localize(cfg: dict, out_dir: str) -> dict:
    db = load_db(cfg, out_dir, cmd_learn)
    columns, summary = evaluate_walk(cfg, db, with_pf=False)
    write_csv(os.path.join(out_dir, "trials.csv"), columns)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def cmd_track(cfg: dict, out_dir: str) -> dict:
    db = load_db(cfg, out_dir, cmd_learn)
    columns, summary = evaluate_walk(cfg, db, with_pf=True)
    write_csv(os.path.join(out_dir, "track.csv"), columns)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary
