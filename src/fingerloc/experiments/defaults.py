"""Central registry of every tunable experiment parameter.

Each pipeline's configuration is the deep merge of ``COMMON``, its entry
below, and the user's JSON config (the user wins).  Parameters without an
established value in the underlying method — the swept fusion weights
``gamma_sweep``, candidate-set threshold ``eta_rel``, particle count,
diagonal loading, mobility strengths — live here so they are visible and
sweepable rather than buried in code.  Every key is read by the pipeline it
belongs to.
"""

import copy

__all__ = ["COMMON", "PIPELINES", "config_defaults"]

COMMON = {
    "version": 1,
    "seed": 20260816,
    "out_dir": "results",
}

_CHANNEL = {
    "path_count": 6,
    "delay_spread_s": 2e-7,
    "pathloss_exponent": 2.5,
    "reference_loss_db": 40.0,
    "rician_k_db": 6.0,
}

PIPELINES = {
    "classroom_cir": {
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
            "channel": dict(_CHANNEL),
            "measurements": None,
        },
        "matching": {
            # Diagonal loading for fingerprint covariance fits (times trace/dim).
            "loading_eps": 1e-3,
        },
        "evaluation": {},
    },
    "wifi_rssi_rspd": {
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
            "channel": dict(_CHANNEL, pathloss_exponent=1.0, rician_k_db=12.0),
            "walk": {"steps": 500, "step_sigma_m": 0.4, "start": [4.5, 4.5]},
            "measurements": None,
        },
        "tracking": {"particles": 1000, "pdr_sigma_m": 0.2},
        "evaluation": {},
    },
    "bems_binary": {
        "out_dir": "results/bems_binary",
        "scenario": {
            "grid": {"nx": 8, "ny": 8, "spacing_m": 1.0, "origin": [0.0, 0.0]},
            # Ceiling-mounted interior sensors: 3x3 lattice minus the center.
            "sensors": [
                {"pos": [1.0, 1.0]}, {"pos": [3.5, 1.0]}, {"pos": [6.0, 1.0]},
                {"pos": [1.0, 3.5]}, {"pos": [6.0, 3.5]},
                {"pos": [1.0, 6.0]}, {"pos": [3.5, 6.0]}, {"pos": [6.0, 6.0]},
            ],
            # Shared coverage profile; per-sensor overrides allowed above.
            "coverage": {
                "range_edges_m": [1.5, 3.0, 4.5, 6.0],
                "p_moving": [0.98, 0.85, 0.5, 0.08],
                "p_static": 0.05,
            },
            "train_visits": 80,
            "train_move_prob": 0.9,
            "walk": {"steps": 200, "move_prob": 0.92, "start_cell": 27},
            "measurements": None,
        },
        "matching": {
            # Candidate cells within this likelihood ratio of the best survive
            # into the threshold set U_t.
            "eta_rel": 0.2,
        },
        "tracking": {"p_static": 0.4, "accel_sigma": 1.0, "dt": 1.0},
        "lighting": {
            "lights": [
                {"pos": [x, y], "power_w": 40.0, "peak_lux": 420.0, "height_m": 2.5}
                for x in (1.0, 3.5, 6.0) for y in (1.0, 3.5, 6.0)
            ],
            "target_lux": 300.0,
            "env_lux": 60.0,
            "track_output": None,
        },
        "evaluation": {},
    },
    "illegal_hybrid": {
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
            "channel": dict(_CHANNEL),
            # Interpolated database lives on a grid this many times denser.
            "densify_factor": 2,
            "pulse_taps": 63,
            "measurements": None,
        },
        "evaluation": {
            "trials": 200,
            "gamma_sweep": [0.0, 0.25, 1.0, 4.0, 16.0, 1e12],
        },
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def config_defaults(pipeline: str) -> dict:
    """Full default configuration for one pipeline."""
    if pipeline not in PIPELINES:
        raise KeyError(f"unknown pipeline {pipeline!r}")
    merged = _deep_merge(COMMON, PIPELINES[pipeline])
    merged["pipeline"] = pipeline
    return merged
