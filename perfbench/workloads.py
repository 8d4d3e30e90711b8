"""The benchmark's workloads: one study pipeline's CLI verb chain each.

Every workload is a raw config merged over the pipeline defaults, so a
change to a default moves the benchmark too.  The seed is not part of the
workload: it is the benchmark's ``--seed`` argument.  ``scenario.measurements``
stays ``null`` as in the shipped defaults, so ``learn`` and ``localize``
re-simulate exactly as a user's run does.

The ``full`` sizes are shrunk from the default configs so that three to six
fresh runs of a chain fit one benchmark run, while the layer each workload
exists for keeps the largest share of its verbs:

* ``classroom_loo``: Gaussian fit/log-likelihood (leave-one-out) and
  correlation features; writes a large Gaussian ``db.json`` that is never
  read back.
* ``wifi_track``: per-step simulation, ``mle_rssi_rspd`` (4 calls a step) and
  the particle filter; the small database is read back.
* ``illegal_hybrid``: frequency projection and kriging densification in
  ``learn``, ``fingerprint_sqerr`` scans in ``localize``.
* ``bems_fine``: the only workload that reaches the dense grid Bayes filter
  and the lighting LP, on the default room at 40x40 cells with small
  candidate sets (see below).

The ``tiny`` sizes copy the shapes of ``TINY`` in ``tests/test_cli.py``; the
benchmark's own test runs them.
"""

import copy
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    pipeline: str
    verbs: tuple
    # summary.json paths of the study's headline results
    results: dict
    # output columns pinned by the reference at the default seed
    columns: dict
    full: dict
    tiny: dict


_TINY = {
    "classroom_cir": {
        "scenario": {"grid": {"nx": 3, "ny": 3, "origin": [0, 0], "spacing_m": 0.78},
                     "snapshots": 3, "tap_count": 4, "channel": {"path_count": 3}},
    },
    "wifi_rssi_rspd": {
        "scenario": {"grid": {"nx": 4, "ny": 4, "origin": [0, 0], "spacing_m": 1.0},
                     "sensors": [[-0.5, 1.5], [3.5, -0.5]], "bits": 16,
                     "train_snapshots": 4,
                     "walk": {"steps": 6, "step_sigma_m": 0.3, "start": [1.5, 1.5]}},
        "tracking": {"particles": 100},
    },
    "bems_binary": {
        "scenario": {"grid": {"nx": 3, "ny": 3, "origin": [0, 0], "spacing_m": 1.0},
                     "sensors": [{"pos": [1, 1]}, {"pos": [0, 2]}],
                     "train_visits": 6,
                     "walk": {"steps": 6, "move_prob": 0.9, "start_cell": 4}},
        "lighting": {"lights": [{"pos": [1, 1], "power_w": 40,
                                 "peak_lux": 2000, "height_m": 2.5}],
                     "target_lux": 100, "env_lux": 20},
    },
    "illegal_hybrid": {
        "scenario": {"grid": {"nx": 2, "ny": 2, "origin": [0, 0], "spacing_m": 2.0},
                     "sensors": [[-1, -1], [5, -1]],
                     "train_freqs_hz": [8e8, 1.5e9], "bits": 16,
                     "train_snapshots": 2, "pulse_taps": 7, "densify_factor": 1},
        "evaluation": {"trials": 3, "gamma_sweep": [0.0, 1.0, 1e12]},
    },
}

WORKLOADS = {
    "classroom_loo": Workload(
        pipeline="classroom_cir",
        verbs=("simulate", "learn", "localize"),
        results={"median_error_m": ("methods", "cir_mle", "median")},
        columns={"trials.csv": ("est_index",)},
        full={"scenario": {"grid": {"nx": 4, "ny": 4, "origin": [0, 0], "spacing_m": 0.78},
                           "snapshots": 16}},
        tiny=_TINY["classroom_cir"],
    ),
    "wifi_track": Workload(
        pipeline="wifi_rssi_rspd",
        verbs=("simulate", "learn", "track"),
        results={"median_error_m": ("methods", "pf", "median")},
        columns={"track.csv": ("est_x", "est_y")},
        full={"scenario": {"train_snapshots": 5, "walk": {"steps": 32}}},
        tiny=_TINY["wifi_rssi_rspd"],
    ),
    "illegal_hybrid": Workload(
        pipeline="illegal_hybrid",
        verbs=("simulate", "learn", "localize"),
        results={"median_error_m": ("best_hybrid_median",)},
        columns={"trials.csv": ("est_index",)},
        full={"scenario": {"grid": {"nx": 5, "ny": 5, "origin": [0, 0], "spacing_m": 3.0},
                           "train_snapshots": 2},
              "evaluation": {"trials": 40}},
        tiny=_TINY["illegal_hybrid"],
    ),
    "bems_fine": Workload(
        pipeline="bems_binary",
        verbs=("simulate", "learn", "track", "lighting"),
        results={"median_error_m": ("tracked", "median"),
                 "energy_saving": ("lighting", "energy_saving")},
        columns={"track.csv": ("snap_index", "tracked_index"),
                 "lighting.csv": ("power_w",)},
        # The default 7 m room at 40x40 cells; the walk starts mid-room.  The
        # LP's cost grows with the candidate set, whose size depends on the
        # walk: at the default eta_rel of 0.2 the sets hold 30-200 cells at
        # this spacing and the lighting time doubles from one seed to the
        # next (still 2x at 0.5 and 0.6).  At 0.9 they hold 1-3 cells, so the
        # LP runs every step while the seed barely moves the chain's time.
        full={"scenario": {"grid": {"nx": 40, "ny": 40, "origin": [0, 0],
                                    "spacing_m": 7.0 / 39},
                           "train_visits": 2,
                           "walk": {"steps": 200, "start_cell": 820}},
              "matching": {"eta_rel": 0.9}},
        tiny=_TINY["bems_binary"],
    ),
}


def raw_config(name: str, size: str, seed: int) -> dict:
    """The raw JSON config of one workload, as a user would write it."""
    wl = WORKLOADS[name]
    raw = copy.deepcopy(wl.full if size == "full" else wl.tiny)
    raw.update({"version": 1, "pipeline": wl.pipeline, "seed": seed})
    return raw
