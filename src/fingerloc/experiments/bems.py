"""Building-management study: binary occupancy sensors, tracking, lighting.

Eight wall-mounted detectors emit one bit per step.  Detection probability
maps are learned per sensor on the room grid, a recursive grid Bayes filter
tracks the occupant (with the unfiltered per-snapshot argmax as baseline),
and the thresholded candidate cell set drives a minimum-power lighting LP
that is compared against switching every luminaire on.
"""

import math
import os

import numpy as np

from ..database import FingerprintDatabase
from ..errors import ConfigError
from ..geometry import Grid
from ..lighting import LightingScenario, illuminance, solve_lighting
from ..matching import binary_likelihood, threshold_set
from ..simulate import derive_seed, seeded_uniforms
from ..stats import learn_detection_map
from ..tracking import grid_bayes_step, transition_matrix
from .artifacts import read_json
from .common import (
    _refused_as_config_error,
    build_grid,
    cdf_table,
    check_digest,
    config_digest,
    load_db,
    load_measurements,
    save_db,
    save_measurements,
    summarize_errors,
    write_csv,
    write_json,
)

_TAG_TRAIN_VISIT = 301
_TAG_TRAIN_BIT = 302
_TAG_WALK = 303
_TAG_WALK_BIT = 304

DEFAULTS = {
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
}


def build_sensors(cfg: dict) -> dict:
    """The configured sensors as arrays: the shared ``coverage``, overridden per sensor.

    ``edges[s, i]`` is the upper range of sensor s's bin i; a moving user at
    range r is detected with ``p_moving`` of the first bin whose edge covers
    r, the last bin extending outward.  A static user is detected with the
    range-independent ``p_static``.  A sensor with fewer than B bins is
    padded with ``+inf`` edges and its last probability.

    Returns:
        dict of ``pos`` (S, 2), ``edges`` and ``p_moving`` (S, B), and
        ``p_static`` (S,).

    Raises:
        ConfigError: at ``scenario.sensors.<i>`` when a sensor's edges and
            probabilities differ in length, its edges do not strictly ascend,
            or its detection probability rises with range.
    """
    scn = cfg["scenario"]
    merged = [{**scn["coverage"], **s} for s in scn["sensors"]]
    for i, m in enumerate(merged):
        edges, probs, path = m["range_edges_m"], m["p_moving"], f"scenario.sensors.{i}"
        if len(edges) != len(probs):
            raise ConfigError(f"{len(edges)} range edges for {len(probs)} detection "
                              "probabilities", path=path)
        if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])):
            raise ConfigError("range edges must be strictly ascending", path=path)
        if any(p2 > p1 for p1, p2 in zip(probs, probs[1:])):
            raise ConfigError("detection probability must be non-increasing with range",
                              path=path)
    bins = max(len(m["p_moving"]) for m in merged)
    pads = [bins - len(m["p_moving"]) for m in merged]
    return {"pos": np.array([m["pos"] for m in merged], dtype=float),
            "edges": np.array([[*m["range_edges_m"], *[math.inf] * k]
                               for m, k in zip(merged, pads)], dtype=float),
            "p_moving": np.array([[*m["p_moving"], *m["p_moving"][-1:] * k]
                                  for m, k in zip(merged, pads)], dtype=float),
            "p_static": np.array([m["p_static"] for m in merged], dtype=float)}


def measurement_shapes(cfg: dict) -> dict:
    scn = cfg["scenario"]
    n = len(build_grid(cfg)) * scn["train_visits"]
    return {"cell": ((n,), int), "moving": ((n,), bool),
            "bits": ((n, len(scn["sensors"])), bool)}


def sensor_ranges(sensors: dict, xy) -> np.ndarray:
    """(points, sensors) distance from every row of ``xy`` to every sensor."""
    # math.hypot per pair: numpy's hypot differs in the last bit, which can
    # move a range across a detection bin's edge
    pos = sensors["pos"].tolist()
    ranges = [[math.hypot(sx - x, sy - y) for sx, sy in pos]
              for x, y in np.asarray(xy).tolist()]
    return np.array(ranges, dtype=float).reshape(len(ranges), len(pos))


def detection_bits(sensors: dict, ranges, moving, uniforms) -> np.ndarray:
    """Bernoulli detection bits: ``uniforms[..., s] < p_s(ranges[..., s], moving)``.

    ``ranges`` and ``uniforms`` end in one column per sensor; ``moving``
    broadcasts against the columns of ``ranges``.  Sensor s's bin at range r
    is ``min(count(edges[s] < r), B - 1)``: ``searchsorted(side="left")`` on
    its unpadded edges, clamped to the last bin.
    """
    edges = sensors["edges"]
    bins = np.minimum(np.count_nonzero(edges < ranges[..., None], axis=-1), edges.shape[1] - 1)
    p_moving = sensors["p_moving"][np.arange(len(edges)), bins]
    return uniforms < np.where(np.asarray(moving)[..., None], p_moving, sensors["p_static"])


def simulate_measurements(cfg: dict) -> dict:
    """Training visits, cell-major: ``cell`` (n,), ``moving`` (n,), ``bits`` (n, sensors).

    Visit v of cell c moves with the first uniform of stream (seed, tag,
    c, v); sensor s sees it with that of stream (seed, tag, c, v, s).
    """
    grid = build_grid(cfg)
    sensors = build_sensors(cfg)
    n_sensors = len(sensors["pos"])
    scn = cfg["scenario"]
    cells = np.arange(len(grid))[:, None]
    visits = np.arange(scn["train_visits"])[None, :]
    moving = seeded_uniforms(cfg["seed"], _TAG_TRAIN_VISIT, cells, visits) < scn["train_move_prob"]
    u_bits = seeded_uniforms(cfg["seed"], _TAG_TRAIN_BIT, cells[..., None], visits[..., None],
                             np.arange(n_sensors))
    bits = detection_bits(sensors, sensor_ranges(sensors, grid.xy)[:, None], moving, u_bits)
    return {"cell": np.repeat(cells[:, 0], visits.size), "moving": moving.reshape(-1),
            "bits": bits.reshape(-1, n_sensors)}


def build_database(cfg: dict, visits: dict) -> FingerprintDatabase:
    """Detection probability per sensor per cell, one (N,) block per sensor."""
    grid = build_grid(cfg)
    n_sensors = len(cfg["scenario"]["sensors"])
    blocks = {f"det:{si}": learn_detection_map(visits["cell"], visits["bits"][:, si], grid)
              for si in range(n_sensors)}
    return FingerprintDatabase(grid=grid, blocks=blocks)


def generate_walk(cfg: dict) -> tuple:
    """Grid-cell walk; returns (cells, moving_flags), each of length steps."""
    grid = build_grid(cfg)
    g = cfg["scenario"]["grid"]
    nx, ny = g["nx"], g["ny"]
    walk = cfg["scenario"]["walk"]
    cell = walk["start_cell"]
    if not (0 <= cell < len(grid)):
        raise ConfigError("walk start cell is outside the grid", path="scenario.walk.start_cell")
    rng = np.random.default_rng(derive_seed(cfg["seed"], _TAG_WALK))
    cells, moving = [], []
    for _ in range(walk["steps"]):
        moved = False
        if rng.random() < walk["move_prob"]:
            ix, iy = cell % nx, cell // nx
            options = []
            if ix > 0:
                options.append(cell - 1)
            if ix < nx - 1:
                options.append(cell + 1)
            if iy > 0:
                options.append(cell - nx)
            if iy < ny - 1:
                options.append(cell + nx)
            cell = int(options[rng.integers(len(options))])
            moved = True
        cells.append(cell)
        moving.append(moved)
    return cells, moving


def walk_bits(cfg: dict, grid: Grid, cells: list, moving: list) -> np.ndarray:
    """(steps, sensors) detection bits along a walk.

    Sensor s sees step t (counted from 1) with the first uniform of stream
    (seed, tag, t, s).
    """
    sensors = build_sensors(cfg)
    steps = np.arange(1, len(cells) + 1)[:, None]
    uniforms = seeded_uniforms(cfg["seed"], _TAG_WALK_BIT, steps, np.arange(len(sensors["pos"])))
    return detection_bits(sensors, sensor_ranges(sensors, grid.xy[cells]), moving, uniforms)


def evaluate_track(cfg: dict, db: FingerprintDatabase) -> tuple:
    """Tracked vs per-snapshot localization along the walk.

    Returns (columns, occupied, summary): the ``track.csv`` columns, and the
    (steps, N) mask of the thresholded cell set U_t per step for downstream
    lighting control.
    """
    grid = db.grid
    n_sensors = sum(key.startswith("det:") for key in db.blocks)
    probs = np.stack([db.block(f"det:{si}", np.ndarray) for si in range(n_sensors)])
    spacing = cfg["scenario"]["grid"]["spacing_m"]
    cells, moving = generate_walk(cfg)
    eta = math.log(cfg["matching"]["eta_rel"])
    tr = cfg["tracking"]
    trans = transition_matrix(grid, tr["p_static"], tr["accel_sigma"] * tr["dt"] ** 2)
    pts = grid.xy
    obs_values = binary_likelihood(walk_bits(cfg, grid, cells, moving), probs)
    snap = np.argmax(obs_values, axis=1)

    tracked = np.empty(len(cells), dtype=int)
    occupied = np.empty(obs_values.shape, dtype=bool)
    post = None
    for t, obs in enumerate(obs_values):
        # the first step is normalized like the filter does
        post = obs - np.max(obs) if post is None else grid_bayes_step(post, trans, obs)
        tracked[t] = np.argmax(post)
        occupied[t] = threshold_set(post, eta)

    errs_snap = np.hypot(*(pts[snap] - pts[cells]).T)
    errs_track = np.hypot(*(pts[tracked] - pts[cells]).T)
    in_set = occupied[np.arange(len(cells)), cells]
    columns = {"step": np.arange(1, len(cells) + 1), "true_cell": cells,
               "true_x": pts[cells, 0], "true_y": pts[cells, 1],
               "snap_index": snap, "snap_error_m": errs_snap,
               "tracked_index": tracked, "est_x": pts[tracked, 0], "est_y": pts[tracked, 1],
               "tracked_error_m": errs_track,
               "candidates": occupied.sum(axis=1), "true_in_candidates": in_set}
    summary = {
        "steps": len(cells),
        "tracked": summarize_errors(errs_track),
        "snapshot": summarize_errors(errs_snap),
        "grid_spacing_m": spacing,
        "mean_candidates": float(np.mean(columns["candidates"])) if cells else None,
        "true_in_candidates_rate": float(np.mean(in_set)) if cells else None,
    }
    if cells:
        summary["tracked_cells"] = summary["tracked"]["mean"] / spacing
        summary["snapshot_cells"] = summary["snapshot"]["mean"] / spacing
        summary["cdf"] = {"tracked": cdf_table(errs_track),
                          "snapshot": cdf_table(errs_snap)}
    return columns, occupied, summary


def build_lighting_scenario(cfg: dict, grid: Grid) -> LightingScenario:
    lcfg = cfg["lighting"]
    lights = lcfg["lights"]
    return LightingScenario(grid=grid, light_xy=[l["pos"] for l in lights],
                            power_w=[l["power_w"] for l in lights],
                            peak_lux=[l["peak_lux"] for l in lights],
                            height_m=[l["height_m"] for l in lights],
                            target_lux=lcfg["target_lux"],
                            env_lux=np.full(len(grid), float(lcfg["env_lux"])))


def evaluate_lighting(cfg: dict, grid: Grid, true_cells, occupied) -> tuple:
    """Per-step LP control on the (steps, N) candidate mask vs the all-on baseline.

    Returns (columns, summary): the ``lighting.csv`` columns, one row per step.
    """
    scenario = build_lighting_scenario(cfg, grid)
    # a Python sum, light by light: np.sum adds pairwise and could round differently
    all_on = float(sum(scenario.power_w.tolist()))
    switches, power = solve_lighting(scenario, occupied)
    steps = len(power)
    in_set = occupied[np.arange(steps), true_cells]
    ok = illuminance(scenario, switches, true_cells) >= scenario.target_lux - 1e-6
    # the lux at the true cell counts only where its candidate set holds it
    covered = ok[in_set]
    columns = {"step": np.arange(1, steps + 1),
               "occupied_cells": occupied.sum(axis=1), "power_w": power,
               "saving_vs_all_on": 1.0 - power / all_on, "true_in_candidates": in_set,
               "satisfied_at_true": np.where(in_set, ok.astype(object), "")}
    summary = {
        "steps": steps,
        "all_on_power_w": all_on,
        "mean_power_w": float(np.mean(power)) if steps else None,
        "energy_saving": 1.0 - float(np.mean(power)) / all_on if steps else None,
        "satisfaction_rate": float(np.mean(covered)) if covered.size else None,
        "covered_steps": covered.size,
    }
    return columns, summary


def cmd_simulate(cfg: dict, out_dir: str) -> dict:
    visits = simulate_measurements(cfg)
    save_measurements(cfg, out_dir, visits)
    summary = {"observations": len(visits["cell"]),
               "sensors": len(cfg["scenario"]["sensors"])}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def cmd_learn(cfg: dict, out_dir: str) -> dict:
    visits = load_measurements(cfg, out_dir, simulate_measurements, measurement_shapes(cfg))
    db = build_database(cfg, visits)
    save_db(cfg, out_dir, db)
    counts = np.bincount(visits["cell"], minlength=len(db))
    log = {"points": len(db), "sensors": len(cfg["scenario"]["sensors"]),
           "per_point_samples": counts.tolist()}
    write_json(os.path.join(out_dir, "learn_log.json"), log)
    return log


def cmd_localize(cfg: dict, out_dir: str) -> dict:
    db = load_db(cfg, out_dir, cmd_learn)
    track, _occupied, summary = evaluate_track(cfg, db)
    trials = {key: track[key] for key in ("step", "true_cell", "true_x", "true_y")}
    trials.update(est_index=track["snap_index"], error_m=track["snap_error_m"])
    write_csv(os.path.join(out_dir, "trials.csv"), trials)
    reduced = {"steps": summary["steps"], "snapshot": summary["snapshot"],
               "grid_spacing_m": summary["grid_spacing_m"]}
    if "cdf" in summary:
        reduced["cdf"] = {"snapshot": summary["cdf"]["snapshot"]}
    write_json(os.path.join(out_dir, "summary.json"), reduced)
    return reduced


def cmd_track(cfg: dict, out_dir: str) -> dict:
    db = load_db(cfg, out_dir, cmd_learn)
    columns, occupied, summary = evaluate_track(cfg, db)
    write_csv(os.path.join(out_dir, "track.csv"), columns)
    write_json(os.path.join(out_dir, "track_sets.json"),
               {"candidate_sets": [np.flatnonzero(row).tolist() for row in occupied],
                "true_cells": columns["true_cell"],
                "config_digest": config_digest(cfg, "track_sets.json")})
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def read_track_sets(path: str, n_cells: int) -> tuple:
    """(occupied, true cells, config digest or None) of a ``track_sets.json`` file.

    ``occupied`` is the (sets, n_cells) mask of the candidate sets.  Raises
    ValueError unless the file passes the shipped schema, pairs every
    candidate set with one true cell and every cell it names is an int on
    the grid.
    """
    data = read_json(path, "track_sets.json")
    sets, cells = data["candidate_sets"], data["true_cells"]
    if len(sets) != len(cells):
        raise ValueError(f"{path} holds {len(sets)} candidate sets "
                         f"but {len(cells)} true cells")
    # the schema counts 1.0 as an integer, but a cell indexes the mask
    for kind, named in (("true", cells), ("candidate", [c for cand in sets for c in cand])):
        if not all(type(cell) is int for cell in named):
            raise ValueError(f"{path} names a {kind} cell that is not an int")
        if any(cell >= n_cells for cell in named):
            raise ValueError(f"{path} names a {kind} cell outside the {n_cells}-cell grid")
    occupied = np.zeros((len(sets), n_cells), dtype=bool)
    for t, cand in enumerate(sets):
        occupied[t, cand] = True
    return occupied, cells, data.get("config_digest")


def cmd_lighting(cfg: dict, out_dir: str) -> dict:
    # Merge under a namespaced key so a prior tracking summary survives.
    summary_path = os.path.join(out_dir, "summary.json")
    merged = read_json(summary_path) if os.path.exists(summary_path) else {}
    merged.pop("lighting", None)
    db = load_db(cfg, out_dir, cmd_learn)
    # a track_output file is outside input, checked by its schema only, and
    # must exist; the run's own track_sets.json must come from this config's
    # track, and without one the sets are tracked here
    outside = cfg["lighting"]["track_output"]
    sets_path = outside or os.path.join(out_dir, "track_sets.json")
    if outside or os.path.exists(sets_path):
        with _refused_as_config_error("track_sets.json"):
            occupied, cells, digest = read_track_sets(sets_path, len(db.grid))
        if not outside:
            check_digest(cfg, sets_path, digest)
    else:
        track, occupied, _ = evaluate_track(cfg, db)
        cells = track["true_cell"]
    columns, summary = evaluate_lighting(cfg, db.grid, cells, occupied)
    write_csv(os.path.join(out_dir, "lighting.csv"), columns)
    merged["lighting"] = summary
    write_json(summary_path, merged)
    return merged
