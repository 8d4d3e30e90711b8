"""End-to-end command-line harness behavior on miniature experiment configs."""

import collections
import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fingerloc import simulate, tracking
from fingerloc.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from fingerloc.database import load_database, read_arrays, write_arrays
from fingerloc.experiments import bems, classroom, illegal, wifi
from fingerloc.experiments.artifacts import validate_artifact, validate_run_dir
from fingerloc.experiments.common import (
    build_grid,
    median,
    read_measurements,
    summarize_errors,
    write_csv,
)
from fingerloc.experiments.configs import load_config, parse_config
from fingerloc.experiments.defaults import PIPELINES, config_defaults
from fingerloc.geometry import Grid
from fingerloc.interp import spatial_densify
from fingerloc.stats import GaussianStats, kriging_fit, kriging_predict
from test_stats import _dense_cov

PIPELINE_MODULES = {"classroom_cir": classroom, "wifi_rssi_rspd": wifi,
                    "bems_binary": bems, "illegal_hybrid": illegal}

# shrunken versions of every pipeline so a full verb chain runs in well under
# a second; scenario shape stays representative (multiple sensors, real walk)
TINY = {
    "classroom_cir": {
        "version": 1, "pipeline": "classroom_cir", "seed": 5,
        "scenario": {"grid": {"nx": 3, "ny": 3, "origin": [0, 0], "spacing_m": 0.78},
                     "snapshots": 3, "tap_count": 4, "channel": {"path_count": 3}},
    },
    "wifi_rssi_rspd": {
        "version": 1, "pipeline": "wifi_rssi_rspd", "seed": 5,
        "scenario": {"grid": {"nx": 4, "ny": 4, "origin": [0, 0], "spacing_m": 1.0},
                     "sensors": [[-0.5, 1.5], [3.5, -0.5]], "bits": 16,
                     "train_snapshots": 4,
                     "walk": {"steps": 6, "step_sigma_m": 0.3, "start": [1.5, 1.5]}},
        "tracking": {"particles": 100},
    },
    "bems_binary": {
        "version": 1, "pipeline": "bems_binary", "seed": 5,
        "scenario": {"grid": {"nx": 3, "ny": 3, "origin": [0, 0], "spacing_m": 1.0},
                     "sensors": [{"pos": [1, 1]}, {"pos": [0, 2]}],
                     "train_visits": 6,
                     "walk": {"steps": 6, "move_prob": 0.9, "start_cell": 4}},
        "lighting": {"lights": [{"pos": [1, 1], "power_w": 40,
                                 "peak_lux": 2000, "height_m": 2.5}],
                     "target_lux": 100, "env_lux": 20},
    },
    "illegal_hybrid": {
        "version": 1, "pipeline": "illegal_hybrid", "seed": 5,
        "scenario": {"grid": {"nx": 2, "ny": 2, "origin": [0, 0], "spacing_m": 2.0},
                     "sensors": [[-1, -1], [5, -1]],
                     "train_freqs_hz": [8e8, 1.5e9], "bits": 16,
                     "train_snapshots": 2, "pulse_taps": 7, "densify_factor": 1},
        "evaluation": {"trials": 3, "gamma_sweep": [0.0, 1.0, 1e12]},
    },
}

VERBS = {
    "classroom_cir": ("simulate", "learn", "localize"),
    "wifi_rssi_rspd": ("simulate", "learn", "localize", "track"),
    "bems_binary": ("simulate", "learn", "localize", "track", "lighting"),
    "illegal_hybrid": ("simulate", "learn", "localize"),
}

# every file a chain writes: each .bin is the raw buffer of the header of its name
_ARTIFACTS_WITH_BUFFERS = {"measurements.json", "measurements.bin", "db.json", "db.bin"}
EXPECTED_FILES = {
    "classroom_cir": _ARTIFACTS_WITH_BUFFERS | {"learn_log.json", "trials.csv", "summary.json"},
    "wifi_rssi_rspd": _ARTIFACTS_WITH_BUFFERS | {"learn_log.json", "trials.csv", "track.csv",
                                                 "summary.json"},
    "bems_binary": _ARTIFACTS_WITH_BUFFERS | {"learn_log.json", "trials.csv", "track.csv",
                                              "track_sets.json", "lighting.csv", "summary.json"},
    "illegal_hybrid": _ARTIFACTS_WITH_BUFFERS | {"learn_log.json", "trials.csv",
                                                 "summary.json"},
}


def _write_config(tmp_path, name, **overrides):
    cfg = json.loads(json.dumps(TINY[name]))
    cfg["out_dir"] = str(tmp_path / name)
    cfg.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg["out_dir"]


def _run_all(cfg_path, name, out=None):
    for verb in VERBS[name]:
        argv = [verb, "--config", cfg_path] + (["--out", out] if out else [])
        assert main(argv) == EXIT_OK, f"{name} {verb} failed"


def _hash_tree(root):
    root = pathlib.Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _restamp(path, raw: bytes) -> None:
    """Write ``raw`` as the buffer of the header at ``path`` and stamp the
    header with its length and sha256, as if the writer had written it."""
    path = pathlib.Path(path)
    path.with_suffix(".bin").write_bytes(raw)
    doc = json.loads(path.read_text())
    doc["buffer"] = {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
    path.write_text(json.dumps(doc))


def _poke(path, where, value, view=None) -> None:
    """Set the first value of the array whose record sits at key path
    ``where`` in the header at ``path``, seen as dtype ``view`` when given,
    to ``value`` in the buffer, past the writer's checks."""
    path = pathlib.Path(path)
    record = json.loads(path.read_text())
    for key in where:
        record = record[key]
    raw = bytearray(path.with_suffix(".bin").read_bytes())
    stored = np.dtype(record["dtype"]).newbyteorder("<")
    values = np.frombuffer(raw, stored, math.prod(record["shape"]), record["offset"])
    values.view(view or stored)[0] = value
    _restamp(path, bytes(raw))


def _plant_measurements(tmp_path, out_dir, change=dict) -> str:
    """A copy of a run's measurements at ``tmp_path/planted.json``, its arrays
    passed through ``change`` (``{name: array}`` to the same)."""
    doc = read_arrays(os.path.join(out_dir, "measurements.json"), "measurements.json")
    doc["arrays"] = change(doc["arrays"])
    planted = tmp_path / "planted.json"
    write_arrays(planted, doc)
    return str(planted)


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_pipeline_verbs_emit_schema_valid_artifacts(name, tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, name)
    _run_all(cfg_path, name)
    produced = set(os.listdir(out_dir))
    assert EXPECTED_FILES[name] <= produced
    # every artifact matches its shipped schema; the buffers have none
    checked = validate_run_dir(out_dir)
    assert len(checked) == len(EXPECTED_FILES[name] - {"measurements.bin", "db.bin"})


@pytest.mark.parametrize("name", sorted(TINY))
def test_rerun_with_same_config_and_seed_is_byte_identical(name, tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, name)
    _run_all(cfg_path, name)
    first = _hash_tree(out_dir)
    second_dir = str(tmp_path / "again")
    _run_all(cfg_path, name, out=second_dir)
    assert _hash_tree(second_dir) == first
    assert len(first) == len(EXPECTED_FILES[name])


def test_stdout_reports_the_output_directory(tmp_path, capsys):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["simulate", "--config", cfg_path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == out_dir


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, "classroom_cir")
    a, b, c = (str(tmp_path / d) for d in "abc")
    assert main(["simulate", "--config", cfg_path, "--seed", "5", "--out", a]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--seed", "6", "--out", b]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--out", c]) == EXIT_OK
    read = lambda d: (pathlib.Path(d) / "measurements.bin").read_bytes()
    assert read(a) != read(b)  # a different seed draws different measurements
    assert read(a) == read(c)  # config seed is 5, so no flag means seed 5


def test_seed_flag_is_checked_against_the_schema(tmp_path, capsys):
    cfg_path, out_dir = _write_config(tmp_path, "classroom_cir")
    capsys.readouterr()
    assert main(["simulate", "--config", cfg_path, "--seed", "-1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: seed") and "minimum" in err, err
    assert not os.path.exists(out_dir)


def _modules_loaded_by(code: str) -> set:
    """Every module in ``sys.modules`` after running ``code`` in a fresh process."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


# Every verb is a fresh process that imports the CLI and resolves its config
# first, so start-up is paid on every verb: scipy.signal, scipy.stats and
# scipy.interpolate once took about half of it, and jsonschema with the
# modules it pulls in about a third of what was left.  A pipeline that calls
# no scipy loads no scipy module at all, and no pipeline loads jsonschema.
NEVER_LOADED = {"signal", "stats", "interpolate"}
SCHEMA_PACKAGES = {"jsonschema", "referencing", "attrs"}
SCIPY_CALLED = {
    "classroom_cir": set(),
    "illegal_hybrid": set(),
    "wifi_rssi_rspd": {"special"},
    "bems_binary": {"special", "optimize", "sparse"},
}
PIPELINE_MODULE_NAMES = {f"fingerloc.experiments.{module}" for module in PIPELINES.values()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_config_loads_only_its_pipeline_and_the_scipy_it_calls(name, tmp_path):
    cfg_path, _ = _write_config(tmp_path, name)
    loaded = _modules_loaded_by(
        "import fingerloc.cli\n"
        "from fingerloc.experiments.configs import load_config\n"
        f"load_config({cfg_path!r})")
    assert loaded & PIPELINE_MODULE_NAMES == {f"fingerloc.experiments.{PIPELINES[name]}"}
    subpackages = {m.split(".")[1] for m in loaded if m.startswith("scipy.")}
    assert SCIPY_CALLED[name] <= subpackages
    assert not subpackages & NEVER_LOADED
    if not SCIPY_CALLED[name]:
        assert "scipy" not in loaded
    if name == "wifi_rssi_rspd":  # the lighting LP's subpackages are bems's alone
        assert not subpackages & {"optimize", "sparse"}
    assert not loaded & SCHEMA_PACKAGES


@pytest.mark.parametrize("name", ["classroom_cir", "illegal_hybrid"])
def test_a_numpy_only_chain_never_loads_numpy_ma(name, tmp_path):
    # np.median, linear np.quantile and np.unique import numpy.ma on first
    # use, milliseconds inside a verb; wifi and bems load it with scipy
    cfg_path, _ = _write_config(tmp_path, name)
    loaded = _modules_loaded_by(
        "from fingerloc.cli import main\n"
        + "".join(f"assert main([{verb!r}, '--config', {cfg_path!r}]) == 0\n"
                  for verb in VERBS[name]))
    assert "fingerloc.experiments.common" in loaded
    assert "numpy.ma" not in loaded


def test_cli_import_and_report_load_no_pipeline_and_no_scipy(tmp_path):
    run = tmp_path / "results" / "runA"
    run.mkdir(parents=True)
    (run / "trials.csv").write_text("step,error_m\n0,1.0\n")
    (run / "summary.json").write_text('{"trials": 1}\n')
    for code in ("import fingerloc.cli",
                 "import fingerloc.cli\n"
                 f"assert fingerloc.cli.main(['report', '--out', {str(tmp_path / 'results')!r}]) == 0"):
        loaded = _modules_loaded_by(code)
        assert not loaded & PIPELINE_MODULE_NAMES
        assert "scipy" not in loaded
        assert not loaded & SCHEMA_PACKAGES
    assert (tmp_path / "results" / "report.json").is_file()


@pytest.mark.parametrize("name", sorted(TINY))
def test_config_defaults_are_a_fresh_copy_on_every_call(name):
    expected = json.dumps(config_defaults(name), sort_keys=True)

    def scribble(node):
        if isinstance(node, dict):
            for value in node.values():
                scribble(value)
            node["scribbled"] = True
        elif isinstance(node, list):
            for value in node:
                scribble(value)
            node.append("scribbled")

    scribble(config_defaults(name))
    assert json.dumps(config_defaults(name), sort_keys=True) == expected


@pytest.mark.parametrize("name", sorted(TINY))
def test_the_bare_config_of_every_pipeline_validates(name):
    assert parse_config({"version": 1, "pipeline": name}) == config_defaults(name)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_config_flag_is_a_config_error():
    assert main(["simulate"]) == EXIT_CONFIG
    assert main(["report"]) == EXIT_CONFIG  # report needs --config or --out


def test_unreadable_config_file_is_an_io_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_IO


def test_malformed_config_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("patch", [
    {"pipeline": "carrier_pigeon"},
    {"version": 2},
    {"seed": -1},
    {"scenario": {"grid": {"nx": 0, "ny": 3, "origin": [0, 0], "spacing_m": 1.0}}},
])
def test_invalid_config_contents_are_config_errors(tmp_path, patch):
    cfg = json.loads(json.dumps(TINY["classroom_cir"]))
    cfg["out_dir"] = str(tmp_path / "out")
    cfg.update(patch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, verb, section, key, path", [
    ("wifi_rssi_rspd", "track", "tracking", "pdr_sigma_m", "tracking.pdr_sigma_m"),
    ("illegal_hybrid", "localize", "evaluation", "gamma_sweep", "evaluation.gamma_sweep.1"),
])
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, value, name, verb,
                                                     section, key, path):
    # json reads NaN and Infinity, and NaN passes every schema minimum
    patched = dict(TINY[name][section])
    patched[key] = [0.0, value] if key == "gamma_sweep" else value
    cfg_path, out_dir = _write_config(tmp_path, name, **{section: patched})
    assert ("NaN" if math.isnan(value) else "Infinity") in pathlib.Path(cfg_path).read_text()
    capsys.readouterr()
    assert main([verb, "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and path in err and "finite" in err
    assert "Traceback" not in err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("sensor, message", [
    ({"range_edges_m": [1.0, 2.0, 3.0]}, "3 range edges for 4 detection probabilities"),
    ({"range_edges_m": [1.0, 3.0, 2.0, 4.0]}, "range edges must be strictly ascending"),
    ({"p_moving": [0.9, 0.95, 0.5, 0.1]}, "detection probability must be non-increasing"),
], ids=["unequal-lengths", "edges-not-ascending", "probability-rises"])
def test_a_bad_sensor_override_is_a_config_error_naming_the_sensor(tmp_path, capsys, sensor,
                                                                   message):
    # the schema bounds each value; the shape of one sensor's merged bins is checked in bems
    scenario = dict(TINY["bems_binary"]["scenario"])
    scenario["sensors"] = scenario["sensors"] + [dict(sensor, pos=[2, 2])]
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary", scenario=scenario)
    capsys.readouterr()
    assert main(["simulate", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert err.rstrip().endswith("(at scenario.sensors.2)") and "Traceback" not in err
    assert not os.path.exists(out_dir)


def test_repeated_gamma_sweep_values_are_a_config_error(tmp_path, capsys):
    # 2 and 2.0 are one gamma: the sweep would score the same map twice
    evaluation = dict(TINY["illegal_hybrid"]["evaluation"], gamma_sweep=[0, 2, 2.0, 7])
    cfg_path, out_dir = _write_config(tmp_path, "illegal_hybrid", evaluation=evaluation)
    capsys.readouterr()
    assert main(["localize", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gamma_sweep" in err and "non-unique" in err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("name,verb", [
    ("classroom_cir", "track"),
    ("wifi_rssi_rspd", "lighting"),
    ("illegal_hybrid", "lighting"),
])
def test_unsupported_verb_for_pipeline_is_a_config_error(tmp_path, name, verb):
    cfg_path, _ = _write_config(tmp_path, name)
    assert main([verb, "--config", cfg_path]) == EXIT_CONFIG


def test_infeasible_lighting_is_a_numeric_error(tmp_path):
    # one feeble lamp cannot reach the lux target anywhere
    cfg_path, _ = _write_config(tmp_path, "bems_binary", lighting={
        "lights": [{"pos": [1, 1], "power_w": 40, "peak_lux": 1.0, "height_m": 2.5}],
        "target_lux": 900, "env_lux": 0,
    })
    assert main(["lighting", "--config", cfg_path]) == EXIT_NUMERIC


def test_classroom_localize_without_loading_needs_full_rank_folds(tmp_path):
    # 3 snapshots of d = 7 lags: without loading no covariance is positive definite
    cfg_path, out_dir = _write_config(tmp_path, "classroom_cir", matching={"loading_eps": 0.0})
    assert main(["simulate", "--config", cfg_path]) == EXIT_OK
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    assert main(["localize", "--config", cfg_path]) == EXIT_NUMERIC
    assert not (pathlib.Path(out_dir) / "trials.csv").exists()
    # 12 snapshots: every fold's scatter has rank 10 >= 7
    scenario = dict(TINY["classroom_cir"]["scenario"], snapshots=12)
    cfg_path, out_dir = _write_config(tmp_path, "classroom_cir", scenario=scenario,
                                      matching={"loading_eps": 0.0},
                                      out_dir=str(tmp_path / "full_rank"))
    _run_all(cfg_path, "classroom_cir")
    validate_run_dir(out_dir)


def _lighting_from_file(tmp_path, doc):
    path = tmp_path / "sets.json"
    path.write_text(json.dumps(doc))
    lighting = dict(TINY["bems_binary"]["lighting"], track_output=str(path))
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary", lighting=lighting)
    return main(["lighting", "--config", cfg_path]), path, pathlib.Path(out_dir)


def test_lighting_reads_a_track_sets_file(tmp_path):
    rc, _, out_dir = _lighting_from_file(
        tmp_path, {"candidate_sets": [[0], [4, 5]], "true_cells": [0, 4]})
    assert rc == EXIT_OK
    with open(out_dir / "lighting.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["occupied_cells"] for row in rows] == ["1", "2"]
    assert [row["true_in_candidates"] for row in rows] == ["true", "true"]


def test_lighting_refuses_a_missing_track_sets_file(tmp_path, capsys):
    # a named track_output is outside input: lighting does not track in its place
    missing = tmp_path / "no_such_sets.json"
    lighting = dict(TINY["bems_binary"]["lighting"], track_output=str(missing))
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary", lighting=lighting)
    capsys.readouterr()
    assert main(["lighting", "--config", cfg_path]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(missing) in err and "Traceback" not in err
    assert not (pathlib.Path(out_dir) / "lighting.csv").exists()
    # the run's own track_sets.json, when missing, is tracked in memory
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["lighting", "--config", cfg_path]) == EXIT_OK
    assert not (pathlib.Path(out_dir) / "track_sets.json").exists()
    assert (pathlib.Path(out_dir) / "lighting.csv").exists()


def test_track_sets_file_and_track_csv_agree_with_the_candidate_mask(tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    for verb in ("simulate", "learn", "track"):
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    path = pathlib.Path(out_dir) / "track_sets.json"
    doc = json.loads(path.read_text())
    occupied, cells, _ = bems.read_track_sets(str(path), 9)
    assert occupied.dtype == bool and occupied.shape == (6, 9) and cells == doc["true_cells"]
    # the file holds each step's sorted cell indices; reading it back gives the mask
    assert [np.flatnonzero(row).tolist() for row in occupied] == doc["candidate_sets"]
    with open(pathlib.Path(out_dir) / "track.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["candidates"]) for row in rows] == occupied.sum(axis=1).tolist()
    assert [row["true_in_candidates"] == "true" for row in rows] == \
        occupied[np.arange(6), cells].tolist()


def test_lighting_refuses_the_candidate_sets_of_another_walk(tmp_path, capsys):
    # track a 6-step walk, then ask lighting for a 9-step one in the same out dir
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    for verb in ("simulate", "learn", "track"):
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    sets_path = pathlib.Path(out_dir) / "track_sets.json"
    assert "config_digest" in json.loads(sets_path.read_text())
    scenario = json.loads(json.dumps(TINY["bems_binary"]["scenario"]))
    scenario["walk"]["steps"] = 9
    longer, _ = _write_config(tmp_path, "bems_binary", scenario=scenario)
    capsys.readouterr()
    assert main(["lighting", "--config", longer]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "rerun track" in err
    assert not (pathlib.Path(out_dir) / "lighting.csv").exists()
    # a run-dir file without a digest is not this config's either
    doc = json.loads(sets_path.read_text())
    del doc["config_digest"]
    sets_path.write_text(json.dumps(doc))
    assert main(["lighting", "--config", cfg_path]) == EXIT_CONFIG
    assert "rerun track" in capsys.readouterr().err
    # rerunning track under the longer walk gives lighting its 9 steps
    assert main(["track", "--config", longer]) == EXIT_OK
    assert main(["lighting", "--config", longer]) == EXIT_OK
    assert len((pathlib.Path(out_dir) / "lighting.csv").read_text().splitlines()) == 1 + 9


def test_lighting_refuses_a_malformed_track_sets_file_of_its_run(tmp_path, capsys):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    for verb in ("simulate", "learn", "track"):
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    path = pathlib.Path(out_dir) / "track_sets.json"
    doc = json.loads(path.read_text())
    assert len(doc["candidate_sets"]) == len(doc["true_cells"]) == 6
    doc["candidate_sets"] = doc["candidate_sets"][:5]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["lighting", "--config", cfg_path]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        f"config error: {path} holds 5 candidate sets but 6 true cells; rerun track")
    assert not (pathlib.Path(out_dir) / "lighting.csv").exists()


@pytest.mark.parametrize("doc", [
    {"candidate_sets": [[0], [1, 2], [4]], "true_cells": [0, 1]},  # one true cell short
    {"candidate_sets": [[0], [1]], "true_cells": [0, 9]},  # true cell off the 3x3 grid
    {"candidate_sets": [[0], [1.5]], "true_cells": [0, 1]},  # schema: a non-integer cell
    {"candidate_sets": [[0]]},  # schema: no true cells
    {"candidate_sets": [[0, 4, 4]], "true_cells": [0]},  # schema: a repeated cell
    {"candidate_sets": [[0], [1, 9]], "true_cells": [0, 1]},  # candidate cell off the grid
    {"candidate_sets": [[0], [1.0]], "true_cells": [0, 1]},  # schema-valid, not an int
    {"candidate_sets": [[0], [1]], "true_cells": [0, 1.0]},  # schema-valid, not an int
])
def test_malformed_track_sets_file_is_a_config_error(tmp_path, capsys, doc):
    rc, path, out_dir = _lighting_from_file(tmp_path, doc)
    assert rc == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err
    assert not (out_dir / "lighting.csv").exists()


@pytest.mark.parametrize("summary", [[1, 2], "x", {"lighting": 5, "steps": "many"},
                                     {"grid_spacing_m": math.nan}])
def test_lighting_refuses_a_malformed_prior_summary(tmp_path, capsys, summary):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    summary_path = pathlib.Path(out_dir) / "summary.json"
    summary_path.parent.mkdir(parents=True)
    summary_path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["lighting", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(summary_path) in err
    assert "Traceback" not in err
    assert summary_path.read_text() == json.dumps(summary)
    assert sorted(os.listdir(out_dir)) == ["summary.json"]


@pytest.mark.parametrize("verbs", [("simulate", "learn", "lighting"),
                                   ("simulate", "learn", "localize", "lighting"),
                                   ("simulate", "lighting", "lighting")])
def test_lighting_merges_into_the_summary_of_a_prior_verb(tmp_path, verbs):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    for verb in verbs:
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    summary = json.loads((pathlib.Path(out_dir) / "summary.json").read_text())
    assert "lighting" in summary and ("snapshot" in summary) == ("localize" in verbs)
    validate_run_dir(out_dir)


def test_illegal_learn_log_counts_filled_projection_bins(tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, "illegal_hybrid")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    log = json.loads((pathlib.Path(out_dir) / "learn_log.json").read_text())
    assert log["filled_bins"] == 0
    # zero one delay bin of one key at one point and frequency in every snapshot
    def zero_bin(arrays):
        arrays["xcorr"][1, 2, :, 3, 0] = 0.0
        return arrays

    planted = _plant_measurements(tmp_path, out_dir, zero_bin)
    scenario = dict(TINY["illegal_hybrid"]["scenario"], measurements=planted)
    cfg_path, _ = _write_config(tmp_path, "illegal_hybrid", scenario=scenario)
    reader = tmp_path / "reader"
    assert main(["learn", "--config", cfg_path, "--out", str(reader)]) == EXIT_OK
    assert json.loads((reader / "learn_log.json").read_text())["filled_bins"] == 1
    validate_run_dir(str(reader))


def test_illegal_fine_lattice_edge_counts_inside_the_survey(tmp_path, monkeypatch):
    # the fine lattice's far edge, 21 * (0.3 / 7), rounds one ulp past the
    # survey's, 3 * 0.3, yet lies on the survey box and is kriged
    scenario = dict(TINY["illegal_hybrid"]["scenario"], densify_factor=7,
                    grid={"nx": 4, "ny": 2, "origin": [0, 0], "spacing_m": 0.3})
    cfg_path, out_dir = _write_config(tmp_path, "illegal_hybrid", scenario=scenario)
    calls = []

    def spy(coarse, factor, confidences):
        dense = spatial_densify(coarse, factor, confidences=confidences)
        calls.append((coarse, dense))
        return dense

    monkeypatch.setattr(illegal, "spatial_densify", spy)
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    log = json.loads((pathlib.Path(out_dir) / "learn_log.json").read_text())
    assert log["points"] == 176 and "outside_hull" not in log
    (coarse, dense), = calls
    far = coarse.grid.xy[:, 0].max()
    assert dense.grid.xy[:, 0].max() == np.nextafter(far, 1.0)
    edge = dense.grid.xy[:, 0] == dense.grid.xy[:, 0].max()
    column = Grid((far, 0.0), nx=1, ny=8, spacing=0.3 / 7)
    for key, block in coarse.blocks.items():
        if np.iscomplexobj(block):
            db = 10.0 * np.log10(np.abs(block))
            want = kriging_predict(kriging_fit(coarse.grid, db), column)
            got = 10.0 * np.log10(np.abs(dense.blocks[key][edge]))
            assert np.allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(db)))
            # a copy of the nearest survey point would keep its rough value
            assert not np.allclose(got[::7], db[[3, 7]], rtol=0.0, atol=1e-6)


def test_illegal_learn_log_reports_kriging_conditioning(tmp_path):
    # a 3x3 survey grid at 2 m: R + 1e-6 I written out with the default
    # length scale of twice the spacing
    scenario = dict(TINY["illegal_hybrid"]["scenario"],
                    grid={"nx": 3, "ny": 3, "origin": [0, 0], "spacing_m": 2.0})
    cfg_path, out_dir = _write_config(tmp_path, "illegal_hybrid", scenario=scenario)
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    log = json.loads((pathlib.Path(out_dir) / "learn_log.json").read_text())
    xy = np.array([(x, y) for y in (0.0, 2.0, 4.0) for x in (0.0, 2.0, 4.0)])
    d2 = np.sum((xy[:, None, :] - xy[None, :, :]) ** 2, axis=-1)
    gram = np.exp(-d2 / (2 * 4.0 ** 2)) + 1e-6 * np.eye(9)
    assert log["kriging_cond"] == pytest.approx(np.linalg.cond(gram), rel=1e-9)
    assert log["kriging_cond"] > 1e3


def test_classroom_learn_and_localize_hold_one_pair_of_features_at_a_time(tmp_path):
    """A 6x6 seat grid with 20 snapshots and the default 7 antennas (21
    pairs of 15 lags).  Built for all pairs at once, as one (seats,
    snapshots, pairs, lags) block, the features and their leave-one-out
    temporaries peaked at 10.1 MB traced in learn and 27.9 MB in localize;
    one pair at a time they peak at 4.4 and 10.7 MB."""
    scenario = {"grid": {"nx": 6, "ny": 6, "origin": [0, 0], "spacing_m": 0.78},
                "snapshots": 20}
    cfg = parse_config({"version": 1, "pipeline": "classroom_cir", "seed": 0,
                        "out_dir": str(tmp_path), "scenario": scenario})
    out_dir = str(tmp_path)
    classroom.cmd_simulate(cfg, out_dir)
    classroom.cmd_learn(cfg, out_dir)
    classroom.cmd_localize(cfg, out_dir)  # caches and lazy imports first
    peaks = []
    for verb in (classroom.cmd_learn, classroom.cmd_localize):
        tracemalloc.start()
        try:
            verb(cfg, out_dir)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(classroom.pair_keys(len(classroom.antenna_layout(cfg)))) == 21
    assert peaks[0] < 6e6 and peaks[1] < 14e6


def test_classroom_learn_log_reports_model_health(tmp_path):
    def learn(loading_eps):
        cfg_path, out_dir = _write_config(tmp_path, "classroom_cir",
                                          matching={"loading_eps": loading_eps},
                                          out_dir=str(tmp_path / str(loading_eps)))
        assert main(["learn", "--config", cfg_path]) == EXIT_OK
        validate_run_dir(out_dir)
        db = load_database(os.path.join(out_dir, "db.json"))
        blocks = [db.block(key, GaussianStats) for key in classroom.pair_keys(7)]
        log = json.loads((pathlib.Path(out_dir) / "learn_log.json").read_text())
        return log, blocks

    log, blocks = learn(1e-3)
    loading = np.concatenate([b.loading for b in blocks])
    assert log["loading"] == [loading.min(), loading.max()]
    # every key's largest condition number, from its dense covariances
    conds = [max(np.linalg.cond(cov) for cov in _dense_cov(b)) for b in blocks]
    assert log["gaussian_cond"] == pytest.approx(max(conds), rel=1e-9)
    assert log["gaussian_cond"] <= 1.0 + 7 / 1e-3  # loading bounds it by 1 + d / eps
    assert sorted(log["per_key"]) == sorted(classroom.pair_keys(7))
    for key, block, cond in zip(classroom.pair_keys(7), blocks, conds):
        health = log["per_key"][key]
        assert health["loading"] == [block.loading.min(), block.loading.max()]
        assert health["gaussian_cond"] == pytest.approx(cond, rel=1e-9)
    # a tiny loading on 3 snapshots of 7 lags: scatters of rank 2, barely loaded
    log, _ = learn(1e-12)
    assert log["gaussian_cond"] > 1e10
    assert log["gaussian_cond"] == max(h["gaussian_cond"] for h in log["per_key"].values())
    # no loading: singular covariances, in every key, show as null
    log, _ = learn(0.0)
    assert log["gaussian_cond"] is None and log["loading"] == [0.0, 0.0]
    assert all(h["gaussian_cond"] is None for h in log["per_key"].values())


@pytest.mark.parametrize("snapshots, refits", [(3, 1), (10, 0)])
def test_classroom_localize_factorizes_nothing(tmp_path, monkeypatch, snapshots, refits):
    # learn takes one batched eigh per antenna pair; localize scores and
    # downdates the stored eigenpairs, with no eigh, Cholesky or inverse.  At
    # TINY's 3 snapshots of 7 lags every fold holds 2 samples, its scatter is
    # singular and its downdate 1 - a q falls below the refit bound, so each
    # pair refits its folds in one batched fit_gaussian; 10 snapshots leave
    # full-rank folds and take the default path
    scenario = dict(TINY["classroom_cir"]["scenario"], snapshots=snapshots)
    cfg = parse_config(dict(TINY["classroom_cir"], scenario=scenario))
    out_dir = str(tmp_path)
    classroom.cmd_simulate(cfg, out_dir)
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh", "cholesky", "inv"):
        def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    pairs = len(classroom.pair_keys(7))
    classroom.cmd_learn(cfg, out_dir)
    assert calls == {"eigh": pairs}
    calls.clear()
    classroom.cmd_localize(cfg, out_dir)
    assert calls == ({"eigh": pairs} if refits else {})


def test_illegal_chain_runs_with_a_four_element_array(tmp_path):
    # six element pairs per sensor in the phase-difference measurements
    scenario = dict(TINY["illegal_hybrid"]["scenario"], uca={"elements": 4, "radius_m": 0.05})
    cfg_path, out_dir = _write_config(tmp_path, "illegal_hybrid", scenario=scenario)
    _run_all(cfg_path, "illegal_hybrid")
    cfg = load_config(cfg_path)
    arrays, _ = read_measurements(os.path.join(out_dir, "measurements.json"), cfg,
                                  illegal.measurement_shapes(cfg))
    assert arrays["phase"].shape[-1] == 6


def test_integer_and_float_spellings_of_a_position_simulate_alike():
    # JSON 1 and 1.0 are one number, so both spellings seed the same streams
    def cirs(origin, spacing, offset):
        scenario = dict(TINY["classroom_cir"]["scenario"], corner_offset_m=offset,
                        grid={"nx": 2, "ny": 2, "origin": origin, "spacing_m": spacing})
        cfg = parse_config(dict(TINY["classroom_cir"], scenario=scenario))
        return classroom.simulate_measurements(cfg)["cirs"]

    assert np.array_equal(cirs([0, 0], 1, 1), cirs([0.0, 0.0], 1.0, 1.0))


def test_wifi_track_csv_records_filter_health(tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, "wifi_rssi_rspd")
    for verb in ("simulate", "learn", "track"):
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    particles = TINY["wifi_rssi_rspd"]["tracking"]["particles"]
    with open(pathlib.Path(out_dir) / "track.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == TINY["wifi_rssi_rspd"]["scenario"]["walk"]["steps"]
    for row in rows:
        ess = float(row["ess"])
        assert 1.0 <= ess <= particles
        assert row["resampled"] == ("true" if ess < particles / 2 else "false")


def _wifi_db(tmp_path, steps):
    """A learned tiny wifi run whose walk takes ``steps`` steps: (cfg, database)."""
    scenario = dict(TINY["wifi_rssi_rspd"]["scenario"],
                    walk=dict(TINY["wifi_rssi_rspd"]["scenario"]["walk"], steps=steps))
    cfg_path, out_dir = _write_config(tmp_path, "wifi_rssi_rspd", scenario=scenario)
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    return load_config(cfg_path), load_database(os.path.join(out_dir, "db.json"))


@pytest.mark.parametrize("steps", [1, 6, 11])
def test_wifi_track_derives_three_seeds_whatever_the_step_count(tmp_path, monkeypatch, steps):
    # the walk, the dead reckoning and the filter's start; the filter's
    # per-step streams are rows of seeded_streams
    cfg, db = _wifi_db(tmp_path, steps)
    calls = []
    real = wifi.derive_seed

    def counting(*parts):
        calls.append(parts)
        return real(*parts)

    for module in (wifi, simulate):
        monkeypatch.setattr(module, "derive_seed", counting)
    wifi.evaluate_walk(cfg, db, with_pf=True)
    seed = cfg["seed"]
    assert sorted(calls) == sorted([(seed, wifi._TAG_WALK), (seed, wifi._TAG_PDR),
                                    (seed, wifi._TAG_PF, 0)])


def test_wifi_resampled_marks_the_steps_that_resampled(tmp_path, monkeypatch):
    cfg, db = _wifi_db(tmp_path, 11)
    updates, resampled_at = [], []

    def update(*args):
        updates.append(args)
        return tracking.particle_update(*args)

    def resample(*args):
        resampled_at.append(len(updates) - 1)
        return tracking.resample_systematic(*args)

    monkeypatch.setattr(wifi, "particle_update", update)
    monkeypatch.setattr(wifi, "resample_systematic", resample)
    columns, _ = wifi.evaluate_walk(cfg, db, with_pf=True)
    assert len(updates) == 11
    # the tiny walk resamples on some steps and not on others
    assert 0 < len(resampled_at) < 11
    assert np.flatnonzero(columns["resampled"]).tolist() == resampled_at


def test_bems_track_steps_with_accel_sigma_times_dt_squared(tmp_path, monkeypatch):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary",
                                      tracking={"p_static": 0.2, "accel_sigma": 0.5, "dt": 2.0})
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    seen = []

    def spy(grid, p_static, step_sigma):
        seen.append((p_static, step_sigma))
        return tracking.transition_matrix(grid, p_static, step_sigma)

    monkeypatch.setattr(bems, "transition_matrix", spy)
    assert main(["track", "--config", cfg_path]) == EXIT_OK
    assert seen == [(0.2, 0.5 * 2.0 ** 2)]


@pytest.mark.parametrize("key", ["power_w", "peak_lux", "height_m"])
def test_a_light_without_a_photometric_key_fails_every_verb_at_load(tmp_path, capsys, key):
    light = {k: v for k, v in TINY["bems_binary"]["lighting"]["lights"][0].items() if k != key}
    lighting = dict(TINY["bems_binary"]["lighting"], lights=[light])
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary", lighting=lighting)
    for verb in VERBS["bems_binary"]:
        capsys.readouterr()
        assert main([verb, "--config", cfg_path]) == EXIT_CONFIG, verb
        err = capsys.readouterr().err
        assert err.startswith("config error: lighting.lights.0") and key in err, err
    assert not os.path.exists(out_dir)


def test_database_from_another_grid_is_a_config_error(tmp_path):
    # learn on the 4x4 grid, then localize under a config that asks for 6x6
    cfg_path, out_dir = _write_config(tmp_path, "wifi_rssi_rspd")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    cfg = json.loads(pathlib.Path(cfg_path).read_text())
    cfg["scenario"]["grid"].update(nx=6, ny=6)
    pathlib.Path(cfg_path).write_text(json.dumps(cfg))
    assert main(["localize", "--config", cfg_path, "--seed", "9"]) == EXIT_CONFIG
    assert not (pathlib.Path(out_dir) / "trials.csv").exists()


@pytest.mark.parametrize("name", sorted(TINY))
def test_learned_database_stores_its_grid_as_a_lattice(name, tmp_path):
    # four numbers whatever the cell count; the unknown-emitter map is on the densified grid
    cfg_path, out_dir = _write_config(tmp_path, name)
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    cfg = load_config(cfg_path)
    grid = build_grid(cfg)
    if name == "illegal_hybrid":
        f = cfg["scenario"]["densify_factor"]
        grid = Grid(grid.origin, (grid.nx - 1) * f + 1, (grid.ny - 1) * f + 1, grid.spacing / f)
    path = pathlib.Path(out_dir) / "db.json"
    assert json.loads(path.read_text())["grid"] == {
        "origin": list(grid.origin), "nx": grid.nx, "ny": grid.ny,
        "spacing": grid.spacing}
    db = load_database(str(path))  # checks every block against the grid's cell count
    assert db.grid == grid and len(db.blocks) > 0


def test_database_from_another_seed_and_scenario_on_the_same_grid_is_a_config_error(tmp_path):
    # learn at seed 5 with 4 snapshots, then localize at seed 9 with 9 on the same 4x4 grid
    cfg_path, out_dir = _write_config(tmp_path, "wifi_rssi_rspd")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    cfg = json.loads(pathlib.Path(cfg_path).read_text())
    cfg["scenario"]["train_snapshots"] = 9
    pathlib.Path(cfg_path).write_text(json.dumps(cfg))
    assert main(["localize", "--config", cfg_path, "--seed", "9"]) == EXIT_CONFIG
    assert not (pathlib.Path(out_dir) / "trials.csv").exists()


def test_measurements_from_another_seed_are_a_config_error(tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, "wifi_rssi_rspd")
    assert main(["simulate", "--config", cfg_path, "--seed", "6"]) == EXIT_OK
    assert main(["learn", "--config", cfg_path, "--seed", "5"]) == EXIT_CONFIG
    assert not (pathlib.Path(out_dir) / "db.json").exists()


def test_database_learned_at_another_loading_is_a_config_error(tmp_path):
    # classroom localize scores against the stored fits, so their loading must match
    cfg_path, out_dir = _write_config(tmp_path, "classroom_cir")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    cfg = json.loads(pathlib.Path(cfg_path).read_text())
    cfg["matching"] = {"loading_eps": 0.5}
    pathlib.Path(cfg_path).write_text(json.dumps(cfg))
    assert main(["localize", "--config", cfg_path]) == EXIT_CONFIG
    assert not (pathlib.Path(out_dir) / "trials.csv").exists()


@pytest.mark.parametrize("grid", [{"origin": ["a", 0.0]}, {"origin": [0.0, None]},
                                  {"spacing": "1.0"}, {"origin": 5}, {"origin": "xy"},
                                  pytest.param([0.0, 0.0, 2, 2, 1.0], id="grid-not-an-object"),
                                  pytest.param(None, id="document-not-an-object")])
def test_database_with_a_malformed_grid_is_a_config_error(tmp_path, capsys, grid):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    db_path = pathlib.Path(out_dir) / "db.json"
    doc = json.loads(db_path.read_text())
    if grid is None:
        doc = [doc]
    elif isinstance(grid, dict):
        doc["grid"].update(grid)
    else:
        doc["grid"] = grid
    db_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["track", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (pathlib.Path(out_dir) / "track.csv").exists()


def test_database_in_the_version_1_layout_is_a_config_error(tmp_path, capsys):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    db_path = pathlib.Path(out_dir) / "db.json"
    doc = json.loads(db_path.read_text())
    stored = load_database(str(db_path)).blocks
    g = doc["grid"]
    points = [[g["origin"][0] + (k % g["nx"]) * g["spacing"],
               g["origin"][1] + (k // g["nx"]) * g["spacing"]] for k in range(g["nx"] * g["ny"])]
    # version 2 stored the same blocks over a list of grid points
    v2 = dict(doc, version="fingerloc-db-2", grid={"points": points, "spacing": g["spacing"]})
    v1 = dict(v2, version="fingerloc-db-1", entries=[{} for _ in points])
    del v1["blocks"]
    # version 3 stored the probabilities as "scalar" blocks
    v3 = dict(doc, version="fingerloc-db-3",
              blocks={key: dict(block, type="scalar") for key, block in doc["blocks"].items()})
    # version 4 stored them as "real" blocks of JSON lists
    v4 = dict(doc, version="fingerloc-db-4", blocks={
        key: {"type": "real", "values": stored[key].tolist()} for key in doc["blocks"]})
    # version 5 kept the digest in a "meta" record with training provenance
    v5 = {key: value for key, value in doc.items() if key != "config_digest"}
    v5.update(version="fingerloc-db-5", meta={
        "config_digest": doc["config_digest"], "derived": False, "extra": {},
        "train_bandwidths_hz": [], "train_freqs_hz": []})
    # version 6 held each array's bytes as base64 in its record, with no buffer file
    v6 = {key: value for key, value in doc.items() if key != "buffer"}
    v6.update(version="fingerloc-db-6", blocks={
        key: {"type": "array", "values": {"dtype": "float64", "shape": [len(stored[key])],
                                          "data": "AAAAAAAA4D8="}}
        for key in doc["blocks"]})
    for stale in (v1, v2, v3, v4, v5, v6):
        db_path.write_text(json.dumps(stale))
        for verb in ("localize", "track"):
            capsys.readouterr()
            assert main([verb, "--config", cfg_path]) == EXIT_CONFIG
            assert "rerun learn" in capsys.readouterr().err
    db_path.write_text(json.dumps(doc))
    assert main(["localize", "--config", cfg_path]) == EXIT_OK


@pytest.mark.parametrize("where, message", [
    ((), "<root>: Additional properties are not allowed ('meta' was unexpected)"),
    (("grid",), "grid: Additional properties are not allowed ('meta' was unexpected)"),
    (("blocks", "rssi:0"), "'meta': {}} is not valid under any of the given schemas"),
], ids=["top-level", "grid", "block"])
def test_database_with_an_unknown_key_is_a_config_error(tmp_path, capsys, where, message):
    # db.schema.json allows no other keys, and the reader checks it
    cfg_path, out_dir = _write_config(tmp_path, "wifi_rssi_rspd")
    for verb in ("simulate", "learn"):
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    db_path = pathlib.Path(out_dir) / "db.json"
    doc = json.loads(db_path.read_text())
    target = doc
    for key in where:
        target = target[key]
    target["meta"] = {}
    db_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        validate_artifact(str(db_path))
    capsys.readouterr()
    assert main(["track", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{db_path}: {'/'.join(where) or '<root>'}: " in err
    assert f"{message}; rerun learn" in err
    assert not (pathlib.Path(out_dir) / "track.csv").exists()


@pytest.mark.parametrize("artifact, token", [("db", "NaN"), ("db", "Infinity"),
                                              ("measurements", "NaN")])
def test_a_non_finite_header_value_names_the_file_and_the_verb_to_rerun(tmp_path, capsys,
                                                                        artifact, token):
    # the parser refuses NaN and Infinity, which would pass every schema bound
    cfg_path, out_dir = _write_config(tmp_path, "wifi_rssi_rspd")
    for verb in ("simulate", "learn"):
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    path = pathlib.Path(out_dir) / f"{artifact}.json"
    text = path.read_text()
    if artifact == "db":
        doc = json.loads(text)
        text = text.replace(f'"spacing":{doc["grid"]["spacing"]!r}', f'"spacing":{token}')
    else:
        text = text.replace('"buffer":{"bytes":', f'"buffer":{{"bytes":{token},"x":')
    path.write_text(text)
    # a broken map stops localize, a broken survey stops learn before it writes the map
    verb, writer, product = (("localize", "learn", "trials.csv") if artifact == "db"
                             else ("learn", "simulate", "db.json"))
    (pathlib.Path(out_dir) / product).unlink(missing_ok=True)
    capsys.readouterr()
    assert main([verb, "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.strip() == f"config error: {path}: {token} is not a finite number; rerun {writer}"
    assert not (pathlib.Path(out_dir) / product).exists()


@pytest.mark.parametrize("name, key", [("bems_binary", "det:0"),
                                       ("illegal_hybrid", "xc:0:0-1")])
def test_database_with_non_finite_values_is_a_config_error(tmp_path, capsys, name, key):
    cfg_path, out_dir = _write_config(tmp_path, name)
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    _poke(pathlib.Path(out_dir) / "db.json", ("blocks", key, "values"), math.nan)
    capsys.readouterr()
    assert main(["localize", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "non-finite" in err
    assert err.rstrip().endswith("; rerun learn")
    assert "Traceback" not in err
    assert not (pathlib.Path(out_dir) / "trials.csv").exists()


@pytest.mark.parametrize("prob", [1.0, 0.0])
def test_database_with_a_certain_detection_probability_is_a_config_error(tmp_path, capsys,
                                                                        prob):
    # finite, so it loads; a 0 or 1 would put -inf into the log-likelihoods
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    _poke(pathlib.Path(out_dir) / "db.json", ("blocks", "det:0", "values"), prob)
    capsys.readouterr()
    assert main(["track", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "strictly inside (0, 1)" in err
    assert "Traceback" not in err
    assert not (pathlib.Path(out_dir) / "track.csv").exists()


def test_database_refusing_its_grid_names_the_file(tmp_path, capsys):
    # a schema-valid grid the blocks do not cover: the database refuses it, not the reader
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    path = pathlib.Path(out_dir) / "db.json"
    doc = json.loads(path.read_text())
    doc["grid"]["nx"] = 4
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["localize", "--config", cfg_path]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        f"config error: {path}: block 'det:0' covers 9 points, the grid has 12; rerun learn")
    assert not (pathlib.Path(out_dir) / "trials.csv").exists()


def _record_change(change):
    """A corruption that replaces the array record at key path ``where`` in
    the header at ``path`` by ``change(record)``."""
    def corrupt(path, where):
        doc = json.loads(path.read_text())
        *parents, last = where
        node = doc
        for part in parents:
            node = node[part]
        node[last] = change(node[last])
        path.write_text(json.dumps(doc))
    return corrupt


@pytest.mark.parametrize("name, where, corrupt", [
    pytest.param("illegal_hybrid", ("blocks", "xc:0:0-1", "values"), _record_change(lambda r: 1.0),
                 id="complex-scalar"),
    pytest.param("bems_binary", ("blocks", "det:0", "values"), _record_change(lambda r: 0.5),
                 id="real-scalar"),
    # a record of the base64 format, whatever its data holds
    pytest.param("bems_binary", ("blocks", "det:0", "values"),
                 _record_change(lambda r: dict(r, data="not base64!")), id="data-not-base64"),
    pytest.param("bems_binary", ("blocks", "det:0", "values"),
                 _record_change(lambda r: dict(r, data=[0.5] * r["shape"][0])),
                 id="data-not-a-string"),
    pytest.param("illegal_hybrid", ("blocks", "xc:0:0-1", "values"),
                 _record_change(lambda r: dict(r, shape=[r["shape"][0] + 1] + r["shape"][1:])),
                 id="byte-count"),
    pytest.param("bems_binary", ("blocks", "det:0", "values"),
                 _record_change(lambda r: dict(r, shape=[-n for n in r["shape"]])),
                 id="negative-shape"),
    pytest.param("bems_binary", ("blocks", "det:0", "values"),
                 _record_change(lambda r: dict(r, shape=[float(n) for n in r["shape"]])),
                 id="float-shape"),
    pytest.param("bems_binary", ("blocks", "det:0", "values"),
                 _record_change(lambda r: dict(r, shape=[])), id="rank-0"),
    pytest.param("bems_binary", ("blocks", "det:0", "values"),
                 _record_change(lambda r: dict(r, dtype="float32")), id="float32"),
    pytest.param("bems_binary", ("blocks", "det:0", "values"),
                 _record_change(lambda r: dict(r, dtype="object")), id="object"),
    # the same bytes read as [re, im] float64 pairs
    pytest.param("classroom_cir", ("blocks", "xc:0-1", "mean"),
                 _record_change(lambda r: dict(r, dtype="float64",
                                               shape=r["shape"][:-1] + [2 * r["shape"][-1]])),
                 id="gaussian-mean-float64"),
    pytest.param("bems_binary", ("arrays", "moving"),
                 lambda path, where: _poke(path, where, 2, np.uint8), id="bool-byte-2"),
])
def test_database_with_a_malformed_array_is_a_config_error(tmp_path, capsys, name, where,
                                                           corrupt):
    cfg_path, out_dir = _write_config(tmp_path, name)
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    in_db = where[0] == "blocks"
    corrupt(pathlib.Path(out_dir) / ("db.json" if in_db else "measurements.json"), where)
    # a broken map stops localize, a broken survey stops learn before it writes the map
    verb, product = ("localize", "trials.csv") if in_db else ("learn", "db.json")
    (pathlib.Path(out_dir) / product).unlink(missing_ok=True)
    capsys.readouterr()
    assert main([verb, "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "/".join(where[:2]) in err
    assert err.rstrip().endswith("; rerun learn" if in_db else "; rerun simulate")
    assert "Traceback" not in err
    assert not (pathlib.Path(out_dir) / product).exists()


def _as_db_7(path) -> None:
    """Rewrite the header at ``path`` in the ``fingerloc-db-7`` layout, whose
    Gaussian blocks held a dense ``cov`` record instead of eigenpairs."""
    doc = json.loads(path.read_text())
    for block in doc["blocks"].values():
        if block["type"] == "gaussian":
            block["cov"] = block.pop("eigvecs")
            del block["eigvals"]
    path.write_text(json.dumps(dict(doc, version="fingerloc-db-7")))


_EIGVALS, _EIGVECS = (("blocks", "xc:0-1", name) for name in ("eigvals", "eigvecs"))


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_as_db_7, "'cov': {'dtype': 'complex128'", id="db-7"),
    pytest.param(lambda path: _poke(path, _EIGVECS, 2.0), "eigvecs are not unitary",
                 id="non-unitary-eigvecs"),
    pytest.param(lambda path: _poke(path, _EIGVALS, -1.0),
                 "eigvals has negative entry -1.000e+00 past the rounding bound",
                 id="negative-eigvals"),
    pytest.param(lambda path: _record_change(
        lambda r: dict(r, shape=[r["shape"][0] * r["shape"][1], r["shape"][2]]))(path, _EIGVECS),
        "eigvecs shape (63, 7) does not match mean (9, 7)", id="mismatched-shapes"),
])
def test_classroom_gaussian_block_learn_did_not_write_is_a_config_error(tmp_path, capsys,
                                                                        corrupt, message):
    cfg_path, out_dir = _write_config(tmp_path, "classroom_cir")
    for verb in ("simulate", "learn"):
        assert main([verb, "--config", cfg_path]) == EXIT_OK
    corrupt(pathlib.Path(out_dir) / "db.json")
    capsys.readouterr()
    assert main(["localize", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert err.rstrip().endswith("; rerun learn") and "Traceback" not in err
    assert not (pathlib.Path(out_dir) / "trials.csv").exists()


# (artifact, how its buffer breaks, pipeline); the database holds no bool
# arrays, so a bool byte of 2 can only break the measurements
_BROKEN_BUFFERS = [(artifact, case, "wifi_rssi_rspd") for artifact in ("measurements", "db")
                   for case in ("truncated", "extended", "flipped-byte", "another-seed",
                                "deleted", "nan")]
_BROKEN_BUFFERS.append(("measurements", "bool-byte-2", "bems_binary"))


@pytest.mark.parametrize("artifact, case, name", _BROKEN_BUFFERS,
                         ids=[f"{a}-{c}" for a, c, _ in _BROKEN_BUFFERS])
def test_a_buffer_its_header_does_not_describe_is_a_config_error(tmp_path, capsys, artifact,
                                                                 case, name):
    # the verb that wrote the artifact, and the verb that reads it and its product
    writer, reader, product = {"measurements": ("simulate", "learn", "db.json"),
                               "db": ("learn", "localize", "trials.csv")}[artifact]
    cfg_path, out_dir = _write_config(tmp_path, name)
    assert main([writer, "--config", cfg_path]) == EXIT_OK
    header = pathlib.Path(out_dir) / f"{artifact}.json"
    buffer = header.with_suffix(".bin")
    raw = buffer.read_bytes()
    if case == "truncated":
        buffer.write_bytes(raw[:-1])
    elif case == "extended":
        buffer.write_bytes(raw + b"\0")
    elif case == "flipped-byte":
        buffer.write_bytes(raw[:7] + bytes([raw[7] ^ 0x10]) + raw[8:])
    elif case == "another-seed":
        other = tmp_path / "other"
        assert main([writer, "--config", cfg_path, "--seed", "6", "--out", str(other)]) == EXIT_OK
        swapped = (other / buffer.name).read_bytes()
        assert len(swapped) == len(raw) and swapped != raw
        buffer.write_bytes(swapped)
    elif case == "deleted":
        buffer.unlink()
    elif case == "nan":  # restamped, so only the decoder sees it
        doc = json.loads(header.read_text())
        if artifact == "measurements":
            where = ("arrays", min(doc["arrays"]))
        else:
            key = min(doc["blocks"])
            where = ("blocks", key, min(set(doc["blocks"][key]) - {"type"}))
        _poke(header, where, math.nan)
    else:
        _poke(header, ("arrays", "moving"), 2, np.uint8)
    (pathlib.Path(out_dir) / product).unlink(missing_ok=True)
    capsys.readouterr()
    assert main([reader, "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert err.rstrip().endswith(f"; rerun {writer}")
    assert {"truncated": "bytes, not the", "extended": "bytes, not the",
            "flipped-byte": "does not match the sha256",
            "another-seed": "does not match the sha256",
            "deleted": "buffer file is missing", "nan": "holds non-finite values",
            "bool-byte-2": "arrays/moving holds a bool byte other than 0 or 1"}[case] in err
    assert not (pathlib.Path(out_dir) / product).exists()


def _json_values(doc):
    """``doc`` and every value nested in it."""
    yield doc
    children = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    for child in children:
        yield from _json_values(child)


@pytest.mark.parametrize("name", sorted(TINY))
def test_no_artifact_holds_base64_and_every_buffer_matches_its_header(name, tmp_path):
    # the rerun test above checks that the buffers, too, rerun byte-identically
    cfg_path, out_dir = _write_config(tmp_path, name)
    _run_all(cfg_path, name)
    out = pathlib.Path(out_dir)
    stamps = {}
    for path in sorted(out.rglob("*.json")):
        values = list(_json_values(json.loads(path.read_text())))
        records = [v for v in values if isinstance(v, dict) and "dtype" in v]
        assert all(set(record) == {"dtype", "shape", "offset"} for record in records), path
        # no string longer than a sha256 in hex
        assert max((len(v) for v in values if isinstance(v, str)), default=0) <= 64, path
        if records:
            stamps[path.with_suffix(".bin")] = values[0]["buffer"]
    assert sorted(out.rglob("*.bin")) == sorted(stamps)
    assert {path.name for path in stamps} == {"measurements.bin", "db.bin"}
    for path, stamp in stamps.items():
        raw = path.read_bytes()
        assert stamp == {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}


@pytest.mark.parametrize("name, key", [("illegal_hybrid", "phase"), ("classroom_cir", "cirs")])
def test_measurements_with_non_finite_values_are_a_config_error(tmp_path, capsys, name, key):
    cfg_path, out_dir = _write_config(tmp_path, name)
    assert main(["simulate", "--config", cfg_path]) == EXIT_OK
    planted = _plant_measurements(tmp_path, out_dir)
    _poke(planted, ("arrays", key), math.nan)
    scenario = dict(TINY[name]["scenario"], measurements=planted)
    cfg_path, out_dir = _write_config(tmp_path, name, scenario=scenario)
    capsys.readouterr()
    assert main(["learn", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"arrays/{key}" in err and "non-finite" in err
    assert not (pathlib.Path(out_dir) / "db.json").exists()


def test_measurements_with_integer_detection_bits_are_a_config_error(tmp_path, capsys):
    # detection bits are stored as bool; the same 0/1 values as int64 name the array
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["simulate", "--config", cfg_path]) == EXIT_OK
    planted = _plant_measurements(tmp_path, out_dir,
                                  lambda arrays: dict(arrays, bits=arrays["bits"].astype(np.int64)))
    scenario = dict(TINY["bems_binary"]["scenario"], measurements=planted)
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary", scenario=scenario)
    capsys.readouterr()
    assert main(["learn", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'bits'" in err and "Traceback" not in err
    assert not (pathlib.Path(out_dir) / "db.json").exists()


def test_a_longer_walk_reuses_the_survey_and_the_map(tmp_path):
    # track simulates the walk itself; neither measurements.json nor db.json depends on it
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["learn", "--config", cfg_path]) == EXIT_OK
    cfg = json.loads(pathlib.Path(cfg_path).read_text())
    cfg["scenario"]["walk"]["steps"] = 8
    pathlib.Path(cfg_path).write_text(json.dumps(cfg))
    assert main(["track", "--config", cfg_path]) == EXIT_OK
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    fresh_path, fresh_dir = _write_config(fresh, "bems_binary", scenario=cfg["scenario"])
    for verb in ("simulate", "learn", "track"):
        assert main([verb, "--config", fresh_path]) == EXIT_OK
    track = [pathlib.Path(d, "track.csv").read_bytes() for d in (out_dir, fresh_dir)]
    assert track[0] == track[1] and len(track[0].splitlines()) == 1 + 8


# ---------------------------------------------------------------------------
# the training survey is simulated once per run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_verbs_after_simulate_never_resimulate_the_training_set(name, tmp_path, monkeypatch):
    cfg_path, out_dir = _write_config(tmp_path, name)
    _run_all(cfg_path, name)
    chained = str(tmp_path / "chained")
    assert main(["simulate", "--config", cfg_path, "--out", chained]) == EXIT_OK

    def refuse(cfg):
        raise AssertionError("the training set was simulated again")

    monkeypatch.setattr(PIPELINE_MODULES[name], "simulate_measurements", refuse)
    for verb in VERBS[name][1:]:
        assert main([verb, "--config", cfg_path, "--out", chained]) == EXIT_OK
    assert _hash_tree(chained) == _hash_tree(out_dir)


def test_learn_reads_a_measurements_path_from_another_run(tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    assert main(["learn", "--config", cfg_path, "--seed", "6"]) == EXIT_OK
    other = str(pathlib.Path(out_dir) / "measurements.json")
    # outside input: another seed is fine, only its format and shapes are checked
    scenario = dict(TINY["bems_binary"]["scenario"], measurements=other)
    cfg_path, _ = _write_config(tmp_path, "bems_binary", scenario=scenario)
    reader = str(tmp_path / "reader")
    assert main(["learn", "--config", cfg_path, "--out", reader]) == EXIT_OK
    assert not (pathlib.Path(reader) / "measurements.json").exists()
    blocks = [json.loads((pathlib.Path(d) / "db.json").read_text())["blocks"]
              for d in (out_dir, reader)]
    assert blocks[0] == blocks[1]
    buffers = [(pathlib.Path(d) / "db.bin").read_bytes() for d in (out_dir, reader)]
    assert buffers[0] == buffers[1]

    scenario["train_visits"] = 7  # the file holds 6 visits per cell
    cfg_path, _ = _write_config(tmp_path, "bems_binary", scenario=scenario)
    assert main(["learn", "--config", cfg_path, "--out", str(tmp_path / "bad")]) == EXIT_CONFIG


@pytest.mark.parametrize("doc", [
    [],
    {"format": "fingerloc-measurements-1", "pipeline": "bems_binary", "observations": [[0, 1, 1, 0]]},
    {"format": "fingerloc-measurements-3", "pipeline": "wifi_rssi_rspd", "arrays": {}},
    {"format": "fingerloc-measurements-3", "pipeline": "bems_binary", "arrays": []},
    {"format": "fingerloc-measurements-3", "pipeline": "bems_binary",
     "arrays": {"cell": 0, "moving": 0, "bits": 0}},
    {"format": "fingerloc-measurements-3", "pipeline": "bems_binary",
     "arrays": {name: {"dtype": dtype, "shape": shape, "data": ""} for name, dtype, shape
                in (("cell", "int64", [54]), ("moving", "bool", [54]), ("bits", "bool", [54, 2]))}},
    # version 2 stored the values as JSON lists
    {"format": "fingerloc-measurements-2", "pipeline": "bems_binary",
     "arrays": {name: {"dtype": dtype, "shape": [54], "data": [0] * 54}
                for name, dtype in (("cell", "int64"), ("moving", "bool"))}},
    # the current format, with no buffer file beside it
    {"format": "fingerloc-measurements-4", "pipeline": "bems_binary", "config_digest": "0" * 64,
     "arrays": {"bits": {"dtype": "bool", "shape": [54, 2], "offset": 0},
                "cell": {"dtype": "int64", "shape": [54], "offset": 108},
                "moving": {"dtype": "bool", "shape": [54], "offset": 540}},
     "buffer": {"bytes": 594, "sha256": "0" * 64}},
])
def test_malformed_measurements_file_is_a_config_error(tmp_path, capsys, doc):
    path = tmp_path / "measurements.json"
    path.write_text(json.dumps(doc))
    scenario = dict(TINY["bems_binary"]["scenario"], measurements=str(path))
    cfg_path, _ = _write_config(tmp_path, "bems_binary", scenario=scenario)
    capsys.readouterr()
    assert main(["learn", "--config", cfg_path]) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip().endswith("; rerun simulate")


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(0.0, 1e300) | st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                       min_size=1, max_size=30))
@example(values=[2.0])
@example(values=[1.0, 2.0])
@example(values=[0.1, 0.2, 0.7])
@example(values=[1.5, 1.5, 0.5, 1.5])
def test_summary_median_and_p90_are_numpys_bit_for_bit(values):
    got = summarize_errors(values)
    assert got["median"].hex() == float(np.median(values)).hex()
    assert median(values).hex() == got["median"].hex()
    assert got["p90"].hex() == float(np.quantile(values, 0.9)).hex()
    assert got["mean"] == float(np.mean(values)) and got["max"] == max(values)


def test_csv_header_is_the_column_names_in_order(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), {"b": np.array([1, 2]), "a": ["x", "y"], "c": np.array([0.5, 2.0])})
    assert path.read_text() == "b,a,c\n1,x,0.5\n2,y,2.0\n"
    write_csv(str(path), {"b": np.array([], dtype=int), "a": []})
    assert path.read_text() == "b,a\n"


def test_csv_columns_of_unequal_length_are_refused(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="out.csv.*unequal length"):
        write_csv(str(path), {"a": np.arange(3), "b": [1, 2]})
    assert not path.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("as_array", [True, False])
def test_csv_non_finite_cells_are_refused(tmp_path, bad, as_array):
    path = tmp_path / "out.csv"
    column = [1.0, bad, 3.0]
    with pytest.raises(ValueError, match="out.csv.*'b'.*non-finite"):
        write_csv(str(path), {"a": [1, 2, 3], "b": np.array(column) if as_array else column})
    assert not path.exists()


def test_csv_bools_render_as_true_and_false(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), {"array": np.array([True, False]), "list": [False, np.bool_(True)],
                          "mixed": ["", True]})
    assert path.read_text() == "array,list,mixed\ntrue,false,\nfalse,true,true\n"


def test_csv_numpy_scalars_render_like_python_scalars(tmp_path):
    # np.float64 is a float whose repr is "np.float64(0.1)"; a cell must read "0.1"
    values = [0.1, -0.0, 1 / 3, 5e-324, 1e300, 7, -3, True, "x"]
    numpy_values = [np.float64(0.1), np.float64(-0.0), np.float64(1 / 3), np.float64(5e-324),
                    np.float64(1e300), np.int64(7), np.int32(-3), np.bool_(True), np.str_("x")]
    want, got = tmp_path / "python.csv", tmp_path / "numpy.csv"
    write_csv(str(want), {"v": values})
    write_csv(str(got), {"v": numpy_values})
    assert got.read_text() == want.read_text()
    assert want.read_text().split("\n")[1:4] == ["0.1", "-0.0", repr(1 / 3)]
    floats = tmp_path / "floats.csv"
    write_csv(str(floats), {"v": np.array(values[:5])})
    assert floats.read_text().split("\n")[1:6] == want.read_text().split("\n")[1:6]


def test_csv_columns_render_as_the_per_cell_rule(tmp_path):
    # array columns render a whole column at a time; every cell must read as
    # _cell, the per-cell rule, renders it
    from fingerloc.experiments.common import _cell

    rng = np.random.default_rng(3)
    floats = np.concatenate([[0.1, -0.0, 1 / 3, 5e-324, 1e300, -1e-310, 2.0 ** 60, 7.0],
                             rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)])
    n = len(floats)
    columns = {
        "float": floats,
        "float32": rng.standard_normal(n).astype(np.float32),
        "int": rng.integers(-2 ** 62, 2 ** 62, n),
        "uint8": rng.integers(0, 255, n).astype(np.uint8),
        "bool": rng.random(n) < 0.5,
        "str": np.array([f"s{i}" for i in range(n)]),
        "str-edge": np.array(["", "\u00fc", "1.0", "true", "a b", "nan", "-0.0", "\u2211"] * 2),
        "complex": floats + 1j,
        "numpy-list": list(floats),
        "mixed-list": ([np.float64(0.1), np.int64(7), np.bool_(True), "", 2, -0.0, True, "x"]
                       * 2),
    }
    path = tmp_path / "out.csv"
    write_csv(str(path), columns)
    cells = [[_cell(v) for v in (col.tolist() if isinstance(col, np.ndarray) else col)]
             for col in columns.values()]
    want = ",".join(columns) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))
    assert path.read_bytes() == want.encode("utf-8")
    assert len(path.read_bytes().splitlines()) == 1 + n


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_array_column_names_its_first_non_finite_value(tmp_path, bad):
    # checked in one pass over the column, yet named as the per-cell rule names
    # it; nothing is written
    path = tmp_path / "out.csv"
    floats = np.array([1.0, 2.0, bad, math.nan, 3.0])
    with pytest.raises(ValueError, match=f"out.csv: column 'c': refusing to write the "
                                         f"non-finite value {bad!r}$"):
        write_csv(str(path), {"a": np.arange(5), "b": np.ones(5), "c": floats})
    assert not path.exists()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_runs_once_per_value(tmp_path):
    cfg_path, _ = _write_config(tmp_path, "bems_binary")
    out = str(tmp_path / "sweep_out")
    rc = main(["track", "--config", cfg_path, "--out", out,
               "--sweep", "scenario.walk.steps=4,6"])
    assert rc == EXIT_OK
    for sub in ("sweep_scenario.walk.steps=4", "sweep_scenario.walk.steps=6"):
        assert (pathlib.Path(out) / sub / "track.csv").is_file()

    lines = (pathlib.Path(out) / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "setting"
    assert header[1:] == sorted(header[1:])  # deterministic column order
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["scenario.walk.steps=4", "scenario.walk.steps=6"]
    steps_col = header.index("steps")
    assert [r[steps_col] for r in rows] == ["4", "6"]
    validate_run_dir(out)


def test_sweep_rejects_malformed_specs(tmp_path):
    cfg_path, _ = _write_config(tmp_path, "bems_binary")
    assert main(["track", "--config", cfg_path, "--sweep", "nonsense"]) == EXIT_CONFIG
    assert main(["track", "--config", cfg_path,
                 "--sweep", "scenario.no_such_knob=1,2"]) == EXIT_CONFIG


def test_sweep_checks_every_setting_before_running_one(tmp_path, capsys):
    cfg_path, _ = _write_config(tmp_path, "wifi_rssi_rspd")
    out = tmp_path / "sweep_out"
    capsys.readouterr()
    assert main(["track", "--config", cfg_path, "--out", str(out),
                 "--sweep", "tracking.pdr_sigma_m=0.2,NaN"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "tracking.pdr_sigma_m" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_report_collects_every_summary_as_written(tmp_path, capsys):
    results = tmp_path / "results"
    quantiles = [round(0.05 * i, 2) for i in range(21)]
    runs = {"summary.json": {"steps": 2},
            "runA/summary.json": {
                "methods": {"cir_mle": {"count": 2, "mean": 5.0, "median": 1.0,
                                        "p90": 9.0, "max": 9.0}},
                "cdf": {"cir_mle": {"quantile": quantiles, "error": [0.5] * 21}}},
            "runA/sweep_seed=1/summary.json": {"trials": 3}}
    for rel, summary in runs.items():
        (results / rel).parent.mkdir(parents=True, exist_ok=True)
        (results / rel).write_text(json.dumps(summary))
    # CSV columns are not re-read: each method's digest is in its summary
    (results / "runA" / "trials.csv").write_text("method,error_m\na,1.0\nb,9.0\n")
    assert main(["report", "--out", str(results)]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("report.json")
    assert json.loads((results / "report.json").read_text()) == {"runs": runs}
    validate_artifact(str(results / "report.json"))


@pytest.mark.parametrize("summary", [[1, 2], "x", {"steps": "many"},
                                     {"grid_spacing_m": math.inf}])
def test_report_refuses_a_malformed_summary(tmp_path, capsys, summary):
    results = tmp_path / "results"
    (results / "runs" / "a").mkdir(parents=True)
    (results / "runs" / "b").mkdir()
    (results / "runs" / "a" / "summary.json").write_text(json.dumps(summary))
    (results / "runs" / "b" / "summary.json").write_text('{"trials": 1}')
    capsys.readouterr()
    assert main(["report", "--out", str(results)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert str(results / "runs" / "a" / "summary.json") in err
    assert not (results / "report.json").exists()


def test_report_uses_config_out_dir(tmp_path):
    cfg_path, out_dir = _write_config(tmp_path, "bems_binary")
    _run_all(cfg_path, "bems_binary")
    assert main(["report", "--config", cfg_path]) == EXIT_OK
    assert (pathlib.Path(out_dir) / "report.json").is_file()


def test_report_on_missing_directory_is_an_io_error(tmp_path):
    assert main(["report", "--out", str(tmp_path / "void")]) == EXIT_IO
