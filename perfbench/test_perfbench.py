"""The benchmark's own test: every workload at its TINY size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import functools
import json
import shutil
import subprocess
import sys

import pytest

import chain
import run
from workloads import DEFAULT_SEED, WORKLOADS, raw_config

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@functools.cache
def bench_run(workload: str, trace: int, attempt: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# per-layer metrics that must be non-zero on the workload that exists for them
LAYER_WORK = {
    "classroom_loo": ("stats.fit_gaussian.calls", "stats.gaussian_loglik.calls",
                      "features.calls", "simulate.localize_calls"),
    "wifi_track": ("matching.mle_rssi_rspd.calls", "tracking.particle_update.calls",
                   "database.bytes_read"),
    "illegal_hybrid": ("interp.freq_interp_xcorr.calls", "matching.fingerprint_sqerr.calls",
                       "database.bytes_written"),
    "bems_fine": ("tracking.transition_matrix.self_s", "tracking.grid_bayes_step.self_s",
                  "lighting.solve_lighting.calls", "simplex.solve_bounded_lp.calls"),
}


def _values(result: dict) -> dict:
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for value in values.values():
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
    return values


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_are_measured(workload):
    result = bench_run(workload, 0)
    values = _values(result)
    assert sorted(values) == sorted(m["name"] for m in BENCH["end_to_end"])
    assert all(value > 0 for value in values.values())
    assert result["attempted"] >= 3 * len(WORKLOADS[workload].verbs)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_see_the_workloads_layers(workload):
    values = _values(bench_run(workload, 1))
    assert sorted(values) == sorted(m["name"] for m in BENCH["per_layer"])
    assert values["simulate.learn_calls"] > 0
    assert values["experiments.bytes_written"] > 0
    for name in LAYER_WORK[workload]:
        assert values[name] > 0, name
    if workload == "wifi_track":
        assert values["matching.mle_rssi_rspd.calls_per_step"] == 4.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_calls_repeat_across_traced_runs(workload):
    calls = [{name: m["value"] for name, m in bench_run(workload, 1, attempt)["metrics"].items()
              if name.endswith("calls")} for attempt in (0, 1)]
    assert calls[0] == calls[1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tampered_summary_counts_as_a_failure(workload):
    wl = WORKLOADS[workload]
    reference = run.load_reference(workload, "tiny")
    run_dir = run.WORK / f"test-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        (run_dir / "config.json").write_text(
            json.dumps(raw_config(workload, "tiny", DEFAULT_SEED)), encoding="utf-8")
        result = run.run_chain(run_dir, 0, workload, False, reference, 170)
        out_dir = str(run_dir / "out0")
        assert result["failed"] == {}
        assert run.schema_failures(run_dir / "out0", workload, result["owners"]) == {}
        assert chain.gate(out_dir, workload, result["owners"], reference)[0] == {}

        path = run_dir / "out0" / "summary.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        *keys, last = wl.results["median_error_m"]
        node = summary
        for key in keys:
            node = node[key]
        node[last] += 0.5  # still schema-valid, but not what the program computed
        path.write_text(json.dumps(summary), encoding="utf-8")
        failed, _ = chain.gate(out_dir, workload, result["owners"], reference)
        assert list(failed) == [wl.verbs[-1]]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
