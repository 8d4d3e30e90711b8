"""Benchmark of fingerloc's four study pipelines, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--size full|tiny]

A run writes the workload's config and runs its CLI verb chain in fresh
processes (``chain.py``), each into a new, empty out dir that is removed
afterwards, until ``--seconds`` have been measured (at least three chains;
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``).
End-to-end metrics are medians over these untraced chains.  Every time
reported is scaled to a reference machine speed (see ``PROBE_REF_S``).  With
``--trace 1`` one more chain runs under the outside-in layer tracer and the
per-layer metrics are printed instead.  Every chain's outputs are checked:
exit codes and, at the default seed, a committed reference
(``reference.json``).  After the timed chains the first chain's artifacts are
checked against their shipped schemas and every other chain's must be
byte-identical to them.  The metrics printed are those named in
``BENCHMARK.json``; the last line of output is one JSON object.  The line
before it stamps the machine, the library versions and the commit.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, raw_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_CHAINS = 3
RUN_LIMIT_S = 150  # every chain of one run ends within this
SCHEMA_LIMIT_S = 25  # and the schema check within this
# On a shared 2-vCPU Xeon VM the machine's speed swung by up to 2x over tens
# of seconds, so the median wall time of one run moved by 30% from one run to
# the next.  Each chain therefore also times chain.speed_probe around its
# verbs, and every time reported is scaled by PROBE_REF_S / probe: seconds at
# the speed at which the probe takes PROBE_REF_S (that VM when quiet).  The
# probe is the benchmark's own code, so a program change moves a scaled time
# in the same proportion as the wall time.  Raw wall times are in the stamp
# line and in the per-layer metrics wall.total_s and wall.probe_s.
PROBE_REF_S = 0.2


def load_reference(workload: str, size: str) -> dict:
    with open(HERE / "reference.json", "r", encoding="utf-8") as fh:
        return json.load(fh)[size][workload]


def load_bench() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_chain(run_dir: Path, index: int, workload: str, trace: bool,
              reference, timeout: float) -> dict:
    """One fresh-process chain into ``run_dir/out<index>``, which the caller removes.

    Raises RuntimeError when the child process dies or runs out of time.
    """
    out_dir = run_dir / f"out{index}"
    spec = {
        "root": str(ROOT),
        "workload": workload,
        "config": str(run_dir / "config.json"),
        "out_dir": str(out_dir),
        "result": str(run_dir / f"result{index}.json"),
        "spans": str(WORK / "spans" / f"{workload}.jsonl"),
        "trace": trace,
        "reference": reference,
    }
    spec_path = run_dir / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "chain.py"), str(spec_path)],
                              stdout=subprocess.DEVNULL, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} chain ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} chain process exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def schema_failures(out_dir: Path, workload: str, owners: dict) -> dict:
    """``{verb: reason}`` for a chain's artifacts that fail their shipped schema.

    The check runs in a child process, which keeps this process small: a
    chain started after it would otherwise report this process's peak RSS.
    A failure counts against the verb that last wrote the file.
    """
    try:
        proc = subprocess.run([sys.executable, str(HERE / "chain.py"), "--schemas",
                               str(ROOT), str(out_dir)],
                              capture_output=True, text=True, timeout=SCHEMA_LIMIT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} schema check ran past {SCHEMA_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} schema check exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    failed = {}
    for rel, reason in json.loads(proc.stdout).items():
        failed.setdefault(owners.get(rel, WORKLOADS[workload].verbs[-1]), f"{rel}: {reason}")
    return failed


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _scale(chain: dict) -> float:
    return PROBE_REF_S / chain["probe_s"]


def _total(chain: dict) -> float:
    return sum(chain["verb_s"].values()) * _scale(chain)


def end_to_end(chains: list) -> dict:
    return {
        "setup_s": _median([c["setup_s"] * _scale(c) for c in chains]),
        "total_s": _median([_total(c) for c in chains]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in chains]),
    }


def per_layer(raw: dict, chains: list, traced: dict) -> dict:
    layers = traced["layers"]
    scale = _scale(traced)
    out = {}
    for key, agg in layers.items():
        out.update({f"{key}.calls": agg["calls"], f"{key}.self_s": agg["self_s"] * scale,
                    f"{key}.errors": agg["errors"]})

    def verb_calls(key, verb):
        return layers[key]["by_verb"].get(verb, 0)

    steps = raw["scenario"].get("walk", {}).get("steps", 0)
    updates = layers["tracking.particle_update"]["calls"]
    results = chains[0]["results"]
    out.update({
        "simulate.learn_calls": verb_calls("simulate", "learn"),
        "simulate.localize_calls": verb_calls("simulate", "localize"),
        "matching.mle_rssi_rspd.calls_per_step":
            verb_calls("matching.mle_rssi_rspd", "track") / steps if steps else 0.0,
        "tracking.resample_ratio":
            layers["tracking.resample_systematic"]["calls"] / updates if updates else 0.0,
        "experiments.write.self_s": (layers["experiments.write_json"]["self_s"]
                                     + layers["experiments.write_csv"]["self_s"]) * scale,
        "experiments.bytes_written": traced["out_bytes"],
        "database.bytes_written": traced["file_bytes"].get("database.bytes_written", 0),
        "database.bytes_read": traced["file_bytes"].get("database.bytes_read", 0),
        "trace.overhead_s": _total(traced) - _median([_total(c) for c in chains]),
        "wall.total_s": _median([sum(c["verb_s"].values()) for c in chains]),
        "wall.probe_s": _median([c["probe_s"] for c in chains]),
        "summary.median_error_m": results.get("median_error_m", 0.0),
        "summary.energy_saving": results.get("energy_saving", 0.0),
    })
    for verb in ("simulate", "learn", "localize", "track", "lighting"):
        out[f"verb.{verb}_s"] = _median([c["verb_s"][verb] * _scale(c) for c in chains
                                         if verb in c["verb_s"]])
    return out


def stamp(seed: int, versions: dict, overhead) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, **versions,
            "git_commit": commit, "seed": seed, "trace.overhead_s": overhead}


def measure(workload: str, size: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the chains of one benchmark run and compute every metric."""
    wl = WORKLOADS[workload]
    raw = raw_config(workload, size, seed)
    reference = load_reference(workload, size) if seed == DEFAULT_SEED else None
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    run_dir = WORK / f"{workload}-{size}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    start = time.monotonic()
    chains, walls = [], []
    try:
        while len(chains) < MIN_CHAINS or (time.monotonic() - start
                                           + statistics.median(walls) <= seconds):
            t0 = time.monotonic()
            chains.append(run_chain(run_dir, len(chains), workload, False, reference,
                                    RUN_LIMIT_S - (t0 - start)))
            walls.append(time.monotonic() - t0)
            if len(chains) > 1:  # the first out dir is schema-checked below
                shutil.rmtree(run_dir / f"out{len(chains) - 1}")
        traced = None
        if trace:
            traced = run_chain(run_dir, len(chains), workload, True, reference,
                               RUN_LIMIT_S - (time.monotonic() - start))
        for verb, reason in schema_failures(run_dir / "out0", workload,
                                            chains[0]["owners"]).items():
            chains[0]["failed"].setdefault(verb, reason)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = chains + ([traced] if traced else [])
    for c in everything[1:]:
        for rel in sorted(set(c["digests"]) | set(chains[0]["digests"])):
            if c["digests"].get(rel) != chains[0]["digests"].get(rel):
                c["failed"].setdefault(c["owners"].get(rel, wl.verbs[-1]),
                                       f"{rel}: not byte-identical to the first chain's")
    attempted = len(wl.verbs) * len(everything)
    failed = sum(len(c["failed"]) for c in everything)
    metrics = {"end_to_end": end_to_end(chains)}
    overhead = None
    if traced:
        metrics["per_layer"] = per_layer(raw, chains, traced)
        overhead = metrics["per_layer"]["trace.overhead_s"]
    details = {
        "workload": workload, "size": size, "chains": len(chains),
        "stamp": stamp(seed, chains[0]["versions"], overhead),
        "wall_verb_s": {v: _median([c["verb_s"][v] for c in chains]) for v in wl.verbs},
        "wall_setup_s": _median([c["setup_s"] for c in chains]),
        "probe_s": _median([c["probe_s"] for c in chains]),
        "results": chains[0]["results"],
        "error_rate": failed / attempted,
        "failures": [f"{v}: {why}" for c in everything for v, why in c["failed"].items()],
    }
    return {"details": details, "attempted": attempted, "failed": failed, **metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench = load_bench()
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the test-sized configs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fingerloc" / "cli.py").is_file():
        print(f"perfbench: no fingerloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        run = measure(args.workload, args.size, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": run[kind][m["name"]], "unit": m["unit"]}
               for m in bench[kind]}
    print(json.dumps(run["details"]))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
