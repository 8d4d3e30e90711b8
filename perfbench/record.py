"""Regenerate the benchmark's committed reference or baseline.

Usage (from the root of a checkout)::

    python3 perfbench/record.py reference   # writes perfbench/reference.json
    python3 perfbench/record.py baseline    # writes perfbench/BENCH_baseline.json

``reference`` runs every workload once at the default seed, at both sizes,
and pins the outputs the correctness gate compares; rerun it only for a
change whose outputs are meant to differ.  ``baseline`` makes one traced run
of every workload at the default seed and records its end-to-end and
per-layer numbers with the machine stamp, as the "before" of later changes.
"""

import json
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, raw_config


def reference() -> dict:
    out = {}
    for size in ("full", "tiny"):
        out[size] = {}
        for name in WORKLOADS:
            run_dir = run.WORK / f"record-{name}-{size}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            raw = raw_config(name, size, DEFAULT_SEED)
            (run_dir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
            try:
                chain = run.run_chain(run_dir, 0, name, False, None, run.RUN_LIMIT_S)
                chain["failed"].update(run.schema_failures(run_dir / "out0", name,
                                                           chain["owners"]))
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if chain["failed"]:
                raise SystemExit(f"{name} ({size}) failed: {chain['failed']}")
            out[size][name] = chain["outputs"]
    return out


def baseline() -> dict:
    seconds = run.load_bench()["run_seconds"]
    return {name: run.measure(name, "full", DEFAULT_SEED, seconds, True)
            for name in WORKLOADS}


def main() -> int:
    what = sys.argv[1] if len(sys.argv) == 2 else ""
    if what == "reference":
        data, path = reference(), run.HERE / "reference.json"
    elif what == "baseline":
        data, path = baseline(), run.HERE / "BENCH_baseline.json"
    else:
        print(__doc__, file=sys.stderr)
        return 2
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
