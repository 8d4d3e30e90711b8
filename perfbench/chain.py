"""One timed run of a workload's CLI verb chain, in a fresh process.

Usage: ``python3 perfbench/chain.py SPEC.json`` where the spec (written by
``run.py``) names the checkout root, the workload, the config file, a fresh
out dir and the result file.  The process times the import of
``fingerloc.cli`` plus ``load_config`` (set-up), then each verb through
``fingerloc.cli.main``, then checks the outputs and writes a JSON result.
Just before and just after the verbs it times :func:`speed_probe`, the
machine's speed at that moment, by which ``run.py`` scales the times.
With ``trace`` set, the layer tracer is installed after set-up and its spans
go to ``spans`` (never inside the out dir).

Schema validation is slow on large artifacts, so it is not part of a chain:
once the timed chains are done, ``run.py`` validates the first chain's out
dir with ``python3 perfbench/chain.py --schemas ROOT OUT_DIR``, which prints
``{file: reason}`` for the files that fail, and holds the other chains to that
chain's file digests.
"""

import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

from tracer import Tracer
from workloads import WORKLOADS


def stat_tree(out_dir: str) -> dict:
    """Relative path -> (size, mtime) of every file under ``out_dir``."""
    out = {}
    for root, _dirs, files in os.walk(out_dir):
        for fname in files:
            path = os.path.join(root, fname)
            st = os.stat(path)
            out[os.path.relpath(path, out_dir)] = (st.st_size, st.st_mtime_ns)
    return out


def digest_tree(out_dir: str) -> dict:
    """Relative path -> sha256 of every file under ``out_dir``."""
    out = {}
    for rel in stat_tree(out_dir):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _dig(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def extract_outputs(out_dir: str, workload: str) -> dict:
    """The pinned output columns and the whole ``summary.json``."""
    columns = {}
    for fname, names in WORKLOADS[workload].columns.items():
        with open(os.path.join(out_dir, fname), "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns[fname] = {name: [_number(row[name]) for row in rows] for name in names}
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    return {"columns": columns, "summary": summary}


def same(ref, got, where="") -> str | None:
    """First difference between two outputs, or None.

    Integers, strings and booleans must match exactly; floats to 1e-9
    relative (1e-12 absolute near zero).
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return f"{where}: keys differ"
        for key in ref:
            diff = same(ref[key], got[key], f"{where}/{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{where}: lengths differ"
        for i, (a, b) in enumerate(zip(ref, got)):
            diff = same(a, b, f"{where}[{i}]")
            if diff:
                return diff
        return None
    numeric = (int, float)
    if (isinstance(ref, numeric) and not isinstance(ref, bool)
            and isinstance(got, numeric) and not isinstance(got, bool)):
        if isinstance(ref, int) and isinstance(got, int):
            ok = ref == got
        else:
            ok = math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12)
        return None if ok else f"{where}: {got!r} != {ref!r}"
    return None if ref == got and type(ref) is type(got) else f"{where}: {got!r} != {ref!r}"


def schema_failures(out_dir: str) -> dict:
    """``{file: reason}`` for the artifacts that fail their shipped schema.

    Every JSON/CSV file is checked with the per-file check of
    ``validate_run_dir``.
    """
    from fingerloc.experiments.artifacts import validate_artifact

    failed = {}
    for rel in sorted(stat_tree(out_dir)):
        if rel.endswith((".json", ".csv")):
            try:
                validate_artifact(os.path.join(out_dir, rel))
            except ValueError as exc:
                failed[rel] = str(exc)
    return failed


def gate(out_dir: str, workload: str, owners: dict, reference: dict | None) -> tuple:
    """Check a finished chain's outputs, apart from their schemas.

    Returns ``({verb: reason} per failed verb, outputs or None)``.

    ``summary.json`` must hold the workload's headline results and, given a
    reference, the pinned columns and ``summary.json`` must match it.  A
    failure counts against the verb that last wrote the file (the final verb
    for a missing file).
    """
    wl = WORKLOADS[workload]
    failed = {}

    def fail(fname, reason):
        failed.setdefault(owners.get(fname, wl.verbs[-1]), f"{fname}: {reason}")

    try:
        outputs = extract_outputs(out_dir, workload)
    except (OSError, ValueError, KeyError) as exc:
        fail("summary.json", f"outputs unreadable: {exc!r}")
        return failed, None
    for name, path in wl.results.items():
        try:
            value = _dig(outputs["summary"], path)
        except (KeyError, TypeError):
            value = None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail("summary.json", f"no number at {'.'.join(path)} for {name}")
    if reference is not None:
        for fname, cols in reference["columns"].items():
            diff = same(cols, outputs["columns"].get(fname), fname)
            if diff:
                fail(fname, f"differs from the reference at {diff}")
        diff = same(reference["summary"], outputs["summary"], "summary.json")
        if diff:
            fail("summary.json", f"differs from the reference at {diff}")
    return failed, outputs


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small numpy work.

    The code is the benchmark's own, so no program change moves it: only how
    fast the machine runs at that moment does.  On a shared host that speed
    swings by up to 2x over tens of seconds, for the program and the probe
    alike.
    """
    import numpy as np

    start = time.perf_counter()
    counts = {}
    for i in range(400_000):
        counts[i % 1009] = counts.get(i % 1009, 0) + i
    a = np.random.default_rng(0).standard_normal((16, 16))
    m = a @ a.T + 16.0 * np.eye(16)
    for _ in range(7000):
        np.linalg.solve(m, a[0])
        np.sum(np.abs(a) * 2.0)
    return time.perf_counter() - start


def run(spec: dict) -> dict:
    wl = WORKLOADS[spec["workload"]]
    out_dir = spec["out_dir"]
    sys.path.insert(0, os.path.join(spec["root"], "src"))

    start = time.perf_counter()
    import fingerloc.cli
    from fingerloc.experiments.configs import load_config
    load_config(spec["config"])
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    probe_s = [speed_probe()]
    verb_s, codes, owners = {}, {}, {}
    before = stat_tree(out_dir)
    for verb in wl.verbs:
        if tracer is not None:
            tracer.verb = verb
        t0 = time.perf_counter()
        try:
            codes[verb] = fingerloc.cli.main([verb, "--config", spec["config"],
                                              "--out", out_dir])
        except Exception:
            traceback.print_exc()
            codes[verb] = -1
        verb_s[verb] = time.perf_counter() - t0
        after = stat_tree(out_dir)
        owners.update({rel: verb for rel, st in after.items() if before.get(rel) != st})
        before = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s.append(speed_probe())

    failed = {verb: f"exit code {code}" for verb, code in codes.items() if code != 0}
    gate_failed, outputs = gate(out_dir, spec["workload"], owners, spec["reference"])
    for verb, reason in gate_failed.items():
        failed.setdefault(verb, reason)
    for verb, reason in failed.items():
        print(f"perfbench: {spec['workload']} {verb} failed: {reason}", file=sys.stderr)
    results = {}
    if not failed:
        results = {name: _dig(outputs["summary"], path) for name, path in wl.results.items()}

    import numpy
    import scipy
    result = {
        "setup_s": setup_s,
        "verb_s": verb_s,
        "probe_s": sum(probe_s) / len(probe_s),
        "peak_rss_mb": peak_rss_mb,
        "failed": failed,
        "owners": owners,
        "results": results,
        "outputs": outputs,
        "out_bytes": sum(st[0] for st in stat_tree(out_dir).values()),
        "digests": digest_tree(out_dir),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["file_bytes"] = tracer.file_bytes
        tracer.write(spec["spans"])
    return result


def main() -> int:
    if sys.argv[1] == "--schemas":
        sys.path.insert(0, os.path.join(sys.argv[2], "src"))
        print(json.dumps(schema_failures(sys.argv[3])))
        return 0
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
