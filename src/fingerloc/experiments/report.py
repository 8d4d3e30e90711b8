"""Aggregate experiment outputs into one plot-ready report."""

import os

from .artifacts import read_json
from .common import write_json

__all__ = ["collect_report", "cmd_report"]


def collect_report(results_dir: str) -> dict:
    """Walk a results tree; collect every summary.json, keyed by its relative path.

    Each summary already holds its methods' error digests and CDFs, one per
    method, so the report takes them as they are, once each has passed the
    shipped summary schema (ValueError naming the file otherwise).
    """
    if not os.path.isdir(results_dir):
        raise FileNotFoundError(f"results directory {results_dir!r} does not exist")
    runs = {}
    for root, dirs, files in os.walk(results_dir):
        dirs.sort()
        if "summary.json" in files:
            rel = os.path.relpath(root, results_dir)
            key = "summary.json" if rel == "." else f"{rel}/summary.json"
            runs[key] = read_json(os.path.join(root, "summary.json"))
    if not runs:
        raise FileNotFoundError(
            f"no experiment outputs under {results_dir!r}; run an experiment first")
    return {"runs": runs}


def cmd_report(results_dir: str) -> dict:
    """Collect ``results_dir``'s summaries into its ``report.json``."""
    report = collect_report(results_dir)
    write_json(os.path.join(results_dir, "report.json"), report)
    return report
