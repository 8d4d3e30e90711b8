"""Deterministic output writers and helpers shared by the study pipelines.

Every artifact the experiment harness writes goes through these functions so
that a rerun with the same config and seed is byte-identical: keys sorted,
floats rendered by ``repr`` (shortest round-trip), newline-terminated lines,
and no timestamps or absolute paths anywhere.
"""

import json
import math
import os

import numpy as np

from ..database import FingerprintDatabase, load_database
from ..errors import ConfigError
from ..geometry import Grid, Position, build_uniform_grid

__all__ = ["dump_json", "write_json", "write_csv", "fmt_cell",
           "summarize_errors", "cdf_table", "CDF_QUANTILES",
           "build_grid", "load_db"]

CDF_QUANTILES = tuple(round(0.05 * i, 2) for i in range(21))


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(obj))


def fmt_cell(value) -> str:
    """Render one CSV cell reproducibly (floats via shortest round-trip repr)."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("refusing to write a non-finite value")
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(v) for v in row) + "\n")


def summarize_errors(errors) -> dict:
    """Mean/median/quantile digest of a distance-error sample."""
    errs = np.asarray(list(errors), dtype=float)
    if errs.size == 0:
        return {"count": 0, "mean": None, "median": None, "p90": None, "max": None}
    return {
        "count": int(errs.size),
        "mean": float(np.mean(errs)),
        "median": float(np.median(errs)),
        "p90": float(np.quantile(errs, 0.9)),
        "max": float(np.max(errs)),
    }


def cdf_table(errors) -> dict:
    """Empirical CDF as order statistics at the standard quantile grid.

    Quantile q maps to ``sorted(errors)[ceil(q * n) - 1]`` (clamped), so the
    reported values are errors that actually occurred.
    """
    errs = np.sort(np.asarray(list(errors), dtype=float))
    n = errs.size
    if n == 0:
        raise ValueError("cannot build a CDF from zero trials")
    values = []
    for q in CDF_QUANTILES:
        idx = min(n - 1, max(0, math.ceil(q * n) - 1))
        values.append(float(errs[idx]))
    return {"quantile": list(CDF_QUANTILES), "error": values}


def build_grid(cfg: dict) -> Grid:
    """The configured survey grid, ``scenario.grid``, in row-major order."""
    g = cfg["scenario"]["grid"]
    return build_uniform_grid(Position(*g["origin"]), g["nx"], g["ny"], g["spacing_m"])


def load_db(cfg: dict, out_dir: str, grid: Grid, learn) -> FingerprintDatabase:
    """The run's ``db.json``, written first by ``learn(cfg, out_dir)`` when missing.

    Raises:
        ConfigError: the stored database was learned on another grid than
            ``grid``, i.e. it is stale for this config.
    """
    path = os.path.join(out_dir, "db.json")
    if not os.path.exists(path):
        learn(cfg, out_dir)
    db = load_database(path)
    if db.grid != grid:
        raise ConfigError(
            f"{path} was learned on another grid ({len(db.grid)} points) than the "
            f"config's ({len(grid)} points); rerun learn")
    return db
