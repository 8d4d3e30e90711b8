"""Deterministic output writers and run-artifact I/O shared by the study pipelines.

Every artifact the experiment harness writes goes through these functions so
that a rerun with the same config and seed is byte-identical: keys sorted,
newline-terminated lines, and no timestamps or absolute paths anywhere.  CSV
cells and summary files render floats by ``repr`` (shortest round-trip); the
arrays of ``measurements.json`` and ``db.json`` go, bit-exactly, into the
raw buffer file beside each (``measurements.bin``, ``db.bin``), which the
database module writes and reads.

A run's ``measurements.json``, ``db.json`` and ``track_sets.json`` carry a
``config_digest`` of the config sections that produced them.  A verb reading
one back from its out dir stops with a config error when that digest is not
its own config's, rather than reuse an artifact of another seed or scenario.
Each is read once and checked against its shipped schema first, through
:func:`~.artifacts.read_json` (by way of
:func:`~fingerloc.database.read_arrays` for the two with a buffer); the
readers here check only what a schema cannot.  A refused artifact stops the
verb with a config error ending "; rerun <the verb that writes it>".
"""

import contextlib
import hashlib
import json
import math
import os

import numpy as np

from ..database import (
    FingerprintDatabase,
    load_database,
    read_arrays,
    save_database,
    write_arrays,
)
from ..errors import ConfigError
from ..geometry import Grid
from .artifacts import dump_json

__all__ = ["write_json", "write_csv", "median", "summarize_errors",
           "cdf_table", "CDF_QUANTILES", "build_grid",
           "config_digest", "check_digest", "save_measurements", "read_measurements",
           "load_measurements", "save_db", "load_db"]

CDF_QUANTILES = tuple(round(0.05 * i, 2) for i in range(21))

MEASUREMENTS_VERSION = "fingerloc-measurements-4"

# scenario keys that only the evaluation verbs read
_EVALUATION_ONLY = ("walk",)
# run artifact -> (config sections its digest covers, the scenario keys it
# leaves out, the verb that writes it); classroom learn fits with
# matching.loading_eps, so the database covers matching
_RUN_ARTIFACTS = {
    "measurements.json": (("pipeline", "seed", "scenario"), _EVALUATION_ONLY, "simulate"),
    "db.json": (("pipeline", "seed", "scenario", "matching"), _EVALUATION_ONLY, "learn"),
    "track_sets.json": (("pipeline", "seed", "scenario", "matching", "tracking"), (), "track"),
}


def write_json(path, obj) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(obj))


def _cell(value) -> str:
    """One CSV cell: bools as true/false, floats by shortest round-trip repr."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"refusing to write the non-finite value {value!r}")
        return repr(value)
    return str(value)


def _cells(col) -> list:
    """The cells of one column, each as :func:`_cell` renders it.

    A 1-D array of bools, ints, floats or strings is rendered from its
    ``tolist()`` by one rule for the whole column, its floats checked finite
    in one pass.
    """
    values = col.tolist() if isinstance(col, np.ndarray) else col
    kind = col.dtype.kind if isinstance(col, np.ndarray) and col.ndim == 1 else ""
    if kind == "f":
        bad = col[~np.isfinite(col)]
        if bad.size:
            _cell(bad[0])  # raises, naming the first non-finite value
        return list(map(repr, values))
    if kind == "b":
        return ["true" if v else "false" for v in values]
    if kind in ("i", "u", "U"):
        return list(map(str, values))
    return [_cell(v) for v in values]


def write_csv(path, columns: dict) -> None:
    """Write ``{name: column}`` as a CSV file, one row per column entry.

    The keys, in order, are the header.  A column is an array, rendered
    from its ``tolist()``, or a list, whose numpy scalars render as their
    Python values.  Raises ValueError naming the file when the columns
    differ in length or a cell is NaN or infinite; nothing is written then.
    """
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"{path}: columns of unequal length {lengths}")
    cells = []
    for name, col in columns.items():
        try:
            cells.append(_cells(col))
        except ValueError as exc:
            raise ValueError(f"{path}: column {name!r}: {exc}") from None
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


# np.median and linear-method np.quantile import numpy.ma on first use (numpy
# 2.4), milliseconds inside a verb that loads no scipy; the order statistics
# below come from one np.sort and give the same bits for finite values

def _median_of_sorted(ordered: np.ndarray) -> float:
    """``np.median``: the middle value, or the mean of the middle pair."""
    mid = ordered.size // 2
    return float(ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _quantile_of_sorted(ordered: np.ndarray, q: float) -> float:
    """``np.quantile`` with the ``linear`` method, in numpy's ``_lerp`` form."""
    virtual = (ordered.size - 1) * q
    if virtual >= ordered.size - 1:
        return float(ordered[-1])
    lo = math.floor(virtual)
    gamma = virtual - lo
    below, above = ordered[lo], ordered[lo + 1]
    diff = above - below
    return float(above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma)


def median(values) -> float:
    """The median of finite values, as ``np.median`` gives it."""
    return _median_of_sorted(np.sort(np.asarray(values, dtype=float), axis=None))


def summarize_errors(errors) -> dict:
    """Mean/median/quantile digest of a distance-error sample (finite values).

    The median and p90 equal ``np.median`` and ``np.quantile(errors, 0.9)``
    bit for bit.
    """
    errs = np.array(errors, dtype=float)
    if errs.size == 0:
        return {"count": 0, "mean": None, "median": None, "p90": None, "max": None}
    ordered = np.sort(errs, axis=None)
    return {
        "count": int(errs.size),
        "mean": float(np.mean(errs)),
        "median": _median_of_sorted(ordered),
        "p90": _quantile_of_sorted(ordered, 0.9),
        "max": float(ordered[-1]),
    }


def cdf_table(errors) -> dict:
    """Empirical CDF as order statistics at the standard quantile grid.

    Quantile q maps to ``sorted(errors)[ceil(q * n) - 1]`` (clamped), numpy's
    ``inverted_cdf`` rule, so the reported values are errors that actually
    occurred.
    """
    errs = np.asarray(errors, dtype=float)
    if errs.size == 0:
        raise ValueError("cannot build a CDF from zero trials")
    values = np.quantile(errs, CDF_QUANTILES, method="inverted_cdf")
    return {"quantile": list(CDF_QUANTILES), "error": values.tolist()}


def build_grid(cfg: dict) -> Grid:
    """The configured survey grid, ``scenario.grid``, in row-major order."""
    g = cfg["scenario"]["grid"]
    return Grid(g["origin"], g["nx"], g["ny"], g["spacing_m"])


def config_digest(cfg: dict, artifact: str) -> str:
    """sha256 of the config sections that determine a run artifact."""
    sections, left_out, _ = _RUN_ARTIFACTS[artifact]
    subset = {key: cfg.get(key) for key in sections}
    subset["scenario"] = {key: value for key, value in subset["scenario"].items()
                          if key not in left_out}
    return hashlib.sha256(dump_json(subset).encode("utf-8")).hexdigest()


def check_digest(cfg: dict, path: str, digest) -> None:
    """ConfigError unless ``digest`` is this config's digest of the run
    artifact at ``path`` (named by its basename)."""
    name = os.path.basename(path)
    sections, _, verb = _RUN_ARTIFACTS[name]
    if digest != config_digest(cfg, name):
        raise ConfigError(f"{path} was written under another {'/'.join(sections)} "
                          f"than this config's; rerun {verb}")


def save_measurements(cfg: dict, out_dir: str, arrays: dict) -> None:
    """Write named arrays as the run's ``measurements.json`` and ``measurements.bin``.

    Format ``fingerloc-measurements-4``: the header ``{format, pipeline,
    config_digest, arrays: {name: {dtype, shape, offset}}, buffer}`` over
    one raw buffer (see :func:`~fingerloc.database.write_arrays`), so every
    value round-trips bit-exactly.  Raises ValueError on a NaN or infinity.
    """
    write_arrays(os.path.join(out_dir, "measurements.json"), {
        "format": MEASUREMENTS_VERSION,
        "pipeline": cfg["pipeline"],
        "config_digest": config_digest(cfg, "measurements.json"),
        "arrays": {name: np.asarray(arr) for name, arr in arrays.items()},
    })


@contextlib.contextmanager
def _refused_as_config_error(name: str):
    """Turn a reader's refusal (a ValueError that is not a JSON parse error)
    of the run artifact ``name`` into a ConfigError ending "; rerun <verb>",
    the verb that writes it."""
    try:
        yield
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{exc}; rerun {_RUN_ARTIFACTS[name][2]}") from None


def read_measurements(path: str, cfg: dict, expected: dict) -> tuple:
    """(named arrays, config digest) of a measurements file and its buffer.

    Raises ConfigError ending "; rerun simulate" unless
    :func:`~fingerloc.database.read_arrays` reads the file as
    ``measurements.json`` and it holds this pipeline's arrays in the
    ``{name: (shape, dtype)}`` that ``expected`` says the scenario calls for.
    """
    needed = {name: (list(shape), np.dtype(dtype).name)
              for name, (shape, dtype) in expected.items()}
    with _refused_as_config_error("measurements.json"):
        doc = read_arrays(path, "measurements.json")
        if doc["pipeline"] != cfg["pipeline"]:
            raise ValueError(f"{path} holds {doc['pipeline']} measurements, "
                             f"not {cfg['pipeline']} ones")
        layout = {name: (list(arr.shape), arr.dtype.name) for name, arr in doc["arrays"].items()}
        if layout != needed:
            raise ValueError(f"{path} holds the arrays (shape, dtype) {layout}, "
                             f"the scenario needs {needed}")
    return doc["arrays"], doc["config_digest"]


def _run_artifact(cfg: dict, out_dir: str, name: str, write, read):
    """``read(path)`` of the run's artifact, written first by ``write()`` when missing."""
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        write()
    artifact, digest = read(path)
    check_digest(cfg, path, digest)
    return artifact


def load_measurements(cfg: dict, out_dir: str, simulate, expected: dict) -> dict:
    """The training measurements, never simulated twice for one run.

    A ``scenario.measurements`` path is outside input, checked by format and
    shape only.  Otherwise this reads the run's ``measurements.json``,
    written first from ``simulate(cfg)`` when missing.
    """
    path = cfg["scenario"]["measurements"]
    if path is not None:
        return read_measurements(path, cfg, expected)[0]
    return _run_artifact(cfg, out_dir, "measurements.json",
                         lambda: save_measurements(cfg, out_dir, simulate(cfg)),
                         lambda p: read_measurements(p, cfg, expected))


def save_db(cfg: dict, out_dir: str, db: FingerprintDatabase) -> None:
    """Write ``db`` as the run's ``db.json`` and ``db.bin``, stamped with the config digest."""
    save_database(FingerprintDatabase(grid=db.grid, blocks=db.blocks,
                                      config_digest=config_digest(cfg, "db.json")),
                  os.path.join(out_dir, "db.json"))


def _read_db(path: str) -> tuple:
    with _refused_as_config_error("db.json"):
        db = load_database(path)
    return db, db.config_digest


def load_db(cfg: dict, out_dir: str, learn) -> FingerprintDatabase:
    """The run's ``db.json``, written first by ``learn(cfg, out_dir)`` when missing."""
    return _run_artifact(cfg, out_dir, "db.json", lambda: learn(cfg, out_dir), _read_db)
