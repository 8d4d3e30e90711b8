"""Schema validation for every file the experiment harness writes.

Each artifact name maps to a schema shipped in ``fingerloc/schemas``.  JSON
artifacts carry full JSON Schema (draft 2020-12) documents.  CSV artifacts
use a small descriptor format instead, since JSON Schema does not speak CSV:

    {"artifact": "<name>.csv",
     "variants": [{"columns": [{"name": ..., "type": ..., "nullable": ...},
                               ...],
                   "tail": {"type": ..., "nullable": ...}}, ...]}

A file matches a variant when its header starts with the declared column
names exactly; extra columns are allowed only when the variant declares a
``tail``, which then types all of them.  Cell types are ``int``, ``float``
(finite), ``bool`` (``true``/``false``), ``str``, and ``scalar`` (any of the
first three); ``nullable`` admits the empty cell.
"""

import csv
import json
import math
import os
import re
from functools import lru_cache
from importlib import resources

import jsonschema

__all__ = ["artifact_schema_name", "validate_artifact", "validate_run_dir"]

_JSON_ARTIFACTS = {
    "db.json": "db.schema.json",
    "measurements.json": "measurements.schema.json",
    "summary.json": "summary.schema.json",
    "learn_log.json": "learn_log.schema.json",
    "report.json": "report.schema.json",
    "track_sets.json": "track_sets.schema.json",
}

_CSV_ARTIFACTS = {
    "trials.csv": "trials.csv.schema.json",
    "track.csv": "track.csv.schema.json",
    "lighting.csv": "lighting.csv.schema.json",
    "sweep.csv": "sweep.csv.schema.json",
}

_INT_RE = re.compile(r"^-?\d+$")


def artifact_schema_name(filename: str) -> str:
    """The shipped schema file covering ``filename`` (by basename)."""
    base = os.path.basename(filename)
    name = _JSON_ARTIFACTS.get(base) or _CSV_ARTIFACTS.get(base)
    if name is None:
        raise ValueError(f"no schema is shipped for artifact {base!r}")
    return name


@lru_cache(maxsize=None)
def _load_schema(name: str) -> dict:
    ref = resources.files("fingerloc.schemas") / name
    return json.loads(ref.read_text(encoding="utf-8"))


def _check_cell(cell: str, ctype: str, nullable: bool) -> bool:
    if cell == "":
        return nullable
    if ctype == "str":
        return True
    if ctype == "int":
        return bool(_INT_RE.match(cell))
    if ctype == "bool":
        return cell in ("true", "false")
    if ctype == "float":
        try:
            return math.isfinite(float(cell))
        except ValueError:
            return False
    if ctype == "scalar":
        return any(_check_cell(cell, t, False) for t in ("int", "bool", "float"))
    raise ValueError(f"unknown CSV cell type {ctype!r}")


def _match_variant(header: list, variants: list) -> dict | None:
    for variant in variants:
        names = [c["name"] for c in variant["columns"]]
        if header[:len(names)] != names:
            continue
        if len(header) > len(names) and "tail" not in variant:
            continue
        return variant
    return None


def _validate_csv(path: str, schema: dict) -> None:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing CSV header") from None
        variant = _match_variant(header, schema["variants"])
        if variant is None:
            raise ValueError(f"{path}: header {header} matches no shipped variant")
        columns = variant["columns"]
        tail = variant.get("tail")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            for i, cell in enumerate(row):
                spec = columns[i] if i < len(columns) else tail
                if not _check_cell(cell, spec["type"], spec.get("nullable", False)):
                    name = spec.get("name", header[i])
                    raise ValueError(
                        f"{path}:{lineno}: column {name!r} cell {cell!r} "
                        f"is not a valid {spec['type']}")


def _validate_json(path: str, schema: dict) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ValueError(f"{path}: {where}: {err.message}")


def validate_artifact(path: str, artifact: str | None = None) -> str:
    """Validate one output file against its shipped schema.

    Args:
        path: the file.
        artifact: the artifact name whose schema applies, when it is not the
            file's basename (an input file read in place of an artifact).

    Returns:
        The schema filename the artifact was validated against.

    Raises:
        ValueError: unknown artifact name or schema violation.
    """
    artifact = artifact or path
    name = artifact_schema_name(artifact)
    schema = _load_schema(name)
    if os.path.basename(artifact) in _CSV_ARTIFACTS:
        _validate_csv(path, schema)
    else:
        _validate_json(path, schema)
    return name


def validate_run_dir(out_dir: str) -> list:
    """Validate every CSV/JSON artifact under a results tree.

    Returns:
        Sorted ``(relative path, schema filename)`` pairs, one per artifact.
    """
    checked = []
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for fname in sorted(files):
            if not fname.endswith((".json", ".csv")):
                continue
            path = os.path.join(root, fname)
            checked.append((os.path.relpath(path, out_dir), validate_artifact(path)))
    return checked
