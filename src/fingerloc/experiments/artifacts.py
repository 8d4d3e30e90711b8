"""Schema validation, and the JSON text, of every file the experiment harness writes.

Every JSON file a verb reads back is parsed once and checked by its shipped
schema here, through :func:`read_json`; readers add only the checks a schema
cannot make.

Each artifact name maps to a schema shipped in ``fingerloc/schemas``.  JSON
artifacts and experiment configs carry JSON Schema (draft 2020-12) documents,
checked here by a small validator for the part of the draft they use.  It
asserts ``type`` (one name or a list), ``properties``, ``required``,
``additionalProperties`` (``false`` or a schema), ``items``, ``minItems``,
``maxItems``, ``uniqueItems``, ``minLength``, ``minimum``, ``maximum``,
``exclusiveMinimum``, ``const``, ``enum``, ``pattern``, ``oneOf``,
``minProperties`` and ``$ref`` to ``#/$defs/<name>``, and ignores the
annotations ``$schema``, ``title`` and ``description``.
The schema loader refuses any other keyword, so no schema is checked less
than it says.  As the draft says, a bool is neither a number nor an integer,
``1.0`` is an integer, and ``const``, ``enum`` and ``uniqueItems`` take
``2`` and ``2.0`` as equal but ``true`` and ``1`` as distinct.  Error
messages keep the wording of the reference Python validator, against which
the tests check this one on every shipped schema.

CSV artifacts use a small descriptor format instead, since JSON Schema does
not speak CSV:

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
import operator
import os
import re
from functools import lru_cache
from importlib import resources

__all__ = ["artifact_schema_name", "dump_json", "load_schema", "read_json", "schema_error",
           "schema_refusal", "validate_artifact", "validate_run_dir"]

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
# characters of a schema message shown whole (see schema_refusal)
_MESSAGE_LIMIT = 500


def artifact_schema_name(filename: str) -> str:
    """The shipped schema file covering ``filename`` (by basename)."""
    base = os.path.basename(filename)
    name = _JSON_ARTIFACTS.get(base) or _CSV_ARTIFACTS.get(base)
    if name is None:
        raise ValueError(f"no schema is shipped for artifact {base!r}")
    return name


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _canonical(value):
    """A hashable form of a JSON value: 2 and 2.0 share one, true and 1 do not."""
    if isinstance(value, bool):
        return (bool, value)
    if isinstance(value, list):
        return (list, tuple(map(_canonical, value)))
    if isinstance(value, dict):
        return (dict, frozenset((k, _canonical(v)) for k, v in value.items()))
    return value


def _type(value, types, schema, root, path):
    names = [types] if isinstance(types, str) else types
    if not any(_TYPES[name](value) for name in names):
        yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"


def _properties(value, properties, schema, root, path):
    if isinstance(value, dict):
        for key, sub in properties.items():
            if key in value:
                yield from _errors(value[key], sub, root, path + (key,))


def _additional_properties(value, extra, schema, root, path):
    if not isinstance(value, dict):
        return
    known = schema.get("properties", {})
    extras = [key for key in value if key not in known]
    if extra is not False:
        for key in extras:
            yield from _errors(value[key], extra, root, path + (key,))
    elif extras:
        verb = "was" if len(extras) == 1 else "were"
        yield path, (f"Additional properties are not allowed "
                     f"({', '.join(map(repr, sorted(extras)))} {verb} unexpected)")


def _items(value, sub, schema, root, path):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _errors(item, sub, root, path + (i,))


def _required(value, names, schema, root, path):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                yield path, f"{name!r} is a required property"


def _unique_items(value, unique, schema, root, path):
    if unique and isinstance(value, list) and len(set(map(_canonical, value))) < len(value):
        yield path, f"{value!r} has non-unique elements"


def _size(kind, fails, edge: int, edge_words: str, words: str):
    """A ``minItems``-like check of ``len`` against the keyword's value."""
    def check(value, size, schema, root, path):
        if isinstance(value, kind) and fails(len(value), size):
            yield path, f"{value!r} {edge_words if size == edge else words}"
    return check


def _bound(fails, words: str):
    """A ``minimum``-like check of a number against the keyword's value."""
    def check(value, bound, schema, root, path):
        if _is_number(value) and fails(value, bound):
            yield path, f"{value!r} is {words} {bound!r}"
    return check


def _const(value, const, schema, root, path):
    if _canonical(value) != _canonical(const):
        yield path, f"{const!r} was expected"


def _enum(value, options, schema, root, path):
    if _canonical(value) not in map(_canonical, options):
        yield path, f"{value!r} is not one of {options!r}"


def _pattern(value, pattern, schema, root, path):
    if isinstance(value, str) and not re.search(pattern, value):
        yield path, f"{value!r} does not match {pattern!r}"


def _one_of(value, arms, schema, root, path):
    valid = [arm for arm in arms if next(_errors(value, arm, root, path), None) is None]
    if not valid:
        yield path, f"{value!r} is not valid under any of the given schemas"
    elif len(valid) > 1:
        listed = ", ".join(map(repr, valid[1:] + valid[:1]))
        yield path, f"{value!r} is valid under each of {listed}"


_REF_PREFIX = "#/$defs/"


def _ref(value, ref, schema, root, path):
    yield from _errors(value, root["$defs"][ref[len(_REF_PREFIX):]], root, path)


_KEYWORDS = {
    "type": _type, "properties": _properties, "additionalProperties": _additional_properties,
    "items": _items, "required": _required, "uniqueItems": _unique_items,
    "minItems": _size(list, operator.lt, 1, "should be non-empty", "is too short"),
    "maxItems": _size(list, operator.gt, 0, "is expected to be empty", "is too long"),
    "minLength": _size(str, operator.lt, 1, "should be non-empty", "is too short"),
    "minProperties": _size(dict, operator.lt, 1, "should be non-empty",
                           "does not have enough properties"),
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "const": _const, "enum": _enum, "pattern": _pattern, "oneOf": _one_of, "$ref": _ref,
}
_ANNOTATIONS = frozenset({"$schema", "title", "description"})


def _errors(value, schema: dict, root: dict, path: tuple = ()):
    """Every ``(path, message)`` violation of ``schema``, keywords in schema order."""
    for keyword, arg in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is not None:
            yield from check(value, arg, schema, root, path)


def schema_error(doc, schema: dict) -> tuple | None:
    """The first ``(path, message)`` by which ``doc`` breaks ``schema``, else None.

    ``path`` is the tuple of keys and indices down to the offending value.
    Errors are ordered by path, so the shallowest and leftmost comes first;
    at one path, the schema's keyword order decides.
    """
    return min(_errors(doc, schema, schema), key=lambda error: error[0], default=None)


def schema_refusal(where: str, message: str) -> str:
    """``"<where>: <message>"`` of a :func:`schema_error`, for a person to read.

    A message longer than ``_MESSAGE_LIMIT`` characters, which quotes a
    large refused value (a whole ``db.json`` block or config section), keeps its head
    and its tail ("... is not valid under any of the given schemas") around
    an ellipsis.
    """
    if len(message) > _MESSAGE_LIMIT:
        keep = (_MESSAGE_LIMIT - 5) // 2
        message = f"{message[:keep]} ... {message[-keep:]}"
    return f"{where}: {message}"


def _check_keywords(schema: dict, root: dict, where: str = "#") -> None:
    """Refuse a schema keyword that ``schema_error`` would not assert."""
    for keyword, arg in schema.items():
        at = f"{where}/{keyword}"
        if keyword in ("properties", "$defs"):
            for name, sub in arg.items():
                _check_keywords(sub, root, f"{at}/{name}")
        elif keyword == "items" or (keyword == "additionalProperties" and arg is not False):
            _check_keywords(arg, root, at)
        elif keyword == "oneOf":
            for i, sub in enumerate(arg):
                _check_keywords(sub, root, f"{at}/{i}")
        elif keyword == "$ref":
            name = arg[len(_REF_PREFIX):]
            if not arg.startswith(_REF_PREFIX) or name not in root.get("$defs", {}):
                raise ValueError(f"{at}: only references to {_REF_PREFIX}<name> are supported")
        elif keyword not in _KEYWORDS and keyword not in _ANNOTATIONS:
            raise ValueError(f"{at}: schema keyword {keyword!r} is not supported")


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    """A shipped schema by file name, read once per process.

    JSON Schema documents (all but the CSV descriptors) are checked to use
    only the keywords that ``schema_error`` asserts or ignores as annotations.
    """
    ref = resources.files("fingerloc.schemas") / name
    schema = json.loads(ref.read_text(encoding="utf-8"))
    if name not in _CSV_ARTIFACTS.values():
        _check_keywords(schema, schema)
    return schema


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


def dump_json(obj) -> str:
    """The text of every JSON file the harness writes: sorted keys, no spaces,
    no NaN or infinity, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def read_json(path: str, artifact: str | None = None):
    """The document of a JSON file, checked against its artifact's shipped schema.

    ``artifact`` names the artifact whose schema applies when it is not the
    file's basename.  A file that is not JSON raises the parser's
    ``json.JSONDecodeError``.  ``NaN`` and ``Infinity``, which no writer
    emits and which pass every schema bound, raise ValueError naming the
    file; a document the schema refuses raises
    ValueError("<path>: <where>: <message>"), ``where`` the ``/``-joined key
    path down to the offending value (``<root>`` for the document itself) and
    a long message shortened by :func:`schema_refusal`.
    """
    def refuse(token):
        raise ValueError(f"{path}: {token} is not a finite number")

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=refuse)
    found = schema_error(doc, load_schema(artifact_schema_name(artifact or path)))
    if found is not None:
        keys, message = found
        where = "/".join(map(str, keys)) or "<root>"
        raise ValueError(f"{path}: {schema_refusal(where, message)}")
    return doc


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
    if os.path.basename(artifact) in _CSV_ARTIFACTS:
        _validate_csv(path, load_schema(name))
    else:
        read_json(path, artifact)
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
