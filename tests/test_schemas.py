"""The in-package JSON Schema validator: draft 2020-12 semantics, the keyword
guard, and agreement with the ``jsonschema`` package on every shipped schema."""

import ast
import copy
import hashlib
import json
import math
import os
import pathlib
import re
import sys
from importlib import resources

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_cli import PIPELINE_MODULES, TINY, VERBS  # noqa: E402

from fingerloc.cli import EXIT_OK, main  # noqa: E402
from fingerloc.database import encode_arrays, load_database  # noqa: E402
from fingerloc.experiments import artifacts, bems  # noqa: E402
from fingerloc.experiments.artifacts import (  # noqa: E402
    load_schema,
    schema_error,
    schema_refusal,
)
from fingerloc.experiments.common import read_measurements  # noqa: E402
from fingerloc.experiments.configs import parse_config  # noqa: E402
from fingerloc.errors import ConfigError  # noqa: E402

JSON_SCHEMAS = sorted(
    entry.name for entry in resources.files("fingerloc.schemas").iterdir()
    if entry.name.endswith(".schema.json") and ".csv." not in entry.name)


def test_ten_json_schemas_are_shipped():
    assert len(JSON_SCHEMAS) == 10


@pytest.mark.parametrize("schema, value, error", [
    ({"type": "number"}, True, "True is not of type 'number'"),
    ({"type": "integer"}, False, "False is not of type 'integer'"),
    ({"type": "integer"}, 1.0, None),
    ({"type": "integer"}, 1.5, "1.5 is not of type 'integer'"),
    ({"type": ["number", "null"]}, None, None),
    ({"type": ["number", "null"]}, "1", "'1' is not of type 'number', 'null'"),
    ({"minimum": 1}, True, None),  # bounds apply to numbers only
    ({"minimum": 1}, 0.5, "0.5 is less than the minimum of 1"),
    ({"exclusiveMinimum": 0}, 0.0, "0.0 is less than or equal to the minimum of 0"),
    ({"maximum": 1}, math.nextafter(1.0, 2.0), "1.0000000000000002 is greater than the maximum of 1"),
    ({"const": 2}, 2.0, None),
    ({"const": 1}, True, "1 was expected"),
    ({"const": [1, {"a": 2}]}, [1.0, {"a": 2.0}], None),
    ({"enum": [0, 1]}, False, "False is not one of [0, 1]"),
    ({"uniqueItems": True}, [2, 2.0], "[2, 2.0] has non-unique elements"),
    ({"uniqueItems": True}, [1, True], None),
    ({"uniqueItems": True}, [[1], [1.0]], "[[1], [1.0]] has non-unique elements"),
    ({"uniqueItems": True}, [{"a": 1}, {"a": True}], None),
    ({"uniqueItems": False}, [2, 2], None),
    ({"minItems": 1}, [], "[] should be non-empty"),
    ({"maxItems": 2}, [1, 2, 3], "[1, 2, 3] is too long"),
    ({"minLength": 1}, "", "'' should be non-empty"),
    ({"minProperties": 1}, {}, "{} should be non-empty"),
    ({"pattern": "^[a-z]*$"}, "aB", "'aB' does not match '^[a-z]*$'"),
])
def test_schema_error_follows_draft_2020_12(schema, value, error):
    found = schema_error(value, schema)
    assert (found and found[1]) == error
    if found:
        assert found[0] == ()


def test_schema_error_reports_the_first_error_by_path():
    schema = {"additionalProperties": False, "required": ["a"],
              "properties": {"b": {"$ref": "#/$defs/pos"}, "a": {"items": {"minimum": 0}}},
              "$defs": {"pos": {"type": "integer", "minimum": 1}}}
    assert schema_error({"a": [0, -1, -2], "b": 0}, schema) == (
        ("a", 1), "-1 is less than the minimum of 0")
    assert schema_error({"a": [], "b": 0}, schema) == (("b",), "0 is less than the minimum of 1")
    # one path, two errors: the schema's keyword order decides
    assert schema_error({"b": 1, "c": 0}, schema) == (
        (), "Additional properties are not allowed ('c' was unexpected)")


def test_one_of_needs_exactly_one_arm():
    schema = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}
    assert schema_error(-1, schema) is None
    assert schema_error(-1.5, schema) == (
        (), "-1.5 is not valid under any of the given schemas")
    assert schema_error(2, schema) == (
        (), "2 is valid under each of {'minimum': 0}, {'type': 'integer'}")


@pytest.mark.parametrize("schema, where", [
    ({"properties": {"x": {"maxLength": 3}}}, "#/properties/x/maxLength"),
    ({"items": {"format": "date"}}, "#/items/format"),
    ({"$ref": "#/definitions/x", "definitions": {"x": {}}}, "#/$ref"),
    ({"$ref": "#/$defs/missing", "$defs": {}}, "#/$ref"),
    ({"additionalProperties": {"oneOf": [{}, {"not": {}}]}}, "#/additionalProperties/oneOf/1/not"),
])
def test_the_schema_check_refuses_what_the_validator_would_not_assert(schema, where):
    with pytest.raises(ValueError, match=f"^{re.escape(where)}: "):
        artifacts._check_keywords(schema, schema)


def _keywords(schema: dict):
    """Every keyword in a schema, subschemas included."""
    for keyword, value in schema.items():
        yield keyword
        if keyword in ("properties", "$defs"):
            subs = value.values()
        elif keyword == "oneOf":
            subs = value
        elif keyword in ("items", "additionalProperties") and isinstance(value, dict):
            subs = [value]
        else:
            subs = []
        for sub in subs:
            yield from _keywords(sub)


@pytest.mark.parametrize("name", JSON_SCHEMAS)
def test_every_shipped_schema_keyword_is_asserted_or_an_annotation(name):
    schema = json.loads((resources.files("fingerloc.schemas") / name).read_text())
    known = set(artifacts._KEYWORDS) | artifacts._ANNOTATIONS | {"$defs"}
    assert set(_keywords(schema)) <= known
    assert load_schema.__wrapped__(name) == schema


# ---------------------------------------------------------------------------
# differential check against the jsonschema package
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """The root of one tiny run of every pipeline, in its out dir ``<root>/<pipeline>``,
    and of a report over them."""
    root = tmp_path_factory.mktemp("runs")
    for pipeline, raw in sorted(TINY.items()):
        cfg_path = root / f"{pipeline}.json"
        cfg_path.write_text(json.dumps(dict(raw, out_dir=str(root / pipeline))))
        for verb in VERBS[pipeline]:
            assert main([verb, "--config", str(cfg_path)]) == EXIT_OK
    assert main(["report", "--out", str(root)]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def shipped_buffers():
    """``{sha256: bytes}``: the buffer of each ``shipped_documents`` header that has one."""
    return {}


@pytest.fixture(scope="module")
def shipped_documents(tiny_runs, shipped_buffers):
    """``{schema name: [valid documents]}`` from the tiny runs."""
    root = tiny_runs
    docs = {name: [] for name in JSON_SCHEMAS}
    for pipeline, raw in sorted(TINY.items()):
        docs[f"{pipeline}.schema.json"].append(
            parse_config(dict(raw, out_dir=str(root / pipeline))))
        for fname in sorted(os.listdir(root / pipeline)):
            if fname.endswith(".json"):
                doc = _trimmed(json.loads((root / pipeline / fname).read_text()))
                if "buffer" in doc:
                    raw = (root / pipeline / fname).with_suffix(".bin").read_bytes()
                    doc = _repacked(doc, raw, shipped_buffers)
                docs[artifacts.artifact_schema_name(fname)].append(doc)
    docs["report.schema.json"].append(_trimmed(json.loads((root / "report.json").read_text())))
    return docs


def _repacked(header: dict, raw, buffers: dict) -> dict:
    """A trimmed ``header`` of the buffer ``raw`` as the header of a buffer
    holding only the arrays it lists, which is added to ``buffers``."""
    def arrays(node):
        if not isinstance(node, dict):
            return node
        if set(node) == {"dtype", "shape", "offset"}:  # an array record
            stored = np.dtype(node["dtype"]).newbyteorder("<")
            return np.frombuffer(raw, stored, math.prod(node["shape"]),
                                 node["offset"]).reshape(node["shape"])
        return {key: arrays(value) for key, value in node.items() if key != "buffer"}

    header, chunks = encode_arrays(arrays(header))
    buffers[header["buffer"]["sha256"]] = b"".join(chunks)
    return header


def _trimmed(doc):
    """A smaller valid document: of each map from free names to entries, one db
    block per model type, one measurement array per dtype, or the first entry."""
    if not isinstance(doc, dict):
        return doc
    doc = {key: _trimmed(value) for key, value in doc.items()}
    for key, kind in (("blocks", "type"), ("arrays", "dtype"), ("cdf", None),
                      ("methods", None), ("runs", None)):
        if isinstance(doc.get(key), dict):
            firsts = {}
            for name, entry in doc[key].items():
                firsts.setdefault(entry[kind] if kind else None, name)
            doc[key] = {name: doc[key][name] for name in sorted(firsts.values())}
    return doc


def _schema_values(node, keywords: set):
    """Every value of the given keywords anywhere in a schema."""
    if isinstance(node, list):
        for item in node:
            yield from _schema_values(item, keywords)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key in keywords:
                yield from (value if isinstance(value, list) else [value])
            yield from _schema_values(value, keywords)


def _probes(schema: dict) -> tuple:
    """Replacement values: numbers on and just past every bound, every string
    ``const``/``enum`` value, and values of the wrong type."""
    numbers = {}  # keyed by type too, so that 1 and 1.0 both stay
    for bound in _schema_values(schema, {"minimum", "maximum", "exclusiveMinimum"}):
        for near in (bound, float(bound), bound - 1, bound + 1,
                     math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)):
            numbers[type(near), near] = near
    strings = {v for v in _schema_values(schema, {"const", "enum"}) if isinstance(v, str)}
    typed = [None, True, False, "", "***", {}, [2, 2.0], [1, True]]
    return list(numbers.values()), sorted(strings), typed


def _nodes(doc, path=()):
    """Every node of a document as ``(path, value)``; of a list, its first item."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from _nodes(doc[0], path + (0,))


def _mutants(doc, probes):
    """The document with one node deleted, added to or replaced."""
    numbers, strings, typed = probes

    def edited(path, edit):
        out = copy.deepcopy(doc)
        node = out
        for key in path[:-1]:
            node = node[key]
        edit(node, path[-1])
        return out

    for path, value in _nodes(doc):
        if isinstance(value, dict):
            for key in value:
                yield edited(path + (key,), lambda node, key: node.pop(key))
            yield edited(path + ("unknown",), lambda node, key: node.update({key: 0}))
        if not path:
            continue
        replacements = list(typed)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            replacements += numbers + [float(value), value + 0.5]
        elif isinstance(value, str):
            replacements += strings
        for new in replacements:
            yield edited(path, lambda node, key, new=new: node.__setitem__(key, new))


@pytest.mark.parametrize("name", JSON_SCHEMAS)
def test_the_validator_agrees_with_jsonschema(name, shipped_documents):
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema(name)
    jsonschema.Draft202012Validator.check_schema(schema)
    oracle = jsonschema.Draft202012Validator(schema)

    def reference(doc):
        errors = sorted(oracle.iter_errors(doc), key=lambda e: list(e.absolute_path))
        return (tuple(errors[0].absolute_path), errors[0].message) if errors else None

    docs = shipped_documents[name]
    assert docs
    probes = _probes(schema)
    verdicts = []
    for doc in docs:
        assert schema_error(doc, schema) is None
        for mutant in _mutants(doc, probes):
            expected = reference(mutant)
            assert schema_error(mutant, schema) == expected, json.dumps(mutant)[:300]
            verdicts.append(expected is None)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


# ---------------------------------------------------------------------------
# the harness readers refuse what the schemas refuse
# ---------------------------------------------------------------------------

# what a reader refuses in a schema-valid document: the checks no schema makes
_VALUE_CHECKS = re.compile("|".join([
    r"buffer holds \d+ bytes", r"buffer does not match the sha256",  # the buffer
    r"has shape .*, not a list of ints", r"starts at byte .*, not at byte \d+",
    r"ends at byte \d+, past the \d+ of the buffer", r"holds a bool byte other than 0 or 1",
    r"holds non-finite values",  # the array records
    r"grid dimensions must be", r"grid spacing", r"grid origin",  # Grid
    r"block '.*' covers \d+ points",  # FingerprintDatabase
    r"mean must be|covariance|loading", r"shape and scale must be positive",
    r"mu must lie in|kappa must lie in",  # the model classes
    r"measurements, not .* ones", r"holds the arrays \(shape, dtype\)",  # read_measurements
    r"candidate sets but|cell that is not an int|cell outside the",  # read_track_sets
]))


def _reader(name: str, doc: dict, path, raw: bytes | None = None):
    """``read(document)`` through the harness reader of artifact schema ``name``;
    ``raw`` is the buffer a database or measurements header describes."""
    def through_file(read):
        def run(mutant):
            path.write_text(json.dumps(mutant))
            return read(str(path))
        return run

    if raw is not None:
        path.with_suffix(".bin").write_bytes(raw)
    if name == "db.schema.json":
        return through_file(load_database)
    if name == "measurements.schema.json":
        cfg = parse_config(TINY[doc["pipeline"]])
        shapes = PIPELINE_MODULES[doc["pipeline"]].measurement_shapes(cfg)
        expected = {key: shapes[key] for key in doc["arrays"]}
        return through_file(lambda p: read_measurements(p, cfg, expected))
    return through_file(lambda p: bems.read_track_sets(p, 9))


@pytest.mark.parametrize("name", ["db.schema.json", "measurements.schema.json",
                                  "track_sets.schema.json"])
def test_the_reader_refuses_what_the_schema_refuses(name, shipped_documents, shipped_buffers,
                                                    tmp_path):
    schema = load_schema(name)
    probes = _probes(schema)
    accepted = 0
    for doc in shipped_documents[name]:
        raw = shipped_buffers.get(doc.get("buffer", {}).get("sha256"))
        read = _reader(name, doc, tmp_path / "artifact.json", raw)
        read(doc)
        for mutant in _mutants(doc, probes):
            found = schema_error(mutant, schema)
            try:
                read(mutant)
            except ValueError as exc:
                if found is None:  # refused by a check that no schema can make
                    assert _VALUE_CHECKS.search(str(exc)), str(exc)[:300]
                else:
                    where = "/".join(map(str, found[0])) or "<root>"
                    assert schema_refusal(where, found[1]) in str(exc)
                continue
            assert found is None, json.dumps(mutant)[:300]
            accepted += 1
    assert accepted


def _stored(record: dict, raw: bytes, values) -> bytes:
    """``raw`` with the bytes of ``record`` replaced by ``values``, past the writer's checks."""
    stored = np.dtype(record["dtype"]).newbyteorder("<")
    data = np.asarray(values).astype(stored).tobytes()
    return raw[:record["offset"]] + data + raw[record["offset"] + len(data):]


# a change to a record and its buffer, restamped, that a reader must refuse
# although the header passes its schema, and the refusal
_INVISIBLE = {
    "float-shape": (lambda r, raw: (dict(r, shape=[float(n) for n in r["shape"]]), raw),
                    r"has shape \[.*\], not a list of ints"),
    "float-offset": (lambda r, raw: (dict(r, offset=float(r["offset"])), raw),
                     r"starts at byte \d+\.0, not at byte \d+"),
    "byte-count": (lambda r, raw: (r, raw[:-1]), r"ends at byte \d+, past the \d+ of the buffer"),
    "extension": (lambda r, raw: (r, raw + bytes(8)), r"buffer holds 8 bytes past its last array"),
    "bool-byte-2": (lambda r, raw: (r, _stored(r, raw, np.full(r["shape"], 2, np.uint8)
                                                .view(bool))),
                    "holds a bool byte other than 0 or 1"),
    "nan": (lambda r, raw: (r, _stored(r, raw, np.full(r["shape"], math.nan))),
            "holds non-finite values"),
    "inf": (lambda r, raw: (r, _stored(r, raw, np.full(r["shape"], -math.inf))),
            "holds non-finite values"),
}


@pytest.mark.parametrize("name, pipeline, dtype, case", [
    ("db.schema.json", "bems_binary", "float64", "float-shape"),
    ("db.schema.json", "wifi_rssi_rspd", "float64", "float-offset"),
    ("db.schema.json", "illegal_hybrid", "complex128", "byte-count"),
    ("db.schema.json", "classroom_cir", "float64", "extension"),
    ("db.schema.json", "bems_binary", "float64", "nan"),
    ("db.schema.json", "illegal_hybrid", "complex128", "inf"),
    ("measurements.schema.json", "bems_binary", "int64", "float-shape"),
    ("measurements.schema.json", "wifi_rssi_rspd", "float64", "float-offset"),
    ("measurements.schema.json", "classroom_cir", "complex128", "byte-count"),
    ("measurements.schema.json", "illegal_hybrid", "complex128", "extension"),
    ("measurements.schema.json", "bems_binary", "bool", "bool-byte-2"),
    ("measurements.schema.json", "wifi_rssi_rspd", "float64", "nan"),
    ("measurements.schema.json", "classroom_cir", "complex128", "inf"),
])
def test_the_reader_refuses_what_the_schema_cannot_see(name, pipeline, dtype, case,
                                                      tiny_runs, tmp_path):
    path = tiny_runs / pipeline / name.replace(".schema", "")
    doc, raw = json.loads(path.read_text()), path.with_suffix(".bin").read_bytes()
    records = (doc["arrays"].values() if "arrays" in doc else
               [value for block in doc["blocks"].values() for value in block.values()
                if isinstance(value, dict)])
    record = next(record for record in records if record["dtype"] == dtype)
    _reader(name, doc, tmp_path / "artifact.json", raw)(doc)
    corrupt, refusal = _INVISIBLE[case]
    broken, raw = corrupt(record, raw)
    record.update(broken)
    doc["buffer"] = {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
    assert schema_error(doc, load_schema(name)) is None
    with pytest.raises(ValueError, match=refusal):
        _reader(name, doc, tmp_path / "artifact.json", raw)(doc)


def test_a_refused_large_value_leaves_a_readable_message(tiny_runs, tmp_path):
    # one wrong dtype in a full-size block: the validator quotes the block whole
    doc = json.loads((tiny_runs / "classroom_cir" / "db.json").read_text())
    key, block = next((k, b) for k, b in sorted(doc["blocks"].items()) if "mean" in b)
    block["mean"] = dict(block["mean"], dtype="float64", shape=[1] * 30_000)
    where, message = schema_error(doc, load_schema("db.schema.json"))
    assert where == ("blocks", key) and len(message) > 80_000
    tail = "} is not valid under any of the given schemas"
    path = tmp_path / "db.json"
    path.write_text(json.dumps(doc))
    for read in (artifacts.read_json, load_database):
        with pytest.raises(ValueError) as refused:
            read(str(path))
        text = str(refused.value)
        assert text == f"{path}: {schema_refusal(f'blocks/{key}', message)}"
        assert text.startswith(f"{path}: blocks/{key}: {message[:100]}")
        assert text.endswith(tail) and " ... " in text and len(text) < 550 + len(str(path))
    # a config value too
    raw = copy.deepcopy(TINY["wifi_rssi_rspd"])
    raw["scenario"]["sensors"] = "x" * 5000
    with pytest.raises(ConfigError) as refused:
        parse_config(raw)
    assert refused.value.path == "scenario.sensors"
    assert str(refused.value).startswith("scenario.sensors: 'xxx")
    assert str(refused.value).endswith("xxx' is not of type 'array' (at scenario.sensors)")
    assert len(str(refused.value)) < 600
    # a message of up to 500 characters is shown whole
    assert schema_refusal("a/b", "m" * 500) == "a/b: " + "m" * 500


# ---------------------------------------------------------------------------
# one reader: no other code parses JSON
# ---------------------------------------------------------------------------

# (module, function) of every place allowed to parse JSON: the schema-checked
# reader, the schema loader, the config loader (it checks the pipeline
# schemas) and the sweep values
_JSON_PARSERS = [
    ("cli.py", "parse_sweep"),
    ("experiments/artifacts.py", "load_schema"),
    ("experiments/artifacts.py", "read_json"),
    ("experiments/configs.py", "load_config"),
]


class _JsonParsers(ast.NodeVisitor):
    """The innermost function around each use of ``json.load``/``json.loads``
    (None at module level), and ``"import"`` for each import from ``json``."""

    def __init__(self):
        self.scope, self.found = [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name) and node.value.id == "json"
                and node.attr in ("load", "loads")):
            self.found.append(self.scope[-1])
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "json":
            self.found.append("import")


def test_json_is_parsed_only_where_a_schema_checks_it():
    root = pathlib.Path(artifacts.__file__).resolve().parent.parent
    found = []
    for path in sorted(root.rglob("*.py")):
        visitor = _JsonParsers()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.relative_to(root).as_posix(), scope) for scope in visitor.found]
    assert sorted(found) == _JSON_PARSERS
