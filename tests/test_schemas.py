"""The in-package JSON Schema validator: draft 2020-12 semantics, the keyword
guard, and agreement with the ``jsonschema`` package on every shipped schema."""

import copy
import json
import math
import os
import re
import sys
from importlib import resources

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_cli import TINY, VERBS  # noqa: E402

from fingerloc.cli import EXIT_OK, main  # noqa: E402
from fingerloc.experiments import artifacts  # noqa: E402
from fingerloc.experiments.artifacts import load_schema, schema_error  # noqa: E402
from fingerloc.experiments.configs import parse_config  # noqa: E402

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
def shipped_documents(tmp_path_factory):
    """``{schema name: [valid documents]}`` from a tiny run of every pipeline."""
    root = tmp_path_factory.mktemp("runs")
    docs = {name: [] for name in JSON_SCHEMAS}
    for pipeline, raw in sorted(TINY.items()):
        cfg = dict(raw, out_dir=str(root / pipeline))
        cfg_path = root / f"{pipeline}.json"
        cfg_path.write_text(json.dumps(cfg))
        for verb in VERBS[pipeline]:
            assert main([verb, "--config", str(cfg_path)]) == EXIT_OK
        docs[f"{pipeline}.schema.json"].append(parse_config(cfg))
        for fname in sorted(os.listdir(root / pipeline)):
            if fname.endswith(".json"):
                doc = json.loads((root / pipeline / fname).read_text())
                docs[artifacts.artifact_schema_name(fname)].append(_trimmed(doc))
    assert main(["report", "--out", str(root)]) == EXIT_OK
    docs["report.schema.json"].append(_trimmed(json.loads((root / "report.json").read_text())))
    return docs


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
