"""Database container, block lookup, the array record, and JSON persistence round-trips."""

import base64
import json
import math
import os
from importlib import resources

import numpy as np
import pytest

from fingerloc.database import (
    FORMAT_VERSION,
    FingerprintDatabase,
    database_from_json,
    database_to_json,
    decode_array,
    encode_array,
    load_database,
    save_database,
)
from fingerloc.experiments.artifacts import validate_artifact
from fingerloc.geometry import Grid
from fingerloc.stats import GammaParams, VonMisesParams, fit_gaussian, kriging_fit


# how the schema check reports a database block that matches no block type
_NO_BLOCK = ": .* is not valid under any of the given schemas; rerun learn$"


def _grid(n=2):
    return Grid((0.0, 0.0), nx=n, ny=n, spacing=1.0)


def _round_trip(block, n=2):
    """One block stored at key "k" on an n x n grid, through JSON and back."""
    db = FingerprintDatabase(grid=_grid(n), blocks={"k": block})
    return database_from_json(json.dumps(json.loads(database_to_json(db)))).blocks["k"]


def _record(values) -> dict:
    """An array record of ``values``, built past the writer's finite check."""
    arr = np.asarray(values)
    raw = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    return {"dtype": arr.dtype.name, "shape": list(arr.shape),
            "data": base64.b64encode(raw).decode("ascii")}


def test_fingerprint_codec_round_trips_complex_bit_exact():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    db = FingerprintDatabase(grid=_grid(2), blocks={"k": values})
    data = json.loads(database_to_json(db))["blocks"]["k"]
    back = _round_trip(values)
    assert data == {"type": "array", "values": _record(values)}
    assert data["values"]["dtype"] == "complex128" and data["values"]["shape"] == [4, 9]
    assert back.dtype == complex and back.tobytes() == values.tobytes()


def test_fingerprint_codec_round_trips_every_kind():
    # real and complex blocks of rank 1 to 3, the grid as the leading axis
    rng = np.random.default_rng(6)
    for shape in ((4,), (4, 3), (4, 2, 3)):
        real = rng.standard_normal(shape)
        for values in (real, real + 1j * rng.standard_normal(shape)):
            back = _round_trip(values)
            assert (back.dtype, back.shape) == (values.dtype, values.shape)
            assert back.tobytes() == values.tobytes()


def test_scalar_codec():
    back = _round_trip(np.array([0.7371, 0.5, 0.25, 1e-300]))
    assert isinstance(back, np.ndarray) and back.dtype == float
    assert back.tolist() == [0.7371, 0.5, 0.25, 1e-300]


def test_gaussian_codec_round_trip():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    stats = fit_gaussian(samples, 1e-3)
    back = _round_trip(stats)
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.cov, stats.cov)
    assert np.array_equal(back.loading, stats.loading)


def test_gamma_vonmises_codecs():
    for block in (GammaParams(shape=[3.75, 1.0, 2.5, 9.0], scale=[2.0 / 3.0, 1.0, 0.5, 3.0]),
                  VonMisesParams(mu=[-1.25, 0.0, math.pi, 1.0], kappa=[17.5, 0.0, 1000.0, 2.0])):
        back = _round_trip(block)
        assert type(back) is type(block)
        for name in block.__dataclass_fields__:
            assert np.array_equal(getattr(back, name), getattr(block, name))


def test_database_rejects_unknown_block_types():
    grid = _grid(1)
    with pytest.raises(ValueError):
        FingerprintDatabase(grid=grid, blocks={"k": object()})
    with pytest.raises(ValueError):
        FingerprintDatabase(grid=grid, blocks={
            "k": kriging_fit(_grid(), np.arange(4.0)[:, None])})
    with pytest.raises(ValueError):
        FingerprintDatabase(grid=grid, blocks={"k": np.array(1.0)})
    doc = json.loads(database_to_json(FingerprintDatabase(grid=grid)))
    for block in ({"type": "no_such_block"}, {"type": "real", "values": [0.5]}, [0.5]):
        doc["blocks"] = {"k": block}
        with pytest.raises(ValueError, match=f"^database blocks/k{_NO_BLOCK}"):
            database_from_json(json.dumps(doc))


def test_database_round_trip_bit_exact():
    grid = _grid(2)
    rng = np.random.default_rng(21)
    blocks = {
        "pair_0_1": rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)),
        "rssi:0": rng.uniform(0.1, 2.0, size=4),
    }
    db = FingerprintDatabase(grid=grid, blocks=blocks, config_digest="ab" * 32)
    text = database_to_json(db)
    back = database_from_json(text)
    assert back.grid == db.grid
    assert back.config_digest == "ab" * 32
    assert sorted(back.blocks) == sorted(blocks)
    assert np.array_equal(back.blocks["pair_0_1"], blocks["pair_0_1"])
    assert np.array_equal(back.blocks["rssi:0"], blocks["rssi:0"])
    # serialization itself is deterministic
    assert database_to_json(back) == text


def test_database_json_matches_shipped_schema(tmp_path):
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((4, 5, 2)) + 1j * rng.standard_normal((4, 5, 2))
    blocks = {
        "g": fit_gaussian(samples, 1e-3),
        "p": GammaParams(shape=[1.0, 2.0, 3.0, 4.0], scale=[1.0, 1.0, 0.5, 0.25]),
        "v": VonMisesParams(mu=[0.0, 1.0, -1.0, 2.0], kappa=[0.0, 1.0, 5.0, 1000.0]),
        "x": np.zeros((4, 3)),
        "c": np.ones((4, 2, 3), dtype=complex),
        "d": np.full(4, 0.5),
    }
    path = tmp_path / "db.json"
    save_database(FingerprintDatabase(grid=_grid(2), blocks=blocks), str(path))
    assert validate_artifact(str(path)) == "db.schema.json"
    text = path.read_text()
    doc = json.loads(text)
    assert doc["version"] == "fingerloc-db-6"
    assert doc["config_digest"] is None
    assert doc["grid"] == {"origin": [0.0, 0.0], "nx": 2, "ny": 2, "spacing": 1.0}
    # a bare scalar or a JSON list is not an array record, nor is a rank-0,
    # non-base64 or bool one; a Gaussian mean is complex; a lattice has cells
    # and a positive spacing; blocks carry no kind or meta
    for section, key, field, bad in (("blocks", "p", "shape", 1.0), ("blocks", "d", "values", 0.5),
                                     ("blocks", "c", "values", [1.0, 2.0, 3.0, 4.0]),
                                     ("blocks", "d", "values", _record(0.5)),
                                     ("blocks", "d", "values", dict(_record([0.5] * 4), data="?")),
                                     ("blocks", "d", "values", _record([True] * 4)),
                                     ("blocks", "g", "mean", _record(np.zeros((4, 2)))),
                                     ("blocks", "x", "kind", "phase_diff"),
                                     ("blocks", "x", "meta", {}),
                                     ("grid", None, "nx", 0), ("grid", None, "spacing", 0.0)):
        doc = json.loads(text)
        target = doc[section] if key is None else doc[section][key]
        target[field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            validate_artifact(str(path))
    # the digest is a string or null at the top level; format 5's meta is gone
    for broken in (dict(json.loads(text), config_digest=5),
                   dict(json.loads(text), meta={"config_digest": None})):
        path.write_text(json.dumps(broken))
        with pytest.raises(ValueError):
            validate_artifact(str(path))


def test_config_digest_round_trips_through_save_and_load(tmp_path):
    path = str(tmp_path / "db.json")
    for digest in ("0f" * 32, None):
        save_database(FingerprintDatabase(grid=_grid(2), blocks={"d": np.full(4, 0.5)},
                                          config_digest=digest), path)
        assert json.loads((tmp_path / "db.json").read_text())["config_digest"] == digest
        assert load_database(path).config_digest == digest


def test_db_schema_version_is_the_format_version():
    schema = json.loads((resources.files("fingerloc.schemas") / "db.schema.json").read_text())
    assert schema["properties"]["version"] == {"const": FORMAT_VERSION}


def test_both_artifacts_share_one_array_record_schema():
    # the schema files cannot share a $ref without a registry, so their
    # array defs are held equal here, apart from each file's dtypes
    defs = []
    for name in ("db.schema.json", "measurements.schema.json"):
        schema = json.loads((resources.files("fingerloc.schemas") / name).read_text())
        array = schema["$defs"]["array"]
        assert set(array["properties"].pop("dtype")) == {"enum"}
        defs.append(array)
    assert defs[0] == defs[1]


def test_database_rejects_wrong_version():
    db = FingerprintDatabase(grid=_grid(1))
    doc = json.loads(database_to_json(db))
    assert doc["version"] == FORMAT_VERSION
    for stale in ("fingerloc-db-1", "fingerloc-db-2", "fingerloc-db-3", "fingerloc-db-4",
                  "fingerloc-db-5"):
        doc["version"] = stale
        with pytest.raises(ValueError, match="rerun learn"):
            database_from_json(json.dumps(doc))
    doc.pop("version")
    with pytest.raises(ValueError):
        database_from_json(json.dumps(doc))


def test_database_rejects_a_malformed_grid():
    doc = json.loads(database_to_json(FingerprintDatabase(grid=_grid(2))))
    for key, bad in (("origin", [0.0, 0.0, 0.0]), ("origin", [0.0]), ("nx", 0), ("ny", 2.5),
                     ("spacing", 0.0), ("spacing", math.inf)):
        broken = dict(doc, grid=dict(doc["grid"], **{key: bad}))
        with pytest.raises(ValueError):
            database_from_json(json.dumps(broken, allow_nan=True))
    for broken in ([doc], dict(doc, grid=[0.0, 0.0, 2, 2, 1.0]), dict(doc, blocks=[]),
                   dict(doc, grid=dict(doc["grid"], origin=5))):
        with pytest.raises(ValueError, match="object|origin"):
            database_from_json(json.dumps(broken))
    for digest in (5, ["ab"], {}):
        with pytest.raises(ValueError, match="^database config_digest: .* is not of type "
                                             "'string', 'null'; rerun learn$"):
            database_from_json(json.dumps(dict(doc, config_digest=digest)))


def test_database_json_has_no_nan_and_sorted_keys():
    db = FingerprintDatabase(grid=_grid(2), blocks={"b": np.full(4, 0.5), "a": np.ones(4)})
    text = database_to_json(db)
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert list(doc["blocks"]) == ["a", "b"]
    assert "NaN" not in text and " " not in text


def test_save_load_database_creates_directories(tmp_path):
    db = FingerprintDatabase(grid=_grid(2))
    path = tmp_path / "nested" / "deeper" / "db.json"
    save_database(db, str(path))
    assert os.path.exists(path)
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read().endswith("\n")
    back = load_database(str(path))
    assert back.grid == db.grid


def test_database_needs_one_entry_per_point():
    with pytest.raises(ValueError):
        FingerprintDatabase(grid=_grid(2), blocks={"k": np.full(2, 0.5)})
    db = FingerprintDatabase(grid=_grid(2))
    assert len(db) == 4 and db.blocks == {}


def test_database_block_lookup_checks_type():
    grid = _grid(1)
    gamma = GammaParams(shape=[1.0], scale=[2.0])
    db = FingerprintDatabase(grid=grid, blocks={"a": gamma, "b": np.array([0.5])})
    assert db.block("a", GammaParams) is gamma
    assert db.block("b", (GammaParams, np.ndarray)) is db.blocks["b"]
    with pytest.raises(ValueError):
        db.block("b", GammaParams)  # wrong block type
    with pytest.raises(ValueError):
        db.block("missing", np.ndarray)


def test_database_array_blocks_are_read_only():
    values = np.zeros((4, 3))
    db = FingerprintDatabase(grid=_grid(2), blocks={"k": values})
    with pytest.raises(ValueError):
        db.blocks["k"][0, 0] = 1.0
    assert values.flags.writeable  # the caller's array is left as it was
    back = database_from_json(database_to_json(db))
    with pytest.raises(ValueError):
        back.blocks["k"][0, 0] = 1.0


@pytest.mark.parametrize("block", [
    {"type": "array", "values": _record([0.5, math.nan, 0.5, 0.5])},
    {"type": "array", "values": _record(np.full((4, 1), complex(1.0, math.inf)))},
    {"type": "gamma", "shape": _record([1.0, 1.0, math.nan, 1.0]), "scale": _record([1.0] * 4)},
])
def test_database_rejects_non_finite_values(block):
    doc = json.loads(database_to_json(FingerprintDatabase(grid=_grid(2))))
    doc["blocks"] = {"det:0": block}
    with pytest.raises(ValueError, match="^database blocks/det:0/.* holds non-finite values$"):
        database_from_json(json.dumps(doc))


_VALUES = _record([0.5, 0.25, 0.5, 0.25])


@pytest.mark.parametrize("block, message", [
    pytest.param({"type": "array", "values": [0.5, 0.25, 0.5, 0.25]}, _NO_BLOCK, id="json-list"),
    pytest.param({"type": "array", "values": dict(_VALUES, extra=1)}, _NO_BLOCK, id="extra-key"),
    pytest.param({"type": "array", "values": dict(_VALUES, data="AAAA*AAA")}, _NO_BLOCK,
                 id="not-base64"),
    pytest.param({"type": "array", "values": dict(_VALUES, data="AAAAAAAA4D8")},
                 "/values data is not a base64 string", id="unpadded"),
    pytest.param({"type": "array", "values": dict(_VALUES, data=[0.5] * 4)}, _NO_BLOCK,
                 id="not-a-string"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[5])}, "/values holds 32 bytes",
                 id="byte-count"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[-4])}, _NO_BLOCK,
                 id="negative-shape"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[4.0])},
                 r"/values has shape \[4.0\], not a list of ints", id="float-shape"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[True] * 4)}, _NO_BLOCK,
                 id="bool-shape"),
    pytest.param({"type": "array", "values": _record(0.5)}, _NO_BLOCK, id="rank-0"),
    pytest.param({"type": "array", "values": _record(np.zeros(4, np.float32))}, _NO_BLOCK,
                 id="float32"),
    pytest.param({"type": "array", "values": dict(_VALUES, dtype="object")}, _NO_BLOCK,
                 id="object"),
    pytest.param({"type": "array", "values": _record(np.ones(4, bool))}, _NO_BLOCK, id="bool"),
    pytest.param({"type": "gaussian", "mean": _record(np.zeros((4, 1))),
                  "cov": _record(np.ones((4, 1, 1), complex)), "loading": _record(np.zeros(4))},
                 _NO_BLOCK, id="gaussian-mean-float64"),
    pytest.param({"type": "gamma", "shape": _VALUES}, _NO_BLOCK, id="missing-field"),
])
def test_database_rejects_a_malformed_array_record(block, message):
    doc = json.loads(database_to_json(FingerprintDatabase(grid=_grid(2))))
    doc["blocks"] = {"det:0": block}
    with pytest.raises(ValueError, match=f"^database blocks/det:0{message}"):
        database_from_json(json.dumps(doc))


def test_array_record_round_trips_and_decodes_writable():
    for arr in (np.array([True, False, True]), np.arange(6).reshape(2, 3),
                np.zeros((0, 3), complex), np.array(-0.0)):
        record = encode_array(arr)
        assert record == _record(arr)
        back = decode_array(record, "a")
        assert (back.dtype, back.shape, back.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())
        assert back.flags.writeable
    # a big-endian array is stored little-endian
    assert encode_array(np.arange(3.0).astype(">f8")) == _record(np.arange(3.0))


def test_array_record_bools_are_bytes_0_or_1():
    record = dict(encode_array(np.array([True, False])),
                  data=base64.b64encode(bytes([1, 2])).decode("ascii"))
    with pytest.raises(ValueError, match="flags.*bool byte"):
        decode_array(record, "flags")
