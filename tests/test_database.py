"""Database container, block lookup, the array records and their buffer, and
persistence round-trips through the files."""

import hashlib
import json
import math
import os
import re
from importlib import resources

import numpy as np
import pytest

from fingerloc.database import (
    FORMAT_VERSION,
    FingerprintDatabase,
    buffer_path,
    encode_arrays,
    load_database,
    read_arrays,
    save_database,
    write_arrays,
)
from fingerloc.experiments.artifacts import validate_artifact
from fingerloc.experiments.common import MEASUREMENTS_VERSION
from fingerloc.geometry import Grid
from fingerloc.stats import GammaParams, VonMisesParams, fit_gaussian, kriging_fit


# how the schema check reports a database block that matches no block type
_NO_BLOCK = ": .* is not valid under any of the given schemas$"


def _grid(n=2):
    return Grid((0.0, 0.0), nx=n, ny=n, spacing=1.0)


def _saved(tmp_path, db) -> tuple:
    """``(path, header text, buffer bytes)`` of ``db`` saved at ``tmp_path/db.json``."""
    path = tmp_path / "db.json"
    save_database(db, str(path))
    return str(path), path.read_text(), (tmp_path / "db.bin").read_bytes()


def _round_trip(tmp_path, block, n=2):
    """One block stored at key "k" on an n x n grid, through its files and back."""
    path, _, _ = _saved(tmp_path, FingerprintDatabase(grid=_grid(n), blocks={"k": block}))
    return load_database(path).blocks["k"]


def _record(dtype, shape, offset=0) -> dict:
    return {"dtype": dtype, "shape": list(shape), "offset": offset}


def _stamped(header: dict, raw) -> tuple:
    """``(header, raw)`` with the header's buffer record restamped for ``raw``,
    as if the writer had written those bytes."""
    raw = bytes(raw)
    stamp = {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
    return dict(header, buffer=stamp), raw


def _poked(header: dict, raw, record: dict, value) -> tuple:
    """``(header, raw)`` whose first value of ``record`` is ``value``,
    written past the writer's checks."""
    raw = bytearray(raw)
    stored = np.dtype(record["dtype"]).newbyteorder("<")
    np.frombuffer(raw, stored, math.prod(record["shape"]), record["offset"])[0] = value
    return _stamped(header, raw)


def _written(path, header: dict, raw) -> str:
    """``path`` after writing ``header`` there and ``raw`` as its buffer
    (no buffer file when ``raw`` is None), past the writer's checks."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, allow_nan=True))
    if raw is None:
        os.remove(buffer_path(path))
    else:
        with open(buffer_path(path), "wb") as fh:
            fh.write(raw)
    return path


def _refusal(path, message: str) -> str:
    """The ``match`` pattern of a refusal of the file at ``path``."""
    return f"^{re.escape(str(path))}: {message}"


def _measurements(tmp_path, **arrays):
    """The path of a measurements file holding ``arrays``, written by :func:`write_arrays`."""
    path = tmp_path / "measurements.json"
    write_arrays(path, {"format": MEASUREMENTS_VERSION, "pipeline": "bems_binary",
                        "config_digest": "ab" * 32, "arrays": arrays})
    return path


def test_fingerprint_codec_round_trips_complex_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    _, text, raw = _saved(tmp_path, FingerprintDatabase(grid=_grid(2), blocks={"k": values}))
    back = _round_trip(tmp_path, values)
    assert json.loads(text)["blocks"]["k"] == {"type": "array",
                                               "values": _record("complex128", (4, 9))}
    assert raw == values.astype("<c16").tobytes()
    assert back.dtype == complex and back.tobytes() == values.tobytes()


def test_fingerprint_codec_round_trips_every_kind(tmp_path):
    # real and complex blocks of rank 1 to 3, the grid as the leading axis
    rng = np.random.default_rng(6)
    for shape in ((4,), (4, 3), (4, 2, 3)):
        real = rng.standard_normal(shape)
        for values in (real, real + 1j * rng.standard_normal(shape)):
            back = _round_trip(tmp_path, values)
            assert (back.dtype, back.shape) == (values.dtype, values.shape)
            assert back.tobytes() == values.tobytes()


def test_scalar_codec(tmp_path):
    back = _round_trip(tmp_path, np.array([0.7371, 0.5, 0.25, 1e-300]))
    assert isinstance(back, np.ndarray) and back.dtype == float
    assert back.tolist() == [0.7371, 0.5, 0.25, 1e-300]


def test_gaussian_codec_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    stats = fit_gaussian(samples, 1e-3)
    back = _round_trip(tmp_path, stats)
    for name in ("mean", "eigvals", "eigvecs", "loading"):
        want, got = getattr(stats, name), getattr(back, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_gamma_vonmises_codecs(tmp_path):
    for block in (GammaParams(shape=[3.75, 1.0, 2.5, 9.0], scale=[2.0 / 3.0, 1.0, 0.5, 3.0]),
                  VonMisesParams(mu=[-1.25, 0.0, math.pi, 1.0], kappa=[17.5, 0.0, 1000.0, 2.0])):
        back = _round_trip(tmp_path, block)
        assert type(back) is type(block)
        for name in block.__dataclass_fields__:
            assert np.array_equal(getattr(back, name), getattr(block, name))


def test_database_rejects_unknown_block_types(tmp_path):
    grid = _grid(1)
    with pytest.raises(ValueError):
        FingerprintDatabase(grid=grid, blocks={"k": object()})
    with pytest.raises(ValueError):
        FingerprintDatabase(grid=grid, blocks={
            "k": kriging_fit(_grid(), np.arange(4.0)[:, None])})
    with pytest.raises(ValueError):
        FingerprintDatabase(grid=grid, blocks={"k": np.array(1.0)})
    path, text, raw = _saved(tmp_path, FingerprintDatabase(grid=grid))
    doc = json.loads(text)
    for block in ({"type": "no_such_block"}, {"type": "real", "values": [0.5]}, [0.5]):
        doc["blocks"] = {"k": block}
        with pytest.raises(ValueError, match=_refusal(path, f"blocks/k{_NO_BLOCK}")):
            load_database(_written(path, doc, raw))


def test_database_round_trip_bit_exact(tmp_path):
    grid = _grid(2)
    rng = np.random.default_rng(21)
    blocks = {
        "pair_0_1": rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)),
        "rssi:0": rng.uniform(0.1, 2.0, size=4),
    }
    db = FingerprintDatabase(grid=grid, blocks=blocks, config_digest="ab" * 32)
    path, text, raw = _saved(tmp_path, db)
    back = load_database(path)
    assert back.grid == db.grid
    assert back.config_digest == "ab" * 32
    assert sorted(back.blocks) == sorted(blocks)
    assert np.array_equal(back.blocks["pair_0_1"], blocks["pair_0_1"])
    assert np.array_equal(back.blocks["rssi:0"], blocks["rssi:0"])
    # serialization itself is deterministic
    assert _saved(tmp_path, back)[1:] == (text, raw)


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
    assert doc["version"] == "fingerloc-db-8"
    assert doc["config_digest"] is None
    assert doc["grid"] == {"origin": [0.0, 0.0], "nx": 2, "ny": 2, "spacing": 1.0}
    raw = (tmp_path / "db.bin").read_bytes()
    assert doc["buffer"] == {"bytes": len(raw), "sha256": hashlib.sha256(raw).hexdigest()}
    # a bare scalar or a JSON list is not an array record, nor is a rank-0
    # or bool one, or one with a negative or missing offset or with base64
    # data; a Gaussian mean is complex; a lattice has cells and a positive
    # spacing; blocks carry no kind or meta; the buffer record is a byte count
    # and a sha256 in lower-case hex
    values = doc["blocks"]["d"]["values"]
    for section, key, field, bad in (("blocks", "p", "shape", 1.0), ("blocks", "d", "values", 0.5),
                                     ("blocks", "c", "values", [1.0, 2.0, 3.0, 4.0]),
                                     ("blocks", "d", "values", dict(values, shape=[])),
                                     ("blocks", "d", "values", dict(values, offset=-8)),
                                     ("blocks", "d", "values", _record("float64", (4,))
                                      | {"offset": None}),
                                     ("blocks", "d", "values", dict(values, data="AAAA")),
                                     ("blocks", "d", "values", dict(values, dtype="bool")),
                                     ("blocks", "g", "mean", dict(doc["blocks"]["g"]["mean"],
                                                                  dtype="float64")),
                                     ("blocks", "x", "kind", "phase_diff"),
                                     ("blocks", "x", "meta", {}),
                                     ("grid", None, "nx", 0), ("grid", None, "spacing", 0.0),
                                     ("buffer", None, "bytes", -1),
                                     ("buffer", None, "sha256", "AB" * 32),
                                     ("buffer", None, "sha256", "ab" * 31)):
        doc = json.loads(text)
        target = doc[section] if key is None else doc[section][key]
        target[field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            validate_artifact(str(path))
    # the digest is a string or null at the top level; format 5's meta is gone
    no_buffer = {key: value for key, value in json.loads(text).items() if key != "buffer"}
    for broken in (dict(json.loads(text), config_digest=5),
                   dict(json.loads(text), meta={"config_digest": None}), no_buffer):
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
    # array and buffer defs are held equal here, apart from each file's dtypes
    defs = []
    for name in ("db.schema.json", "measurements.schema.json"):
        schema = json.loads((resources.files("fingerloc.schemas") / name).read_text())
        array = schema["$defs"]["array"]
        assert set(array["properties"].pop("dtype")) == {"enum"}
        assert schema["properties"]["buffer"] == {"$ref": "#/$defs/buffer"}
        defs.append((array, schema["$defs"]["buffer"]))
    assert defs[0] == defs[1]


def test_database_rejects_wrong_version(tmp_path):
    path, text, raw = _saved(tmp_path, FingerprintDatabase(grid=_grid(1)))
    doc = json.loads(text)
    assert doc["version"] == FORMAT_VERSION
    for stale in ("fingerloc-db-1", "fingerloc-db-2", "fingerloc-db-3", "fingerloc-db-4",
                  "fingerloc-db-5", "fingerloc-db-6"):
        doc["version"] = stale
        with pytest.raises(ValueError, match=_refusal(path, "version: .* was expected$")):
            load_database(_written(path, doc, raw))
    doc.pop("version")
    with pytest.raises(ValueError, match=_refusal(path, "<root>: 'version' is a required")):
        load_database(_written(path, doc, raw))


def test_database_rejects_a_malformed_grid(tmp_path):
    path, text, raw = _saved(tmp_path, FingerprintDatabase(grid=_grid(2)))
    doc = json.loads(text)
    for key, bad in (("origin", [0.0, 0.0, 0.0]), ("origin", [0.0]), ("nx", 0), ("ny", 2.5),
                     ("spacing", 0.0), ("spacing", math.inf)):
        broken = dict(doc, grid=dict(doc["grid"], **{key: bad}))
        with pytest.raises(ValueError, match=_refusal(path, "")):
            load_database(_written(path, broken, raw))
    # the parser refuses NaN and Infinity, which pass every schema bound
    for bad, token in ((math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")):
        broken = dict(doc, grid=dict(doc["grid"], spacing=bad))
        with pytest.raises(ValueError, match=_refusal(path, f"{token} is not a finite number$")):
            load_database(_written(path, broken, raw))
    for broken in ([doc], dict(doc, grid=[0.0, 0.0, 2, 2, 1.0]), dict(doc, blocks=[]),
                   dict(doc, grid=dict(doc["grid"], origin=5))):
        with pytest.raises(ValueError, match="object|origin"):
            load_database(_written(path, broken, raw))
    for digest in (5, ["ab"], {}):
        with pytest.raises(ValueError, match=_refusal(path, "config_digest: .* is not of type "
                                                            "'string', 'null'$")):
            load_database(_written(path, dict(doc, config_digest=digest), raw))


def test_database_json_has_no_nan_and_sorted_keys(tmp_path):
    db = FingerprintDatabase(grid=_grid(2), blocks={"b": np.full(4, 0.5), "a": np.ones(4)})
    _, text, raw = _saved(tmp_path, db)
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert list(doc["blocks"]) == ["a", "b"]
    assert "NaN" not in text and " " not in text
    # the buffer holds the arrays in header order
    assert [doc["blocks"][key]["values"]["offset"] for key in "ab"] == [0, 32]
    assert raw == np.ones(4).tobytes() + np.full(4, 0.5).tobytes()


def test_save_load_database_creates_directories(tmp_path):
    db = FingerprintDatabase(grid=_grid(2))
    path = tmp_path / "nested" / "deeper" / "db.json"
    save_database(db, str(path))
    assert os.path.exists(path)
    assert buffer_path(str(path)) == str(tmp_path / "nested" / "deeper" / "db.bin")
    assert (tmp_path / "nested" / "deeper" / "db.bin").read_bytes() == b""
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


def test_database_array_blocks_are_read_only(tmp_path):
    values = np.zeros((4, 3))
    db = FingerprintDatabase(grid=_grid(2), blocks={"k": values})
    with pytest.raises(ValueError):
        db.blocks["k"][0, 0] = 1.0
    assert values.flags.writeable  # the caller's array is left as it was
    back = load_database(_saved(tmp_path, db)[0])
    with pytest.raises(ValueError):
        back.blocks["k"][0, 0] = 1.0


@pytest.mark.parametrize("block", [
    (np.full(4, 0.5), "values", math.nan),
    (np.ones((4, 1), complex), "values", complex(1.0, math.inf)),
    (GammaParams(shape=[1.0] * 4, scale=[1.0] * 4), "shape", math.nan),
])
def test_database_rejects_non_finite_values(block, tmp_path):
    # (block, the field whose first value is poked, the value)
    block, field, value = block
    path, text, raw = _saved(tmp_path, FingerprintDatabase(grid=_grid(2),
                                                           blocks={"det:0": block}))
    doc = json.loads(text)
    doc, raw = _poked(doc, raw, doc["blocks"]["det:0"][field], value)
    with pytest.raises(ValueError, match=_refusal(path, "blocks/det:0/.* holds non-finite "
                                                        "values$")):
        load_database(_written(path, doc, raw))


def _one_block(tmp_path, values=(0.5, 0.25, 0.5, 0.25)) -> tuple:
    """``(path, header doc, raw)`` of a database over the 2x2 grid whose one
    block, "det:0", holds ``values``."""
    db = FingerprintDatabase(grid=_grid(2), blocks={"det:0": np.array(values)})
    path, text, raw = _saved(tmp_path, db)
    return path, json.loads(text), raw


# the record of the block of :func:`_one_block`
_VALUES = _record("float64", (4,))


@pytest.mark.parametrize("block, message", [
    pytest.param({"type": "array", "values": [0.5, 0.25, 0.5, 0.25]}, _NO_BLOCK, id="json-list"),
    pytest.param({"type": "array", "values": dict(_VALUES, extra=1)}, _NO_BLOCK, id="extra-key"),
    # a record of the base64 format, whatever its data holds
    pytest.param({"type": "array", "values": dict(_VALUES, data="AAAA*AAA")}, _NO_BLOCK,
                 id="not-base64"),
    pytest.param({"type": "array", "values": dict(_VALUES, data="AAAAAAAA4D8")}, _NO_BLOCK,
                 id="unpadded"),
    pytest.param({"type": "array", "values": dict(_VALUES, data=[0.5] * 4)}, _NO_BLOCK,
                 id="not-a-string"),
    pytest.param({"type": "array", "values": {"dtype": "float64", "shape": [4]}}, _NO_BLOCK,
                 id="missing-offset"),
    pytest.param({"type": "array", "values": dict(_VALUES, offset=-8)}, _NO_BLOCK,
                 id="negative-offset"),
    pytest.param({"type": "array", "values": dict(_VALUES, offset="0")}, _NO_BLOCK,
                 id="string-offset"),
    pytest.param({"type": "array", "values": dict(_VALUES, offset=0.0)},
                 "/values starts at byte 0.0, not at byte 0, where the buffer starts$",
                 id="float-offset"),
    pytest.param({"type": "array", "values": dict(_VALUES, offset=8)},
                 "/values starts at byte 8, not at byte 0", id="offset-gap"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[5])},
                 "/values ends at byte 40, past the 32 of the buffer", id="byte-count"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[-4])}, _NO_BLOCK,
                 id="negative-shape"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[4.0])},
                 r"/values has shape \[4.0\], not a list of ints", id="float-shape"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[True] * 4)}, _NO_BLOCK,
                 id="bool-shape"),
    pytest.param({"type": "array", "values": dict(_VALUES, shape=[])}, _NO_BLOCK, id="rank-0"),
    pytest.param({"type": "array", "values": dict(_VALUES, dtype="float32")}, _NO_BLOCK,
                 id="float32"),
    pytest.param({"type": "array", "values": dict(_VALUES, dtype="object")}, _NO_BLOCK,
                 id="object"),
    pytest.param({"type": "array", "values": dict(_VALUES, dtype="bool")}, _NO_BLOCK, id="bool"),
    pytest.param({"type": "gaussian", "mean": _record("float64", (4, 1)),
                  "eigvals": _record("float64", (4, 1), 32),
                  "eigvecs": _record("complex128", (4, 1, 1), 64),
                  "loading": _record("float64", (4,), 128)},
                 _NO_BLOCK, id="gaussian-mean-float64"),
    pytest.param({"type": "gamma", "shape": _VALUES}, _NO_BLOCK, id="missing-field"),
])
def test_database_rejects_a_malformed_array_record(block, message, tmp_path):
    path, doc, raw = _one_block(tmp_path)
    assert doc["blocks"]["det:0"]["values"] == _VALUES
    doc["blocks"] = {"det:0": block}
    with pytest.raises(ValueError, match=_refusal(path, f"blocks/det:0{message}")):
        load_database(_written(path, doc, raw))


def _with_blocks(doc: dict, raw, **values) -> tuple:
    """``doc`` and ``raw`` whose block "det:0" has the record ``values``, restamped."""
    blocks = {"det:0": {"type": "array", "values": dict(_VALUES, **values)}}
    return _stamped(dict(doc, blocks=blocks), raw)


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda doc, raw: (doc, None), "buffer file is missing", id="missing"),
    pytest.param(lambda doc, raw: (doc, raw[:-1]),
                 "buffer holds 31 bytes, not the 32 its header says", id="truncated"),
    pytest.param(lambda doc, raw: (doc, raw + b"\0"),
                 "buffer holds 33 bytes, not the 32 its header says", id="extended"),
    pytest.param(lambda doc, raw: (doc, bytes([raw[0] ^ 1]) + raw[1:]),
                 "buffer does not match the sha256 its header holds", id="flipped-byte"),
    # the buffer of a database of the same shape
    pytest.param(lambda doc, raw: (doc, np.full(4, 0.5).tobytes()),
                 "buffer does not match the sha256 its header holds", id="swapped"),
    pytest.param(lambda doc, raw: _stamped(doc, raw + bytes(8)),
                 "buffer holds 8 bytes past its last array", id="restamped-extension"),
    pytest.param(lambda doc, raw: _with_blocks(doc, raw, shape=[3]),
                 "buffer holds 8 bytes past its last array", id="short-record"),
    pytest.param(lambda doc, raw: _stamped(doc, b""),
                 "blocks/det:0/values ends at byte 32, past the 0 of the buffer",
                 id="restamped-empty"),
])
def test_database_rejects_a_buffer_its_header_does_not_describe(change, message, tmp_path):
    path, doc, raw = _one_block(tmp_path)
    doc, raw = change(doc, raw)
    with pytest.raises(ValueError, match=_refusal(path, f"{message}$")):
        load_database(_written(path, doc, raw))


def test_load_database_reads_the_buffer_beside_the_header(tmp_path):
    path = tmp_path / "map.json"
    save_database(FingerprintDatabase(grid=_grid(2), blocks={"d": np.full(4, 0.5)}), str(path))
    assert (tmp_path / "map.bin").read_bytes() == np.full(4, 0.5).tobytes()
    assert load_database(str(path)).blocks["d"].tolist() == [0.5] * 4
    (tmp_path / "map.bin").unlink()
    with pytest.raises(ValueError, match=_refusal(path, "buffer file is missing$")):
        load_database(str(path))
    # a stale header is reported as such, not as a missing buffer
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, version="fingerloc-db-6")))
    with pytest.raises(ValueError, match=_refusal(path, "version: ")):
        load_database(str(path))
    # a header that is not JSON is the parser's error
    path.write_text("{")
    with pytest.raises(json.JSONDecodeError):
        load_database(str(path))


def test_array_record_round_trips_and_decodes_writable(tmp_path):
    for arr in (np.array([True, False, True]), np.arange(6).reshape(2, 3),
                np.zeros((0, 3), complex), np.array(-0.0)):
        path = _measurements(tmp_path, a=arr)
        header = json.loads(path.read_text())
        assert header["arrays"] == {"a": _record(arr.dtype.name, arr.shape)}
        assert header["buffer"] == {"bytes": arr.nbytes,
                                    "sha256": hashlib.sha256(arr.tobytes()).hexdigest()}
        doc = read_arrays(path, "measurements.json")
        assert "buffer" not in doc and doc["pipeline"] == "bems_binary"
        back = doc["arrays"]["a"]
        assert (back.dtype, back.shape, back.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())
        assert back.flags.writeable
    # a big-endian array is stored little-endian and read back native
    path = _measurements(tmp_path, a=np.arange(3.0).astype(">f8"))
    assert json.loads(path.read_text())["arrays"]["a"] == _record("float64", (3,))
    assert path.with_suffix(".bin").read_bytes() == np.arange(3.0).astype("<f8").tobytes()
    back = read_arrays(path, "measurements.json")["arrays"]["a"]
    assert back.dtype == np.dtype(float) and back.tolist() == [0.0, 1.0, 2.0]
    # encode_arrays gives the same header and buffer without the files
    header, chunks = encode_arrays({"a": np.arange(3.0).astype(">f8")})
    assert header["a"] == _record("float64", (3,))
    assert b"".join(chunks) == path.with_suffix(".bin").read_bytes()


def test_array_records_tile_the_buffer_in_sorted_key_order(tmp_path):
    path = _measurements(tmp_path, z=np.arange(2), mb=np.array([True, False, True]),
                         ma=np.ones(2))
    header = json.loads(path.read_text())
    records = header["arrays"]
    assert [records[name]["offset"] for name in ("ma", "mb", "z")] == [0, 16, 19]
    back = read_arrays(path, "measurements.json")["arrays"]
    assert list(back) == ["ma", "mb", "z"]
    assert [back[name].tolist() for name in back] == [[1.0, 1.0], [True, False, True], [0, 1]]
    # the int64 array at byte 19 is copied to aligned memory
    assert all(arr.flags.aligned for arr in back.values())
    raw = path.with_suffix(".bin").read_bytes()
    # the records must be listed in buffer order
    _written(path, dict(header, arrays=dict(reversed(records.items()))), raw)
    with pytest.raises(ValueError, match=_refusal(path, "arrays/z starts at byte 19, not at "
                                                        "byte 0, where the buffer starts$")):
        read_arrays(path, "measurements.json")
    # and must tile it
    moved = {"ma": dict(records["ma"], offset=16), "mb": dict(records["mb"], offset=0)}
    _written(path, dict(header, arrays=dict(records, **moved)), raw)
    with pytest.raises(ValueError, match=_refusal(path, "arrays/ma starts at byte 16, not at "
                                                        "byte 0, where the buffer starts$")):
        read_arrays(path, "measurements.json")
    _written(path, dict(header, arrays=dict(records, mb=dict(records["mb"], offset=0))), raw)
    with pytest.raises(ValueError, match=_refusal(path, "arrays/mb starts at byte 0, not at "
                                                        "byte 16, where arrays/ma ends$")):
        read_arrays(path, "measurements.json")


def test_array_record_bools_are_bytes_0_or_1(tmp_path):
    path = _measurements(tmp_path, a=np.array([True, False]))
    header, raw = _stamped(json.loads(path.read_text()), bytes([1, 2]))
    _written(path, header, raw)
    with pytest.raises(ValueError, match=_refusal(path, "arrays/a holds a bool byte other "
                                                        "than 0 or 1$")):
        read_arrays(path, "measurements.json")
