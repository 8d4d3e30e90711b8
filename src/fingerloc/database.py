"""Fingerprint database: one stacked block per key over a survey grid, plus its files.

Both run artifacts that hold arrays, ``db.json`` and ``measurements.json``,
are stored the same way: a JSON header and, beside it, one raw buffer file,
the header's path with its extension replaced by ``.bin``
(:func:`buffer_path`).  The buffer holds every array's C-order little-endian
bytes back to back, in the order the sorted-key header lists them.  In the
header each array is a ``{dtype, shape, offset}`` record, and a top-level
``buffer`` record ``{bytes, sha256}`` describes the buffer file.
:func:`write_arrays` writes both, :func:`read_buffer` and
:func:`decode_arrays` read the arrays back.  Each artifact's shipped schema
declares its whole header; a reader checks a header against it before it
decodes a record, so :func:`decode_arrays` checks only what a schema cannot.
"""

import hashlib
import json
import math
import os

import numpy as np

from .experiments.artifacts import load_schema, schema_error, schema_refusal
from .geometry import Grid
from .stats import GammaParams, GaussianStats, VonMisesParams

__all__ = [
    "FingerprintDatabase",
    "save_database",
    "load_database",
    "database_to_json",
    "database_from_json",
    "buffer_path",
    "encode_arrays",
    "write_arrays",
    "read_buffer",
    "decode_arrays",
]

FORMAT_VERSION = "fingerloc-db-7"

# block type tag -> (class, its array fields); every field has the grid as its
# leading axis
_MODEL_BLOCKS = {
    "gaussian": (GaussianStats, ("mean", "cov", "loading")),
    "gamma": (GammaParams, ("shape", "scale")),
    "von_mises": (VonMisesParams, ("mu", "kappa")),
}


def buffer_path(path) -> str:
    """The buffer file of the header at ``path``: its extension replaced by ``.bin``."""
    return os.path.splitext(path)[0] + ".bin"


def _header_text(header: dict) -> str:
    return json.dumps(header, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def encode_arrays(doc: dict) -> tuple:
    """``(header, chunks)``: ``doc`` split into a JSON header and its buffer.

    Every ``numpy.ndarray`` among the values of ``doc``'s nested dicts
    becomes a ``{dtype, shape, offset}`` record, visited in sorted key order,
    the order of the sorted-key header.  ``chunks`` are those arrays'
    little-endian bytes in that order, so they tile the buffer as the records
    say, and the header gains a ``buffer`` record ``{bytes, sha256}`` of them.
    Raises ValueError on a NaN or an infinity.
    """
    chunks, digest = [], hashlib.sha256()
    size = 0

    def encode(node):
        nonlocal size
        if isinstance(node, dict):
            return {key: encode(node[key]) for key in sorted(node)}
        if not isinstance(node, np.ndarray):
            return node
        if node.dtype.kind in "fc" and not np.isfinite(node).all():
            raise ValueError("refusing to write a non-finite value")
        arr = node.astype(node.dtype.newbyteorder("<"), order="C", copy=False)
        record = {"dtype": arr.dtype.name, "shape": list(arr.shape), "offset": size}
        chunk = arr.reshape(-1).view(np.uint8)
        chunks.append(chunk)
        digest.update(chunk)
        size += chunk.size
        return record

    header = encode(doc)
    header["buffer"] = {"bytes": size, "sha256": digest.hexdigest()}
    return header, chunks


def write_arrays(path, doc: dict) -> None:
    """Write ``doc`` (see :func:`encode_arrays`) as the JSON header at ``path``
    and the buffer beside it.

    The buffer is written first, so a run cut short leaves no header, which
    the next verb writes again with its buffer, or an old header that the
    new buffer fails.  Nothing is written when an array holds a NaN or an
    infinity (ValueError).
    """
    header, chunks = encode_arrays(doc)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(buffer_path(path), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header_text(header))


def read_buffer(path) -> bytearray | None:
    """The bytes of the buffer file of the header at ``path``, None when there is none."""
    try:
        with open(buffer_path(path), "rb") as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            fh.readinto(raw)
    except FileNotFoundError:
        return None
    return raw


def decode_arrays(raw, stamp: dict, records: dict, source: str) -> dict:
    """``{key path: writable array}`` of the ``records`` of one buffer.

    ``raw`` is the buffer (None when its file is missing), ``stamp`` the
    header's ``buffer`` record, and ``records`` maps each array record's key
    path in the header, a tuple, to the record, in header order.  Both have
    passed their artifact's schema: known dtypes, and non-negative integers
    as shapes, offsets and the byte count.  Raises ValueError unless
    ``raw`` has the stamp's length and sha256 and the records tile it in
    order: each starts where the one before ends (the first at 0), as an int,
    every shape entry is an int (the schema also counts ``4.0`` as an
    integer), and the last ends where the buffer does.  Every bool byte must
    be 0 or 1 and every float and complex value finite.  Messages name the
    buffer as ``"<source> buffer"`` and a record as ``"<source> <key path>"``.
    """
    if raw is None:
        raise ValueError(f"{source} buffer file is missing")
    if len(raw) != stamp["bytes"]:
        raise ValueError(f"{source} buffer holds {len(raw)} bytes, "
                         f"not the {stamp['bytes']} its header says")
    if hashlib.sha256(raw).hexdigest() != stamp["sha256"]:
        raise ValueError(f"{source} buffer does not match the sha256 its header holds")
    arrays, end, before = {}, 0, "the buffer starts"
    for keys, record in records.items():
        name = f"{source} {'/'.join(map(str, keys))}"
        dtype, shape, offset = np.dtype(record["dtype"]), record["shape"], record["offset"]
        if not all(type(n) is int for n in shape):
            raise ValueError(f"{name} has shape {shape!r}, not a list of ints")
        if type(offset) is not int or offset != end:
            raise ValueError(f"{name} starts at byte {offset!r}, not at byte {end}, "
                             f"where {before}")
        stored = dtype.newbyteorder("<")
        count = math.prod(shape)
        end = offset + count * stored.itemsize
        if end > len(raw):
            raise ValueError(f"{name} ends at byte {end}, past the {len(raw)} of the buffer")
        if stored.kind == "b" and np.frombuffer(raw, np.uint8, count, offset).max(initial=0) > 1:
            raise ValueError(f"{name} holds a bool byte other than 0 or 1")
        # a view of the buffer, copied only when unaligned or not native
        arr = np.require(np.frombuffer(raw, stored, count, offset), dtype, "AW").reshape(shape)
        if stored.kind in "fc" and not np.isfinite(arr).all():
            raise ValueError(f"{name} holds non-finite values")
        arrays[keys], before = arr, f"{name} ends"
    if end != len(raw):
        raise ValueError(f"{source} buffer holds {len(raw) - end} bytes past its last array")
    return arrays


# ---------------------------------------------------------------------------
# database container
# ---------------------------------------------------------------------------

def _model_tag(block) -> str | None:
    return next((tag for tag, (cls, _) in _MODEL_BLOCKS.items() if isinstance(block, cls)), None)


def _block_rows(block) -> int:
    """Grid points a block covers; ValueError unless it is a storable block."""
    tag = _model_tag(block)
    if tag is not None:  # the model classes hold (N, ...) arrays only
        return len(getattr(block, _MODEL_BLOCKS[tag][1][0]))
    if not isinstance(block, np.ndarray) or block.ndim == 0:
        raise ValueError(f"a {type(block).__name__} is not a block with a leading grid axis")
    return block.shape[0]


class FingerprintDatabase:
    """Learned radio map: one block per key, stacked over the grid.

    A block is a :class:`GaussianStats`, :class:`GammaParams` or
    :class:`VonMisesParams` whose arrays carry the grid index as their
    leading axis, or a plain real or complex array of any rank whose leading
    axis is the grid (detection probabilities, mean powers, correlation and
    phase-difference fingerprints).  Row i of every block belongs to grid
    point i.  Array blocks are held as read-only views.

    ``config_digest`` identifies the experiment config a stored database was
    learned under (None outside the experiment harness).
    """

    def __init__(self, grid: Grid, blocks=None, config_digest: str | None = None):
        self.grid = grid
        self.blocks = dict(blocks or {})
        for key, block in self.blocks.items():
            rows = _block_rows(block)
            if rows != len(grid):
                raise ValueError(
                    f"block {key!r} covers {rows} points, the grid has {len(grid)}")
            if isinstance(block, np.ndarray):
                self.blocks[key] = view = block.view()
                view.flags.writeable = False
        self.config_digest = config_digest

    def __len__(self):
        return len(self.grid)

    def block(self, key: str, cls):
        """The block at ``key``; ValueError unless it is an instance of ``cls``."""
        block = self.blocks.get(key)
        if not isinstance(block, cls):
            raise ValueError(f"database key {key!r} does not hold the expected block")
        return block


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _block_doc(block) -> dict:
    if isinstance(block, np.ndarray):
        dtype = complex if np.iscomplexobj(block) else float
        return {"type": "array", "values": np.asarray(block, dtype)}
    tag = _model_tag(block)
    return {"type": tag, **{name: getattr(block, name) for name in _MODEL_BLOCKS[tag][1]}}


def _database_doc(db: FingerprintDatabase) -> dict:
    return {
        "version": FORMAT_VERSION,
        "grid": {
            "origin": list(db.grid.origin),
            "nx": db.grid.nx,
            "ny": db.grid.ny,
            "spacing": db.grid.spacing,
        },
        "config_digest": db.config_digest,
        "blocks": {key: _block_doc(block) for key, block in db.blocks.items()},
    }


def database_to_json(db: FingerprintDatabase) -> tuple:
    """``(header text, buffer bytes)`` of ``db``, as :func:`save_database` writes them."""
    header, chunks = encode_arrays(_database_doc(db))
    return _header_text(header), b"".join(chunks)


def database_from_json(text: str, raw) -> FingerprintDatabase:
    """The database a :func:`database_to_json` header text and buffer hold.

    ``raw`` is None when the buffer file is missing.  Raises ValueError
    ending "; rerun learn" when the header breaks ``db.schema.json`` (a stale
    version too) or :func:`decode_arrays` refuses the buffer.
    """
    doc = json.loads(text)
    found = schema_error(doc, load_schema("db.schema.json"))
    if found is not None:
        keys, message = found
        where = "/".join(map(str, keys)) or "<root>"
        raise ValueError(f"database {schema_refusal(where, message)}; rerun learn")
    records = {("blocks", key, field): record for key, data in doc["blocks"].items()
               for field, record in data.items() if field != "type"}
    try:
        arrays = decode_arrays(raw, doc["buffer"], records, "database")
    except ValueError as exc:
        raise ValueError(f"{exc}; rerun learn") from None
    blocks = {}
    for key, data in doc["blocks"].items():
        if data["type"] == "array":
            blocks[key] = arrays["blocks", key, "values"]
        else:
            cls, fields = _MODEL_BLOCKS[data["type"]]
            blocks[key] = cls(**{name: arrays["blocks", key, name] for name in fields})
    g = doc["grid"]
    grid = Grid(g["origin"], g["nx"], g["ny"], g["spacing"])
    return FingerprintDatabase(grid=grid, blocks=blocks, config_digest=doc["config_digest"])


def save_database(db: FingerprintDatabase, path):
    """Write ``db`` as the header at ``path`` and its buffer (see :func:`write_arrays`)."""
    write_arrays(path, _database_doc(db))


def load_database(path) -> FingerprintDatabase:
    """The database :func:`save_database` wrote at ``path``; see :func:`database_from_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return database_from_json(text, read_buffer(path))
