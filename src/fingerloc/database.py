"""Fingerprint database: one stacked block per key over a survey grid, plus its files.

Both run artifacts that hold arrays, ``db.json`` and ``measurements.json``,
are stored the same way: a JSON header and, beside it, one raw buffer file,
the header's path with its extension replaced by ``.bin``
(:func:`buffer_path`).  The buffer holds every array's C-order little-endian
bytes back to back, in the order the sorted-key header lists them.  In the
header each array is a ``{dtype, shape, offset}`` record, and a top-level
``buffer`` record ``{bytes, sha256}`` describes the buffer file.
:func:`write_arrays` writes both and :func:`read_arrays` reads them back.
The header is read through :func:`~.experiments.artifacts.read_json`,
checked by its artifact's shipped schema, so :func:`read_arrays` checks
only what a schema cannot.
"""

import hashlib
import math
import os

import numpy as np

from .experiments.artifacts import dump_json, read_json
from .geometry import Grid
from .stats import GammaParams, GaussianStats, VonMisesParams

__all__ = [
    "FingerprintDatabase",
    "save_database",
    "load_database",
    "buffer_path",
    "encode_arrays",
    "write_arrays",
    "read_arrays",
]

FORMAT_VERSION = "fingerloc-db-9"

# block type tag -> (class, its array fields); every field has the grid as its
# leading axis
_MODEL_BLOCKS = {
    "gaussian": (GaussianStats, ("mean", "eigvals", "eigvecs", "loading")),
    "gamma": (GammaParams, ("shape", "scale")),
    "von_mises": (VonMisesParams, ("mu", "kappa")),
}


def buffer_path(path) -> str:
    """The buffer file of the header at ``path``: its extension replaced by ``.bin``."""
    return os.path.splitext(path)[0] + ".bin"


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
        fh.write(dump_json(header))


def read_arrays(path, artifact: str) -> dict:
    """The doc that :func:`write_arrays` wrote at ``path``, its arrays read back.

    The header is read by :func:`~.experiments.artifacts.read_json` and
    checked by the schema of ``artifact`` (``"db.json"`` or
    ``"measurements.json"``), which declares known dtypes and non-negative
    integers as shapes, offsets and the byte count.  The doc is the header
    without its ``buffer`` record, and every array record in it (a dict
    whose ``dtype`` is a string) replaced by its writable array, a view of
    the buffer, copied only when unaligned or not native.

    Raises ValueError "<path>: ..." unless the buffer file has the header's
    length and sha256 and the records tile it in the order the header lists
    them (:func:`write_arrays` sorts the keys): each starts where the one
    before ends (the first at 0), as an int, every
    shape entry is an int (the schema also counts ``4.0`` as an integer),
    and the last ends where the buffer does.  Every bool byte must be 0 or
    1 and every float and complex value finite.  A record is named by its
    ``/``-joined key path.
    """
    doc = read_json(path, artifact)
    stamp = doc.pop("buffer")
    try:
        with open(buffer_path(path), "rb") as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            fh.readinto(raw)
    except FileNotFoundError:
        raise ValueError(f"{path}: buffer file is missing") from None
    if len(raw) != stamp["bytes"]:
        raise ValueError(f"{path}: buffer holds {len(raw)} bytes, "
                         f"not the {stamp['bytes']} its header says")
    if hashlib.sha256(raw).hexdigest() != stamp["sha256"]:
        raise ValueError(f"{path}: buffer does not match the sha256 its header holds")
    end, before = 0, "the buffer starts"

    def decode(node, keys):
        nonlocal end, before
        if not isinstance(node, dict):
            return node
        if not isinstance(node.get("dtype"), str):
            return {key: decode(value, keys + (key,)) for key, value in node.items()}
        name = "/".join(keys)
        dtype, shape, offset = np.dtype(node["dtype"]), node["shape"], node["offset"]
        if not all(type(n) is int for n in shape):
            raise ValueError(f"{path}: {name} has shape {shape!r}, not a list of ints")
        if type(offset) is not int or offset != end:
            raise ValueError(f"{path}: {name} starts at byte {offset!r}, not at byte {end}, "
                             f"where {before}")
        stored = dtype.newbyteorder("<")
        count = math.prod(shape)
        end = offset + count * stored.itemsize
        if end > len(raw):
            raise ValueError(f"{path}: {name} ends at byte {end}, "
                             f"past the {len(raw)} of the buffer")
        if stored.kind == "b" and np.frombuffer(raw, np.uint8, count, offset).max(initial=0) > 1:
            raise ValueError(f"{path}: {name} holds a bool byte other than 0 or 1")
        arr = np.require(np.frombuffer(raw, stored, count, offset), dtype, "AW").reshape(shape)
        if stored.kind in "fc" and not np.isfinite(arr).all():
            raise ValueError(f"{path}: {name} holds non-finite values")
        before = f"{name} ends"
        return arr

    doc = decode(doc, ())
    if end != len(raw):
        raise ValueError(f"{path}: buffer holds {len(raw) - end} bytes past its last array")
    return doc


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


def save_database(db: FingerprintDatabase, path):
    """Write ``db`` as the header at ``path`` and its buffer (see :func:`write_arrays`)."""
    write_arrays(path, _database_doc(db))


def load_database(path) -> FingerprintDatabase:
    """The database :func:`save_database` wrote at ``path``.

    Raises ValueError naming ``path`` when :func:`read_arrays` refuses the
    header (an older format version too) or its buffer, or when the grid, a
    model class or the database refuses the values.
    """
    doc = read_arrays(path, "db.json")
    try:
        blocks = {}
        for key, data in doc["blocks"].items():
            fields = {name: arr for name, arr in data.items() if name != "type"}
            blocks[key] = (fields["values"] if data["type"] == "array"
                           else _MODEL_BLOCKS[data["type"]][0](**fields))
        g = doc["grid"]
        grid = Grid(g["origin"], g["nx"], g["ny"], g["spacing"])
        return FingerprintDatabase(grid=grid, blocks=blocks, config_digest=doc["config_digest"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
