"""Fingerprint database: one stacked block per key over a survey grid, plus JSON persistence.

The array record codec here, :func:`encode_array`/:func:`decode_array`, is
the one array encoding of both run artifacts, ``db.json`` and
``measurements.json``.  Each artifact's shipped schema declares its whole
format, records included; a reader checks a document against it before it
decodes a record, so :func:`decode_array` checks only what a schema cannot.
"""

import base64
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
    "encode_array",
    "decode_array",
]

FORMAT_VERSION = "fingerloc-db-6"

# block type tag -> (class, its array fields); every field has the grid as its
# leading axis
_MODEL_BLOCKS = {
    "gaussian": (GaussianStats, ("mean", "cov", "loading")),
    "gamma": (GammaParams, ("shape", "scale")),
    "von_mises": (VonMisesParams, ("mu", "kappa")),
}


def encode_array(values) -> dict:
    """``values`` as one ``{dtype, shape, data}`` record, ``data`` the base64
    of its C-order little-endian bytes; ValueError on a NaN or infinity."""
    arr = np.asarray(values)
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise ValueError("refusing to write a non-finite value")
    raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return {"dtype": arr.dtype.name, "shape": list(arr.shape),
            "data": base64.b64encode(raw).decode("ascii")}


def decode_array(record: dict, name: str) -> np.ndarray:
    """The writable array an :func:`encode_array` record holds.

    ``record`` has passed its artifact's schema: a known dtype, a list of
    non-negative integers as its shape, and base64 characters as its data.
    Raises ValueError, naming ``name``, unless every shape entry is an int
    (the schema also counts ``4.0`` as an integer) and ``data`` is strict
    base64 of exactly that many values, every bool 0 or 1 and every float
    finite.
    """
    dtype, shape = record["dtype"], record["shape"]
    if not all(type(n) is int for n in shape):
        raise ValueError(f"{name} has shape {shape!r}, not a list of ints")
    try:
        raw = base64.b64decode(record["data"], validate=True)
    except ValueError as exc:
        raise ValueError(f"{name} data is not a base64 string: {exc}") from None
    stored = np.dtype(dtype).newbyteorder("<")
    size = math.prod(shape) * stored.itemsize
    if len(raw) != size:
        raise ValueError(f"{name} holds {len(raw)} bytes, not the {size} of a "
                         f"{dtype} array of shape {shape}")
    if stored.kind == "b" and np.frombuffer(raw, np.uint8).max(initial=0) > 1:
        raise ValueError(f"{name} holds a bool byte other than 0 or 1")
    arr = np.frombuffer(raw, stored).astype(dtype).reshape(shape)
    if stored.kind in "fc" and not np.isfinite(arr).all():
        raise ValueError(f"{name} holds non-finite values")
    return arr


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

def _block_to_json(block) -> dict:
    if isinstance(block, np.ndarray):
        dtype = complex if np.iscomplexobj(block) else float
        return {"type": "array", "values": encode_array(np.asarray(block, dtype))}
    tag = _model_tag(block)
    return {"type": tag, **{name: encode_array(getattr(block, name))
                            for name in _MODEL_BLOCKS[tag][1]}}


def _block_from_json(key: str, data: dict):
    where = f"database blocks/{key}"
    if data["type"] == "array":
        return decode_array(data["values"], f"{where}/values")
    cls, fields = _MODEL_BLOCKS[data["type"]]
    return cls(**{name: decode_array(data[name], f"{where}/{name}") for name in fields})


def database_to_json(db: FingerprintDatabase) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "grid": {
            "origin": list(db.grid.origin),
            "nx": db.grid.nx,
            "ny": db.grid.ny,
            "spacing": db.grid.spacing,
        },
        "config_digest": db.config_digest,
        "blocks": {key: _block_to_json(block) for key, block in db.blocks.items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def database_from_json(text: str) -> FingerprintDatabase:
    """The database a :func:`database_to_json` text holds; ValueError ending
    "; rerun learn" when it breaks ``db.schema.json`` (a stale version too)."""
    doc = json.loads(text)
    found = schema_error(doc, load_schema("db.schema.json"))
    if found is not None:
        keys, message = found
        where = "/".join(map(str, keys)) or "<root>"
        raise ValueError(f"database {schema_refusal(where, message)}; rerun learn")
    g = doc["grid"]
    grid = Grid(g["origin"], g["nx"], g["ny"], g["spacing"])
    blocks = {key: _block_from_json(key, data) for key, data in doc["blocks"].items()}
    return FingerprintDatabase(grid=grid, blocks=blocks, config_digest=doc["config_digest"])


def save_database(db: FingerprintDatabase, path):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    text = database_to_json(db)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_database(path) -> FingerprintDatabase:
    with open(path, "r", encoding="utf-8") as fh:
        return database_from_json(fh.read())
