"""Fingerprint database: one stacked block per key over a survey grid, plus JSON persistence.

The array record codec here, :func:`encode_array`/:func:`decode_array`, is
the one array encoding of both run artifacts, ``db.json`` and
``measurements.json``.
"""

import base64
import json
import math
import os

import numpy as np

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

# block type tag -> (class, {field: dtype}); every field has the grid as its
# leading axis
_MODEL_BLOCKS = {
    "gaussian": (GaussianStats, {"mean": "complex128", "cov": "complex128", "loading": "float64"}),
    "gamma": (GammaParams, {"shape": "float64", "scale": "float64"}),
    "von_mises": (VonMisesParams, {"mu": "float64", "kappa": "float64"}),
}
# the dtypes of a plain "array" block of any rank, the grid as its leading axis
_ARRAY_DTYPES = ("float64", "complex128")


def encode_array(values) -> dict:
    """``values`` as one ``{dtype, shape, data}`` record, ``data`` the base64
    of its C-order little-endian bytes; ValueError on a NaN or infinity."""
    arr = np.asarray(values)
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise ValueError("refusing to write a non-finite value")
    raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return {"dtype": arr.dtype.name, "shape": list(arr.shape),
            "data": base64.b64encode(raw).decode("ascii")}


def decode_array(record, name: str, dtypes, min_rank: int = 0) -> np.ndarray:
    """The writable array an :func:`encode_array` record holds.

    Raises ValueError, naming ``name``, unless ``record`` is such a record
    whose dtype is one of ``dtypes``, whose shape is a list of at least
    ``min_rank`` non-negative ints, and whose ``data`` is strict base64 of
    exactly that many values, every bool 0 or 1 and every float finite.
    """
    if not isinstance(record, dict) or sorted(record) != ["data", "dtype", "shape"]:
        raise ValueError(f"{name} is not a {{dtype, shape, data}} array record")
    dtype, shape = record["dtype"], record["shape"]
    if dtype not in dtypes:
        raise ValueError(f"{name} has dtype {dtype!r}, not one of {list(dtypes)}")
    if not (isinstance(shape, list) and len(shape) >= min_rank
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{name} has shape {shape!r}, not a list of at least "
                         f"{min_rank} non-negative ints")
    try:
        raw = base64.b64decode(record["data"], validate=True)
    except (TypeError, ValueError) as exc:
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
        return len(getattr(block, next(iter(_MODEL_BLOCKS[tag][1]))))
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


def _block_from_json(key: str, data):
    tag = data.get("type") if isinstance(data, dict) else None
    if tag == "array":
        _refuse_unknown_keys(data, f"database block {key!r}", ("type", "values"))
        return decode_array(data.get("values"), f"database block {key!r}", _ARRAY_DTYPES, 1)
    if tag not in _MODEL_BLOCKS:
        raise ValueError(f"database block {key!r} has unknown type {tag!r}")
    cls, fields = _MODEL_BLOCKS[tag]
    _refuse_unknown_keys(data, f"database block {key!r}", ("type", *fields))
    return cls(**{name: decode_array(data.get(name), f"database block {key!r} field {name!r}",
                                     (dtype,), 1)
                  for name, dtype in fields.items()})


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
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a database document must be a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported database format version {version!r} "
                         f"(this version reads {FORMAT_VERSION!r}); rerun learn")
    _refuse_unknown_keys(doc, "database", ("version", "grid", "config_digest", "blocks"))
    g = _json_object(doc, "grid")
    _refuse_unknown_keys(g, "database grid", ("origin", "nx", "ny", "spacing"))
    grid = Grid(g["origin"], g["nx"], g["ny"], g["spacing"])
    digest = doc.get("config_digest")
    if digest is not None and not isinstance(digest, str):
        raise ValueError(f"database config_digest must be a string or null, got {digest!r}")
    blocks = {key: _block_from_json(key, data)
              for key, data in _json_object(doc, "blocks").items()}
    return FingerprintDatabase(grid=grid, blocks=blocks, config_digest=digest)


def _refuse_unknown_keys(obj: dict, name: str, keys) -> None:
    """ValueError naming the first key of ``obj`` that is not one of ``keys``."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"{name} has unknown key {unknown[0]!r}; rerun learn")


def _json_object(doc: dict, key: str) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise ValueError(f"database {key} must be a JSON object, got {type(value).__name__}")
    return value


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
