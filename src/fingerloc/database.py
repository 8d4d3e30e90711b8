"""Fingerprint database: one stacked block per key over a survey grid, plus JSON persistence."""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import Grid, Position
from .stats import GammaParams, GaussianStats, VonMisesParams

__all__ = [
    "DatabaseMeta",
    "FingerprintDatabase",
    "save_database",
    "load_database",
    "database_to_json",
    "database_from_json",
]

FORMAT_VERSION = "fingerloc-db-4"

# block type tag -> (class, {field: dtype}); every field has the grid as its
# leading axis, the last one is (N,)
_MODEL_BLOCKS = {
    "gaussian": (GaussianStats, {"mean": complex, "cov": complex, "loading": float}),
    "gamma": (GammaParams, {"shape": float, "scale": float}),
    "von_mises": (VonMisesParams, {"mu": float, "kappa": float}),
}
# plain array blocks of any rank, the grid as their leading axis
_ARRAY_BLOCKS = {"real": float, "complex": complex}


def complex_to_json(values) -> list:
    """Complex array -> nested lists ending in [re, im] pairs (floats round-trip exactly)."""
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_from_json(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=complex)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"complex values must be [re, im] pairs, got shape {arr.shape}")
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out


def real_to_json(values) -> list:
    return np.asarray(values, dtype=float).tolist()


def _array_to_json(values, dtype) -> list:
    return complex_to_json(values) if dtype is complex else real_to_json(values)


def _array_from_json(data, dtype) -> np.ndarray:
    return complex_from_json(data) if dtype is complex else np.asarray(data, dtype=float)


# ---------------------------------------------------------------------------
# database container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatabaseMeta:
    """Training provenance: frequencies/bandwidths used, derived-data marker.

    ``config_digest`` identifies the experiment config a stored database was
    learned under (None outside the experiment harness).
    """

    train_freqs_hz: tuple = ()
    train_bandwidths_hz: tuple = ()
    derived: bool = False
    extra: dict = field(default_factory=dict)
    config_digest: str | None = None


def _model_tag(block) -> str | None:
    return next((tag for tag, (cls, _) in _MODEL_BLOCKS.items() if isinstance(block, cls)), None)


def _block_rows(block) -> int:
    """Grid points a block covers; ValueError unless it is a storable block."""
    tag = _model_tag(block)
    lead = block if tag is None else getattr(block, list(_MODEL_BLOCKS[tag][1])[-1])
    if not isinstance(lead, np.ndarray) or lead.ndim == 0:
        raise ValueError(f"a {type(block).__name__} is not a block with a leading grid axis")
    return lead.shape[0]


class FingerprintDatabase:
    """Learned radio map: one block per key, stacked over the grid.

    A block is a :class:`GaussianStats`, :class:`GammaParams` or
    :class:`VonMisesParams` whose arrays carry the grid index as their
    leading axis, or a plain real or complex array of any rank whose leading
    axis is the grid (detection probabilities, mean powers, correlation and
    phase-difference fingerprints).  Row i of every block belongs to grid
    point i.  Array blocks are held as read-only views.
    """

    def __init__(self, grid: Grid, blocks=None, meta: DatabaseMeta | None = None):
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
        self.meta = meta if meta is not None else DatabaseMeta()

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
        tag = "complex" if np.iscomplexobj(block) else "real"
        return {"type": tag, "values": _array_to_json(block, _ARRAY_BLOCKS[tag])}
    tag = _model_tag(block)
    return {"type": tag, **{name: _array_to_json(getattr(block, name), dtype)
                            for name, dtype in _MODEL_BLOCKS[tag][1].items()}}


def _finite_array(key: str, data, dtype) -> np.ndarray:
    try:
        arr = _array_from_json(data, dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"database block {key!r} is not a numeric array: {exc}") from None
    if arr.ndim == 0:
        raise ValueError(f"database block {key!r} holds a scalar, not an array over the grid")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"database block {key!r} holds non-finite values")
    return arr


def _block_from_json(key: str, data: dict):
    tag = data.get("type")
    if tag in _ARRAY_BLOCKS:
        return _finite_array(key, data["values"], _ARRAY_BLOCKS[tag])
    if tag not in _MODEL_BLOCKS:
        raise ValueError(f"unknown block type {tag!r}")
    cls, fields = _MODEL_BLOCKS[tag]
    return cls(**{name: _finite_array(key, data[name], dtype) for name, dtype in fields.items()})


def database_to_json(db: FingerprintDatabase) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "grid": {
            "origin": [db.grid.origin.x, db.grid.origin.y],
            "nx": db.grid.nx,
            "ny": db.grid.ny,
            "spacing": db.grid.spacing,
        },
        "meta": {
            "train_freqs_hz": [float(f) for f in db.meta.train_freqs_hz],
            "train_bandwidths_hz": [float(b) for b in db.meta.train_bandwidths_hz],
            "derived": bool(db.meta.derived),
            "extra": db.meta.extra,
            "config_digest": db.meta.config_digest,
        },
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
    g = _json_object(doc, "grid")
    origin = g["origin"]
    if not (isinstance(origin, list) and len(origin) == 2):
        raise ValueError(f"database grid origin must be a pair of coordinates, got {origin!r}")
    grid = Grid(Position(*origin), g["nx"], g["ny"], g["spacing"])
    m = _json_object(doc, "meta", {})
    meta = DatabaseMeta(
        train_freqs_hz=tuple(m.get("train_freqs_hz", ())),
        train_bandwidths_hz=tuple(m.get("train_bandwidths_hz", ())),
        derived=bool(m.get("derived", False)),
        extra=m.get("extra", {}),
        config_digest=m.get("config_digest"),
    )
    blocks = {key: _block_from_json(key, data)
              for key, data in _json_object(doc, "blocks").items()}
    return FingerprintDatabase(grid=grid, blocks=blocks, meta=meta)


def _json_object(doc: dict, key: str, default=None) -> dict:
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, dict):
        raise ValueError(f"database {key} must be a JSON object, got {type(value).__name__}")
    return value


def save_database(db: FingerprintDatabase, path):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(database_to_json(db))
        fh.write("\n")


def load_database(path) -> FingerprintDatabase:
    with open(path, "r", encoding="utf-8") as fh:
        return database_from_json(fh.read())
