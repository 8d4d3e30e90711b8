"""Cross-version behaviour guards.

``tests/data/equivalence.json`` holds, per pipeline, the estimated-index (and
estimate) columns of its CSV outputs and the ``summary.json`` written by every
verb, from running the verb chain of ``tests/test_cli.py`` at its ``TINY``
config.  Integers, strings and booleans must match exactly and floats to 1e-9
relative, so a refactor that claims unchanged behaviour has to reproduce them.

The property tests hold the block-wise matchers to a per-grid-point reference
loop written out here, on random databases, and the measurement codec to a
bit-exact round trip.

Regenerate only for an intended behaviour change, and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_equivalence.py
"""

import csv
import json
import math
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import i0e

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_cli import TINY, VERBS  # noqa: E402

from fingerloc.cli import EXIT_OK, main  # noqa: E402
from fingerloc.database import FingerprintDatabase  # noqa: E402
from fingerloc.experiments.artifacts import validate_artifact  # noqa: E402
from fingerloc.experiments.common import read_measurements, save_measurements  # noqa: E402
from fingerloc.experiments.illegal import error_maps  # noqa: E402
from fingerloc.geometry import Position, build_uniform_grid  # noqa: E402
from fingerloc.matching import mle_rssi_rspd  # noqa: E402
from fingerloc.signals import FingerprintKind, FingerprintVector  # noqa: E402
from fingerloc.stats import KAPPA_MAX, GammaParams, VonMisesParams  # noqa: E402

PINNED = pathlib.Path(__file__).with_name("data") / "equivalence.json"

COLUMNS = {
    "classroom_cir": {"trials.csv": ("est_index",)},
    "wifi_rssi_rspd": {"trials.csv": ("err_rssi", "err_rspd", "err_rssi_rspd"),
                       "track.csv": ("est_x", "est_y")},
    "bems_binary": {"trials.csv": ("est_index",),
                    "track.csv": ("snap_index", "tracked_index", "candidates"),
                    "lighting.csv": ("power_w",)},
    "illegal_hybrid": {"trials.csv": ("est_index",)},
}


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def run_chain(name: str, root: str) -> dict:
    """Run one pipeline's verb chain; return its pinned outputs."""
    cfg = json.loads(json.dumps(TINY[name]))
    cfg["out_dir"] = os.path.join(root, name)
    cfg_path = os.path.join(root, f"{name}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    summaries = {}
    for verb in VERBS[name]:
        assert main([verb, "--config", cfg_path]) == EXIT_OK, f"{name} {verb} failed"
        with open(os.path.join(cfg["out_dir"], "summary.json"), "r", encoding="utf-8") as fh:
            summaries[verb] = json.load(fh)
    columns = {}
    for fname, names in COLUMNS[name].items():
        with open(os.path.join(cfg["out_dir"], fname), "r", encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns[fname] = {col: [_number(row[col]) for row in rows] for col in names}
    return {"columns": columns, "summaries": summaries}


def first_difference(ref, got, where: str = "") -> str | None:
    """Where two outputs first differ, or None when they agree."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return f"{where}: keys differ"
        for key in sorted(ref):
            diff = first_difference(ref[key], got[key], f"{where}/{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{where}: lengths differ"
        for i, (a, b) in enumerate(zip(ref, got)):
            diff = first_difference(a, b, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        ok = math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12)
    else:
        ok = ref == got and type(ref) is type(got)
    return None if ok else f"{where}: {got!r} != {ref!r}"


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_chain_reproduces_pinned_outputs(name, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    got = run_chain(name, str(tmp_path))
    assert first_difference(pinned, got, name) is None


def test_first_difference_catches_drift():
    ref = {"a": [1, 2.0], "b": {"c": True}}
    assert first_difference(ref, {"a": [1, 2.0 * (1 + 1e-12)], "b": {"c": True}}) is None
    assert first_difference(ref, {"a": [1, 2.0 * (1 + 1e-6)], "b": {"c": True}})
    assert first_difference(ref, {"a": [2, 2.0], "b": {"c": True}})
    assert first_difference(ref, {"a": [1, 2.0], "b": {"c": 1}})
    assert first_difference(ref, {"a": [1], "b": {"c": True}})


# ---------------------------------------------------------------------------
# block-wise matchers against a per-point reference loop
# ---------------------------------------------------------------------------

def _rel_close(got, want):
    return np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _wrap(theta):
    return math.atan2(math.sin(theta), math.cos(theta))


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), n_sensors=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mle_rssi_rspd_equals_per_point_loop(nx, ny, n_sensors, seed):
    rng = np.random.default_rng(seed)
    grid = build_uniform_grid(Position(0.0, 0.0), nx, ny, 1.0)
    n = len(grid)
    blocks, feats = {}, []
    for s in range(n_sensors):
        kappa = rng.choice([0.0, KAPPA_MAX, 1e-3, 7.0, 300.0], size=n)
        blocks[f"rssi:{s}"] = GammaParams(shape=np.exp(rng.uniform(-3, 4, n)),
                                          scale=np.exp(rng.uniform(-7, 7, n)))
        blocks[f"rspd:{s}"] = VonMisesParams(mu=rng.uniform(-math.pi, math.pi, n), kappa=kappa)
        feats += [(f"rssi:{s}", float(np.exp(rng.uniform(-5, 5)))),
                  (f"rspd:{s}", float(rng.uniform(-math.pi, math.pi)))]
    order = rng.permutation(len(feats))
    feats = [feats[i] for i in order]
    db = FingerprintDatabase(grid=grid, blocks=blocks)

    want = np.zeros(n)
    for i in range(n):
        for key, x in feats:
            b = blocks[key]
            if key.startswith("rssi:"):
                k, th = float(b.shape[i]), float(b.scale[i])
                want[i] += (k - 1) * math.log(x) - x / th - math.lgamma(k) - k * math.log(th)
            else:
                mu, kap = float(b.mu[i]), float(b.kappa[i])
                log_i0 = math.log(float(i0e(kap))) + kap
                want[i] += kap * math.cos(x - mu) - math.log(2 * math.pi) - log_i0
    lmap, idx = mle_rssi_rspd(feats, db)
    assert _rel_close(lmap.values, want)
    assert want[idx] == pytest.approx(np.max(want), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), n_keys=st.integers(1, 3),
       half=st.integers(0, 4), magnitude_only=st.booleans(),
       include_zero_lag=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_error_maps_equal_per_point_loop(nx, ny, n_keys, half, magnitude_only,
                                         include_zero_lag, seed):
    rng = np.random.default_rng(seed)
    grid = build_uniform_grid(Position(0.0, 0.0), nx, ny, 1.0)
    n, dim = len(grid), 2 * half + 1
    blocks, xc, pd = {}, {}, {}
    for k in range(n_keys):
        rows = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        blocks[f"xc:{k}"] = FingerprintVector(kind=FingerprintKind.RX_XCORR, values=rows)
        xc[f"xc:{k}"] = FingerprintVector(
            kind=FingerprintKind.RX_XCORR,
            values=rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        blocks[f"pd:{k}"] = FingerprintVector(
            kind=FingerprintKind.PHASE_DIFF, values=rng.uniform(-3.14, 3.14, (n, 3)))
        pd[f"pd:{k}"] = FingerprintVector(kind=FingerprintKind.PHASE_DIFF,
                                          values=rng.uniform(-3.14, 3.14, 3))
    cfg = {"matching": {"magnitude_only": magnitude_only,
                        "include_zero_lag": include_zero_lag}}
    db = FingerprintDatabase(grid=grid, blocks=blocks)

    want_x, want_p = np.zeros(n), np.zeros(n)
    lags = [j for j in range(dim) if include_zero_lag or j != half]
    for i in range(n):
        for key, fp in xc.items():
            for j in lags:
                a, b = fp.values[j], blocks[key].values[i, j]
                want_x[i] += (abs(a) - abs(b)) ** 2 if magnitude_only else abs(a - b) ** 2
        for key, fp in pd.items():
            for j in range(3):
                want_p[i] += _wrap(fp.values[j] - blocks[key].values[i, j]) ** 2
    err_x, err_p = error_maps(cfg, db, xc, pd)
    assert _rel_close(err_x.values, want_x)
    assert _rel_close(err_p.values, want_p)


# ---------------------------------------------------------------------------
# measurement codec
# ---------------------------------------------------------------------------

_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=3)
_FINITE = {"allow_nan": False, "allow_infinity": False}


@settings(max_examples=60, deadline=None)
@given(arrays=st.fixed_dictionaries({
    "real": hnp.arrays(np.float64, _SHAPES, elements=st.floats(**_FINITE)),
    "complex": hnp.arrays(np.complex128, _SHAPES, elements=st.complex_numbers(**_FINITE)),
    "count": hnp.arrays(np.int64, _SHAPES),
    "flag": hnp.arrays(np.bool_, _SHAPES),
}))
def test_measurement_codec_round_trips_bit_exactly(arrays):
    cfg = {"pipeline": "wifi_rssi_rspd", "seed": 0, "scenario": {}}
    expected = {name: (arr.shape, arr.dtype) for name, arr in arrays.items()}
    with tempfile.TemporaryDirectory() as out_dir:
        save_measurements(cfg, out_dir, arrays)
        path = os.path.join(out_dir, "measurements.json")
        validate_artifact(path)
        back, digest = read_measurements(path, cfg, expected)
    assert isinstance(digest, str) and len(digest) == 64
    for name, arr in arrays.items():
        got = back[name]
        assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: run_chain(name, tmp) for name in sorted(TINY)}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(PINNED)
