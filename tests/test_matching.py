"""Likelihood maps and block matchers against brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from fingerloc import matching
from fingerloc.database import FingerprintDatabase
from fingerloc.experiments.illegal import _best_points
from fingerloc.features import wrap_angle
from fingerloc.geometry import Grid
from fingerloc.matching import (
    binary_likelihood,
    fingerprint_sqerr,
    mle_rssi_rspd,
    threshold_set,
)
from fingerloc.stats import (
    GammaParams,
    VonMisesParams,
    gamma_logpdf,
    vonmises_logpdf,
)


def _grid(n):
    return Grid((0.0, 0.0), nx=n, ny=n, spacing=1.0)


# ---------------------------------------------------------------------------
# maximum-likelihood matchers
# ---------------------------------------------------------------------------

def test_mle_rssi_rspd_mixes_gamma_and_vonmises():
    rng = np.random.default_rng(31)
    grid = _grid(2)
    gam = GammaParams(shape=rng.uniform(1, 5, 4), scale=rng.uniform(0.5, 2, 4))
    vm = VonMisesParams(mu=rng.uniform(-3, 3, 4), kappa=rng.uniform(0.5, 10, 4))
    db = FingerprintDatabase(grid=grid, blocks={"rssi:0": gam, "rspd:0": vm})
    values, idx = mle_rssi_rspd({"rssi:0": 1.7, "rspd:0": -0.4}, db)
    want = np.array([
        gamma_logpdf(1.7, GammaParams(gam.shape[i:i + 1], gam.scale[i:i + 1]))[0]
        + vonmises_logpdf(-0.4, VonMisesParams(vm.mu[i:i + 1], vm.kappa[i:i + 1]))[0]
        for i in range(4)])
    assert np.allclose(values, want, atol=1e-12)
    assert idx == int(np.argmax(want))
    # a (T,) array per key scores T snapshots, one row each
    block, rows = mle_rssi_rspd({"rssi:0": np.array([1.7, 0.3]),
                                 "rspd:0": np.array([-0.4, 2.0])}, db)
    assert block.shape == (2, 4) and rows.shape == (2,)
    assert np.array_equal(block[0], values) and rows[0] == idx


def test_mle_rssi_rspd_validation():
    grid = _grid(2)
    db = FingerprintDatabase(grid=grid, blocks={
        "rssi:0": GammaParams(shape=np.full(4, 2.0), scale=np.ones(4)),
        "rspd:0": VonMisesParams(mu=np.zeros(4), kappa=np.ones(4))})
    with pytest.raises(ValueError):
        mle_rssi_rspd({"rssi:0": -1.0}, db)  # power must be positive
    with pytest.raises(ValueError):
        mle_rssi_rspd({"rssi:0": np.array([1.0, 0.0])}, db)  # in every snapshot
    with pytest.raises(ValueError):
        mle_rssi_rspd({"missing": 1.0}, db)
    with pytest.raises(ValueError):
        mle_rssi_rspd({}, db)
    with pytest.raises(ValueError, match="one shape"):
        mle_rssi_rspd({"rssi:0": np.ones(3), "rspd:0": np.zeros(2)}, db)
    with pytest.raises(ValueError, match="finite"):
        mle_rssi_rspd({"rspd:0": np.array([0.0, np.nan])}, db)


def test_binary_likelihood_hand_computed():
    probs = np.array([[0.9, 0.2, 0.5, 0.7], [0.1, 0.6, 0.5, 0.3]])
    values = binary_likelihood([1, 0], probs)
    want = np.log(probs[0]) + np.log1p(-probs[1])
    assert np.allclose(values, want, atol=1e-12)
    # one row per step, each bit for bit the one-step call
    steps = np.array([[1, 0], [0, 0], [1, 1]], dtype=bool)
    block = binary_likelihood(steps, probs)
    assert block.shape == (3, 4)
    assert np.array_equal(block[0], values)
    for row, bits in zip(block, steps):
        assert np.array_equal(row, binary_likelihood(bits, probs))


def test_binary_likelihood_validation():
    probs = np.full((1, 4), 0.5)
    for not_bits in ([2.0], [0.5], [np.nan], 1):
        with pytest.raises(ValueError, match="0/1"):
            binary_likelihood(not_bits, probs)
    with pytest.raises(ValueError, match="2 bits per row"):
        binary_likelihood([1, 0], probs)  # one sensor's map for two bits
    with pytest.raises(ValueError, match="2 bits per row"):
        binary_likelihood([[1, 0], [0, 1]], probs)  # nor for two bits a row
    with pytest.raises(ValueError, match="sensors, grid points"):
        binary_likelihood([1], np.full(4, 0.5))  # one map, not a (sensors, N) stack


@pytest.mark.parametrize("bad", [0.0, 1.0, np.nan])
def test_binary_likelihood_refuses_probabilities_outside_the_open_interval(bad):
    # a certain or impossible detection would put -inf into the map; NaN
    # compares false both ways
    probs = np.full((2, 4), 0.5)
    probs[1, 2] = bad
    with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
        binary_likelihood([[1, 0]], probs)


# ---------------------------------------------------------------------------
# candidate sets and hybrid combining
# ---------------------------------------------------------------------------

def test_threshold_set_filters_and_never_empties():
    values = np.array([-1.0, -2.0, -0.5])
    assert threshold_set(values, -1.5).tolist() == [True, False, True]
    # nothing clears a sky-high threshold: fall back to the single argmax
    assert threshold_set(values, 10.0).tolist() == [False, False, True]
    for eta in (-10.0, -1.5, 0.0, 10.0):
        mask = threshold_set(values, eta)
        assert mask.dtype == bool and mask.shape == values.shape
        assert mask[np.argmax(values)]


@pytest.mark.parametrize("seed", range(4))
def test_threshold_set_is_the_row_above_eta_plus_its_argmax(seed):
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(size=200), 1)  # ties at and around eta
    best = int(np.flatnonzero(values == values.max())[0])  # the lowest tied index
    for eta in np.quantile(values, [0.0, 0.5, 0.9, 1.0]).tolist() + [values.max() + 1.0]:
        mask = threshold_set(values, eta)
        assert mask[best]
        assert np.array_equal(np.delete(mask, best), np.delete(values > eta, best))


def test_hybrid_match_weighted_sum_and_tie_break():
    # the unknown-emitter pipeline's hybrid match: argmin of xcorr + gamma * phase
    err_x = np.array([[4.0, 1.0]])
    err_p = np.array([[1.0, 4.0]])
    assert _best_points(err_x + 1.0 * err_p).tolist() == [0]  # exact tie: the lowest index
    assert _best_points(err_x + 0.0 * err_p).tolist() == _best_points(err_x).tolist() == [1]
    assert _best_points(err_x + 1e12 * err_p).tolist() == _best_points(err_p).tolist() == [0]
    with pytest.raises(ValueError, match="finite"):
        _best_points(np.array([[1.0, np.inf]]))


def test_hybrid_match_equals_direct_recombination():
    rng = np.random.default_rng(41)
    ex, ep = rng.uniform(0, 10, size=(2, 20, 16))
    gamma = float(rng.uniform(0, 8))
    assert _best_points(ex + gamma * ep).tolist() == [int(np.argmin(ex[t] + gamma * ep[t]))
                                                      for t in range(20)]


# ---------------------------------------------------------------------------
# squared errors
# ---------------------------------------------------------------------------

def test_fingerprint_sqerr_wraps_angles():
    a = np.array([math.pi - 0.1])
    b = np.array([[-math.pi + 0.1]])
    # the short way around the circle is 0.2 rad
    assert fingerprint_sqerr(a, b, wrap=True) == pytest.approx([0.04], abs=1e-12)
    assert fingerprint_sqerr(a, b) == pytest.approx([(2 * math.pi - 0.2) ** 2], abs=1e-12)


def test_fingerprint_sqerr_matches_brute_force():
    rng = np.random.default_rng(43)
    for _ in range(30):
        d = int(rng.integers(1, 8))
        av = np.abs(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        bv = np.abs(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        assert fingerprint_sqerr(av, bv[None])[0] == pytest.approx(
            float(np.sum((av - bv) ** 2)), rel=1e-12)
        pa = wrap_angle(rng.uniform(-9, 9, size=d))
        pb = wrap_angle(rng.uniform(-9, 9, size=d))
        want = float(np.sum(wrap_angle(pa - pb) ** 2))
        assert fingerprint_sqerr(pa, pb[None], wrap=True)[0] == pytest.approx(want, rel=1e-12)


def test_fingerprint_sqerr_broadcasts_over_a_block():
    rng = np.random.default_rng(45)
    targets = rng.standard_normal((2, 3, 5))
    rows = rng.standard_normal((7, 5))
    for flags in ({}, {"wrap": True}):
        got = fingerprint_sqerr(targets, rows, **flags)
        assert got.shape == (2, 3, 7)
        for idx in np.ndindex(2, 3):
            for i in range(7):
                one = fingerprint_sqerr(targets[idx], rows[i:i + 1], **flags)
                assert got[idx + (i,)] == one[0]
    with pytest.raises(ValueError):
        fingerprint_sqerr(rows, rows[0])  # the reference is an (N, d) block


def _sqerr_whole(targets, reference, wrap=False):
    """``fingerprint_sqerr`` as one (..., N, d) difference block."""
    delta = targets[..., None, :] - reference
    if wrap:
        delta = wrap_angle(delta)
    return np.sum(np.square(delta, out=delta), axis=-1)


@pytest.mark.parametrize("d, wrap", [(7, False), (15, False), (7, True)])
def test_fingerprint_sqerr_in_row_chunks_equals_the_whole_block(monkeypatch, d, wrap):
    rng = np.random.default_rng(47)
    targets = 3.0 * rng.standard_normal((2, 100, d))
    rows = 3.0 * rng.standard_normal((30, d))
    want = _sqerr_whole(targets, rows, wrap)
    # chunks of 37 target rows: 200 rows in 5 full chunks and a short one
    monkeypatch.setattr(matching, "_CROSS_CHUNK", 37 * rows.size)
    got = fingerprint_sqerr(targets, rows, wrap=wrap)
    assert got.shape == (2, 100, 30) and got.tobytes() == want.tobytes()
    assert fingerprint_sqerr(targets[0, 0], rows, wrap=wrap).tobytes() == want[0, 0].tobytes()
    assert fingerprint_sqerr(targets[:, :0], rows).shape == (2, 0, 30)


@pytest.mark.parametrize("wrap", [False, True])
def test_fingerprint_sqerr_memory_does_not_grow_with_targets_times_block(wrap):
    # the default classroom shapes: 2880 trials against 144 points, d = 7
    rng = np.random.default_rng(48)
    targets, rows = rng.standard_normal((2880, 7)), rng.standard_normal((144, 7))
    tracemalloc.start()
    try:
        out = fingerprint_sqerr(targets, rows, wrap=wrap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (2880, 144, 7) difference block alone is 23 MB
    assert peak < out.nbytes + 4 * 8 * matching._CROSS_CHUNK


def test_fingerprint_sqerr_kind_and_dim_checks():
    with pytest.raises(ValueError, match="real"):
        fingerprint_sqerr(np.ones(2, dtype=complex), np.ones((3, 2)))
    with pytest.raises(ValueError, match="real"):
        fingerprint_sqerr(np.ones(2), np.ones((3, 2), dtype=complex))
    with pytest.raises(ValueError):
        fingerprint_sqerr(np.ones(1), np.ones((3, 2)))
