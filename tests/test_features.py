"""Feature extraction and angle wrapping against brute-force and analytic oracles."""

import math

import numpy as np
import pytest

from fingerloc.features import mean_power, relative_phase, wrap_angle, xcorr, xcorr_rows


def xcorr_brute(a, b, max_lag):
    """O(L^2) reference: out[i] = sum_t a(t) conj(b(t - (i - max_lag)))."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros(2 * max_lag + 1, dtype=complex)
    for i, tau in enumerate(range(-max_lag, max_lag + 1)):
        acc = 0.0 + 0.0j
        for t in range(a.size):
            tb = t - tau
            if 0 <= tb < b.size:
                acc += a[t] * np.conj(b[tb])
        out[i] = acc
    return out


def test_xcorr_matches_brute_force_on_integer_data():
    # integer-valued complex data keeps every sum exact in float64, so the
    # fast path must agree bit for bit regardless of summation order
    rng = np.random.default_rng(2024)
    for _ in range(300):
        na = int(rng.integers(1, 9))
        nb = int(rng.integers(1, 9))
        a = rng.integers(-8, 9, size=na) + 1j * rng.integers(-8, 9, size=na)
        b = rng.integers(-8, 9, size=nb) + 1j * rng.integers(-8, 9, size=nb)
        max_lag = int(rng.integers(0, max(na, nb)))
        assert np.array_equal(xcorr(a, b, max_lag), xcorr_brute(a, b, max_lag))


def test_xcorr_matches_brute_force_on_float_data():
    rng = np.random.default_rng(77)
    for _ in range(200):
        na = int(rng.integers(1, 14))
        nb = int(rng.integers(1, 14))
        a = rng.standard_normal(na) + 1j * rng.standard_normal(na)
        b = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        max_lag = int(rng.integers(0, max(na, nb)))
        got = xcorr(a, b, max_lag)
        want = xcorr_brute(a, b, max_lag)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_xcorr_unit_impulses():
    delta0 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(xcorr(delta0, delta0, 1), [0.0, 1.0, 0.0])
    # a is an impulse at sample 2: the only overlap with delta0 is at lag +2
    delta2 = np.array([0.0, 0.0, 1.0])
    out = xcorr(delta2, delta0, 2)
    expect = np.zeros(5, dtype=complex)
    expect[2 + 2] = 1.0
    assert np.array_equal(out, expect)


def test_xcorr_delay_convention():
    # b = a delayed by k  =>  peak at lag -k
    rng = np.random.default_rng(8)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for k in (1, 3, 5):
        b = np.concatenate([np.zeros(k), a])
        out = xcorr(a, b, max_lag=8)
        assert int(np.argmax(np.abs(out))) == 8 - k


def test_xcorr_small_complex_example():
    out = xcorr([1.0, 1.0j], [1.0, 1.0], 1)
    # lag -1: a0 conj(b1) = 1; lag 0: a0 conj(b0) + a1 conj(b1) = 1 + i;
    # lag +1: a1 conj(b0) = i
    assert np.array_equal(out, np.array([1.0, 1.0 + 1.0j, 1.0j]))


def test_xcorr_conjugate_symmetry_of_autocorrelation():
    rng = np.random.default_rng(15)
    a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    out = xcorr(a, a, 11)
    for tau in range(12):
        assert out[11 + tau] == pytest.approx(np.conj(out[11 - tau]), abs=1e-12)


def test_xcorr_scaling():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base = xcorr(a, b, 5)
    alpha = 2.0 - 0.5j
    assert np.allclose(xcorr(alpha * a, b, 5), alpha * base, rtol=1e-12)
    assert np.allclose(xcorr(a, alpha * b, 5), np.conj(alpha) * base, rtol=1e-12)


def test_xcorr_validates_inputs():
    with pytest.raises(ValueError):
        xcorr([], [1.0], 0)
    with pytest.raises(ValueError):
        xcorr([1.0], [1.0], -1)
    with pytest.raises(ValueError):
        xcorr([1.0, 2.0], [1.0], 2)
    with pytest.raises(ValueError):
        xcorr(np.ones((2, 2)), [1.0], 0)
    assert np.array_equal(xcorr([2.0], [4.0], 0), [8.0])


def test_rssi_rspd_analytic_cases():
    same = np.array([1.0, 1.0])
    assert mean_power(same) == 1.0 and relative_phase(same, same) == 0.0
    assert relative_phase(same, np.array([1.0j, 1.0j])) == pytest.approx(-math.pi / 2, abs=1e-12)


def test_rssi_rspd_power_is_mean_square_of_first_buffer():
    rng = np.random.default_rng(40)
    yi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    yj = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    rssi, phase = mean_power(yi), relative_phase(yi, yj)
    assert rssi == pytest.approx(float(np.mean(np.abs(yi) ** 2)), rel=1e-12)
    assert phase == pytest.approx(float(np.angle(np.mean(yi * np.conj(yj)))), abs=1e-12)
    with pytest.raises(ValueError):
        relative_phase(yi, yj[:10])
    for empty in (np.zeros(0), np.array(1.0)):
        with pytest.raises(ValueError):
            mean_power(empty)


def test_power_phase_rows_equal_rssi_rspd_per_row_bit_for_bit():
    # the oracle is the one-buffer formula, on each 1-D row; (60, 3, 263) is
    # 47,340 samples (740 KB), past the size at which numpy reuses a
    # temporary in ``y_i * np.conj(y_j)``.  Strided: the antenna views of a
    # (..., antennas, n) block, as wifi passes them
    rng = np.random.default_rng(41)
    for shape in [(3, 4, 71), (60, 3, 263)]:
        for strided in (False, True):
            full = shape[:-1] + (2, shape[-1]) if strided else (2,) + shape
            y = rng.standard_normal(full) + 1j * rng.standard_normal(full)
            yi, yj = (y[..., 0, :], y[..., 1, :]) if strided else y
            rssi, phase = mean_power(yi), relative_phase(yi, yj)
            assert rssi.shape == phase.shape == shape[:-1]
            for idx in np.ndindex(*shape[:-1]):
                a, b = yi[idx], yj[idx]
                want = (np.mean(np.abs(a) ** 2), np.angle(np.mean(a * np.conj(b))))
                assert (rssi[idx].tobytes(), phase[idx].tobytes()) == tuple(
                    w.tobytes() for w in want)
            with pytest.raises(ValueError):
                relative_phase(yi, yj[..., :-1])


def test_xcorr_rows_shape_and_validation():
    # equality with xcorr per row is a property in test_equivalence.py
    a = np.ones((2, 3, 20))
    assert xcorr_rows(a, a, 7).shape == (2, 3, 15)
    assert np.array_equal(xcorr_rows(a, a, 0)[..., 0], np.full((2, 3), 20.0))
    with pytest.raises(ValueError):
        xcorr_rows(a, a, 20)
    with pytest.raises(ValueError):
        xcorr_rows(a, a[:, :2], 3)


def test_wrap_angle_convention_is_half_open_upper():
    # the interval is (-pi, pi]: pi stays, -pi flips to +pi
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert wrap_angle(0.0) == 0.0


def test_wrap_angle_preserves_direction():
    rng = np.random.default_rng(3)
    theta = rng.uniform(-30, 30, size=500)
    wrapped = wrap_angle(theta)
    assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)
    # same point on the circle
    assert np.allclose(np.exp(1j * wrapped), np.exp(1j * theta), atol=1e-9)


def test_wrap_angle_returns_arrays():
    out = wrap_angle(7.0)
    assert isinstance(out, np.ndarray) and out.shape == ()
    arr = wrap_angle(np.array([7.0, -7.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
