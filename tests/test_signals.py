"""Fingerprint containers and angle wrapping."""

import math

import numpy as np
import pytest

from fingerloc.signals import (
    Cir,
    FingerprintKind,
    FingerprintMeta,
    FingerprintVector,
    SignalBuffer,
    wrap_angle,
)


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


def test_wrap_angle_scalar_returns_float():
    out = wrap_angle(7.0)
    assert isinstance(out, float)
    arr = wrap_angle(np.array([7.0, -7.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


def test_cir_total_power():
    cir = Cir(taps=np.array([1.0, 0.5j, -0.5]), bandwidth_hz=2.0e6)
    assert cir.total_power() == pytest.approx(1.0 + 0.25 + 0.25, abs=1e-15)
    assert len(cir) == 3


def test_cir_validation():
    with pytest.raises(ValueError):
        Cir(taps=np.array([]), bandwidth_hz=1e6)
    with pytest.raises(ValueError):
        Cir(taps=np.array([1.0, np.nan]), bandwidth_hz=1e6)
    with pytest.raises(ValueError):
        Cir(taps=np.array([1.0]), bandwidth_hz=0.0)


def test_signal_buffer_validation():
    buf = SignalBuffer(samples=np.array([1 + 1j, 2.0]), sample_rate_hz=1e6)
    assert len(buf) == 2
    assert buf.samples.dtype == complex
    with pytest.raises(ValueError):
        SignalBuffer(samples=np.array([]), sample_rate_hz=1e6)
    with pytest.raises(ValueError):
        SignalBuffer(samples=np.array([1.0]), sample_rate_hz=-1.0)
    with pytest.raises(ValueError):
        SignalBuffer(samples=np.array([np.inf]), sample_rate_hz=1e6)


def test_fingerprint_kind_values():
    assert FingerprintKind.CIR_XCORR.value == "cir_xcorr"
    assert FingerprintKind.RSSI.value == "rssi"
    assert FingerprintKind.RSPD.value == "rspd"
    assert FingerprintKind.RX_XCORR.value == "rx_xcorr"
    assert FingerprintKind.PHASE_DIFF.value == "phase_diff"
    assert FingerprintKind.BINARY.value == "binary"


def test_correlation_fingerprints_are_complex():
    fp = FingerprintVector(kind=FingerprintKind.CIR_XCORR, values=[1.0, 2.0])
    assert fp.values.dtype == complex
    fp2 = FingerprintVector(kind=FingerprintKind.RX_XCORR, values=[1j, -1j])
    assert fp2.values.dtype == complex
    assert fp2.dim == 2 and len(fp2) == 2


def test_binary_fingerprint_accepts_only_bits():
    fp = FingerprintVector(kind=FingerprintKind.BINARY, values=[0, 1, 1, 0])
    assert fp.values.dtype == float
    with pytest.raises(ValueError):
        FingerprintVector(kind=FingerprintKind.BINARY, values=[0, 2])
    with pytest.raises(ValueError):
        FingerprintVector(kind=FingerprintKind.BINARY, values=[0.5])


def test_angle_fingerprints_bounded():
    FingerprintVector(kind=FingerprintKind.RSPD, values=[math.pi, -3.0])
    with pytest.raises(ValueError):
        FingerprintVector(kind=FingerprintKind.RSPD, values=[-math.pi])
    with pytest.raises(ValueError):
        FingerprintVector(kind=FingerprintKind.PHASE_DIFF, values=[3.5])


def test_rssi_fingerprint_non_negative():
    FingerprintVector(kind=FingerprintKind.RSSI, values=[0.0, 1.5])
    with pytest.raises(ValueError):
        FingerprintVector(kind=FingerprintKind.RSSI, values=[-0.1])


def test_fingerprint_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        FingerprintVector(kind=FingerprintKind.RSSI, values=[])
    with pytest.raises(ValueError):
        FingerprintVector(kind=FingerprintKind.CIR_XCORR, values=[np.nan + 0j])


def test_fingerprint_values_are_immutable():
    fp = FingerprintVector(kind=FingerprintKind.RSSI, values=[1.0, 2.0])
    with pytest.raises(ValueError):
        fp.values[0] = 5.0


def test_meta_defaults_to_all_none():
    meta = FingerprintMeta()
    assert meta.sensor is None and meta.pair is None and meta.pairs is None
    assert meta.freq_hz is None and meta.bandwidth_hz is None
