"""Channel, waveform, and sensor simulators against closed-form oracles."""

import math

import numpy as np
import pytest

from fingerloc.geometry import Position
from fingerloc.signals import Cir
from fingerloc.simulate import (
    SPEED_OF_LIGHT,
    ChannelModel,
    SensorCoverage,
    TxSignalSpec,
    add_receiver_noise,
    derive_seed,
    gen_cir,
    simulate_binary_sensor,
    simulate_pdr,
    synthesize_rx,
    tx_sequence,
    zadoff_chu,
)

TX = Position(0.0, 0.0)


def _pathloss(model, dist):
    return 10.0 ** (-model.reference_loss_db / 10.0) * dist ** (-model.pathloss_exponent)


def test_total_power_equals_pathloss_exactly_per_draw():
    model = ChannelModel(path_count=6, pathloss_exponent=2.5, reference_loss_db=40.0,
                         rician_k_db=6.0, seed=4)
    rng = np.random.default_rng(0)
    for snapshot in range(30):
        rx = Position(float(rng.uniform(1, 20)), float(rng.uniform(1, 20)))
        cir = gen_cir(TX, rx, 2.4e9, 2e7, model, tap_count=16, snapshot=snapshot)
        expect = _pathloss(model, TX.distance_to(rx))
        assert cir.total_power() == pytest.approx(expect, rel=1e-9)


def test_gen_cir_is_deterministic():
    model = ChannelModel(seed=7)
    rx = Position(3.0, 4.0)
    a = gen_cir(TX, rx, 2.4e9, 2e7, model, tap_count=12, snapshot=5)
    b = gen_cir(TX, rx, 2.4e9, 2e7, model, tap_count=12, snapshot=5)
    assert np.array_equal(a.taps, b.taps)
    c = gen_cir(TX, rx, 2.4e9, 2e7, model, tap_count=12, snapshot=6)
    assert not np.array_equal(a.taps, c.taps)


def test_doubling_distance_drops_power_by_pathloss_law():
    model = ChannelModel(pathloss_exponent=2.0, reference_loss_db=30.0)
    p1 = gen_cir(TX, Position(5.0, 0.0), 1e9, 1e7, model, tap_count=10).total_power()
    p2 = gen_cir(TX, Position(10.0, 0.0), 1e9, 1e7, model, tap_count=10).total_power()
    drop_db = 10.0 * math.log10(p1 / p2)
    assert drop_db == pytest.approx(20.0 * math.log10(2.0), abs=0.01)


def test_pure_los_channel_single_unit_tap():
    model = ChannelModel(path_count=1, pathloss_exponent=2.0, reference_loss_db=0.0)
    rx = Position(1.0, 0.0)
    freq = 1.0e9
    cir = gen_cir(TX, rx, freq, 1e8, model, tap_count=4)
    assert abs(cir.taps[0]) ** 2 == pytest.approx(1.0, rel=1e-12)
    expect_phase = -2.0 * math.pi * freq * 1.0 / SPEED_OF_LIGHT
    assert np.angle(cir.taps[0]) == pytest.approx(
        math.atan2(math.sin(expect_phase), math.cos(expect_phase)), abs=1e-9)
    assert np.all(cir.taps[1:] == 0)


def test_infinite_k_factor_means_pure_los():
    model = ChannelModel(path_count=6, rician_k_db=math.inf)
    cir = gen_cir(TX, Position(2.0, 0.0), 1e9, 1e8, model, tap_count=8)
    assert np.count_nonzero(cir.taps) == 1


def test_rician_split_matches_k_factor():
    k_db = 9.0
    model = ChannelModel(path_count=5, rician_k_db=k_db, pathloss_exponent=2.0,
                         reference_loss_db=20.0)
    rx = Position(4.0, 3.0)
    cir = gen_cir(TX, rx, 2e9, 2e7, model, tap_count=10, snapshot=2)
    total = _pathloss(model, 5.0)
    k_lin = 10.0 ** (k_db / 10.0)
    p_los = abs(cir.taps[0]) ** 2
    p_nlos = cir.total_power() - p_los
    assert p_los == pytest.approx(total * k_lin / (k_lin + 1.0), rel=1e-9)
    assert p_nlos == pytest.approx(total / (k_lin + 1.0), rel=1e-9)


def test_first_tap_sits_at_time_of_flight():
    bw = 2.0e7
    # place the receiver so the delay quantizes to exactly 3 tap periods
    dist = 3.0 * SPEED_OF_LIGHT / bw
    model = ChannelModel(path_count=1)
    cir = gen_cir(TX, Position(dist, 0.0), 1e9, bw, model, tap_count=6)
    assert np.count_nonzero(cir.taps) == 1
    assert cir.taps[3] != 0


def test_gen_cir_rejects_overflowing_delays():
    bw = 2.0e7
    dist = 5.0 * SPEED_OF_LIGHT / bw
    with pytest.raises(ValueError):
        gen_cir(TX, Position(dist, 0.0), 1e9, bw, ChannelModel(path_count=1), tap_count=5)
    # multipath needs room past the first tap too
    with pytest.raises(ValueError):
        gen_cir(TX, Position(1.0, 0.0), 1e9, bw, ChannelModel(path_count=6), tap_count=5)
    with pytest.raises(ValueError):
        gen_cir(TX, TX, 1e9, bw, ChannelModel(), tap_count=8)


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(path_count=0)
    with pytest.raises(ValueError):
        ChannelModel(delay_spread_s=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(pathloss_exponent=-0.1)


def test_zadoff_chu_constant_amplitude_and_cyclic_autocorrelation():
    for root, length in ((1, 7), (3, 7), (5, 12), (3, 16)):
        z = zadoff_chu(root, length)
        assert np.allclose(np.abs(z), 1.0, atol=1e-12)
        for shift in range(1, length):
            acc = np.vdot(np.roll(z, shift), z)
            assert abs(acc) < 1e-9 * length


def test_zadoff_chu_rejects_non_coprime_root():
    with pytest.raises(ValueError):
        zadoff_chu(2, 4)
    with pytest.raises(ValueError):
        zadoff_chu(1, 0)


def test_tx_signal_spec_validation():
    with pytest.raises(ValueError):
        TxSignalSpec(kind="chirp", length=8)
    with pytest.raises(ValueError):
        TxSignalSpec(kind="random_bits", length=0)
    with pytest.raises(ValueError):
        TxSignalSpec(kind="zadoff_chu", length=4, root=2)
    with pytest.raises(ValueError):
        TxSignalSpec(kind="zadoff_chu", length=8, root=1, pulse=())


def test_random_bits_are_antipodal():
    spec = TxSignalSpec(kind="random_bits", length=200)
    x = tx_sequence(spec, np.random.default_rng(3))
    assert set(np.unique(x.real)) == {-1.0, 1.0}
    assert np.all(x.imag == 0)


def test_synthesize_rx_hand_convolution():
    # x = [1] (ZC of length 1), pulse [1, -1], channel [1, 0.5]
    spec = TxSignalSpec(kind="zadoff_chu", length=1, root=1, pulse=(1.0, -1.0))
    cir = Cir(taps=np.array([1.0, 0.5]), bandwidth_hz=1.0)
    buf = synthesize_rx(cir, spec, noise_power=0.0, seed=0)
    assert np.allclose(buf.samples, [1.0, -0.5, -0.5], atol=1e-15)


def test_synthesize_rx_equals_triple_convolution():
    spec = TxSignalSpec(kind="random_bits", length=32, pulse=(1.0, 0.25),
                        sample_rate_hz=2e7)
    cir = Cir(taps=np.array([1.0, 0.3j, -0.1]), bandwidth_hz=2e7)
    buf = synthesize_rx(cir, spec, noise_power=0.0, seed=99)
    x = tx_sequence(spec, np.random.default_rng(99))
    expect = np.convolve(np.convolve(x, [1.0, 0.25]), cir.taps)
    assert len(buf) == 32 + 2 + 3 - 2
    assert np.array_equal(buf.samples, expect)
    assert buf.sample_rate_hz == 2e7


def test_synthesize_rx_noise_power_calibrated():
    # zero channel isolates the additive noise
    spec = TxSignalSpec(kind="random_bits", length=20000)
    cir = Cir(taps=np.array([0.0]), bandwidth_hz=1.0)
    buf = synthesize_rx(cir, spec, noise_power=0.25, seed=17)
    measured = float(np.mean(np.abs(buf.samples) ** 2))
    assert measured == pytest.approx(0.25, rel=0.05)


def test_synthesize_rx_draws_bits_before_noise():
    # the noiseless run shows which symbols the noisy run used
    spec = TxSignalSpec(kind="random_bits", length=64)
    cir = Cir(taps=np.array([1.0]), bandwidth_hz=1.0)
    clean = synthesize_rx(cir, spec, noise_power=0.0, seed=123).samples
    noisy = synthesize_rx(cir, spec, noise_power=0.01, seed=123).samples
    resid = noisy - clean
    assert float(np.mean(np.abs(resid) ** 2)) == pytest.approx(0.01, rel=0.5)
    with pytest.raises(ValueError):
        synthesize_rx(cir, spec, noise_power=-1.0, seed=0)


def test_add_receiver_noise_meets_the_snr_of_the_clean_signal():
    clean = np.exp(1j * np.linspace(0.0, 6.0, 20000)) * 3.0  # mean power 9
    noisy = add_receiver_noise(clean, 10.0, derive_seed(4, 2))
    noise = noisy - clean
    assert float(np.mean(np.abs(noise) ** 2)) == pytest.approx(0.9, rel=0.05)
    # one stream, every real part drawn before any imaginary part
    rng = np.random.default_rng(derive_seed(4, 2))
    real = rng.standard_normal(clean.size)
    assert np.allclose(noise.real, math.sqrt(0.9 / 2.0) * real, rtol=1e-9, atol=1e-12)
    assert np.array_equal(add_receiver_noise(clean, 10.0, derive_seed(4, 2)), noisy)


def test_sensor_coverage_bin_lookup():
    cov = SensorCoverage(pos=Position(0, 0), range_edges_m=(2.0, 4.0),
                         p_moving=(0.9, 0.3), p_static=0.05)
    assert cov.detect_probability(0.5, moving=True) == 0.9
    assert cov.detect_probability(2.0, moving=True) == 0.9   # edge belongs to its bin
    assert cov.detect_probability(2.1, moving=True) == 0.3
    assert cov.detect_probability(100.0, moving=True) == 0.3  # last bin extends out
    assert cov.detect_probability(0.5, moving=False) == 0.05


def test_sensor_coverage_validation():
    with pytest.raises(ValueError):
        SensorCoverage(pos=TX, range_edges_m=(2.0, 2.0), p_moving=(0.9, 0.3))
    with pytest.raises(ValueError):
        SensorCoverage(pos=TX, range_edges_m=(2.0, 4.0), p_moving=(0.3, 0.9))
    with pytest.raises(ValueError):
        SensorCoverage(pos=TX, range_edges_m=(2.0,), p_moving=(1.5,))
    with pytest.raises(ValueError):
        SensorCoverage(pos=TX, range_edges_m=(2.0,), p_moving=(0.9,), p_static=-0.1)


def test_binary_sensor_monte_carlo_rate():
    cov = SensorCoverage(pos=Position(0, 0), range_edges_m=(2.0, 4.0),
                         p_moving=(0.9, 0.3), p_static=0.05)
    user = Position(1.0, 0.0)
    n = 100_000
    hits = sum(simulate_binary_sensor(user, True, cov, seed=derive_seed(42, i))
               for i in range(n))
    assert hits / n == pytest.approx(0.9, abs=0.01)
    hits_static = sum(simulate_binary_sensor(user, False, cov, seed=derive_seed(43, i))
                      for i in range(n // 10))
    assert hits_static / (n // 10) == pytest.approx(0.05, abs=0.01)


def test_pdr_mean_and_std():
    path = [Position(float(t), 0.5 * t) for t in range(10_001)]
    steps = simulate_pdr(path, noise_sigma=0.2, seed=6)
    assert steps.shape == (10_000, 2)
    assert float(np.mean(steps[:, 0])) == pytest.approx(1.0, abs=0.01)
    assert float(np.mean(steps[:, 1])) == pytest.approx(0.5, abs=0.01)
    assert float(np.std(steps[:, 0])) == pytest.approx(0.2, abs=0.005)
    assert float(np.std(steps[:, 1])) == pytest.approx(0.2, abs=0.005)


def test_pdr_noiseless_is_exact():
    path = [Position(0, 0), Position(1, 2), Position(-1, 3)]
    steps = simulate_pdr(path, noise_sigma=0.0, seed=0)
    assert np.array_equal(steps, [[1.0, 2.0], [-2.0, 1.0]])
    with pytest.raises(ValueError):
        simulate_pdr([Position(0, 0)], noise_sigma=0.1, seed=0)
    with pytest.raises(ValueError):
        simulate_pdr(path, noise_sigma=-0.1, seed=0)


def test_derive_seed_distinguishes_float_bits():
    a = np.random.default_rng(derive_seed(0, 1.0)).random(4)
    b = np.random.default_rng(derive_seed(0, -1.0)).random(4)
    c = np.random.default_rng(derive_seed(0, 1.0 + 1e-12)).random(4)
    d = np.random.default_rng(derive_seed(0, 1.0)).random(4)
    assert np.array_equal(a, d)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_argument_order_matters():
    a = np.random.default_rng(derive_seed(1, 2)).random(4)
    b = np.random.default_rng(derive_seed(2, 1)).random(4)
    assert not np.array_equal(a, b)
