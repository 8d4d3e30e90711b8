"""Channel, waveform, and sensor simulators against closed-form oracles."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fingerloc import simulate
from fingerloc.errors import ConfigError
from fingerloc.experiments import bems, illegal
from fingerloc.experiments.common import build_grid
from fingerloc.experiments.configs import parse_config
from fingerloc.simulate import (
    SIM_CHUNK,
    SPEED_OF_LIGHT,
    UNIFORM_CHUNK,
    ChannelModel,
    TxSignalSpec,
    add_receiver_noise,
    derive_seed,
    gen_cir,
    seeded_streams,
    seeded_uniforms,
    simulate_links,
    simulate_pdr,
    stream_states,
    synthesize_rx,
)

TX = (0.0, 0.0)


def _cir(tx_xy, rx_xy, freq_hz, bandwidth_hz, model, tap_count, snapshot=0):
    """gen_cir with each link's channel stream seeded as simulate_links seeds it."""
    tx_xy, rx_xy = np.broadcast_arrays(np.asarray(tx_xy, dtype=float),
                                       np.asarray(rx_xy, dtype=float))
    snaps = np.broadcast_to(np.asarray(snapshot, dtype=int), (len(tx_xy),))
    states = stream_states(model.seed, snaps, *tx_xy.T, *rx_xy.T, float(freq_hz))
    return gen_cir(tx_xy, rx_xy, freq_hz, bandwidth_hz, model, tap_count, states)


def _ref_convolve(a, v) -> np.ndarray:
    """The full convolution of two rows, each output sample summed in one stated order.

    The longer row (``a`` on equal lengths), zero-padded by ``n - 1`` on each
    side for the shorter length n, slides under the shorter row reversed, k:
    output t sums ``pad[t + j] * k[j]`` from +0, j = 0 to n - 1 in turn.  Each
    product is ``(ar br - ai bi) + (ar bi + ai br) i``.  Every step is one
    float64 operation of numpy's real ufuncs, so the bits are IEEE's on any CPU.
    """
    a, v = np.asarray(a, dtype=complex), np.asarray(v, dtype=complex)
    if len(v) > len(a):
        a, v = v, a
    n_out, zeros = len(a) + len(v) - 1, np.zeros(len(v) - 1)
    pad = np.concatenate([zeros, a, zeros])
    re, im = np.zeros(n_out), np.zeros(n_out)
    for j, k in enumerate(v[::-1]):
        x = pad[j:j + n_out]
        re = re + (x.real * k.real - x.imag * k.imag)
        im = im + (x.real * k.imag + x.imag * k.real)
    out = np.empty(n_out, dtype=complex)
    out.real, out.imag = re, im
    return out


def _joined(chunks) -> np.ndarray:
    """The samples of simulate_links' chunks, checked to cover its block in order."""
    chunks = list(chunks)
    assert [sl.start for sl, _ in chunks] == [0] + [sl.stop for sl, _ in chunks[:-1]]
    assert all(len(y) == sl.stop - sl.start for sl, y in chunks)
    return np.concatenate([y for _, y in chunks])


def _pathloss(model, dist):
    return 10.0 ** (-model.reference_loss_db / 10.0) * dist ** (-model.pathloss_exponent)


def _power(taps):
    return np.sum(np.abs(taps) ** 2, axis=-1)


def test_total_power_equals_pathloss_exactly_per_draw():
    model = ChannelModel(path_count=6, pathloss_exponent=2.5, reference_loss_db=40.0,
                         rician_k_db=6.0, seed=4)
    rx = np.random.default_rng(0).uniform(1, 20, size=(30, 2))
    taps = _cir(TX, rx, 2.4e9, 2e7, model, tap_count=16, snapshot=np.arange(30))
    expect = [_pathloss(model, math.hypot(x, y)) for x, y in rx]
    assert _power(taps) == pytest.approx(expect, rel=1e-9)


def test_gen_cir_is_deterministic():
    model = ChannelModel(seed=7)
    rx = (3.0, 4.0)
    a = _cir(TX, [rx], 2.4e9, 2e7, model, tap_count=12, snapshot=5)
    b = _cir(TX, [rx], 2.4e9, 2e7, model, tap_count=12, snapshot=5)
    assert np.array_equal(a, b)
    c = _cir(TX, [rx], 2.4e9, 2e7, model, tap_count=12, snapshot=6)
    assert not np.array_equal(a, c)
    # a link draws from its own stream, whatever else is in the block
    block = _cir(TX, [(1.0, 1.0), rx, (5.0, 2.0)], 2.4e9, 2e7, model, tap_count=12,
                 snapshot=[0, 5, 9])
    assert np.array_equal(block[1], a[0])


def test_doubling_distance_drops_power_by_pathloss_law():
    model = ChannelModel(pathloss_exponent=2.0, reference_loss_db=30.0)
    p1, p2 = _power(_cir(TX, [(5.0, 0.0), (10.0, 0.0)], 1e9, 1e7, model, tap_count=10))
    drop_db = 10.0 * math.log10(p1 / p2)
    assert drop_db == pytest.approx(20.0 * math.log10(2.0), abs=0.01)


def test_pure_los_channel_single_unit_tap():
    model = ChannelModel(path_count=1, pathloss_exponent=2.0, reference_loss_db=0.0)
    freq = 1.0e9
    (taps,) = gen_cir(TX, [(1.0, 0.0)], freq, 1e8, model, tap_count=4)
    assert abs(taps[0]) ** 2 == pytest.approx(1.0, rel=1e-12)
    expect_phase = -2.0 * math.pi * freq * 1.0 / SPEED_OF_LIGHT
    assert np.angle(taps[0]) == pytest.approx(
        math.atan2(math.sin(expect_phase), math.cos(expect_phase)), abs=1e-9)
    assert np.all(taps[1:] == 0)


def test_infinite_k_factor_means_pure_los():
    model = ChannelModel(path_count=6, rician_k_db=math.inf)
    taps = gen_cir(TX, [(2.0, 0.0), (0.0, 3.0)], 1e9, 1e8, model, tap_count=8)
    assert np.count_nonzero(taps, axis=1).tolist() == [1, 1]


def test_zero_delay_spread_puts_all_multipath_in_the_next_tap():
    model = ChannelModel(path_count=4, delay_spread_s=0.0, rician_k_db=3.0,
                         pathloss_exponent=2.0, reference_loss_db=20.0, seed=2)
    rx = [(4.0, 3.0), (6.0, 8.0)]
    taps = _cir(TX, rx, 2e9, 2e7, model, tap_count=10, snapshot=[1, 2])
    k_lin = 10.0 ** 0.3
    for row, dist in zip(taps, (5.0, 10.0)):
        first = int(round(dist / SPEED_OF_LIGHT * 2e7))
        assert np.flatnonzero(row).tolist() == [first, first + 1]
        total = _pathloss(model, dist)
        assert abs(row[first + 1]) ** 2 == pytest.approx(total / (k_lin + 1.0), rel=1e-12)


def test_rician_split_matches_k_factor():
    k_db = 9.0
    model = ChannelModel(path_count=5, rician_k_db=k_db, pathloss_exponent=2.0,
                         reference_loss_db=20.0)
    (taps,) = _cir(TX, [(4.0, 3.0)], 2e9, 2e7, model, tap_count=10, snapshot=2)
    total = _pathloss(model, 5.0)
    k_lin = 10.0 ** (k_db / 10.0)
    p_los = abs(taps[0]) ** 2
    p_nlos = _power(taps) - p_los
    assert p_los == pytest.approx(total * k_lin / (k_lin + 1.0), rel=1e-9)
    assert p_nlos == pytest.approx(total / (k_lin + 1.0), rel=1e-9)


def test_first_tap_sits_at_time_of_flight():
    bw = 2.0e7
    # place the receiver so the delay quantizes to exactly 3 tap periods
    dist = 3.0 * SPEED_OF_LIGHT / bw
    (taps,) = gen_cir(TX, [(dist, 0.0)], 1e9, bw, ChannelModel(path_count=1), tap_count=6)
    assert np.count_nonzero(taps) == 1
    assert taps[3] != 0


def test_gen_cir_rejects_overflowing_delays():
    bw = 2.0e7
    dist = 5.0 * SPEED_OF_LIGHT / bw
    with pytest.raises(ValueError, match=r"^link 1: tap_count=5 cannot hold the propagation "
                                         r"delay \(first tap index 5 at 20000000.0 Hz\)$"):
        gen_cir(TX, [(1.0, 0.0), (dist, 0.0), (dist, 1.0)], 1e9, bw,
                ChannelModel(path_count=1), tap_count=5)
    # multipath needs room past the first tap too
    with pytest.raises(ValueError, match=r"^link 0: tap_count=5 cannot hold the delay spread: "
                                         r"multipath needs taps up to index 5 at"):
        gen_cir(TX, [(1.0, 0.0)], 1e9, bw, ChannelModel(path_count=6), tap_count=5)
    with pytest.raises(ValueError, match=r"^link 2: tx and rx must be distinct positions"):
        gen_cir(TX, [(1.0, 0.0), (2.0, 0.0), TX, TX], 1e9, bw, ChannelModel(), tap_count=8)
    with pytest.raises(ValueError):
        gen_cir(TX, [(1.0, 0.0)], 1e9, bw, ChannelModel(), tap_count=0)
    with pytest.raises(ValueError, match="positions must be finite"):
        gen_cir(TX, [(1.0, 0.0), (math.nan, 0.0)], 1e9, bw, ChannelModel(), tap_count=8)
    # multipath draws from one stream per link
    for states in (None, stream_states(0, np.arange(2))):
        with pytest.raises(ValueError, match=r"channel stream states must be a \(1, 4\)"):
            gen_cir(TX, [(1.0, 0.0)], 1e9, bw, ChannelModel(), tap_count=8, states=states)


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(path_count=0)
    with pytest.raises(ValueError):
        ChannelModel(delay_spread_s=-1.0)
    with pytest.raises(ValueError):
        ChannelModel(pathloss_exponent=-0.1)


def test_tx_signal_spec_validation():
    with pytest.raises(ValueError):
        TxSignalSpec(length=0)
    with pytest.raises(ValueError):
        TxSignalSpec(length=8, pulse=())


def test_random_bits_are_antipodal():
    # a unit channel and pulse pass the symbols straight through
    spec = TxSignalSpec(length=200)
    y = synthesize_rx(np.ones((2, 3, 1)), spec, stream_states(np.array([3, 4])))
    assert set(np.unique(y.real)) == {-1.0, 1.0}
    assert np.all(y.imag == 0)
    # every receiver of a measurement hears the same bits
    assert np.array_equal(y[0, 0], y[0, 2]) and not np.array_equal(y[0, 0], y[1, 0])


def test_synthesize_rx_hand_convolution():
    # one symbol s = +-1, pulse [1, -1], channel [1, 0.5]
    spec = TxSignalSpec(length=1, pulse=(1.0, -1.0))
    (y,) = synthesize_rx(np.array([[[1.0, 0.5]]]), spec, stream_states(np.array([0])))[0]
    assert abs(y[0]) == 1.0
    assert np.allclose(y, y[0] * np.array([1.0, -0.5, -0.5]), atol=1e-15)


def test_synthesize_rx_equals_triple_convolution():
    spec = TxSignalSpec(length=32, pulse=(1.0, 0.25))
    taps = np.array([[[1.0, 0.3j, -0.1], [0.5, 0.0, 2.0j]]])
    y = synthesize_rx(taps, spec, stream_states(np.array([99])))
    bits = np.random.default_rng(99).integers(0, 2, size=32)
    x = (2.0 * bits - 1.0).astype(complex)
    assert y.shape == (1, 2, 32 + 2 + 3 - 2)
    for r in range(2):
        want = _ref_convolve(_ref_convolve(x, [1.0, 0.25]), taps[0, r])
        assert y[0, r].tobytes() == want.tobytes()
        assert np.allclose(want, np.convolve(np.convolve(x, [1.0, 0.25]), taps[0, r]),
                           rtol=0.0, atol=1e-14)
    # one stream per measurement
    for states in (stream_states(np.array([99, 100])), stream_states(99)[0], [[0, 0, 0, 1]]):
        with pytest.raises(ValueError, match="bits stream states"):
            synthesize_rx(taps, spec, states)


def test_add_receiver_noise_meets_the_snr_of_the_clean_signal():
    clean = np.exp(1j * np.linspace(0.0, 6.0, 20000)) * np.array([[3.0], [0.5]])
    parts = (4, np.array([2, 3]))
    noisy = add_receiver_noise(clean, 10.0, stream_states(*parts))
    noise = noisy - clean
    # each row's noise follows its own mean power: 9 and 0.25
    assert np.mean(np.abs(noise) ** 2, axis=1) == pytest.approx([0.9, 0.025], rel=0.05)
    # one stream per row, every real part drawn before any imaginary part
    rng = np.random.default_rng(derive_seed(4, 3))
    real = rng.standard_normal(clean.shape[1])
    assert np.allclose(noise[1].real, math.sqrt(0.025 / 2.0) * real, rtol=1e-9, atol=1e-12)
    assert np.array_equal(add_receiver_noise(clean, 10.0, stream_states(*parts)), noisy)
    assert np.array_equal(add_receiver_noise(clean[1:], 10.0, stream_states(4, np.array([3]))),
                          noisy[1:])
    with pytest.raises(ValueError, match="noise stream states"):
        add_receiver_noise(clean, 10.0, stream_states(4, np.array([2])))


def _keyed_states(seed, tag, ids, rx_shape=()) -> np.ndarray:
    """The states of the streams ``derive_seed(seed, tag, *ids[m], *r)``, in C
    order of (measurement, receiver index r over ``rx_shape``)."""
    rows = []
    for key in ids:
        for r in np.ndindex(*rx_shape):
            state = np.random.PCG64(derive_seed(seed, tag, *key, *r)).state["state"]
            rows += [divmod(state["state"], 1 << 64) + divmod(state["inc"], 1 << 64)]
    return np.array(rows, dtype=np.uint64)


def test_simulate_links_is_the_stage_chain():
    model = ChannelModel(seed=3)
    tx = np.array([[0.0, 0.0], [1.0, 2.0]])
    rx = np.array([[5.0, 5.0], [6.0, 5.0], [-3.0, 1.0]])
    ids = [[1, 4], [2, 7]]  # a key and the snapshot per measurement
    spec = TxSignalSpec(length=16, pulse=(1.0, 0.5))
    setup = {"model": model, "freq_hz": 2.4e9, "bandwidth_hz": 2e7, "tap_count": 8,
             "snr_db": 12.0}
    got = _joined(simulate_links(tx, rx, ids, 9, tx_spec=spec, bits_tag=8, amplitude=2.0,
                                 **setup))
    taps = _cir(np.repeat(tx, 3, axis=0), np.tile(rx, (2, 1)), 2.4e9, 2e7, model, 8,
                [4, 4, 4, 7, 7, 7]) * 2.0
    clean = synthesize_rx(taps.reshape(2, 3, 8), spec, _keyed_states(3, 8, ids))
    assert np.array_equal(got, add_receiver_noise(clean, 12.0, _keyed_states(3, 9, ids, (3,))))
    # receivers keep their leading axes, and a receiver's noise stream takes its every index
    rx_grid = _joined(simulate_links(tx, rx[:, None], ids, 9, tx_spec=spec, bits_tag=8,
                                     amplitude=2.0, **setup))
    assert np.array_equal(rx_grid, add_receiver_noise(clean[:, :, None], 12.0,
                                                      _keyed_states(3, 9, ids, (3, 1))))
    # without a transmit signal the receivers measure the channel itself
    cirs = _joined(simulate_links(tx, rx, ids, 9, **setup))
    assert np.array_equal(cirs, add_receiver_noise(taps.reshape(2, 3, 8) / 2.0, 12.0,
                                                   _keyed_states(3, 9, ids, (3,))))


@pytest.mark.parametrize("ids, match", [
    ([[4.2], [7.9]], r"^ids must be integers, got float64$"),
    ([[4], [-7]], r"^ids must lie in \[0, 2\*\*32\), got -7 to 4$"),
    ([[4], [1 << 32]], r"^ids must lie in \[0, 2\*\*32\), got 4 to 4294967296$"),
    ([[4], [7], [9]], r"^ids must be a \(2, k >= 1\) array, one row per transmitter, "
                      r"got shape \(3, 1\)$"),
    ([4, 7], r"^ids must be a \(2, k >= 1\) array.*got shape \(2,\)$"),
    (np.empty((2, 0), dtype=int), r"^ids must be a \(2, k >= 1\) array.*got shape \(2, 0\)$"),
])
def test_simulate_links_refuses_ids_that_key_no_stream(ids, match):
    """Float ids were truncated to the same streams as their integer parts,
    and a row count other than the transmitters' met numpy's broadcast error."""
    setup = {"model": ChannelModel(seed=3), "freq_hz": 2.4e9, "bandwidth_hz": 2e7,
             "tap_count": 8, "snr_db": 12.0}
    with pytest.raises(ValueError, match=match):
        simulate_links(np.array([[0.0, 0.0], [1.0, 2.0]]), [[5.0, 5.0]], ids, 9, **setup)


def test_simulate_links_takes_a_bits_tag_exactly_with_a_signal():
    setup = {"model": ChannelModel(seed=3), "freq_hz": 2.4e9, "bandwidth_hz": 2e7,
             "tap_count": 8, "snr_db": 12.0}
    for extra in ({"tx_spec": TxSignalSpec(length=4)}, {"bits_tag": 8}):
        with pytest.raises(ValueError, match="give it exactly when tx_spec is given"):
            simulate_links([[0.0, 0.0]], [[5.0, 5.0]], [[0]], 9, **setup, **extra)


# blocks shaped like the studies' own: receivers (sensors, elements), a pulse
# or none, several chunks at the real SIM_CHUNK
_BLOCKS = {
    "illegal": {"rx": [[(-1.0, -1.0), (-1.05, -1.0), (-0.95, -1.0)],
                       [(5.0, -1.0), (5.05, -1.0), (4.95, -1.0)],
                       [(2.0, 6.0), (2.05, 6.0), (1.95, 6.0)]],
                "setup": {"tx_spec": TxSignalSpec(length=256, pulse=(0.2, 0.6, 1.0, 0.6, 0.2)),
                          "freq_hz": 8e8, "bandwidth_hz": 2e7, "amplitude": 0.5}},
    "wifi": {"rx": [[(-0.5, 1.5), (-0.44, 1.5)], [(3.5, -0.5), (3.56, -0.5)]],
             "setup": {"tx_spec": TxSignalSpec(length=1024), "freq_hz": 2.4e9,
                       "bandwidth_hz": 2e7}},
    "no_signal": {"rx": [[(-0.5, 1.5), (-0.44, 1.5)], [(3.5, -0.5), (3.56, -0.5)]],
                  "setup": {"freq_hz": 2.4e9, "bandwidth_hz": 2e7, "tap_count": 2048}},
}


def _block_chunks(name: str, n_meas: int = 14) -> list:
    block = _BLOCKS[name]
    rx = np.array(block["rx"])
    tx = np.random.default_rng(1).uniform(0.0, 4.0, (n_meas, 2))
    setup = {"model": ChannelModel(seed=2), "tap_count": 12, "snr_db": 15.0,
             **block["setup"]}
    ids = np.stack([np.arange(n_meas), np.arange(n_meas) % 3], axis=1)
    bits_tag = 0 if "tx_spec" in setup else None
    return list(simulate_links(tx, rx, ids, 1, bits_tag=bits_tag, **setup))


@pytest.mark.parametrize("name", sorted(_BLOCKS))
def test_chunking_does_not_change_the_bits(name):
    chunks = _block_chunks(name)
    per_measurement = chunks[0][1][0].size
    assert len(chunks) > 2
    assert all(sl.stop - sl.start == 1 or (sl.stop - sl.start) * per_measurement <= SIM_CHUNK
               for sl, _ in chunks)
    with mock.patch.object(simulate, "SIM_CHUNK", 1):
        one_each = _block_chunks(name)
    assert [sl.stop - sl.start for sl, _ in one_each] == [1] * 14
    with mock.patch.object(simulate, "SIM_CHUNK", 14 * per_measurement):
        (whole,) = _block_chunks(name)
    assert _joined(chunks).tobytes() == _joined(one_each).tobytes() == whole[1].tobytes()


def test_a_benchmark_size_block_is_simulated_in_bounded_memory():
    """One illegal_hybrid training block of the benchmark's full size: 50
    measurements x 9 elements x 263 samples.  Its chunks of at most SIM_CHUNK
    samples and its block-wide uint64 stream states peaked at 1.6 MB traced;
    the block simulated whole peaked at 10 MB."""
    cfg = parse_config({"version": 1, "pipeline": "illegal_hybrid", "seed": 0,
                        "scenario": {"grid": {"nx": 5, "ny": 5, "origin": [0, 0],
                                              "spacing_m": 3.0}, "train_snapshots": 2}})
    ids = np.stack([np.zeros(50, dtype=int), *np.indices((25, 2)).reshape(2, -1)], axis=1)
    points = np.repeat(build_grid(cfg).xy, 2, axis=0)
    args = (cfg, points, cfg["scenario"]["train_freqs_hz"][0], (1.0,), (1, 2), ids, 1.0)
    illegal.measure_fingerprints(*args)  # caches and lazy imports first
    tracemalloc.start()
    try:
        xc, _ = illegal.measure_fingerprints(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xc.shape[0] == 50 and len(illegal.sensor_elements(cfg).reshape(-1, 2)) == 9
    assert peak < 3e6


def test_a_large_block_is_seeded_in_bounded_memory():
    """65,536 rows with two float parts.  The rows' words are built for the
    whole block, and the hashing temporaries UNIFORM_CHUNK rows at a time:
    the block peaked at 18.2 MB traced at 2**16 rows a chunk and 5.4 MB at
    2**12."""
    rows = np.arange(1 << 16)
    xs = np.linspace(0.1, 40.0, len(rows))
    simulate.stream_states(7, 101, rows[:10], xs[:10])  # cached constants first
    tracemalloc.start()
    try:
        states = simulate.stream_states(7, 101, rows, xs, xs[::-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.shape == (len(rows), 4)
    assert peak < 8e6


def test_every_link_is_checked_before_the_first_chunk():
    rx = np.array([[(0.0, 0.0), (0.1, 0.0)], [(4.0, 0.0), (4.1, 0.0)]])
    # the first of the far transmitters lies in the block's third chunk
    tx = np.array([(1.0, 1.0)] * 8 + [(60.0, 60.0)] * 2)
    setup = {"model": ChannelModel(seed=2), "freq_hz": 2.4e9, "bandwidth_hz": 2e7,
             "tap_count": 7, "snr_db": 15.0, "tx_spec": TxSignalSpec(length=256)}
    ids = np.arange(10)[:, None]
    with mock.patch.object(simulate, "SIM_CHUNK", 3 * 4 * (256 + 7 - 1)):
        with mock.patch.object(simulate, "_draw_taps", side_effect=AssertionError("simulated")):
            with pytest.raises(ValueError, match=r"^measurement 8, receiver \(0, 0\): "
                                                 r"tap_count=7 cannot hold the delay spread"):
                simulate_links(tx, rx, ids, 1, bits_tag=0, **setup)
    # one leading receiver axis names the receiver by one index
    with pytest.raises(ValueError, match=r"^measurement 9, receiver 3: tx and rx must be"):
        simulate_links(np.array([(1.0, 1.0)] * 9 + [(4.1, 0.0)]), rx.reshape(4, 2), ids, 1,
                       **dict(setup, tap_count=40, tx_spec=None))


def _sensors(*overrides, p_static=0.05):
    """``bems.build_sensors`` on a two-bin shared coverage with per-sensor overrides."""
    cfg = {"scenario": {"coverage": {"range_edges_m": [2.0, 4.0], "p_moving": [0.9, 0.3],
                                     "p_static": p_static},
                        "sensors": [dict(o, pos=[0.0, 0.0]) for o in overrides]}}
    return bems.build_sensors(cfg)


def _assert_probabilities(sensors, ranges, moving, want):
    # u < p is false at u = p and true one float below it: detection_bits used p exactly
    want = np.asarray(want, dtype=float)
    assert not np.any(bems.detection_bits(sensors, ranges, moving, want))
    assert np.all(bems.detection_bits(sensors, ranges, moving, np.nextafter(want, 0.0)))


def test_sensor_coverage_bin_lookup():
    sensors = _sensors({})
    ranges = np.array([0.5, 2.0, 2.1, 100.0, 0.5])[:, None]
    moving = np.array([True, True, True, True, False])
    # an edge belongs to its bin; the last bin extends outward
    _assert_probabilities(sensors, ranges, moving, [[0.9], [0.9], [0.3], [0.3], [0.05]])
    both = bems.detection_bits(sensors, ranges[:, None], [True, False], np.full((5, 2, 1), 0.1))
    assert both.shape == (5, 2, 1) and np.all(both[:, 0]) and not np.any(both[:, 1])


def test_sensor_coverage_padded_rows_equal_a_search_of_each_sensor():
    # a 1-bin sensor beside a 4-bin one: +inf edges and its last probability pad it
    one = {"range_edges_m": [3.0], "p_moving": [0.6]}
    four = {"range_edges_m": [1.0, 2.0, 3.0, 4.0], "p_moving": [0.95, 0.7, 0.4, 0.1]}
    sensors = _sensors(one, four)
    assert sensors["edges"].tolist() == [[3.0, math.inf, math.inf, math.inf], [1.0, 2.0, 3.0, 4.0]]
    assert sensors["p_moving"].tolist() == [[0.6] * 4, [0.95, 0.7, 0.4, 0.1]]
    assert sensors["pos"].shape == (2, 2) and sensors["p_static"].tolist() == [0.05, 0.05]
    ranges = np.repeat(np.array([0.0, 1.0, 2.5, 3.0, 3.5, 4.0, 1e9])[:, None], 2, axis=1)
    want = [np.asarray(o["p_moving"])[np.minimum(np.searchsorted(o["range_edges_m"], ranges[:, s]),
                                                  len(o["p_moving"]) - 1)]
            for s, o in enumerate((one, four))]
    _assert_probabilities(sensors, ranges, True, np.stack(want, axis=1))


def test_sensor_coverage_validation():
    for override, message in (
            ({"range_edges_m": [1.0, 2.0, 3.0]}, "3 range edges for 2 detection probabilities"),
            ({"range_edges_m": [2.0, 2.0]}, "strictly ascending"),
            ({"p_moving": [0.3, 0.9]}, "non-increasing")):
        with pytest.raises(ConfigError, match=message) as info:
            _sensors({}, override)
        assert info.value.path == "scenario.sensors.1"
    # probabilities outside [0, 1] are the config schema's to refuse
    for key, coverage in (("p_moving", {"p_moving": [1.5]}), ("p_static", {"p_static": -0.1})):
        with pytest.raises(ConfigError, match=f"scenario.sensors.0.{key}"):
            parse_config({"version": 1, "pipeline": "bems_binary", "scenario": {
                "sensors": [dict(coverage, pos=[0.0, 0.0], range_edges_m=[2.0])]}})


def test_binary_sensor_monte_carlo_rate():
    sensors = _sensors({})
    n = 100_000
    hits = bems.detection_bits(sensors, np.ones((n, 1)), True,
                               seeded_uniforms(42, np.arange(n))[:, None])
    assert np.mean(hits) == pytest.approx(0.9, abs=0.01)
    hits_static = bems.detection_bits(sensors, np.ones((n // 10, 1)), False,
                                      seeded_uniforms(43, np.arange(n // 10))[:, None])
    assert np.mean(hits_static) == pytest.approx(0.05, abs=0.01)


def test_pdr_mean_and_std():
    t = np.arange(10_001, dtype=float)
    steps = simulate_pdr(np.stack([t, 0.5 * t], axis=1), noise_sigma=0.2,
                         rng=np.random.default_rng(6))
    assert steps.shape == (10_000, 2)
    assert float(np.mean(steps[:, 0])) == pytest.approx(1.0, abs=0.01)
    assert float(np.mean(steps[:, 1])) == pytest.approx(0.5, abs=0.01)
    assert float(np.std(steps[:, 0])) == pytest.approx(0.2, abs=0.005)
    assert float(np.std(steps[:, 1])) == pytest.approx(0.2, abs=0.005)


def test_pdr_noiseless_is_exact():
    path = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 3.0]])
    rng = np.random.default_rng(0)
    steps = simulate_pdr(path, noise_sigma=0.0, rng=rng)
    assert np.array_equal(steps, [[1.0, 2.0], [-2.0, 1.0]])
    # no noise draws nothing from the generator
    assert rng.random() == np.random.default_rng(0).random()
    # one position, a flat list of coordinates, or 3-D points are no path
    for bad in ([[0.0, 0.0]], [0.0, 1.0, 2.0], np.zeros((3, 3))):
        with pytest.raises(ValueError, match="two \\(x, y\\) positions"):
            simulate_pdr(bad, noise_sigma=0.1, rng=rng)
    with pytest.raises(ValueError):
        simulate_pdr(path, noise_sigma=-0.1, rng=rng)


def test_derive_seed_distinguishes_float_bits():
    a = np.random.default_rng(derive_seed(0, 1.0)).random(4)
    b = np.random.default_rng(derive_seed(0, -1.0)).random(4)
    c = np.random.default_rng(derive_seed(0, 1.0 + 1e-12)).random(4)
    d = np.random.default_rng(derive_seed(0, 1.0)).random(4)
    assert np.array_equal(a, d)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-0.0)
@example(x=0.0)
@example(x=5e-324)
@example(x=-2.2250738585072e-308)
def test_derive_seed_takes_the_float_bits_numpy_views(x):
    assert derive_seed(3, x, 1.5).entropy == [
        3, int(np.float64(x).view(np.uint64)), int(np.float64(1.5).view(np.uint64))]


def test_derive_seed_argument_order_matters():
    a = np.random.default_rng(derive_seed(1, 2)).random(4)
    b = np.random.default_rng(derive_seed(2, 1)).random(4)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# seeded_uniforms: the first draw of many seeded streams at once
# ---------------------------------------------------------------------------

def _first_uniform(*row) -> float:
    return np.random.default_rng(derive_seed(*row)).random()


_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
# zeros of both signs (one word and two), the smallest subnormal (one word),
# a negative subnormal and negative coordinates
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072e-308, -1.5, -30.0]
_FLOAT = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=False))


@st.composite
def _seed_parts(draw):
    """1-6 parts: scalars (ints of any width, floats), 1-d lists of uint32 words
    and 1-d tuples of floats, each array part of length 1 or of the row count."""
    n_rows = draw(st.integers(1, 6))
    scalar = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5] + _SPECIAL_FLOATS),
                       st.integers(0, 2**80), st.floats(allow_nan=False))
    length = st.sampled_from([1, n_rows])
    words = length.flatmap(lambda n: st.lists(_WORD, min_size=n, max_size=n))
    floats = length.flatmap(lambda n: st.lists(_FLOAT, min_size=n, max_size=n).map(tuple))
    return draw(st.lists(st.one_of(scalar, words, floats), min_size=1, max_size=6))


def _args_and_rows(parts, dtype) -> tuple:
    """The parts as arrays (word lists of ``dtype``, float tuples of float64) and
    every row as ``derive_seed`` takes it."""
    args = [np.array(p, dtype=dtype if isinstance(p, list) else np.float64)
            if isinstance(p, (list, tuple)) else p for p in parts]
    n_rows = max((len(p) for p in parts if isinstance(p, (list, tuple))), default=1)
    rows = [[p[i % len(p)] if isinstance(p, (list, tuple)) else p for p in parts]
            for i in range(n_rows)]
    return args, rows


_DTYPES = st.sampled_from([np.int64, np.uint32, np.uint64])


@settings(max_examples=200, deadline=None)
@given(parts=_seed_parts(), chunk=st.integers(1, 4), dtype=_DTYPES)
@example(parts=[7, tuple(_SPECIAL_FLOATS), 2**40, [1, 2, 3, 4, 5, 6]], chunk=4,
         dtype=np.int64)
def test_seeded_uniforms_equal_one_generator_per_row(parts, chunk, dtype):
    args, rows = _args_and_rows(parts, dtype)
    # a small chunk makes most draws cross chunk boundaries
    with mock.patch.object(simulate, "UNIFORM_CHUNK", chunk):
        got = seeded_uniforms(*args)
    has_arrays = any(isinstance(p, (list, tuple)) for p in parts)
    assert got.shape == ((len(rows),) if has_arrays else ())
    assert got.reshape(-1).tolist() == [_first_uniform(*row) for row in rows]


@settings(max_examples=150, deadline=None)
@given(parts=_seed_parts(), chunk=st.integers(1, 4), dtype=_DTYPES)
@example(parts=[7, tuple(_SPECIAL_FLOATS), 2**40, [1, 2, 3, 4, 5, 6]], chunk=4,
         dtype=np.int64)
@example(parts=[(0.0, -0.0), -0.0, 5e-324, (-2.2250738585072e-308, -3.25)], chunk=1,
         dtype=np.uint32)
def test_seeded_streams_draw_what_one_generator_per_row_draws(parts, chunk, dtype):
    args, rows = _args_and_rows(parts, dtype)
    with mock.patch.object(simulate, "UNIFORM_CHUNK", chunk):
        normals = [rng.standard_normal(5).tolist() for rng in seeded_streams(*args)]
        bits = [rng.integers(0, 2, size=9).tolist() for rng in seeded_streams(*args)]
    assert normals == [np.random.default_rng(derive_seed(*row)).standard_normal(5).tolist()
                       for row in rows]
    assert bits == [np.random.default_rng(derive_seed(*row)).integers(0, 2, size=9).tolist()
                    for row in rows]


def test_seeded_uniforms_cross_the_real_chunk_boundary():
    n = UNIFORM_CHUNK + 3
    got = seeded_uniforms(7, np.arange(n), 2**32)
    for i in (0, 1, UNIFORM_CHUNK - 1, UNIFORM_CHUNK, n - 1):
        assert got[i] == _first_uniform(7, i, 2**32)


def test_seeded_uniforms_broadcast_array_parts_in_c_order():
    rows, cols = np.arange(3)[:, None], np.array([5, 2**32 - 1], dtype=np.uint32)
    got = seeded_uniforms(1.5, rows, 9, cols)
    assert got.shape == (3, 2)
    for i in range(3):
        for j, c in enumerate(cols.tolist()):
            assert got[i, j] == _first_uniform(1.5, i, 9, c)


@pytest.mark.parametrize("part", [np.array([-1]), np.array([0, 2**32]),
                                  np.array([2**64 - 1], dtype=np.uint64), np.array([True]),
                                  np.array([1j]), np.array([2**64], dtype=object)])
def test_seeded_uniforms_reject_arrays_outside_uint32(part):
    # integers outside [0, 2**32), bools, complex numbers and Python ints
    with pytest.raises(ValueError):
        seeded_uniforms(0, part)
    with pytest.raises(ValueError):
        list(seeded_streams(0, part))


def test_seeded_uniforms_reject_negative_scalars_as_seed_sequence_does():
    with pytest.raises(ValueError):
        derive_seed(-1)
    with pytest.raises(ValueError):
        seeded_uniforms(-1, np.arange(2))
