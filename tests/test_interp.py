"""Frequency/bandwidth/spatial fingerprint projection against closed-form oracles."""

import math

import numpy as np
import pytest

from fingerloc.database import FingerprintDatabase
from fingerloc.geometry import Grid, Position
from fingerloc.interp import (
    UcaGeometry,
    bandwidth_interp,
    estimate_aoa,
    freq_interp_xcorr,
    normalize_power,
    phasediff_freq_interp,
    spatial_densify,
    uca_steering,
    windowed_sinc_lowpass,
)
from fingerloc.signals import FingerprintKind, FingerprintMeta, FingerprintVector, wrap_angle

C = 299792458.0


def _fp(kind, values, **meta):
    return FingerprintVector(kind=kind, values=values, meta=FingerprintMeta(**meta))


def _pair_diffs(geom, freq_hz, aoa_rad, pairs):
    phases = np.angle(uca_steering(geom, freq_hz, aoa_rad))
    return wrap_angle(np.array([phases[i] - phases[j] for i, j in pairs]))


# ---------------------------------------------------------------------------
# low-pass design and bandwidth projection
# ---------------------------------------------------------------------------

def test_windowed_sinc_matches_hand_construction():
    # Hamming-windowed sinc, normalized to unit DC gain
    for cutoff, n_taps in ((0.3, 63), (0.71, 21)):
        m = np.arange(n_taps) - (n_taps - 1) / 2.0
        h = np.sinc(cutoff * m) * np.hamming(n_taps)
        h = h / h.sum()
        got = windowed_sinc_lowpass(cutoff, n_taps)
        assert got.shape == (n_taps,)
        assert np.allclose(got, h, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cutoff", [0.0, 1.0, -0.3, 1.7])
def test_windowed_sinc_rejects_out_of_band_cutoff(cutoff):
    with pytest.raises(ValueError):
        windowed_sinc_lowpass(cutoff)


def test_bandwidth_interp_equal_bandwidth_is_identity():
    fp = _fp(FingerprintKind.CIR_XCORR, np.arange(5) + 0j, bandwidth_hz=2e7)
    assert bandwidth_interp(fp, 2e7, 2e7) is fp


def test_bandwidth_interp_impulse_reads_filter_slice():
    # filtering a centered unit impulse returns the filter's own central taps,
    # so the zero-phase slice is directly observable
    dim = 7
    values = np.zeros(dim, dtype=complex)
    values[3] = 1.0
    fp = _fp(FingerprintKind.CIR_XCORR, values, sensor=2, bandwidth_hz=1e7)
    out = bandwidth_interp(fp, train_bw_hz=1e7, target_bw_hz=5e6)
    taps = windowed_sinc_lowpass(0.5)
    start = (len(taps) - 1) // 2  # zero-phase center of the full convolution
    want = np.convolve(values, taps)[start:start + dim]
    assert np.allclose(out.values, want, atol=1e-15)
    assert out.dim == dim
    # the impulse peak stays centered
    assert int(np.argmax(np.abs(out.values))) == 3
    assert out.meta.bandwidth_hz == 5e6
    assert out.meta.sensor == 2


def test_bandwidth_interp_validation():
    fp = _fp(FingerprintKind.CIR_XCORR, np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        bandwidth_interp(fp, 1e7, 2e7)  # widening
    with pytest.raises(ValueError):
        bandwidth_interp(fp, 0.0, 1e6)
    rssi = _fp(FingerprintKind.RSSI, [1.0])
    with pytest.raises(ValueError):
        bandwidth_interp(rssi, 2e7, 1e7)


# ---------------------------------------------------------------------------
# frequency projection of correlation magnitudes
# ---------------------------------------------------------------------------

def test_freq_interp_recovers_per_bin_log_linear_law():
    # magnitudes built from exact dB = a + b*log10(f) laws must be recovered
    freqs = [0.8e9, 1.5e9, 2.5e9]
    slopes = np.array([-20.0, -35.0, 5.0])
    intercepts = np.array([160.0, 290.0, -60.0])
    phases = {f: np.array([0.3, -1.2, 2.9]) * (i + 1) for i, f in enumerate(freqs)}

    def mags(f):
        return 10.0 ** ((intercepts + slopes * math.log10(f)) / 10.0)

    fps = [_fp(FingerprintKind.CIR_XCORR, mags(f) * np.exp(1j * phases[f]), freq_hz=f)
           for f in freqs]
    target = 1.2e9
    out, flags = freq_interp_xcorr(freqs, fps, target)
    assert not flags.any()
    assert np.allclose(np.abs(out.values), mags(target), rtol=1e-9)
    # phases come from the nearest training frequency (1.5 GHz here), wrapped
    assert np.allclose(np.angle(out.values), wrap_angle(phases[1.5e9]), atol=1e-12)
    assert out.meta.freq_hz == target


def test_freq_interp_two_point_hand_case():
    # one bin, two frequencies a decade apart: 40 dB and 20 dB magnitude
    fps = [
        _fp(FingerprintKind.CIR_XCORR, np.array([100.0 + 0j]), freq_hz=1e8),
        _fp(FingerprintKind.CIR_XCORR, np.array([10.0 + 0j]), freq_hz=1e9),
    ]
    out, _ = freq_interp_xcorr([1e8, 1e9], fps, math.sqrt(1e8 * 1e9))
    # halfway in log10(f): 30 dB
    assert abs(out.values[0]) == pytest.approx(10.0 ** 1.5, rel=1e-12)


def test_freq_interp_flags_and_fills_dead_bins():
    freqs = [1e9, 2e9]
    a = _fp(FingerprintKind.CIR_XCORR, np.array([4.0, 0.0, 16.0], dtype=complex))
    b = _fp(FingerprintKind.CIR_XCORR, np.array([4.0, 5.0, 16.0], dtype=complex))
    out, flags = freq_interp_xcorr(freqs, [a, b], 1.5e9)
    assert np.array_equal(flags, [False, True, False])
    # the dead bin takes the geometric mean of its live neighbors
    left, right = abs(out.values[0]), abs(out.values[2])
    assert abs(out.values[1]) == pytest.approx(math.sqrt(left * right), rel=1e-12)


def test_freq_interp_validation():
    fp = _fp(FingerprintKind.CIR_XCORR, np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9], [fp], 2e9)  # needs at least two frequencies
    other = _fp(FingerprintKind.CIR_XCORR, np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [fp, other], 1.5e9)  # dimension mismatch
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [fp, fp], -1.0)
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 1e9], [fp, fp], 1.5e9)  # frequencies must be distinct
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, -1e9], [fp, fp], 1.5e9)
    block = _fp(FingerprintKind.CIR_XCORR, np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [fp, block], 1.5e9)  # shape mismatch
    angle = _fp(FingerprintKind.PHASE_DIFF, np.zeros(2))
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [angle, angle], 1.5e9)


# ---------------------------------------------------------------------------
# circular-array steering and azimuth fitting
# ---------------------------------------------------------------------------

def test_uca_steering_matches_formula():
    geom = UcaGeometry(n_elements=4, radius_m=0.05)
    f, aoa = 2.4e9, 0.7
    k = np.arange(4)
    want = np.exp(1j * (2 * math.pi * f * 0.05 / C) * np.cos(aoa - 2 * math.pi * k / 4))
    got = uca_steering(geom, f, aoa)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(np.abs(got), 1.0, atol=1e-15)


def test_uca_steering_two_element_symmetry_and_frequency_scaling():
    geom = UcaGeometry(n_elements=2, radius_m=0.1)
    v = uca_steering(geom, 1e9, 1.1)
    # antipodal elements see opposite phases
    assert v[1] == pytest.approx(np.conj(v[0]), abs=1e-15)
    # doubling the frequency doubles every phase
    v2 = uca_steering(geom, 2e9, 1.1)
    assert np.allclose(v2, v ** 2, atol=1e-12)


def test_uca_geometry_validation():
    with pytest.raises(ValueError):
        UcaGeometry(n_elements=1, radius_m=0.05)
    with pytest.raises(ValueError):
        UcaGeometry(n_elements=3, radius_m=0.0)
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    with pytest.raises(ValueError):
        uca_steering(geom, 0.0, 1.0)


def test_estimate_aoa_recovers_grid_angles_exactly():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    pairs = ((0, 1), (1, 2), (0, 2))
    for deg in (0.0, 30.0, 123.5, 359.5):
        values = _pair_diffs(geom, 2.4e9, math.radians(deg), pairs)
        fp = _fp(FingerprintKind.PHASE_DIFF, values, pairs=pairs)
        aoa, confidence = estimate_aoa(fp, geom, 2.4e9)
        assert aoa == pytest.approx(math.radians(deg), abs=1e-12)
        assert confidence == pytest.approx(1.0, abs=1e-12)


def test_estimate_aoa_snaps_off_grid_angle_to_nearest_step():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    pairs = ((0, 1), (1, 2), (0, 2))
    values = _pair_diffs(geom, 2.4e9, math.radians(33.3), pairs)
    fp = _fp(FingerprintKind.PHASE_DIFF, values, pairs=pairs)
    aoa, confidence = estimate_aoa(fp, geom, 2.4e9)
    assert aoa == pytest.approx(math.radians(33.5), abs=1e-12)
    assert 0.99 < confidence <= 1.0


def test_estimate_aoa_validation():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    wrong_kind = _fp(FingerprintKind.RSSI, [1.0])
    with pytest.raises(ValueError):
        estimate_aoa(wrong_kind, geom, 1e9)
    no_pairs = _fp(FingerprintKind.PHASE_DIFF, np.zeros(3))
    with pytest.raises(ValueError):
        estimate_aoa(no_pairs, geom, 1e9)


def test_phasediff_freq_interp_identity_at_training_frequency():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    pairs = ((0, 1), (1, 2), (0, 2))
    theta = math.radians(123.5)  # on the scan grid
    values = _pair_diffs(geom, 2.4e9, theta, pairs)
    fp = _fp(FingerprintKind.PHASE_DIFF, values, pairs=pairs, freq_hz=2.4e9)
    out, aoa, confidence = phasediff_freq_interp(fp, geom, 2.4e9, 2.4e9)
    assert np.allclose(out.values, values, atol=1e-9)
    assert aoa == pytest.approx(theta, abs=1e-12)
    assert confidence == pytest.approx(1.0, abs=1e-9)


def test_phasediff_freq_interp_projects_steering_to_new_frequency():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    pairs = ((0, 1), (1, 2), (0, 2))
    theta = math.radians(57.0)
    train = _pair_diffs(geom, 1e9, theta, pairs)
    fp = _fp(FingerprintKind.PHASE_DIFF, train, pairs=pairs, freq_hz=1e9)
    out, _, _ = phasediff_freq_interp(fp, geom, 1e9, 2e9)
    want = _pair_diffs(geom, 2e9, theta, pairs)
    assert np.allclose(out.values, want, atol=1e-9)
    assert out.meta.freq_hz == 2e9
    with pytest.raises(ValueError):
        phasediff_freq_interp(fp, geom, 0.0, 2e9)


# ---------------------------------------------------------------------------
# spatial densification
# ---------------------------------------------------------------------------

def _train_db(kind, field, grid, **meta):
    return FingerprintDatabase(grid=grid, blocks={"k": _fp(kind, field, **meta)})


def test_spatial_densify_phasediff_exact_at_training_points():
    grid = Grid(Position(0, 0), nx=3, ny=3, spacing=1.0)
    rng = np.random.default_rng(83)
    field = wrap_angle(rng.uniform(-3, 3, size=(9, 2)))
    db = _train_db(FingerprintKind.PHASE_DIFF, field, grid, pairs=((0, 1), (0, 2)))
    out, outside = spatial_densify(db, grid)
    assert out.meta.derived is True and outside == 0
    assert np.array_equal(out.blocks["k"].values, field)


def test_spatial_densify_correlation_reproduces_training_magnitudes():
    grid = Grid(Position(0, 0), nx=3, ny=3, spacing=1.0)
    rng = np.random.default_rng(89)
    # dB fields in the span of the default kernel (length scale 2 spacings):
    # with its 1e-6 nugget the posterior mean returns them at the training points
    xy = grid.xy
    corr = np.exp(-np.sum((xy[:, None] - xy[None]) ** 2, axis=-1) / (2 * 2.0 ** 2))
    mags = 10.0 ** (corr @ rng.uniform(-1.0, 1.0, size=(9, 3)) / 10.0)
    phases = rng.uniform(-3, 3, size=(9, 3))
    field = mags * np.exp(1j * phases)
    db = _train_db(FingerprintKind.CIR_XCORR, field, grid)
    out, _ = spatial_densify(db, grid)
    got = out.blocks["k"].values
    assert np.allclose(np.abs(got), mags, rtol=1e-4)
    # phases copy from the nearest training point, which is the point itself
    assert np.allclose(np.angle(got), np.angle(field), atol=1e-12)


def test_spatial_densify_denser_grid_and_outside_fallback():
    grid = Grid(Position(0, 0), nx=2, ny=2, spacing=2.0)
    field = np.exp(1j * np.array([[0.1], [0.2], [0.3], [0.4]])) * [[1.0], [2.0], [3.0], [4.0]]
    db = _train_db(FingerprintKind.CIR_XCORR, field, grid)
    # the column at x = -1 pokes out of the training hull [0, 2] x [0, 2]
    target = Grid(Position(-1.0, 0.5), nx=3, ny=2, spacing=1.0)
    out, outside = spatial_densify(db, target)
    assert outside == 2
    assert len(out) == 6 and out.blocks["k"].values.shape == (6, 1)
    # the off-hull column copies its nearest training vector verbatim:
    # (-1, 0.5) is closest to (0, 0) and (-1, 1.5) to (0, 2)
    assert np.array_equal(out.blocks["k"].values[0], field[0])
    assert np.array_equal(out.blocks["k"].values[3], field[2])


def test_spatial_densify_confidence_weighting_and_validation():
    grid = Grid(Position(0, 0), nx=2, ny=2, spacing=1.0)
    field = wrap_angle(np.array([[0.5], [1.5], [-0.5], [2.5]]))
    db = _train_db(FingerprintKind.PHASE_DIFF, field, grid, pairs=((0, 1),))
    target = Grid(Position(0.5, 0.5), nx=1, ny=1, spacing=1.0)
    # all confidence on training point 3: the center query copies its phase
    conf = np.array([0.0, 0.0, 0.0, 5.0])
    out, _ = spatial_densify(db, target, confidences={"k": conf})
    assert out.blocks["k"].values[0, 0] == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ValueError):
        spatial_densify(db, target, confidences={"k": np.ones(3)})


def test_spatial_densify_rejects_bad_databases():
    grid = Grid(Position(0, 0), nx=2, ny=1, spacing=1.0)
    empty = FingerprintDatabase(grid=grid)
    with pytest.raises(ValueError):
        spatial_densify(empty, grid)
    scalars = FingerprintDatabase(grid=grid, blocks={"k": np.array([1.0, 2.0])})
    with pytest.raises(ValueError):
        spatial_densify(scalars, grid)
    rssi = FingerprintDatabase(grid=grid, blocks={
        "k": _fp(FingerprintKind.RSSI, [[1.0], [2.0]])})
    with pytest.raises(ValueError):
        spatial_densify(rssi, grid)


# ---------------------------------------------------------------------------
# transmit-power normalization
# ---------------------------------------------------------------------------

def test_normalize_power_divides_by_largest_center_magnitude():
    a = _fp(FingerprintKind.CIR_XCORR, np.array([1.0, 4.0, 2.0], dtype=complex))
    b = _fp(FingerprintKind.CIR_XCORR, np.array([0.5, 1.0, 0.25], dtype=complex))
    out = normalize_power([a, b])
    assert np.array_equal(out[0].values, a.values / 4.0)
    assert np.array_equal(out[1].values, b.values / 4.0)
    assert abs(out[0].values[1]) == 1.0 and abs(out[1].values[1]) == 0.25


def test_normalize_power_cancels_common_scale():
    rng = np.random.default_rng(97)
    base = [
        _fp(FingerprintKind.RX_XCORR,
            rng.standard_normal(5) + 1j * rng.standard_normal(5))
        for _ in range(3)
    ]
    # a power-of-two transmit scale cancels bit-exactly
    scaled = [_fp(fp.kind, fp.values * 8.0) for fp in base]
    out_base = normalize_power(base)
    out_scaled = normalize_power(scaled)
    for u, v in zip(out_base, out_scaled):
        assert np.array_equal(u.values, v.values)


def test_normalize_power_scales_each_block_row_by_its_own_maximum():
    rng = np.random.default_rng(101)
    rows = [rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)) for _ in range(3)]
    blocks = normalize_power([_fp(FingerprintKind.RX_XCORR, r) for r in rows])
    for i in range(4):
        single = normalize_power([_fp(FingerprintKind.RX_XCORR, r[i]) for r in rows])
        for block, one in zip(blocks, single):
            assert np.array_equal(block.values[i], one.values)


def test_normalize_power_validation():
    with pytest.raises(ValueError):
        normalize_power([])
    even = _fp(FingerprintKind.CIR_XCORR, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        normalize_power([even])
    dead = _fp(FingerprintKind.CIR_XCORR, np.array([1.0, 0.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        normalize_power([dead])
    angle = _fp(FingerprintKind.PHASE_DIFF, np.zeros(3))
    with pytest.raises(ValueError):
        normalize_power([angle])
