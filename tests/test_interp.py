"""Frequency/bandwidth/spatial fingerprint projection against closed-form oracles."""

import math

import numpy as np
import pytest

from fingerloc.database import FingerprintDatabase
from fingerloc.features import wrap_angle
from fingerloc.geometry import Grid
from fingerloc.interp import (
    UcaGeometry,
    _element_phases,
    bandwidth_interp,
    estimate_aoa,
    freq_interp_xcorr,
    normalize_power,
    phasediff_freq_interp,
    spatial_densify,
    windowed_sinc_lowpass,
)
from fingerloc.stats import GammaParams, kriging_fit, kriging_predict

C = 299792458.0
PAIRS = ((0, 1), (1, 2), (0, 2))


def _pair_diffs(geom, freq_hz, aoa_rad, pairs):
    phases = _element_phases(geom, freq_hz, aoa_rad)
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
    fp = np.arange(5) + 0j
    assert bandwidth_interp(fp, 2e7, 2e7) is fp


def test_bandwidth_interp_impulse_reads_filter_slice():
    # filtering a centered unit impulse returns the filter's own central taps,
    # so the zero-phase slice is directly observable
    dim = 7
    values = np.zeros(dim, dtype=complex)
    values[3] = 1.0
    out = bandwidth_interp(values, train_bw_hz=1e7, target_bw_hz=5e6)
    taps = windowed_sinc_lowpass(0.5)
    start = (len(taps) - 1) // 2  # zero-phase center of the full convolution
    want = np.convolve(values, taps)[start:start + dim]
    assert np.allclose(out, want, atol=1e-15)
    assert out.shape == (dim,)
    # the impulse peak stays centered
    assert int(np.argmax(np.abs(out))) == 3


def test_bandwidth_interp_validation():
    fp = np.ones(3, dtype=complex)
    with pytest.raises(ValueError):
        bandwidth_interp(fp, 1e7, 2e7)  # widening
    with pytest.raises(ValueError):
        bandwidth_interp(fp, 0.0, 1e6)
    with pytest.raises(ValueError):
        bandwidth_interp(np.ones(3), 2e7, 1e7)  # real: not a correlation


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

    fps = np.array([mags(f) * np.exp(1j * phases[f]) for f in freqs])
    target = 1.2e9
    out, flags = freq_interp_xcorr(freqs, fps, target)
    assert not flags.any()
    assert np.allclose(np.abs(out), mags(target), rtol=1e-9)
    # phases come from the nearest training frequency (1.5 GHz here), wrapped
    assert np.allclose(np.angle(out), wrap_angle(phases[1.5e9]), atol=1e-12)


def test_freq_interp_two_point_hand_case():
    # one bin, two frequencies a decade apart: 40 dB and 20 dB magnitude
    fps = [np.array([100.0 + 0j]), np.array([10.0 + 0j])]
    out, _ = freq_interp_xcorr([1e8, 1e9], fps, math.sqrt(1e8 * 1e9))
    # halfway in log10(f): 30 dB
    assert abs(out[0]) == pytest.approx(10.0 ** 1.5, rel=1e-12)


def test_freq_interp_flags_and_fills_dead_bins():
    freqs = [1e9, 2e9]
    a = np.array([4.0, 0.0, 16.0], dtype=complex)
    b = np.array([4.0, 5.0, 16.0], dtype=complex)
    out, flags = freq_interp_xcorr(freqs, [a, b], 1.5e9)
    assert np.array_equal(flags, [False, True, False])
    # the dead bin takes the geometric mean of its live neighbors
    left, right = abs(out[0]), abs(out[2])
    assert abs(out[1]) == pytest.approx(math.sqrt(left * right), rel=1e-12)


def test_freq_interp_validation():
    fp = np.ones(2, dtype=complex)
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9], [fp], 2e9)  # needs at least two frequencies
    other = np.ones(3, dtype=complex)
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [fp, other], 1.5e9)  # dimension mismatch
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [fp, fp], -1.0)
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 1e9], [fp, fp], 1.5e9)  # frequencies must be distinct
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, -1e9], [fp, fp], 1.5e9)
    block = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [fp, block], 1.5e9)  # shape mismatch
    angle = np.zeros(2)
    with pytest.raises(ValueError):
        freq_interp_xcorr([1e9, 2e9], [angle, angle], 1.5e9)  # real: not a correlation


# ---------------------------------------------------------------------------
# circular-array steering and azimuth fitting
# ---------------------------------------------------------------------------

def test_uca_steering_matches_formula():
    # element k (at azimuth 2 pi k / n) sees phase (2 pi f r / c) cos(aoa - 2 pi k / n)
    geom = UcaGeometry(n_elements=4, radius_m=0.05)
    f, aoa = 2.4e9, 0.7
    k = np.arange(4)
    want = (2 * math.pi * f * 0.05 / C) * np.cos(aoa - 2 * math.pi * k / 4)
    assert np.allclose(_element_phases(geom, f, aoa), want, rtol=0, atol=1e-12)
    # one row of phases per angle, elements on the last axis
    both = _element_phases(geom, f, [aoa, aoa + math.pi])
    assert both.shape == (2, 4) and np.allclose(both, [want, -want], rtol=0, atol=1e-12)


def test_uca_steering_two_element_symmetry_and_frequency_scaling():
    geom = UcaGeometry(n_elements=2, radius_m=0.1)
    v = _element_phases(geom, 1e9, 1.1)
    # antipodal elements see opposite phases
    assert v[1] == pytest.approx(-v[0], abs=1e-15)
    # doubling the frequency doubles every phase
    assert np.allclose(_element_phases(geom, 2e9, 1.1), 2 * v, rtol=0, atol=1e-12)


def test_uca_geometry_validation():
    with pytest.raises(ValueError):
        UcaGeometry(n_elements=1, radius_m=0.05)
    with pytest.raises(ValueError):
        UcaGeometry(n_elements=3, radius_m=0.0)
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    for freq_hz in (0.0, -1e9, math.nan):
        with pytest.raises(ValueError, match="frequency must be positive"):
            estimate_aoa(_pair_diffs(geom, 1e9, 1.0, PAIRS)[None], PAIRS, geom, freq_hz)


def test_estimate_aoa_recovers_grid_angles_exactly():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    angles = np.radians([0.0, 30.0, 123.5, 359.5])
    values = np.stack([_pair_diffs(geom, 2.4e9, theta, PAIRS) for theta in angles])
    aoa, confidence = estimate_aoa(values, PAIRS, geom, 2.4e9)
    assert aoa.shape == confidence.shape == (4,)
    assert np.allclose(aoa, angles, rtol=0.0, atol=1e-12)
    assert np.allclose(confidence, 1.0, rtol=0.0, atol=1e-12)


def test_estimate_aoa_snaps_off_grid_angle_to_nearest_step():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    values = _pair_diffs(geom, 2.4e9, math.radians(33.3), PAIRS)
    aoa, confidence = estimate_aoa(values[None], PAIRS, geom, 2.4e9)
    assert aoa[0] == pytest.approx(math.radians(33.5), abs=1e-12)
    assert 0.99 < confidence[0] <= 1.0


def _ref_estimate_aoa(values, pairs, geom, freq_hz):
    """The scan on complex phasors, over every angle and pair of the block."""
    grid = np.deg2rad(np.arange(0.0, 360.0, 0.5))
    phases = _element_phases(geom, freq_hz, grid)
    pred = phases[:, [p[0] for p in pairs]] - phases[:, [p[1] for p in pairs]]
    agree = np.exp(1j * (values[:, None, :] - pred))
    resultant = np.abs(agree.mean(axis=-1))
    best = np.argmax(np.real(agree.sum(axis=-1)), axis=-1)
    return grid[best], np.take_along_axis(resultant, best[:, None], axis=-1)[:, 0]


@pytest.mark.parametrize("elements", [2, 3, 4, 5, 7])
def test_estimate_aoa_equals_the_complex_phasor_scan_bit_for_bit(elements):
    """Random blocks, plus zero and ideal steering phases, whose scores at
    the array's rotations are equal or differ by rounding alone, so the
    lowest-angle tie break must see the same bits; in blocks of 1 to 44 rows."""
    rng = np.random.default_rng(elements)
    geom = UcaGeometry(n_elements=elements, radius_m=float(rng.uniform(0.02, 0.2)))
    pairs = tuple((a, b) for a in range(elements) for b in range(a + 1, elements))
    freq = float(rng.uniform(0.4e9, 6e9))
    ideal = [_pair_diffs(geom, freq, theta, pairs) for theta in rng.uniform(0, 2 * math.pi, 3)]
    values = np.concatenate([rng.uniform(-math.pi, math.pi, (40, len(pairs))),
                             np.zeros((1, len(pairs))), ideal])
    for block in (values, values[:1], values[-2:]):
        aoa, confidence = estimate_aoa(block, pairs, geom, freq)
        want_aoa, want_confidence = _ref_estimate_aoa(block, pairs, geom, freq)
        assert aoa.tobytes() == want_aoa.tobytes()
        assert confidence.tobytes() == want_confidence.tobytes()


def test_estimate_aoa_validation():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    with pytest.raises(ValueError):
        estimate_aoa(np.zeros((1, 3)), PAIRS[:2], geom, 1e9)  # one pair per entry
    with pytest.raises(ValueError):
        estimate_aoa(np.zeros((4, 2)), PAIRS, geom, 1e9)
    with pytest.raises(ValueError):
        estimate_aoa(0.0, PAIRS[:1], geom, 1e9)
    for not_a_block in (np.zeros(3), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError):
            estimate_aoa(not_a_block, PAIRS, geom, 1e9)


def test_phasediff_freq_interp_identity_at_training_frequency():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    theta = math.radians(123.5)  # on the scan grid
    values = _pair_diffs(geom, 2.4e9, theta, PAIRS)[None]
    out, aoa, confidence = phasediff_freq_interp(values, PAIRS, geom, 2.4e9, 2.4e9)
    assert out.shape == values.shape and aoa.shape == confidence.shape == (1,)
    assert np.allclose(out, values, atol=1e-9)
    assert aoa[0] == pytest.approx(theta, abs=1e-12)
    assert confidence[0] == pytest.approx(1.0, abs=1e-9)


def test_phasediff_freq_interp_projects_steering_to_new_frequency():
    geom = UcaGeometry(n_elements=3, radius_m=0.05)
    theta = math.radians(57.0)
    train = _pair_diffs(geom, 1e9, theta, PAIRS)[None]
    out, _, _ = phasediff_freq_interp(train, PAIRS, geom, 1e9, 2e9)
    want = _pair_diffs(geom, 2e9, theta, PAIRS)
    assert np.allclose(out[0], want, atol=1e-9)
    with pytest.raises(ValueError):
        phasediff_freq_interp(train, PAIRS, geom, 0.0, 2e9)


# ---------------------------------------------------------------------------
# spatial densification
# ---------------------------------------------------------------------------

def _train_db(field, grid):
    return FingerprintDatabase(grid=grid, blocks={"k": field})


def test_spatial_densify_phasediff_exact_at_training_points():
    grid = Grid((0, 0), nx=3, ny=3, spacing=1.0)
    rng = np.random.default_rng(83)
    field = wrap_angle(rng.uniform(-3, 3, size=(9, 2)))
    db = _train_db(field, grid)
    out = spatial_densify(db, 1, confidences={"k": np.ones(9)})
    assert out.grid == grid
    assert np.array_equal(out.blocks["k"], field)


def test_spatial_densify_correlation_reproduces_training_magnitudes():
    grid = Grid((0, 0), nx=3, ny=3, spacing=1.0)
    rng = np.random.default_rng(89)
    # dB fields in the span of the default kernel (length scale 2 spacings):
    # with its 1e-6 nugget the posterior mean returns them at the training points
    xy = grid.xy
    corr = np.exp(-np.sum((xy[:, None] - xy[None]) ** 2, axis=-1) / (2 * 2.0 ** 2))
    mags = 10.0 ** (corr @ rng.uniform(-1.0, 1.0, size=(9, 3)) / 10.0)
    phases = rng.uniform(-3, 3, size=(9, 3))
    field = mags * np.exp(1j * phases)
    db = _train_db(field, grid)
    got = spatial_densify(db, 1, confidences={}).blocks["k"]
    assert np.allclose(np.abs(got), mags, rtol=1e-4)
    # phases copy from the nearest training point, which is the point itself
    assert np.allclose(np.angle(got), np.angle(field), atol=1e-12)


def test_spatial_densify_targets_the_integer_refinement_of_the_survey():
    # a 4x2 survey at 0.3 m refined 7 times: the fine far edge, 21 * (0.3 / 7),
    # rounds one ulp past the survey's, 3 * 0.3, and is kriged like any point
    grid = Grid((0.0, 2.0), nx=4, ny=2, spacing=0.3)
    rng = np.random.default_rng(79)
    field = np.exp(rng.normal(0.0, 1.0, (8, 3)) + 1j * rng.uniform(-3, 3, (8, 3)))
    out = spatial_densify(_train_db(field, grid), 7, confidences={})
    assert out.grid == Grid((0.0, 2.0), nx=22, ny=8, spacing=0.3 / 7)
    far = grid.xy[:, 0].max()
    assert out.grid.xy[:, 0].max() == np.nextafter(far, 1.0)
    got = out.blocks["k"]
    assert got.shape == (176, 3) and np.all(np.isfinite(got))
    # the far column is the kriged mean, not a copy of its nearest survey point
    edge = out.grid.xy[:, 0] == out.grid.xy[:, 0].max()
    want = kriging_predict(kriging_fit(grid, 10.0 * np.log10(np.abs(field))),
                           Grid((far, 2.0), nx=1, ny=8, spacing=0.3 / 7))
    assert np.allclose(10.0 * np.log10(np.abs(got[edge])), want, rtol=0.0, atol=1e-9)
    assert not np.allclose(np.abs(got[edge][::7]), np.abs(field[[3, 7]]), rtol=1e-6)
    for factor in (0, -1, 2.0, True, "2"):
        with pytest.raises(ValueError):
            spatial_densify(_train_db(field, grid), factor, confidences={})


def test_spatial_densify_confidence_weighting_and_validation():
    grid = Grid((0, 0), nx=2, ny=2, spacing=1.0)
    field = wrap_angle(np.array([[0.5], [1.5], [-0.5], [2.5]]))
    db = _train_db(field, grid)
    # all confidence on training point 3: the cell center, point 4 of the
    # factor-2 refinement, copies its phase
    conf = np.array([0.0, 0.0, 0.0, 5.0])
    out = spatial_densify(db, 2, confidences={"k": conf})
    assert out.grid.xy[4].tolist() == [0.5, 0.5]
    assert out.blocks["k"][4, 0] == pytest.approx(2.5, abs=1e-12)
    for bad in ({"k": np.ones(3)}, {}, {"other": conf}):
        with pytest.raises(ValueError):
            spatial_densify(db, 2, confidences=bad)


def test_spatial_densify_rejects_bad_databases():
    grid = Grid((0, 0), nx=2, ny=1, spacing=1.0)
    empty = FingerprintDatabase(grid=grid)
    with pytest.raises(ValueError):
        spatial_densify(empty, 1, confidences={})
    models = FingerprintDatabase(grid=grid, blocks={
        "k": GammaParams(shape=[1.0, 2.0], scale=[1.0, 1.0])})
    with pytest.raises(ValueError):
        spatial_densify(models, 1, confidences={})  # only array blocks densify


# ---------------------------------------------------------------------------
# transmit-power normalization
# ---------------------------------------------------------------------------

def test_normalize_power_divides_by_largest_center_magnitude():
    a = np.array([1.0, 4.0, 2.0], dtype=complex)
    b = np.array([0.5, 1.0, 0.25], dtype=complex)
    out = normalize_power(np.stack([a, b]))
    assert np.array_equal(out[0], a / 4.0)
    assert np.array_equal(out[1], b / 4.0)
    assert abs(out[0, 1]) == 1.0 and abs(out[1, 1]) == 0.25


def test_normalize_power_cancels_common_scale():
    rng = np.random.default_rng(97)
    base = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    # a power-of-two transmit scale cancels bit-exactly
    assert np.array_equal(normalize_power(base), normalize_power(base * 8.0))


def test_normalize_power_scales_each_block_row_by_its_own_maximum():
    rng = np.random.default_rng(101)
    stack = rng.standard_normal((2, 4, 3, 5)) + 1j * rng.standard_normal((2, 4, 3, 5))
    blocks = normalize_power(stack)
    assert blocks.shape == stack.shape
    for idx in np.ndindex(2, 4):
        assert np.array_equal(blocks[idx], normalize_power(stack[idx]))


def test_normalize_power_validation():
    for bad in (np.ones((0, 3), dtype=complex), np.ones(3, dtype=complex)):
        with pytest.raises(ValueError):
            normalize_power(bad)
    with pytest.raises(ValueError):
        normalize_power(np.ones((1, 4), dtype=complex))  # even lag count
    with pytest.raises(ValueError):
        normalize_power(np.array([[1.0, 0.0, 1.0]], dtype=complex))  # no power at lag 0
    with pytest.raises(ValueError):
        normalize_power(np.zeros((1, 3)))  # real: not a correlation
