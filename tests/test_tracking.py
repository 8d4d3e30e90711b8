"""Grid Bayes filtering and particle filtering against hand-built oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fingerloc.errors import DegenerateUpdateError, NumericError
from fingerloc.geometry import Grid
from fingerloc.tracking import (
    GridTransition,
    grid_bayes_step,
    particle_predict,
    particle_update,
    resample_systematic,
    transition_matrix,
)


# the (p_static, step_sigma) of the tests that need a mobility but do not depend on its values
_MOBILITY = (0.3, 0.5)


def _grid(n, spacing=1.0):
    return Grid((0.0, 0.0), nx=n, ny=n, spacing=spacing)


# ---------------------------------------------------------------------------
# mobility parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"p_static": -0.1},
    {"p_static": 1.5},
    {"step_sigma": -1.0},
    {"step_sigma": math.nan},
    {"p_static": math.nan},
])
def test_mobility_model_validation(kwargs):
    with pytest.raises(ValueError):
        transition_matrix(_grid(2), **{"p_static": 0.3, "step_sigma": 0.5, **kwargs})


# ---------------------------------------------------------------------------
# transition stencil
# ---------------------------------------------------------------------------

def _rows(trans):
    """The dense transition matrix, row s = P(s -> .), by predicting unit masses."""
    n = trans.shape[0] * trans.shape[1]
    return np.stack([trans.predict(e) for e in np.eye(n)])


def test_transition_matrix_static_user_is_identity():
    grid = _grid(3)
    trans = transition_matrix(grid, 1.0, 0.9)
    assert np.allclose(_rows(trans), np.eye(9), atol=1e-15)


def test_transition_matrix_zero_step_sigma_is_identity():
    grid = _grid(3)
    trans = transition_matrix(grid, 0.4, 0.0)
    assert np.array_equal(trans.stencil, [[1.0]])
    assert np.array_equal(_rows(trans), np.eye(9))


def test_transition_matrix_rows_are_distributions():
    # outgoing mass 1 from every source cell, corners and edges included
    grid = Grid((0.0, 0.0), nx=5, ny=3, spacing=0.78)
    trans = transition_matrix(grid, 0.3, 0.5)
    assert trans.shape == (3, 5)
    rows = _rows(trans)
    assert np.all(rows >= 0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_transition_matrix_matches_quadrature_oracle():
    # rebuild the kernel from first principles: the Gaussian step lands in a
    # destination cell with probability = product of 1-D interval masses,
    # evaluated here by direct quadrature of the normal density
    grid = _grid(3)
    p_static, sigma = 0.3, 0.8
    limit = 4.0 * sigma  # steps are truncated at four standard deviations
    h = grid.spacing

    def interval_mass(d):
        pdf = lambda t: math.exp(-t * t / (2 * sigma * sigma)) / (sigma * math.sqrt(2 * math.pi))
        val, _ = quad(pdf, d - h / 2, d + h / 2)
        return val

    trans = transition_matrix(grid, p_static, sigma)
    ry, rx = (side // 2 for side in trans.stencil.shape)
    assert (ry, rx) == (2, 2)  # a 3x3 grid is reached at most 2 cells away
    for j in range(-ry, ry + 1):
        for i in range(-rx, rx + 1):
            inside = max(abs(i * h), abs(j * h)) <= limit  # per axis: a square
            want = interval_mass(i * h) * interval_mass(j * h) if inside else 0.0
            assert trans.stencil[ry + j, rx + i] == pytest.approx(want, abs=1e-12)

    xy = grid.xy
    n = len(grid)
    kernel = np.zeros((n, n))
    for r in range(n):
        for c in range(n):
            dx = xy[c, 0] - xy[r, 0]
            dy = xy[c, 1] - xy[r, 1]
            if max(abs(dx), abs(dy)) > limit:
                continue
            kernel[r, c] = interval_mass(dx) * interval_mass(dy)
    kernel /= kernel.sum(axis=1, keepdims=True)
    want = p_static * np.eye(n) + (1 - p_static) * kernel
    want /= want.sum(axis=1, keepdims=True)
    assert np.allclose(_rows(trans), want, atol=1e-9)


def test_transition_stencil_equals_its_mirror_exactly():
    # tail masses on both sides: a move of +9 cells is as likely as -9
    line = transition_matrix(Grid((0.0, 0.0), nx=21, ny=1, spacing=1.0),
                             0.3, 2.5).stencil
    assert line.shape == (1, 21)
    assert np.array_equal(line, line[:, ::-1])
    assert np.all(line > 0.0)
    plane = transition_matrix(Grid((0.0, 0.0), nx=9, ny=7, spacing=0.78),
                              0.3, 0.5 * 1.3 ** 2).stencil
    for mirror in (plane[::-1], plane[:, ::-1], plane[::-1, ::-1]):
        assert np.array_equal(plane, mirror)


def test_transition_matrix_tight_truncation_collapses_to_identity():
    # a step limit (4 sigma = 0.4) below the lattice spacing leaves only the source cell
    grid = _grid(3)
    trans = transition_matrix(grid, 0.2, 0.1)
    center = np.zeros(trans.stencil.shape, dtype=bool)
    center[trans.stencil.shape[0] // 2, trans.stencil.shape[1] // 2] = True
    assert np.all(trans.stencil[~center] == 0.0)
    assert np.allclose(_rows(trans), np.eye(9), atol=1e-15)


def test_transition_matrix_starved_kernel_raises():
    # an absurdly wide step distribution spreads so thin that every interval
    # mass underflows to zero, starving each source cell
    grid = _grid(2)
    with pytest.raises(NumericError):
        transition_matrix(grid, 0.0, 1e300)


def test_grid_transition_validation():
    ones = np.ones(3)
    for mass_x, mass_y in [(np.ones(2), ones), (ones, np.ones((1, 3))), (-np.ones(1), ones)]:
        with pytest.raises(ValueError):
            GridTransition(mass_x=mass_x, mass_y=mass_y, p_static=0.5, shape=(2, 2))
    with pytest.raises(ValueError):
        GridTransition(mass_x=ones, mass_y=ones, p_static=0.5, shape=(0, 2))
    with pytest.raises(NumericError):
        GridTransition(mass_x=ones, mass_y=np.zeros(3), p_static=0.5, shape=(2, 2))


def test_grid_bayes_filter_on_a_100x100_grid_stays_small():
    # N = 10,000 cells: a dense N x N float64 matrix alone would take 800 MB
    grid = Grid((0.0, 0.0), nx=100, ny=100, spacing=7.0 / 99)
    n = len(grid)
    rng = np.random.default_rng(73)
    obs = [rng.uniform(-20.0, 0.0, n) for _ in range(3)]
    tracemalloc.start()
    try:
        trans = transition_matrix(grid, 0.4, 1.0)
        post = obs[0]
        for o in obs:
            post = grid_bayes_step(post, trans, o)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert trans.tx.shape == trans.ty.shape == (100, 100)
    assert trans.totals.shape == (100, 100)
    assert post.shape == (n,) and np.max(post) == 0.0 and np.all(np.isfinite(post))


# ---------------------------------------------------------------------------
# grid Bayes recursion
# ---------------------------------------------------------------------------

def _dense_oracle(trans):
    """P(s -> u) written out cell by cell from the stencil and p_static."""
    ny, nx = trans.shape
    ry, rx = (side // 2 for side in trans.stencil.shape)
    n = nx * ny
    kernel = np.zeros((n, n))
    for s in range(n):
        for u in range(n):
            dx, dy = u % nx - s % nx, u // nx - s // nx
            if abs(dx) <= rx and abs(dy) <= ry:
                kernel[s, u] = trans.stencil[ry + dy, rx + dx]
    kernel /= kernel.sum(axis=1, keepdims=True)
    return trans.p_static * np.eye(n) + (1.0 - trans.p_static) * kernel


def test_grid_bayes_step_uniform_prior_identity_transition():
    # no motion and a flat prior: the posterior is just the renormalized observation
    grid = _grid(2)
    obs = np.array([-3.0, -1.0, -7.0, -2.0])
    trans = transition_matrix(grid, 1.0, 0.5)
    out = grid_bayes_step(np.zeros(4), trans, obs)
    assert np.allclose(out, obs - (-1.0), atol=1e-12)
    assert np.max(out) == pytest.approx(0.0, abs=1e-12)


def test_grid_bayes_step_matches_linear_domain_brute_force():
    rng = np.random.default_rng(59)
    grid = Grid((0.0, 0.0), nx=3, ny=2, spacing=1.0)
    for _ in range(25):
        trans = transition_matrix(grid, rng.uniform(0.0, 1.0), rng.uniform(0.2, 2.0))
        prev_vals = rng.uniform(-8, 0, size=6)
        obs_vals = rng.uniform(-8, 0, size=6)
        out = grid_bayes_step(prev_vals, trans, obs_vals)
        want = obs_vals + np.log(_dense_oracle(trans).T @ np.exp(prev_vals))
        want -= want.max()
        assert np.allclose(out, want, atol=1e-9)


def test_grid_bayes_step_starved_cell_raises():
    # a 1x3 corridor whose steps reach one cell (4 sigma = 1): the prior's
    # mass on cells 1 and 2 underflows to zero, so nothing can reach cell 2
    grid = Grid((0, 0), nx=3, ny=1, spacing=1.0)
    trans = transition_matrix(grid, 0.5, 0.25)
    with pytest.raises(NumericError):
        grid_bayes_step([0.0, -9000.0, -9000.0], trans, [0.0, 0.0, 0.0])


def test_grid_bayes_step_validation():
    # a row carries no grid: its length must be the transition's cell count
    trans = transition_matrix(_grid(2), *_MOBILITY)
    with pytest.raises(ValueError, match="observation needs one value per grid point"):
        grid_bayes_step(np.zeros(4), trans, np.zeros(9))
    with pytest.raises(ValueError, match="prior needs one value per grid point"):
        grid_bayes_step(np.zeros(9), trans, np.zeros(4))
    with pytest.raises(ValueError, match="one value per grid point"):
        grid_bayes_step(np.zeros(4), transition_matrix(_grid(3), *_MOBILITY),
                        np.zeros(4))
    with pytest.raises(ValueError, match="one value per grid point"):
        grid_bayes_step(np.zeros((2, 2)), trans, np.zeros(4))
    assert grid_bayes_step(np.zeros(4), trans, np.zeros(4)).shape == (4,)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_grid_bayes_step_refuses_a_non_finite_row(bad):
    trans = transition_matrix(_grid(2), *_MOBILITY)
    row = np.array([0.0, -1.0, bad, -2.0])
    with pytest.raises(ValueError, match="observation values must be finite"):
        grid_bayes_step(np.zeros(4), trans, row)
    with pytest.raises(ValueError, match="prior values must be finite"):
        grid_bayes_step(row, trans, np.zeros(4))


# ---------------------------------------------------------------------------
# particle filter
# ---------------------------------------------------------------------------

def test_particle_set_validation():
    # particles are a non-empty (P, 2) block of positions and a (P,) row of weights
    for positions, weights in [
        (np.zeros((0, 2)), np.zeros(0)),
        ([[0.0, 0.0, 0.0]], [1.0]),
        ([0.0, 1.0], [1.0]),
        ([[0.0, 0.0], [1.0, 1.0]], [1.0]),
        ([[0.0, 0.0]], [[1.0]]),
    ]:
        with pytest.raises(ValueError):
            particle_update(positions, weights, _grid(2), np.zeros(4))
        with pytest.raises(ValueError):
            resample_systematic(positions, weights, np.random.default_rng(0))


def test_particle_predict_shifts_without_reweighting():
    pos = np.array([[0.0, 0.0], [2.0, 1.0]])
    moved = particle_predict(pos, (0.5, -0.5), 0.0, np.random.default_rng(1))
    assert np.array_equal(moved, [[0.5, -0.5], [2.5, 0.5]])
    jittered = particle_predict(pos, (0.0, 0.0), 0.2, np.random.default_rng(1))
    # the jitter is the generator's next normals, row by row
    assert np.array_equal(jittered, pos + np.random.default_rng(1).normal(0.0, 0.2, (2, 2)))
    assert np.array_equal(pos, [[0.0, 0.0], [2.0, 1.0]])  # the input is not moved
    with pytest.raises(ValueError):
        particle_predict(pos, (1.0, 2.0, 3.0), 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        particle_predict(pos, (1.0, 2.0), -0.1, np.random.default_rng(0))


def test_particle_update_on_grid_points_reads_map_directly():
    grid = _grid(2)
    values = np.log([1.0, 2.0, 3.0, 4.0])
    # particles sit exactly on grid points 0 and 3
    weights, est, ess = particle_update([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], grid, values)
    # posterior weights proportional to 0.5*1 and 0.5*4
    assert np.allclose(weights, [0.2, 0.8], atol=1e-12)
    assert ess == pytest.approx(1.0 / (0.2 ** 2 + 0.8 ** 2))
    assert est.shape == (2,)
    assert np.allclose(est, 0.2 * np.array([0.0, 0.0]) + 0.8 * np.array([1.0, 1.0]))


def test_particle_update_weights_are_a_distribution():
    # unnormalized prior weights come out non-negative and summing to 1
    grid = _grid(3)
    rng = np.random.default_rng(63)
    pos = rng.uniform(-0.5, 2.5, size=(50, 2))
    weights, _, ess = particle_update(pos, rng.uniform(0.0, 3.0, 50), grid,
                                      rng.uniform(-20.0, 0.0, 9))
    assert np.all(weights >= 0.0)
    assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)
    assert 1.0 <= ess <= 50.0


def test_particle_update_uniform_map_keeps_weights():
    grid = _grid(3)
    values = np.full(9, -2.5)
    rng = np.random.default_rng(61)
    pos = rng.uniform(0, 2, size=(6, 2))
    w = rng.uniform(0.5, 1.5, size=6)
    w /= w.sum()
    weights, _, ess = particle_update(pos, w, grid, values)
    assert np.allclose(weights, w, atol=1e-12)
    assert ess == pytest.approx(1.0 / np.sum(w ** 2))


def test_particle_update_interpolates_by_inverse_distance():
    grid = _grid(2)
    dens = np.array([1.0, 2.0, 3.0, 4.0])
    values = np.log(dens)
    p = np.array([0.25, 0.25])
    corners = np.array([0, 1, 2, 3])
    d = np.hypot(grid.xy[corners, 0] - p[0], grid.xy[corners, 1] - p[1])
    iw = 1.0 / d
    lik_p = float(iw @ dens[corners] / iw.sum())
    # pair the off-grid particle with one pinned at a grid point of density 1
    weights, _, _ = particle_update([p, [0.0, 0.0]], [0.5, 0.5], grid, values)
    want = np.array([lik_p, 1.0])
    want /= want.sum()
    assert np.allclose(weights, want, atol=1e-12)


@pytest.mark.parametrize("values", [
    [0.0, np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0],
    np.zeros(3), np.zeros(9), np.zeros((2, 2)),
])
def test_particle_update_refuses_a_non_finite_or_wrong_length_row(values):
    with pytest.raises(ValueError, match="observation"):
        particle_update([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], _grid(2), values)


def test_particle_update_degenerate_likelihood_raises():
    grid = _grid(2)
    # the only particle sits on a cell whose density underflows to exactly zero
    values = [0.0, -9000.0, -9000.0, -9000.0]
    with pytest.raises(DegenerateUpdateError):
        particle_update([[1.0, 0.0]], [1.0], grid, values)


def test_particle_update_only_reweights_a_collapsed_set():
    grid = _grid(2)
    values = [0.0, -9000.0, -9000.0, -9000.0]
    # three particles on dead cells, one on the live cell: ESS drops to 1 < 4/2
    pos = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    weights, est, ess = particle_update(pos, [0.25] * 4, grid, values)
    assert ess == pytest.approx(1.0)
    assert weights.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert est.tolist() == [0.0, 0.0]
    # resampling is the caller's step: every copy lands on the live particle
    resampled, equal = resample_systematic(pos, weights, np.random.default_rng(3))
    assert np.array_equal(resampled, np.tile([0.0, 0.0], (4, 1)))
    assert np.allclose(equal, 0.25)


# ---------------------------------------------------------------------------
# systematic resampling
# ---------------------------------------------------------------------------

def test_resample_systematic_even_split_is_exact():
    # all weight on the first two of 10,000 particles, split evenly
    weights = np.zeros(10_000)
    weights[:2] = 0.5
    pos = np.column_stack([np.arange(10_000.0), np.zeros(10_000)])
    out, out_w = resample_systematic(pos, weights, np.random.default_rng(7))
    counts = np.bincount(out[:, 0].astype(int), minlength=2)
    assert len(out) == 10_000 and counts[0] == 5000 and counts[1] == 5000
    assert np.allclose(out_w, 1e-4)


def test_resample_systematic_equal_weights_reproduce_input():
    rng = np.random.default_rng(67)
    pos = rng.uniform(0, 5, size=(37, 2))
    out, _ = resample_systematic(pos, np.full(37, 1 / 37), np.random.default_rng(11))
    assert np.array_equal(out, pos)


def test_resample_systematic_draws_one_uniform_from_the_generator():
    rng = np.random.default_rng(5)
    resample_systematic(np.zeros((3, 2)), np.full(3, 1 / 3), rng)
    ref = np.random.default_rng(5)
    ref.random()
    assert rng.random() == ref.random()


def test_resample_systematic_counts_track_weights_within_one():
    rng = np.random.default_rng(71)
    for trial in range(20):
        n = int(rng.integers(3, 400))
        w = rng.uniform(0.01, 1.0, size=n) ** 4  # uneven: some particles copied often
        w /= w.sum()
        pos = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        out, out_w = resample_systematic(pos, w, np.random.default_rng(trial))
        counts = np.bincount(out[:, 0].astype(int), minlength=n)
        assert len(out) == n and out_w.shape == (n,)
        assert np.all(np.abs(counts - n * w) <= 1.0 + 1e-9)
