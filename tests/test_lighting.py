"""Lighting control and its bounded LP against independent oracles."""

import math

import numpy as np
import pytest
from scipy import sparse

from fingerloc.errors import InfeasibleError, NumericError
from fingerloc.geometry import Grid
from fingerloc.lighting import (
    LightingScenario,
    illuminance,
    light_gain,
    solve_lighting,
)
from fingerloc.simplex import solve_bounded_lp


# ---------------------------------------------------------------------------
# bounded LP
# ---------------------------------------------------------------------------

def test_bounded_lp_scalar_coverage():
    # min x with x >= 0.3 and x <= 1
    x = solve_bounded_lp([1.0], [[1.0]], [0.3], [1.0])
    assert x[0] == pytest.approx(0.3, abs=1e-9)


def test_bounded_lp_binding_upper_bounds():
    x = solve_bounded_lp([1.0, 1.0], [[1.0, 1.0]], [2.0], [1.0, 1.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)
    x = solve_bounded_lp([3.0, 1.0], [[1.0, 1.0]], [1.5], [1.0, 1.0])
    # the cheap variable saturates first
    assert np.allclose(x, [0.5, 1.0], atol=1e-9)


def test_bounded_lp_takes_sparse_coverage_rows():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    dense = solve_bounded_lp([1.0, 2.0, 1.0], a, [1.0, 1.5], [1.0, 1.0, 1.0])
    sparse_x = solve_bounded_lp([1.0, 2.0, 1.0], sparse.csr_array(a), [1.0, 1.5],
                                [1.0, 1.0, 1.0])
    assert np.allclose(dense, [0.0, 0.5, 1.0], atol=1e-9)  # x3 <= 1 forces x2 >= 0.5
    assert np.allclose(sparse_x, dense, atol=1e-9)


def test_bounded_lp_infeasible_coverage():
    with pytest.raises(InfeasibleError):
        solve_bounded_lp([1.0], [[1.0]], [2.0], [1.0])


def test_bounded_lp_unbounded_is_a_numeric_error():
    # an unbounded variable with negative cost falls forever
    with pytest.raises(NumericError):
        solve_bounded_lp([-1.0], [[0.0]], [0.0], [np.inf])


def test_bounded_lp_validation():
    with pytest.raises(ValueError):
        solve_bounded_lp([1.0, 2.0], [[1.0]], [1.0], [1.0])
    with pytest.raises(ValueError):
        solve_bounded_lp([1.0], [1.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        solve_bounded_lp([1.0], [[1.0]], [0.5], [-1.0])


# ---------------------------------------------------------------------------
# photometry
# ---------------------------------------------------------------------------

def test_light_gain_peak_directly_below():
    assert light_gain((2, 3), 2.5, 420.0, (2, 3)) == 420.0


def test_light_gain_follows_inverse_square_cosine_law():
    h, peak, d = 2.5, 420.0, 3.0
    want = peak * h ** 3 / (h ** 2 + d ** 2) ** 1.5
    assert light_gain((0, 0), h, peak, (3, 0)) == pytest.approx(want)
    assert light_gain((0, 0), h, peak, (0, -3)) == pytest.approx(want)
    # strictly decreasing with horizontal offset, one broadcast call
    gains = light_gain((0, 0), h, peak, [(x, 0) for x in (0, 1, 2, 4)])
    assert gains.shape == (4,)
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_light_gain_validation():
    with pytest.raises(ValueError):
        light_gain((0, 0), 0.0, 100.0, (1, 1))
    with pytest.raises(ValueError):
        light_gain((0, 0), 2.0, -1.0, (1, 1))
    with pytest.raises(ValueError):
        light_gain([(0, 0), (1, 1)], [2.0, 0.0], 100.0, (1, 1))
    # a luminaire's power draw, peak and mounting height must be positive
    for bad in ([0, 0, 0.0, 100.0, 2.0], [0, 0, 10.0, 100.0, -2.0],
                [0, 0, 10.0, 0.0, 2.0], [0, 0, math.nan, 100.0, 2.0]):
        with pytest.raises(ValueError, match="positive value per light"):
            _room([[1, 1, 40.0, 400.0, 2.5], bad], target=300.0)


def _columns(lights):
    """LightingScenario's light arrays from rows (x, y, power_w, peak_lux, height_m)."""
    rows = np.array(lights, dtype=float).reshape(-1, 5)
    return {"light_xy": rows[:, :2], "power_w": rows[:, 2], "peak_lux": rows[:, 3],
            "height_m": rows[:, 4]}


def _room(lights, target, env=0.0, n=3, spacing=2.0):
    """A square room; a scalar ``env`` is the same ambient illuminance in every cell."""
    grid = Grid((0, 0), nx=n, ny=n, spacing=spacing)
    env = np.full(len(grid), env) if np.ndim(env) == 0 else env
    return LightingScenario(grid=grid, **_columns(lights), target_lux=target, env_lux=env)


def _mask(n_cells, *sets):
    """(sets, n_cells) occupancy mask holding the given lists of cells."""
    mask = np.zeros((len(sets), n_cells), dtype=bool)
    for row, cells in zip(mask, sets):
        row[list(cells)] = True
    return mask


def _formula(light, cell):
    (lx, ly, _power, peak, h), (x, y) = light, cell
    d2 = (x - lx) ** 2 + (y - ly) ** 2
    return peak * h ** 3 / (h ** 2 + d2) ** 1.5


def test_gain_matrix_equals_the_law_per_cell_and_light():
    rng = np.random.default_rng(113)
    lights = [[rng.uniform(0, 4), rng.uniform(0, 4), 40.0, rng.uniform(300, 900),
               rng.uniform(2.0, 3.0)]
              for _ in range(3)]
    scen = _room(lights, target=300.0, n=4)
    want = np.array([[_formula(light, cell) for light in lights] for cell in scen.grid.xy])
    assert np.allclose(scen.gains, want, rtol=1e-14, atol=0.0)
    assert np.array_equal(scen.gain_matrix([5, 0, 5]), scen.gains[[5, 0, 5]])
    assert scen.gain_matrix([]).shape == (0, 3)
    with pytest.raises(ValueError):
        scen.gains[0, 0] = 1.0


def test_illuminance_sums_dimmed_lights_and_ambient():
    # both luminaires directly above cell 0, so their gains equal their peaks
    lights = [[0, 0, 40.0, 400.0, 2.5], [0, 0, 40.0, 800.0, 2.5]]
    env = np.zeros(9)
    env[0] = 50.0
    scen = _room(lights, target=300.0, env=env)
    assert illuminance(scen, [0.5, 0.25], 0) == pytest.approx(0.5 * 400 + 0.25 * 800 + 50)
    # one row of settings per cell, scored in one call
    switches = np.array([[0.5, 0.25], [1.0, 0.0], [0.0, 1.0]])
    got = illuminance(scen, switches, [0, 0, 4])
    assert got.shape == (3,)
    assert got.tolist() == [illuminance(scen, sw, c) for sw, c in zip(switches, [0, 0, 4])]
    assert got[:2] == pytest.approx([0.5 * 400 + 0.25 * 800 + 50, 400 + 50])
    with pytest.raises(ValueError):
        illuminance(scen, [0.5], 0)


def test_lighting_scenario_validation():
    light = [0, 0, 40.0, 400.0, 2.5]
    with pytest.raises(ValueError):
        _room([], target=300.0)
    with pytest.raises(ValueError):
        _room([light], target=0.0)
    with pytest.raises(ValueError):
        _room([light], target=300.0, env=np.ones(4))
    with pytest.raises(ValueError):
        _room([light], target=300.0, env=-np.ones(9))
    # one value of each luminaire array per light, positions as (lights, 2)
    grid = Grid((0, 0), nx=3, ny=3, spacing=2.0)
    good = _columns([light, light])
    for name, bad in (("power_w", [40.0]), ("peak_lux", [[400.0, 400.0]]),
                      ("height_m", 2.5), ("light_xy", [0.0, 0.0, 1.0, 1.0])):
        with pytest.raises(ValueError):
            LightingScenario(grid=grid, **dict(good, **{name: bad}), target_lux=300.0,
                             env_lux=np.zeros(9))
    scen = LightingScenario(grid=grid, **good, target_lux=300.0, env_lux=np.zeros(9))
    with pytest.raises(ValueError):
        scen.power_w[0] = 1.0  # frozen arrays


# ---------------------------------------------------------------------------
# lighting optimization
# ---------------------------------------------------------------------------

def test_solve_lighting_empty_occupancy_turns_everything_off():
    light = [0, 0, 40.0, 400.0, 2.5]
    scen = _room([light], target=300.0)
    switches, power = solve_lighting(scen, np.zeros((0, 9), dtype=bool))
    assert switches.shape == (0, 1) and power.shape == (0,)
    switches, power = solve_lighting(scen, _mask(9, [], [0], []))
    assert switches.shape == (3, 1) and power.shape == (3,)
    # an all-False row: every light off, at exactly zero power
    for row in (0, 2):
        assert switches[row].tolist() == [0.0]
        assert power[row] == 0.0 and not np.signbit(power[row])
    assert power[1] > 0.0


def test_solve_lighting_single_light_hand_case():
    # occupant right below the light: need (500 - 100) lux out of a peak 800
    light = [0, 0, 40.0, 800.0, 2.5]
    scen = _room([light], target=500.0, env=np.full(9, 100.0))
    switches, power = solve_lighting(scen, _mask(9, [0]))
    assert switches[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert power[0] == pytest.approx(20.0, abs=1e-9)
    assert illuminance(scen, switches[0], 0) == pytest.approx(500.0, abs=1e-6)


def test_solve_lighting_reports_unreachable_cells():
    # a dim, distant luminaire cannot push the far corner to target
    light = [0, 0, 40.0, 500.0, 2.5]
    scen = _room([light], target=400.0)
    with pytest.raises(InfeasibleError) as err:
        solve_lighting(scen, _mask(9, [0, 8]))
    assert err.value.violated == (8,)


@pytest.mark.parametrize("occupied", [
    [[0, 8]],  # cell indices, not a mask
    np.zeros((1, 10), dtype=bool),  # one column too many
    np.zeros(9, dtype=bool),  # one set, not a block of sets
])
def test_solve_lighting_takes_a_boolean_mask_over_the_grid(occupied):
    light = [0, 0, 40.0, 500.0, 2.5]
    with pytest.raises(ValueError, match="occupancy mask"):
        solve_lighting(_room([light], target=400.0), occupied)


def test_solve_lighting_reports_the_first_infeasible_set():
    # only cell 0, right below the light, can reach 400 lux
    light = [0, 0, 40.0, 500.0, 2.5]
    scen = _room([light], target=400.0)
    with pytest.raises(InfeasibleError, match="occupied set 2: 2 cell") as err:
        solve_lighting(scen, _mask(9, [0], [], [8, 0, 5], [0], [2]))
    assert err.value.violated == (5, 8)


def test_solve_lighting_monotone_in_occupancy_and_below_all_on():
    rng = np.random.default_rng(107)
    lights = [[rng.uniform(0, 4), rng.uniform(0, 4), 40.0, 700.0, 2.5] for _ in range(3)]
    scen = _room(lights, target=200.0)
    switches, (small, large) = solve_lighting(scen, _mask(9, [0, 4], [0, 4, 8, 2]))
    # more constraints can only cost more power, and never more than all-on
    assert small <= large + 1e-9
    assert large < scen.power_w.sum()
    assert np.all(illuminance(scen, switches[1], [0, 4, 8, 2]) >= 200.0 - 1e-6)
    assert np.all(switches >= -1e-12) and np.all(switches <= 1.0 + 1e-12)


def test_solve_lighting_matches_dimmer_grid_search():
    # two-light rooms where every dimmer pair on a 0.01 step grid is enumerable
    rng = np.random.default_rng(109)
    steps = np.linspace(0.0, 1.0, 101)
    g1, g2 = np.meshgrid(steps, steps, indexing="ij")
    for trial in range(50):
        grid = Grid((0, 0), nx=3, ny=3, spacing=2.0)
        lights = _columns([[rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(20, 60),
                            rng.uniform(300, 900), rng.uniform(2.0, 3.0)]
                           for _ in range(2)])
        occupied = sorted(rng.choice(9, size=int(rng.integers(1, 4)), replace=False).tolist())
        probe = LightingScenario(grid=grid, **lights, target_lux=1.0, env_lux=np.zeros(9))
        gains = probe.gain_matrix(occupied)
        # demand most of the weakest cell's all-on capacity so the optimum is
        # well inside the dimmer range and the grid quantization gap is small
        target = float(rng.uniform(0.65, 0.9) * gains.sum(axis=1).min())
        scen = LightingScenario(grid=grid, **lights, target_lux=target, env_lux=np.zeros(9))
        _, [power] = solve_lighting(scen, _mask(9, occupied))

        powers = lights["power_w"]
        lux = (gains[:, 0][:, None, None] * g1[None]
               + gains[:, 1][:, None, None] * g2[None])
        feasible = np.all(lux >= target - 1e-12, axis=0)
        cost = powers[0] * g1 + powers[1] * g2
        cost[~feasible] = np.inf
        best = float(cost.min())

        assert power <= best + 1e-9  # the LP sees a superset of settings
        assert abs(power - best) <= 0.02 * best
