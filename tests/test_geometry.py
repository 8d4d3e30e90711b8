"""The row-major survey lattice and its origin check."""

import math

import numpy as np
import pytest

from fingerloc.geometry import Grid


@pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_position_rejects_non_finite(x, y):
    # the grid origin's coordinates
    with pytest.raises(ValueError, match="finite reals"):
        Grid((x, y), nx=2, ny=2, spacing=1.0)


@pytest.mark.parametrize("x,y", [("a", 0.0), (0.0, None), ([1.0], 2.0), (True, 0.0), (1j, 0.0)])
def test_position_rejects_non_real_coordinates(x, y):
    with pytest.raises(ValueError, match="finite reals"):
        Grid((x, y), nx=2, ny=2, spacing=1.0)


@pytest.mark.parametrize("origin", [(0.0,), (0.0, 0.0, 0.0), 5, None, ()])
def test_grid_origin_must_be_a_pair(origin):
    with pytest.raises(ValueError, match=r"must be an \(x, y\) pair"):
        Grid(origin, nx=2, ny=2, spacing=1.0)


def test_uniform_grid_is_row_major():
    # x varies fastest: point k sits at origin + ((k mod nx) h, (k div nx) h)
    grid = Grid((0.0, 0.0), nx=3, ny=2, spacing=2.0)
    assert len(grid) == 6
    assert grid.xy.tolist() == [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0],
                                [0.0, 2.0], [2.0, 2.0], [4.0, 2.0]]


def test_uniform_grid_offset_origin():
    grid = Grid((-1.5, 3.0), nx=4, ny=3, spacing=0.78)
    assert len(grid) == 12 and grid.xy.shape == (12, 2)
    for k, (x, y) in enumerate(grid.xy):
        assert x == pytest.approx(-1.5 + (k % 4) * 0.78, abs=1e-12)
        assert y == pytest.approx(3.0 + (k // 4) * 0.78, abs=1e-12)
    with pytest.raises(TypeError):
        grid[0]  # positions are rows of grid.xy


def test_uniform_grid_pairwise_distances_at_least_spacing():
    grid = Grid((0.0, 0.0), nx=5, ny=4, spacing=0.9)
    xy = grid.xy
    d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    np.fill_diagonal(d, np.inf)
    assert np.min(d) >= 0.9 - 1e-12


def test_uniform_grid_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Grid((0, 0), nx=0, ny=2, spacing=1.0)
    with pytest.raises(ValueError):
        Grid((0, 0), nx=2, ny=-1, spacing=1.0)
    for spacing in (0.0, -1.0, math.inf, math.nan, "1.0", None, [1.0], True):
        with pytest.raises(ValueError):
            Grid((0, 0), nx=2, ny=2, spacing=spacing)
    for nx in (2.5, 2.0, "2"):
        with pytest.raises(ValueError):
            Grid((0, 0), nx=nx, ny=2, spacing=1.0)


def test_grid_rejects_duplicates_and_empty():
    for nx, ny in ((0, 0), (0, 3), (3, 0)):
        with pytest.raises(ValueError):
            Grid((0, 0), nx=nx, ny=ny, spacing=1.0)
    # a spacing below the float step at the origin would make points coincide
    with pytest.raises(ValueError):
        Grid((1e17, 0.0), nx=2, ny=1, spacing=1.0)
    with pytest.raises(ValueError):
        Grid((0.0, 1e17), nx=1, ny=2, spacing=1.0)
    with pytest.raises(ValueError):
        Grid((0, 0), nx=1, ny=1, spacing=-1.0)
    single = Grid((1e17, 1e17), nx=1, ny=1, spacing=1.0)
    assert len(single) == 1 and len(np.unique(single.xy, axis=0)) == 1


def test_xy_rows_are_the_grid_positions():
    grid = Grid((0.25, -0.5), nx=3, ny=3, spacing=1.25)
    assert grid.xy.shape == (9, 2) and grid.xy.dtype == np.float64
    for k in range(len(grid)):
        assert grid.xy[k].tolist() == [0.25 + (k % 3) * 1.25, -0.5 + (k // 3) * 1.25]
    with pytest.raises(ValueError):
        grid.xy[0, 0] = 1.0  # computed once, shared by every caller


def test_grid_equality_compares_the_defining_fields():
    grid = Grid((0, 1), nx=3, ny=2, spacing=1)
    same = Grid((0.0, 1.0), nx=3, ny=2, spacing=1.0)
    assert grid == same and hash(grid) == hash(same)
    assert grid.origin == (0.0, 1.0) and all(type(v) is float for v in grid.origin)
    assert Grid([0, 1], nx=3, ny=2, spacing=1) == grid  # any pair, stored as a tuple
    assert grid != Grid((0.0, 1.0), nx=2, ny=3, spacing=1.0)
    assert grid != Grid((0.0, 1.0), nx=3, ny=2, spacing=0.5)
    assert grid != Grid((1.0, 1.0), nx=3, ny=2, spacing=1.0)
