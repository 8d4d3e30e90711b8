"""Positions and the row-major survey lattice."""

import math

import numpy as np
import pytest

from fingerloc.geometry import Grid, Position


def test_position_distance_matches_hypot():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ax, ay, bx, by = rng.uniform(-50, 50, size=4)
        a = Position(float(ax), float(ay))
        b = Position(float(bx), float(by))
        assert a.distance_to(b) == math.hypot(ax - bx, ay - by)
        assert a.distance_to(b) == b.distance_to(a)
    assert Position(1.0, 2.0).distance_to(Position(1.0, 2.0)) == 0.0


@pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_position_rejects_non_finite(x, y):
    with pytest.raises(ValueError):
        Position(x, y)


@pytest.mark.parametrize("x,y", [("a", 0.0), (0.0, None), ([1.0], 2.0), (True, 0.0), (1j, 0.0)])
def test_position_rejects_non_real_coordinates(x, y):
    with pytest.raises(ValueError, match="finite reals"):
        Position(x, y)


def test_uniform_grid_is_row_major():
    # x varies fastest: point k sits at origin + ((k mod nx) h, (k div nx) h)
    grid = Grid(Position(0.0, 0.0), nx=3, ny=2, spacing=2.0)
    assert len(grid) == 6
    assert (grid[0].x, grid[0].y) == (0.0, 0.0)
    assert (grid[2].x, grid[2].y) == (4.0, 0.0)
    assert (grid[3].x, grid[3].y) == (0.0, 2.0)
    assert (grid[4].x, grid[4].y) == (2.0, 2.0)
    assert (grid[5].x, grid[5].y) == (4.0, 2.0)


def test_uniform_grid_offset_origin():
    grid = Grid(Position(-1.5, 3.0), nx=4, ny=3, spacing=0.78)
    points = list(grid)
    assert len(points) == 12
    for k, p in enumerate(points):
        assert p.x == pytest.approx(-1.5 + (k % 4) * 0.78, abs=1e-12)
        assert p.y == pytest.approx(3.0 + (k // 4) * 0.78, abs=1e-12)
    with pytest.raises(IndexError):
        grid[12]


def test_uniform_grid_pairwise_distances_at_least_spacing():
    grid = Grid(Position(0.0, 0.0), nx=5, ny=4, spacing=0.9)
    xy = grid.xy
    d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    np.fill_diagonal(d, np.inf)
    assert np.min(d) >= 0.9 - 1e-12


def test_uniform_grid_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Grid(Position(0, 0), nx=0, ny=2, spacing=1.0)
    with pytest.raises(ValueError):
        Grid(Position(0, 0), nx=2, ny=-1, spacing=1.0)
    for spacing in (0.0, -1.0, math.inf, math.nan, "1.0", None, [1.0], True):
        with pytest.raises(ValueError):
            Grid(Position(0, 0), nx=2, ny=2, spacing=spacing)
    for nx in (2.5, 2.0, "2"):
        with pytest.raises(ValueError):
            Grid(Position(0, 0), nx=nx, ny=2, spacing=1.0)


def test_grid_rejects_duplicates_and_empty():
    for nx, ny in ((0, 0), (0, 3), (3, 0)):
        with pytest.raises(ValueError):
            Grid(Position(0, 0), nx=nx, ny=ny, spacing=1.0)
    # a spacing below the float step at the origin would make points coincide
    with pytest.raises(ValueError):
        Grid(Position(1e17, 0.0), nx=2, ny=1, spacing=1.0)
    with pytest.raises(ValueError):
        Grid(Position(0.0, 1e17), nx=1, ny=2, spacing=1.0)
    with pytest.raises(ValueError):
        Grid(Position(0, 0), nx=1, ny=1, spacing=-1.0)
    single = Grid(Position(1e17, 1e17), nx=1, ny=1, spacing=1.0)
    assert len(single) == 1 and len(np.unique(single.xy, axis=0)) == 1


def test_xy_rows_are_the_grid_positions():
    grid = Grid(Position(0.25, -0.5), nx=3, ny=3, spacing=1.25)
    assert grid.xy.shape == (9, 2)
    for k, p in enumerate(grid):
        assert type(p.x) is float and type(p.y) is float
        assert grid.xy[k, 0] == p.x and grid.xy[k, 1] == p.y
    with pytest.raises(ValueError):
        grid.xy[0, 0] = 1.0  # computed once, shared by every caller


def test_grid_equality_compares_the_defining_fields():
    grid = Grid(Position(0, 1), nx=3, ny=2, spacing=1)
    same = Grid(Position(0.0, 1.0), nx=3, ny=2, spacing=1.0)
    assert grid == same and hash(grid) == hash(same)
    assert grid.origin == Position(0.0, 1.0) and type(grid.origin.x) is float
    assert grid != Grid(Position(0.0, 1.0), nx=2, ny=3, spacing=1.0)
    assert grid != Grid(Position(0.0, 1.0), nx=3, ny=2, spacing=0.5)
    assert grid != Grid(Position(1.0, 1.0), nx=3, ny=2, spacing=1.0)
