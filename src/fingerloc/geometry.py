"""Positions and measurement grids for fingerprint localization."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Position", "Grid", "build_uniform_grid", "uniform_grid_shape"]


@dataclass(frozen=True)
class Position:
    """A point in the horizontal plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Grid:
    """An ordered set of candidate positions.

    ``points`` is the authoritative ordering: every likelihood map, database
    block row, and estimated index refers to positions by their index here.
    ``spacing`` is the nominal inter-point distance (0.0 for irregular grids).
    """

    points: tuple
    spacing: float = 0.0

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("grid must contain at least one point")
        object.__setattr__(self, "points", tuple(self.points))
        seen = set()
        for p in self.points:
            key = (p.x, p.y)
            if key in seen:
                raise ValueError(f"grid points must be pairwise distinct, duplicate at {key}")
            seen.add(key)
        if self.spacing < 0:
            raise ValueError("grid spacing must be non-negative")

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index: int) -> Position:
        return self.points[index]

    def as_array(self) -> np.ndarray:
        """(N, 2) array of coordinates in index order."""
        return np.array([(p.x, p.y) for p in self.points], dtype=float)

    def nearest_index(self, pos: Position) -> int:
        """Index of the grid point closest to ``pos`` (lowest index on ties)."""
        xy = self.as_array()
        d2 = (xy[:, 0] - pos.x) ** 2 + (xy[:, 1] - pos.y) ** 2
        return int(np.argmin(d2))


def uniform_grid_shape(grid: Grid) -> tuple:
    """Recover (nx, ny, origin) of a row-major uniform grid.

    Raises ValueError when the grid is not laid out as
    ``origin + ((k mod nx) * spacing, (k div nx) * spacing)``.
    """
    if not (grid.spacing > 0):
        raise ValueError("a uniform grid needs positive spacing")
    xy = grid.as_array()
    y0 = xy[0, 1]
    nx = int(np.argmax(xy[:, 1] != y0)) if np.any(xy[:, 1] != y0) else len(grid)
    if nx == 0 or len(grid) % nx != 0:
        raise ValueError("grid is not a row-major uniform lattice")
    ny = len(grid) // nx
    origin = grid.points[0]
    k = np.arange(len(grid))
    expect_x = origin.x + (k % nx) * grid.spacing
    expect_y = origin.y + (k // nx) * grid.spacing
    tol = 1e-9 * max(grid.spacing, 1.0)
    if np.max(np.abs(xy[:, 0] - expect_x)) > tol or np.max(np.abs(xy[:, 1] - expect_y)) > tol:
        raise ValueError("grid is not a row-major uniform lattice")
    return nx, ny, origin


def build_uniform_grid(origin: Position, nx: int, ny: int, spacing: float) -> Grid:
    """Build a row-major rectangular grid.

    Point k sits at ``origin + ((k mod nx) * spacing, (k div nx) * spacing)``,
    i.e. x varies fastest and rows stack upward in y.

    Args:
        origin: position of point 0 (lower-left corner).
        nx: number of columns (>= 1).
        ny: number of rows (>= 1).
        spacing: inter-point distance in meters (> 0).

    Returns:
        Grid with ``nx * ny`` points and the given spacing.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid dimensions must be positive, got nx={nx} ny={ny}")
    if not (spacing > 0):
        raise ValueError(f"uniform grid spacing must be positive, got {spacing}")
    pts = []
    for k in range(nx * ny):
        pts.append(Position(origin.x + (k % nx) * spacing, origin.y + (k // nx) * spacing))
    return Grid(points=tuple(pts), spacing=float(spacing))
