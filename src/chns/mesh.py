"""Uniform triangulations of axis-aligned rectangles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Mesh:
    """Triangulation of a rectangle.

    Vertices are numbered row-major, triangles cell-major (two per grid
    cell, all cells split along the same bottom-left to top-right
    diagonal), so the numbering is reproducible bit-for-bit across runs.
    Arrays are frozen after construction; a mesh can be shared read-only.
    """

    vertices: np.ndarray          # (nv, 2) coordinates
    triangles: np.ndarray         # (nt, 3) vertex indices, counter-clockwise
    edges: np.ndarray             # (ne, 2) vertex pairs, sorted within each pair
    boundary_vertices: np.ndarray
    boundary_edges: np.ndarray    # indices of the edges that lie in one triangle only
    grid: tuple[int, int] | None = None  # (nx, ny) cells of a uniform grid, None otherwise
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


def build_uniform_mesh(nx: int, ny: int,
                       rect: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)) -> Mesh:
    """Triangulate rect into nx*ny cells, each split into two right triangles."""
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be positive, got nx={nx}, ny={ny}")
    x0, y0, x1, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle {rect}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xg, yg = np.meshgrid(xs, ys)
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    # cell (i, j), cell-major, has corners v00 = j (nx + 1) + i, v10 = v00 + 1,
    # v01 = v00 + nx + 1, v11 = v01 + 1 and triangles (v00, v10, v11), (v00, v11, v01)
    v00 = (np.arange(ny, dtype=np.int64)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v01 = v00 + (nx + 1)
    tris = np.stack([v00, v00 + 1, v01 + 1, v00, v01 + 1, v01], axis=1).reshape(-1, 3)

    edges, boundary_edges = _edge_table(tris)
    mesh = Mesh(
        vertices=vertices,
        triangles=tris,
        edges=edges,
        boundary_vertices=np.unique(edges[boundary_edges].ravel()),
        boundary_edges=boundary_edges,
        grid=(nx, ny),
    )
    for arr in (mesh.vertices, mesh.triangles, mesh.edges,
                mesh.boundary_vertices, mesh.boundary_edges):
        arr.flags.writeable = False
    return mesh


def _edge_table(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique vertex pairs, ordered by (low, high), and the indices of those
    that occur in one triangle only: the boundary edges."""
    nv = int(tris.max()) + 1
    raw = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys, counts = np.unique(raw.min(axis=1) * nv + raw.max(axis=1), return_counts=True)
    return np.stack([keys // nv, keys % nv], axis=1), np.flatnonzero(counts == 1)
