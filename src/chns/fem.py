"""Reference bases, triangle quadrature, Lagrange degree-of-freedom maps, and
the transfers between nested Lagrange spaces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

#: reference triangle has vertices (0,0), (1,0), (0,1); barycentric
#: coordinates are (L0, L1, L2) = (1-x-y, x, y).

_SQRT15 = np.sqrt(15.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Points in barycentric coordinates, weights summing to the reference area 1/2."""

    points: np.ndarray   # (nq, 3)
    weights: np.ndarray  # (nq,)
    exactness_degree: int


def _rule_degree_1() -> QuadratureRule:
    pts = np.array([[1 / 3, 1 / 3, 1 / 3]])
    return QuadratureRule(pts, np.array([0.5]), 1)


def _rule_degree_2() -> QuadratureRule:
    a, b = 2 / 3, 1 / 6
    pts = np.array([[a, b, b], [b, a, b], [b, b, a]])
    return QuadratureRule(pts, np.full(3, 1 / 6), 2)


def _rule_degree_5() -> QuadratureRule:
    # 7-point symmetric rule; all coefficients in closed form, so the
    # monomial exactness holds to machine precision.
    a1 = (6.0 - _SQRT15) / 21.0
    a2 = (6.0 + _SQRT15) / 21.0
    w1 = (155.0 - _SQRT15) / 2400.0
    w2 = (155.0 + _SQRT15) / 2400.0
    pts = [[1 / 3, 1 / 3, 1 / 3]]
    wts = [9.0 / 80.0]
    for a, w in ((a1, w1), (a2, w2)):
        c = 1.0 - 2.0 * a
        pts += [[c, a, a], [a, c, a], [a, a, c]]
        wts += [w, w, w]
    return QuadratureRule(np.array(pts), np.array(wts), 5)


def _rule_degree_8() -> QuadratureRule:
    # Collapsed 5x5 Gauss-Legendre product rule: exact for total degree
    # 2n-2 = 8 with weights/nodes at full double precision.
    n = 5
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(x, x, indexing="ij")
    wx, wy = np.meshgrid(w, w, indexing="ij")
    px = xi.ravel()
    py = (eta * (1.0 - xi)).ravel()
    wts = (wx * wy * (1.0 - xi)).ravel()
    wts *= 0.5 / wts.sum()
    pts = np.column_stack([1.0 - px - py, px, py])
    return QuadratureRule(pts, wts, 8)


_RULES = {1: _rule_degree_1, 2: _rule_degree_2, 5: _rule_degree_5, 8: _rule_degree_8}

#: exactness used for all operator/load assembly (covers quadratic products
#: against quadratic gradients and the quartic free-energy density)
ASSEMBLY_DEGREE = 5
#: exactness used for error norms, above assembly so quadrature error does
#: not pollute observed convergence rates
NORM_DEGREE = 8


def triangle_quadrature(min_degree: int) -> QuadratureRule:
    """Smallest stocked rule whose exactness degree is at least min_degree."""
    if not 1 <= min_degree <= 8:
        raise ValueError(f"unsupported quadrature degree {min_degree}")
    for deg in sorted(_RULES):
        if deg >= min_degree:
            return _RULES[deg]()
    raise AssertionError("unreachable")


def p1_basis(point) -> tuple[np.ndarray, np.ndarray]:
    """Linear basis values and reference gradients at one barycentric point."""
    l0, l1, l2 = point
    values = np.array([l0, l1, l2])
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return values, grads


def p2_basis(point) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic basis (3 vertices + 3 edge midpoints) at one barycentric point.

    Local numbering: 0,1,2 vertices; 3 = midpoint(0,1); 4 = midpoint(1,2);
    5 = midpoint(2,0).
    """
    l0, l1, l2 = point
    values = np.array([
        l0 * (2 * l0 - 1),
        l1 * (2 * l1 - 1),
        l2 * (2 * l2 - 1),
        4 * l0 * l1,
        4 * l1 * l2,
        4 * l2 * l0,
    ])
    g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.array([
        (4 * l0 - 1) * g[0],
        (4 * l1 - 1) * g[1],
        (4 * l2 - 1) * g[2],
        4 * (l0 * g[1] + l1 * g[0]),
        4 * (l1 * g[2] + l2 * g[1]),
        4 * (l2 * g[0] + l0 * g[2]),
    ])
    return values, grads


def p1_tables(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized p1_basis: values (nq, 3) and reference gradients (nq, 3, 2)."""
    vals = np.stack([p1_basis(pt)[0] for pt in points])
    grads = np.stack([p1_basis(pt)[1] for pt in points])
    return vals, grads


def p2_tables(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized p2_basis: values (nq, 6) and reference gradients (nq, 6, 2)."""
    vals = np.stack([p2_basis(pt)[0] for pt in points])
    grads = np.stack([p2_basis(pt)[1] for pt in points])
    return vals, grads


@dataclass
class FeSpace:
    """Degree-of-freedom map of a Lagrange space on a triangulation.

    kind is one of "p1" (linear scalar), "p2" (quadratic scalar) or "p2vec"
    (quadratic 2D vector). Nodes are numbered vertices first, then edge
    midpoints in mesh edge order. A vector space is planar: component c of
    node k is dof c * N + k for N nodes, so coefficients read [u_x; u_y]
    (`linsolve.Planar`); `cell_dofs` and `boundary_dofs` go component by component.
    """

    kind: str
    mesh: Mesh
    ndofs: int
    ncomp: int
    cell_dofs: np.ndarray      # (nt, ncomp * nloc) global dof per component and basis slot
    boundary_dofs: np.ndarray
    dof_coords: np.ndarray     # (nodes, 2), the coordinates of each scalar node
    scalar_cell_dofs: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def build_space(mesh: Mesh, kind: str) -> FeSpace:
    if kind == "p1":
        scalar_dofs = mesh.triangles.copy()
        coords = mesh.vertices.copy()
        bdofs = mesh.boundary_vertices.copy()
    elif kind in ("p2", "p2vec"):
        nv = mesh.num_vertices
        # mesh edges are sorted by (low, high) vertex pair, so by low * nv + high
        edge_keys = mesh.edges[:, 0] * nv + mesh.edges[:, 1]
        tris = mesh.triangles
        a, b = tris, tris[:, [1, 2, 0]]  # local edges (0,1), (1,2), (2,0)
        keys = np.minimum(a, b) * nv + np.maximum(a, b)
        scalar_dofs = np.concatenate([tris, nv + np.searchsorted(edge_keys, keys)], axis=1)
        midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        coords = np.vstack([mesh.vertices, midpoints])
        bdofs = np.concatenate([mesh.boundary_vertices, nv + mesh.boundary_edges])
        bdofs = np.sort(bdofs)
    else:
        raise ValueError(f"unknown space kind {kind!r}")

    if kind == "p2vec":
        n = coords.shape[0]
        cell_dofs = np.concatenate([scalar_dofs, scalar_dofs + n], axis=1)
        bdofs = np.concatenate([bdofs, bdofs + n])
        ndofs, ncomp = 2 * n, 2
    else:
        cell_dofs = scalar_dofs
        ndofs, ncomp = coords.shape[0], 1

    return FeSpace(kind=kind, mesh=mesh, ndofs=ndofs, ncomp=ncomp,
                   cell_dofs=cell_dofs, boundary_dofs=bdofs,
                   dof_coords=coords, scalar_cell_dofs=scalar_dofs)


def interpolate(space: FeSpace, f) -> np.ndarray:
    """Nodal interpolant; f(x, y) must accept numpy arrays.

    Scalar spaces expect a scalar-valued f, vector spaces a pair
    (fx, fy). Exact for polynomials up to the space degree.
    """
    x, y = space.dof_coords.T
    if space.ncomp == 1:
        return np.asarray(f(x, y), dtype=float).copy()
    out = np.empty((2, x.size))
    out[0], out[1] = f(x, y)
    return out.ravel()


# ---------------------------------------------------------------------------
# transfers between nested spaces


def p1_to_p2(mesh: Mesh) -> sp.csr_matrix:
    """Exact embedding of P1 into scalar P2 on the same mesh: (P2 nodes, vertices).

    A vertex node takes 1 from its vertex, an edge node 1/2 from each end of
    its edge, in the node numbering of `build_space`.
    """
    nv, ne = mesh.num_vertices, mesh.num_edges
    rows = np.concatenate([np.arange(nv), nv + np.repeat(np.arange(ne), 2)])
    cols = np.concatenate([np.arange(nv), mesh.edges.ravel()])
    vals = np.concatenate([np.ones(nv), np.full(2 * ne, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(nv + ne, nv))


def coarser_grid(grid: tuple[int, int]) -> tuple[int, int]:
    """The grid with ceil(n/2) cells per side; nested in `grid` when both counts are even."""
    return (grid[0] + 1) // 2, (grid[1] + 1) // 2


def grid_interpolation(fine: tuple[int, int], coarse: tuple[int, int]) -> sp.csr_matrix:
    """P1 interpolation from one uniform grid of a rectangle to another.

    Both grids are numbered as `build_uniform_mesh` numbers its vertices, with
    the cells split along the same diagonal. Row k holds the barycentric
    weights of fine vertex k in the coarse triangle that contains it; the
    positions are exact ratios of integers, so nested vertices get the exact
    weights 1 and 1/2.
    """
    (nx, ny), (mx, my) = fine, coarse

    def cells(n_fine, n_coarse):
        # coarse cell of each fine grid line, and the offset in it, in [0, 1]
        k = np.arange(n_fine + 1) * n_coarse
        cell = np.minimum(k // n_fine, n_coarse - 1)
        return cell, (k - cell * n_fine) / n_fine

    (ci, fx), (cj, fy) = cells(nx, mx), cells(ny, my)
    ci, fx = np.tile(ci, ny + 1), np.tile(fx, ny + 1)
    cj, fy = np.repeat(cj, nx + 1), np.repeat(fy, nx + 1)
    v00 = cj * (mx + 1) + ci
    v11 = v00 + mx + 2
    lower = fx >= fy  # triangle (v00, v10, v11), else (v00, v11, v01)
    cols = np.stack([v00, v11, np.where(lower, v00 + 1, v00 + mx + 1)], axis=1)
    vals = np.stack([1.0 - np.maximum(fx, fy), np.minimum(fx, fy), np.abs(fx - fy)], axis=1)
    rows = np.repeat(np.arange(v00.shape[0]), 3)
    p = sp.csr_matrix((vals.ravel(), (rows, cols.ravel())),
                      shape=(v00.shape[0], (mx + 1) * (my + 1)))
    p.eliminate_zeros()
    return p
