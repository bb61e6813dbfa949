"""Galerkin matrices, load vectors, boundary conditions, norms, and energies.

All assembly is vectorized over triangles. On an affine triangle T every
constant matrix is a geometric factor times an integral over the reference
triangle, taken once per basis by the degree-5 rule: the mass det_T M_ref,
the stiffness sum_ab C_T[a, b] S_ab with C_T = det_T inv_T inv_T^T, and the
divergence det_T inv_T^T R. The per-step field evaluations (`evaluate`) and
load vectors are BLAS matrix products on reference tables computed once per
space and quadrature rule. Quadrature arrays put the cell last: values
(nq, ncomp, nt), gradients (ncomp, 2, nq, nt), so every elementwise step runs
over the cells. Their rounding depends on the BLAS kernel, so assembled
objects are bit-reproducible for a given mesh, numpy/BLAS build, machine and
BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .fem import ASSEMBLY_DEGREE, NORM_DEGREE, FeSpace, p1_tables, p2_tables, triangle_quadrature
from .linsolve import Planar, _kernel
from .mesh import Mesh


class NonpositiveEnergyError(RuntimeError):
    """Raised when a shifted energy that must stay positive is not."""


# ---------------------------------------------------------------------------
# geometry and basis caches


def _geometry(mesh: Mesh) -> dict:
    geom = mesh._cache.get("geometry")
    if geom is None:
        p = mesh.vertices[mesh.triangles]
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (nt, 2, 2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.stack([[jac[:, 1, 1], -jac[:, 0, 1]],
                        [-jac[:, 1, 0], jac[:, 0, 0]]]) / det  # (2, 2, nt)
        geom = {"jac": jac, "inv": inv, "det": det, "origin": p[:, 0]}
        mesh._cache["geometry"] = geom
    return geom


def _points(mesh: Mesh, rule) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points (x, y), each (nq, nt), shared by every space on the mesh.

    The arrays are read-only and own their data, so a manufactured case of
    `mms` keeps its trigonometric factors of them for as long as it lives.
    """
    key = ("points", rule.exactness_degree)
    xy = mesh._cache.get(key)
    if xy is None:
        geom = _geometry(mesh)
        jac, ref = geom["jac"], rule.points[:, 1:, None]
        xy = tuple(geom["origin"][:, c] + (jac[:, c, 0] * ref[:, 0] + jac[:, c, 1] * ref[:, 1])
                   for c in range(2))
        for a in xy:
            a.setflags(write=False)
        mesh._cache[key] = xy
    return xy


def _tables(space: FeSpace, degree: int) -> dict:
    """Per-(space, rule) quadrature tables: weights, physical points, basis data."""
    key = ("tables", degree)
    tab = space._cache.get(key)
    if tab is None:
        rule = triangle_quadrature(degree)
        geom = _geometry(space.mesh)
        if space.kind == "p1":
            vals, gref = p1_tables(rule.points)
        else:
            vals, gref = p2_tables(rule.points)
        x, y = _points(space.mesh, rule)
        nq, nloc = vals.shape
        tab = {
            "wdet": rule.weights[:, None] * geom["det"],  # (nq, nt)
            "x": x,
            "y": y,
            "vals": vals,       # (nq, nloc)
            # reference derivatives as one GEMM operand: row a * nq + q is d/dxi_a at point q
            "gref": np.ascontiguousarray(gref.transpose(2, 0, 1).reshape(2 * nq, nloc)),
            "inv": geom["inv"],  # inv[a, d, t], the inverse Jacobians
        }
        space._cache[key] = tab
    return tab


def evaluate(space: FeSpace, coeffs, gradient: bool = True,
             degree: int = ASSEMBLY_DEGREE) -> tuple[np.ndarray, np.ndarray | None]:
    """A field at the rule's quadrature points: its values (nq, ncomp, nt) and, if
    `gradient`, its gradients g[c, d, q, t] = d u_c / d x_d (ncomp, 2, nq, nt), else None.

    One gather, the per-cell coefficients as GEMM columns (nloc, ncomp * nt),
    serves both GEMMs. The cell index runs last, so each elementwise step
    runs its inner loop over the cells.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != space.ndofs:
        raise ValueError(f"coefficient length {coeffs.shape[0]} != ndofs {space.ndofs}")
    tab = _tables(space, degree)
    (nq, nloc), ncomp = tab["vals"].shape, space.ncomp
    cells = coeffs[space.cell_dofs.reshape(-1, ncomp, nloc).transpose(2, 1, 0)].reshape(nloc, -1)
    values = (tab["vals"] @ cells).reshape(nq, ncomp, -1)
    if not gradient:
        return values, None
    ref = (tab["gref"] @ cells).reshape(2, nq, ncomp, -1)  # ref[a, q, c] = d u_c / d xi_a
    del cells
    grads = np.empty((ncomp, 2) + values.shape[::2])
    for d, (inv0, inv1) in enumerate(zip(*tab["inv"])):
        g = grads[:, d].swapaxes(0, 1)  # d u_c / d x_d as (nq, ncomp, nt)
        np.multiply(ref[0], inv0, out=g)
        g += ref[1] * inv1
    return values, grads


def _at_points(f, tab: dict, ncomp: int) -> np.ndarray:
    """Analytic f(x, y) at the table's quadrature points, component-major: (nq, ncomp, nt).

    f is vectorized. For ncomp > 1 it returns its ncomp components in order,
    as one sequence or as the rows of a matrix (the gradient [c][d] of a
    vector field). A constant component is broadcast.
    """
    vals = f(tab["x"], tab["y"])
    if ncomp == 1:
        vals = (vals,)
    elif isinstance(vals[0], (tuple, list)):
        vals = [v for row in vals for v in row]
    return np.stack([np.broadcast_to(v, tab["x"].shape) for v in vals], axis=1)


def _load(space: FeSpace, tab: dict, integrand: np.ndarray) -> np.ndarray:
    """Entries (integrand, basis_i) from quadrature values (nq, nt) or (nq, ncomp, nt),
    summed in (cell, component, basis) order: the order that sets their last bits."""
    wdet = tab["wdet"] if integrand.ndim == 2 else tab["wdet"][:, None]
    nq, nloc = tab["vals"].shape
    weighted = np.multiply(wdet, integrand, order="C").reshape(nq, -1)
    cellwise = (weighted.T @ tab["vals"]).reshape(space.ncomp, -1, nloc).transpose(1, 0, 2)
    return np.bincount(space.cell_dofs.ravel(), weights=cellwise.ravel(),
                       minlength=space.ndofs)


def _coo_index(dofs: np.ndarray) -> np.ndarray:
    """`dofs` as scipy indexes the matrices here; int64 would cost a checked downcast."""
    return dofs.astype(np.int32)


def _summed(data: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_matrix:
    """CSR sum of COO entries, listed in the order that sets the sums' last bits.

    Sums that come out exactly 0.0 are dropped: they add nothing to a product.
    """
    out = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    out.eliminate_zeros()
    return out


def _matrix_from_cells(space: FeSpace, elem: np.ndarray) -> sp.csr_matrix:
    dofs = _coo_index(space.scalar_cell_dofs)
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    n = space.dof_coords.shape[0]  # scalar nodes
    return _summed(elem.ravel(), rows, cols, (n, n))


# ---------------------------------------------------------------------------
# matrices


@cache
def _reference_integrals(kind: str) -> dict:
    """Integrals over the reference triangle of basis products, by the degree-5 rule.

    For the scalar basis phi of a space of `kind`, with nloc functions:
    - mass[i, j] = sum_q w_q phi_i phi_j;
    - stiffness[2 a + b, i * nloc + j] = sum_q w_q d_a phi_i d_b phi_j;
    - for P2, divergence[d, k * 6 + m] = sum_q w_q psi_k d_d phi_m, psi the P1 basis.
    The arrays are read-only: every mesh shares them.
    """
    rule = triangle_quadrature(ASSEMBLY_DEGREE)
    w = rule.weights

    def integral(a, b):  # sum_q w_q a[q, i] b[q, j], point by point in the rule's order
        return ((w[:, None] * a)[:, :, None] * b[:, None, :]).sum(axis=0)

    vals, gref = (p1_tables if kind == "p1" else p2_tables)(rule.points)
    nq, nloc = vals.shape
    g = gref.transpose(0, 2, 1).reshape(nq, 2 * nloc)  # [q, (a, i)]
    ints = {
        "mass": integral(vals, vals),
        "stiffness": integral(g, g).reshape(2, nloc, 2, nloc).transpose(0, 2, 1, 3)
                                   .reshape(4, nloc * nloc),
    }
    if kind != "p1":
        psi = p1_tables(rule.points)[0]
        ints["divergence"] = integral(psi, g).reshape(3, 2, nloc).transpose(1, 0, 2) \
                                             .reshape(2, 3 * nloc)
    for a in ints.values():
        a.setflags(write=False)
    return ints


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """The mass matrix of the space's scalar basis; a vector space's components share it.

    On an affine triangle T it is det_T times the reference mass matrix.
    """
    ref = _reference_integrals(space.kind)["mass"]
    elem = _geometry(space.mesh)["det"][:, None] * ref.ravel()
    return _matrix_from_cells(space, elem)


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """The stiffness matrix of the space's scalar basis, as `assemble_mass`.

    A physical gradient is inv_T^T times the reference one, so the element
    matrix is sum_ab C_T[a, b] stiffness_ab with C_T = det_T inv_T inv_T^T:
    one (nt, 4) @ (4, nloc^2) product.
    """
    geom = _geometry(space.mesh)
    inv = np.ascontiguousarray(geom["inv"].transpose(2, 0, 1))  # (nt, 2, 2)
    c = (inv @ inv.transpose(0, 2, 1)).reshape(-1, 4) * geom["det"][:, None]
    elem = c @ _reference_integrals(space.kind)["stiffness"]
    return _matrix_from_cells(space, elem)


def _divergence(p1: FeSpace, p2v: FeSpace) -> sp.csr_matrix:
    """D[k, i] = (div v_i, q_k); div_load(u) is then D @ u.

    d_c v_m is sum_a inv_T[a, c] d_a phi_m, so the element block [c, k, m] is
    det_T inv_T^T @ divergence: one (2 nt, 2) @ (2, 18) product.
    """
    geom = _geometry(p1.mesh)
    nt = geom["det"].shape[0]
    b = (geom["det"] * geom["inv"]).transpose(2, 1, 0).reshape(2 * nt, 2)
    elem = (b @ _reference_integrals(p2v.kind)["divergence"]).reshape(nt, 2, 3, 6)
    # listed (t, k, c, m): component-major within a cell, as cell_dofs numbers them
    rows = np.repeat(_coo_index(p1.scalar_cell_dofs), 12, axis=1).ravel()
    cols = np.tile(_coo_index(p2v.cell_dofs), (1, 3)).ravel()
    return _summed(elem.transpose(0, 2, 1, 3).ravel(), rows, cols, (p1.ndofs, p2v.ndofs))


@dataclass
class AssembledForms:
    """Time-independent operators shared by every step of a run.

    Each matrix is the COO sum of its element matrices, made from the
    reference integrals, without the sums that come out exactly 0.0. It
    matches the point-by-point quadrature sum to within 1e-15 of its largest
    entry. Where det_T is a power of two, as on the uniform grids of the unit
    square with 2^k cells a side, m_p1, k_p1 and m_p2 equal that sum byte
    for byte; k_p2 and D differ in their last bits.

    The pressure gradient is -D^T (`grad_p_load`): its boundary rows hold
    -(q_k, div v_i), not (grad q_k, v_i), and every consumer overwrites them.
    """

    m_p1: sp.csr_matrix
    k_p1: sp.csr_matrix
    m_p2: sp.csr_matrix           # scalar P2 mass, each velocity component's block
    k_p2: sp.csr_matrix           # scalar P2 stiffness, likewise
    div_coupling: sp.csr_matrix   # D[k, i] = (div v_i, q_k)
    lumped_p1: np.ndarray         # row sums of m_p1, i.e. (1, q_k)

    @cached_property
    def m_v(self) -> Planar:  # m_p2 on both components of a planar velocity
        return Planar(self.m_p2)

    @cached_property
    def k_v(self) -> Planar:  # k_p2 likewise
        return Planar(self.k_p2)

    @cached_property
    def _div_transpose(self):
        """p -> D^T p: the CSC kernel on D's transpose view, which copies no data."""
        return _kernel(self.div_coupling.T)


def assemble_forms(p1: FeSpace, p2v: FeSpace) -> AssembledForms:
    m_p1 = assemble_mass(p1)
    return AssembledForms(
        m_p1=m_p1,
        k_p1=assemble_stiffness(p1),
        m_p2=assemble_mass(p2v),
        k_p2=assemble_stiffness(p2v),
        div_coupling=_divergence(p1, p2v),
        lumped_p1=np.asarray(m_p1.sum(axis=1)).ravel(),
    )


# ---------------------------------------------------------------------------
# load vectors


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Entries (f, basis_i); f(x, y) vectorized, pair-valued for vector spaces."""
    tab = _tables(space, ASSEMBLY_DEGREE)
    return _load(space, tab, _at_points(f, tab, space.ncomp))


def convective_load_scalar(p1: FeSpace, uq: np.ndarray, gphi: np.ndarray) -> np.ndarray:
    """Entries (u_h . grad phi_h, w_i) against the scalar basis, from u_h's values and
    phi_h's gradients at the quadrature points (`evaluate`)."""
    return _load(p1, _tables(p1, ASSEMBLY_DEGREE), uq[:, 0] * gphi[0, 0] + uq[:, 1] * gphi[0, 1])


def convective_load_vector(p2v: FeSpace, uq: np.ndarray, gu: np.ndarray) -> np.ndarray:
    """Entries ((u_h . grad) u_h, v_i) against the vector basis, from u_h's values and
    gradients at the quadrature points."""
    # integrand[q, c] = sum_d u_d d_d u_c
    integrand = uq[:, None, 0] * gu[:, 0].swapaxes(0, 1) + uq[:, None, 1] * gu[:, 1].swapaxes(0, 1)
    return _load(p2v, _tables(p2v, ASSEMBLY_DEGREE), integrand)


def mu_grad_phi_load(p2v: FeSpace, muq: np.ndarray, gphi: np.ndarray) -> np.ndarray:
    """Entries (mu_h grad phi_h, v_i), the capillary force against the vector basis,
    from mu_h's values and phi_h's gradients at the quadrature points."""
    return _load(p2v, _tables(p2v, ASSEMBLY_DEGREE), muq * gphi[0].swapaxes(0, 1))


def fprime(v: np.ndarray, eps: float, gamma: float) -> np.ndarray:
    """Derivative of the stabilized free-energy density F = G - (gamma/2) v^2."""
    # v * v * v, not v ** 3: numpy sends a cube to pow(), ten times slower
    return (v * v * v - v) / eps ** 2 - gamma * v


def fprime_load(p1: FeSpace, phiq: np.ndarray, eps: float, gamma: float) -> np.ndarray:
    """Entries (F'(phi_h), w_i) from phi_h's values at the quadrature points."""
    return _load(p1, _tables(p1, ASSEMBLY_DEGREE), fprime(phiq[:, 0], eps, gamma))


def grad_p_load(forms: AssembledForms, p: np.ndarray) -> np.ndarray:
    """Entries (grad p_h, v_i) as -D^T p = -(p_h, div v_i), the same for every v_i
    that vanishes on the boundary. A boundary row holds -(p_h, div v_i): every
    consumer overwrites it (the Dirichlet elimination) or skips it (the residuals).
    """
    out = forms._div_transpose(np.ascontiguousarray(p, dtype=float))
    return np.negative(out, out=out)


def div_load(forms: AssembledForms, u: np.ndarray) -> np.ndarray:
    """Entries (div u_h, q_k)."""
    return forms.div_coupling @ u


# ---------------------------------------------------------------------------
# Dirichlet conditions


def _eliminated_matrix(a: sp.csr_matrix, dofs: np.ndarray) -> sp.csr_matrix:
    """`a` without the rows and columns of the (distinct) `dofs`, plus a unit diagonal there."""
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    n = a.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[dofs] = False
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    m = keep[row] & keep[a.indices]
    # an eliminated row keeps no entry of `a`, only its unit diagonal
    row_nnz = np.bincount(row[m], minlength=n)
    row_nnz[dofs] = 1
    indptr = np.zeros(n + 1, dtype=a.indptr.dtype)
    np.cumsum(row_nnz, out=indptr[1:])
    unit = indptr[dofs]
    rest = np.ones(indptr[-1], dtype=bool)
    rest[unit] = False
    indices = np.empty(indptr[-1], dtype=a.indices.dtype)
    indices[unit] = dofs
    indices[rest] = a.indices[m]
    data = np.empty(indptr[-1], dtype=np.result_type(a.dtype, np.float64))
    data[unit] = 1.0
    data[rest] = a.data[m]
    return sp.csr_matrix((data, indices, indptr), shape=a.shape)


class DirichletOperator:
    """Symmetric elimination of a `Planar` operator's constrained dofs, alike in both
    components and so made in its block; reusable across right-hand sides."""

    def __init__(self, a: Planar, dofs: np.ndarray):
        self.dofs = np.asarray(dofs, dtype=np.int64)
        nodes = self.dofs[:self.dofs.size // 2]
        self.matrix = Planar(_eliminated_matrix(a.block, nodes))
        self._columns = Planar(a.block[:, nodes].tocsr())

    def prepare_rhs(self, b: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        out = np.array(b, dtype=float, copy=True)
        if values is None:
            out[self.dofs] = 0.0
        else:
            out -= self._columns @ values
            out[self.dofs] = values
        return out


# ---------------------------------------------------------------------------
# energies and norms


def free_energy_density(v: np.ndarray, eps: float, gamma: float) -> np.ndarray:
    return (v ** 2 - 1.0) ** 2 / (4.0 * eps ** 2) - 0.5 * gamma * v ** 2


def compute_discrete_energies(p1: FeSpace, phiq: np.ndarray, u: np.ndarray, m_u: np.ndarray,
                              params) -> tuple[float, float]:
    """Shifted energies (E1 + C1, E2 + C2) whose square roots drive the scheme, from phi_h
    at the quadrature points (E1 integrates the quartic F(phi_h) exactly) and m_u = M u."""
    f = free_energy_density(phiq[:, 0], params.eps, params.gamma)
    e1 = float(np.sum(_tables(p1, ASSEMBLY_DEGREE)["wdet"] * f)) + params.c1
    e2 = 0.5 * float(u @ m_u) + params.c2
    if not (e1 > 0.0 and e2 > 0.0):  # a NaN fails too
        raise NonpositiveEnergyError(f"shifted energies must be positive, got {e1}, {e2}")
    return e1, e2


def _norm(tab: dict, q: np.ndarray) -> float:
    """L2 norm of a field given at the table's quadrature points: (nq, ncomp, nt)."""
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(q ** 2, axis=1))))


def l2_error(space: FeSpace, coeffs, exact=None) -> float:
    """L2 distance between a finite element field and an analytic reference.

    Without a reference it is the field's L2 norm.
    """
    tab = _tables(space, NORM_DEGREE)
    diff, _ = evaluate(space, coeffs, gradient=False, degree=NORM_DEGREE)
    if exact is not None:
        diff = diff - _at_points(exact, tab, space.ncomp)
    return _norm(tab, diff)


def h1_seminorm_error(space: FeSpace, coeffs, exact_grad=None) -> float:
    """L2 distance between a field's gradient and an analytic one ([c][d] for vector fields)."""
    tab = _tables(space, NORM_DEGREE)
    ncomp = 2 * space.ncomp
    _, grads = evaluate(space, coeffs, degree=NORM_DEGREE)
    diff = grads.reshape(ncomp, *tab["wdet"].shape).swapaxes(0, 1)  # (nq, [c][d], nt)
    if exact_grad is not None:
        diff = diff - _at_points(exact_grad, tab, ncomp)
    return _norm(tab, diff)


def h1_error(space: FeSpace, coeffs, exact=None, exact_grad=None) -> float:
    a = l2_error(space, coeffs, exact)
    b = h1_seminorm_error(space, coeffs, exact_grad)
    return float(np.sqrt(a * a + b * b))
