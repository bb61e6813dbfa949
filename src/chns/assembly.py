"""Galerkin matrices, load vectors, boundary conditions, norms, and energies.

All assembly is vectorized over triangles. The per-step field evaluations
and load vectors are BLAS matrix products on reference tables computed once
per space and quadrature rule. Their rounding depends on the BLAS kernel, so
assembled objects are bit-reproducible for a given mesh, numpy/BLAS build,
machine and BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import ASSEMBLY_DEGREE, NORM_DEGREE, FeSpace, p1_tables, p2_tables, triangle_quadrature
from .linsolve import Planar
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
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        geom = {"jac": jac, "inv": inv, "det": det, "origin": p[:, 0]}
        mesh._cache["geometry"] = geom
    return geom


def _points(mesh: Mesh, rule) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points (x, y), each (nt, nq), shared by every space on the mesh.

    The arrays are read-only, so `mms` may key its cached trigonometric
    factors on them.
    """
    key = ("points", rule.exactness_degree)
    xy = mesh._cache.get(key)
    if xy is None:
        geom = _geometry(mesh)
        pts = geom["origin"][:, None, :] + np.einsum("tcd,qd->tqc", geom["jac"], rule.points[:, 1:])
        xy = tuple(np.ascontiguousarray(pts[..., c]) for c in range(2))
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
            "rule": rule,
            "wdet": rule.weights[None, :] * geom["det"][:, None],  # (nt, nq)
            "x": x,
            "y": y,
            "vals": vals,       # (nq, nloc)
            # reference gradients as one GEMM operand: column d * nq + q
            "gref": np.ascontiguousarray(gref.transpose(1, 2, 0).reshape(nloc, 2 * nq)),
            "inv": geom["inv"],  # (nt, 2, 2) inverse Jacobians
        }
        space._cache[key] = tab
    return tab


def _basis_gradients(tab: dict) -> np.ndarray:
    """Physical basis gradients grad_i = J^{-T} gref_i at every point: (nt, nq, nloc, 2).

    Made on demand for the set-up matrices and not kept: the time loop never
    reads them, and at nx=64 the P2 array alone holds 5.5 MB.
    """
    nloc, nq = tab["gref"].shape[0], tab["vals"].shape[0]
    gref = tab["gref"].reshape(nloc, 2, nq).transpose(1, 2, 0).reshape(2, nq * nloc)  # [d, (q, i)]
    inv = tab["inv"]  # (nt, 2, 2)
    nt = inv.shape[0]
    # C order: the set-up einsums follow their inputs' layout, and the matrices' last bits with it
    out = np.empty((nt, nq, nloc, 2))
    for e in range(2):
        # one outer product per term keeps the inner loops long
        comp = np.multiply.outer(inv[:, 0, e], gref[0])
        comp += np.multiply.outer(inv[:, 1, e], gref[1])
        out[..., e] = comp.reshape(nt, nq, nloc)
    return out


def _gather(space: FeSpace, coeffs: np.ndarray) -> np.ndarray:
    """Per-cell coefficient blocks as GEMM rows: (nt * ncomp, nloc)."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != space.ndofs:
        raise ValueError(f"coefficient length {coeffs.shape[0]} != ndofs {space.ndofs}")
    return coeffs[space.cell_dofs].reshape(-1, space.scalar_cell_dofs.shape[1])


def _values(space: FeSpace, coeffs, tab: dict) -> np.ndarray:
    """Field values at the quadrature points, component-major: (nt, ncomp, nq)."""
    nq = tab["vals"].shape[0]
    return (_gather(space, coeffs) @ tab["vals"].T).reshape(-1, space.ncomp, nq)


def _gradients(space: FeSpace, coeffs, tab: dict) -> np.ndarray:
    """Field gradients at the quadrature points: g[t, c, d, q] = d u_c / d x_d."""
    nq = tab["vals"].shape[0]
    gref = (_gather(space, coeffs) @ tab["gref"]).reshape(-1, space.ncomp, 2, 1, nq)
    inv = tab["inv"][:, None, :, :, None]  # (nt, 1, 2, 2, 1)
    return gref[:, :, 0] * inv[:, :, 0] + gref[:, :, 1] * inv[:, :, 1]


def _at_points(f, tab: dict, ncomp: int) -> np.ndarray:
    """Analytic f(x, y) at the table's quadrature points, component-major: (nt, ncomp, nq).

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
    """Entries (integrand, basis_i) from quadrature values (nt, nq) or (nt, ncomp, nq)."""
    wdet = tab["wdet"] if integrand.ndim == 2 else tab["wdet"][:, None]
    nq = tab["vals"].shape[0]
    cellwise = (wdet * integrand).reshape(-1, nq) @ tab["vals"]
    return np.bincount(space.cell_dofs.ravel(), weights=cellwise.ravel(),
                       minlength=space.ndofs)


def _matrix_from_cells(space: FeSpace, elem: np.ndarray) -> sp.csr_matrix:
    dofs = space.scalar_cell_dofs
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    n = space.dof_coords.shape[0]  # scalar nodes
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# matrices


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """The mass matrix of the space's scalar basis; a vector space's components share it."""
    tab = _tables(space, ASSEMBLY_DEGREE)
    elem = np.einsum("tq,qi,qj->tij", tab["wdet"], tab["vals"], tab["vals"])
    return _matrix_from_cells(space, elem)


def _stiffness(space: FeSpace, grads: np.ndarray) -> sp.csr_matrix:
    tab = _tables(space, ASSEMBLY_DEGREE)
    elem = np.einsum("tq,tqid,tqjd->tij", tab["wdet"], grads, grads)
    return _matrix_from_cells(space, elem)


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """The stiffness matrix of the space's scalar basis, as `assemble_mass`."""
    return _stiffness(space, _basis_gradients(_tables(space, ASSEMBLY_DEGREE)))


def _pressure_gradient(p2v: FeSpace, p1: FeSpace, grads1: np.ndarray) -> sp.csr_matrix:
    """G[i, k] = (grad q_k, v_i) for pressure basis q_k, velocity basis v_i."""
    tab2 = _tables(p2v, ASSEMBLY_DEGREE)
    # P1 gradients are constant per triangle
    gradp1 = grads1[:, 0]  # (nt, 3, 2)
    intn2 = np.einsum("tq,qm->tm", tab2["wdet"], tab2["vals"])
    elem = np.einsum("tm,tkc->tcmk", intn2, gradp1)  # (nt, 2, 6, 3), rows as in cell_dofs
    rows = np.repeat(p2v.cell_dofs, 3, axis=1).ravel()
    cols = np.tile(p1.scalar_cell_dofs, (1, 12)).ravel()
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p2v.ndofs, p1.ndofs)).tocsr()


def _divergence(p1: FeSpace, p2v: FeSpace, grads2: np.ndarray) -> sp.csr_matrix:
    """D[k, i] = (div v_i, q_k); div_load(u) is then D @ u."""
    tab2 = _tables(p2v, ASSEMBLY_DEGREE)
    tab1 = _tables(p1, ASSEMBLY_DEGREE)
    elem = np.einsum("tq,qk,tqmc->tkcm", tab2["wdet"], tab1["vals"], grads2)  # (nt, 3, 2, 6)
    rows = np.repeat(p1.scalar_cell_dofs, 12, axis=1).ravel()
    cols = np.tile(p2v.cell_dofs, (1, 3)).ravel()
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p1.ndofs, p2v.ndofs)).tocsr()


@dataclass
class AssembledForms:
    """Time-independent operators shared by every step of a run."""

    m_p1: sp.csr_matrix
    k_p1: sp.csr_matrix
    m_p2: sp.csr_matrix           # scalar P2 mass, each velocity component's block
    k_p2: sp.csr_matrix           # scalar P2 stiffness, likewise
    grad_coupling: sp.csr_matrix  # (grad q_k, v_i)
    div_coupling: sp.csr_matrix   # (div v_i, q_k)
    lumped_p1: np.ndarray         # row sums of m_p1, i.e. (1, q_k)


def assemble_forms(p1: FeSpace, p2v: FeSpace) -> AssembledForms:
    # each space's basis gradients serve its two matrices, then are dropped
    grads1 = _basis_gradients(_tables(p1, ASSEMBLY_DEGREE))
    k_p1 = _stiffness(p1, grads1)
    grad_coupling = _pressure_gradient(p2v, p1, grads1)
    del grads1
    grads2 = _basis_gradients(_tables(p2v, ASSEMBLY_DEGREE))
    k_p2 = _stiffness(p2v, grads2)
    div_coupling = _divergence(p1, p2v, grads2)
    del grads2
    m_p1 = assemble_mass(p1)
    return AssembledForms(
        m_p1=m_p1,
        k_p1=k_p1,
        m_p2=assemble_mass(p2v),
        k_p2=k_p2,
        grad_coupling=grad_coupling,
        div_coupling=div_coupling,
        lumped_p1=np.asarray(m_p1.sum(axis=1)).ravel(),
    )


# ---------------------------------------------------------------------------
# load vectors


def assemble_load(space: FeSpace, f, degree: int = ASSEMBLY_DEGREE) -> np.ndarray:
    """Entries (f, basis_i); f(x, y) vectorized, pair-valued for vector spaces."""
    tab = _tables(space, degree)
    return _load(space, tab, _at_points(f, tab, space.ncomp))


def convective_load_scalar(p2v: FeSpace, p1: FeSpace, u, phi) -> np.ndarray:
    """Entries (u_h . grad phi_h, w_i) against the scalar basis."""
    if np.asarray(u).shape[0] != p2v.ndofs or np.asarray(phi).shape[0] != p1.ndofs:
        raise ValueError("coefficient lengths do not match the spaces")
    tab1 = _tables(p1, ASSEMBLY_DEGREE)
    uq = _values(p2v, u, _tables(p2v, ASSEMBLY_DEGREE))
    gphi = _gradients(p1, phi, tab1)[:, 0]
    integrand = uq[:, 0] * gphi[:, 0] + uq[:, 1] * gphi[:, 1]
    return _load(p1, tab1, integrand)


def convective_load_vector(p2v: FeSpace, u) -> np.ndarray:
    """Entries ((u_h . grad) u_h, v_i) against the vector basis."""
    tab = _tables(p2v, ASSEMBLY_DEGREE)
    uq = _values(p2v, u, tab)
    gu = _gradients(p2v, u, tab)
    integrand = uq[:, None, 0] * gu[:, :, 0] + uq[:, None, 1] * gu[:, :, 1]
    return _load(p2v, tab, integrand)


def mu_grad_phi_load(p2v: FeSpace, p1: FeSpace, mu, phi) -> np.ndarray:
    """Entries (mu_h grad phi_h, v_i), the capillary force against the vector basis."""
    tab1 = _tables(p1, ASSEMBLY_DEGREE)
    muq = _values(p1, mu, tab1)
    gphi = _gradients(p1, phi, tab1)[:, 0]
    return _load(p2v, _tables(p2v, ASSEMBLY_DEGREE), muq * gphi)


def fprime(v: np.ndarray, eps: float, gamma: float) -> np.ndarray:
    """Derivative of the stabilized free-energy density F = G - (gamma/2) v^2."""
    # v * v * v, not v ** 3: numpy sends a cube to pow(), ten times slower
    return (v * v * v - v) / eps ** 2 - gamma * v


def fprime_load(p1: FeSpace, phi, eps: float, gamma: float) -> np.ndarray:
    """Entries (F'(phi_h), w_i), evaluating phi_h pointwise at quadrature nodes."""
    tab = _tables(p1, ASSEMBLY_DEGREE)
    return _load(p1, tab, fprime(_values(p1, phi, tab)[:, 0], eps, gamma))


def grad_p_load(forms: AssembledForms, p: np.ndarray) -> np.ndarray:
    """Entries (grad p_h, v_i)."""
    return forms.grad_coupling @ p


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
    """Symmetric elimination of constrained dofs, reusable across right-hand sides; a
    `Planar` operator, constrained alike in both components, is eliminated in its block."""

    def __init__(self, a, dofs: np.ndarray):
        self.dofs = np.asarray(dofs, dtype=np.int64)
        if isinstance(a, Planar):
            nodes = self.dofs[:self.dofs.size // 2]
            self.matrix = Planar(_eliminated_matrix(a.block, nodes))
            self._columns = Planar(a.block[:, nodes].tocsr())
        else:
            self.matrix = _eliminated_matrix(a, self.dofs)
            self._columns = a[:, self.dofs].tocsr()

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


def mixing_energy(p1: FeSpace, phi, eps: float, gamma: float) -> float:
    """Integral of the stabilized density F(phi_h); quartic, so exact at degree 5."""
    tab = _tables(p1, ASSEMBLY_DEGREE)
    phiq = _values(p1, phi, tab)[:, 0]
    return float(np.sum(tab["wdet"] * free_energy_density(phiq, eps, gamma)))


def compute_discrete_energies(p1: FeSpace, m_v: Planar, phi, u, params) -> tuple[float, float]:
    """Shifted energies (E1 + C1, E2 + C2) whose square roots drive the scheme."""
    e1 = mixing_energy(p1, phi, params.eps, params.gamma) + params.c1
    e2 = 0.5 * float(u @ (m_v @ u)) + params.c2
    if not (e1 > 0.0 and e2 > 0.0):  # a NaN fails too
        raise NonpositiveEnergyError(f"shifted energies must be positive, got {e1}, {e2}")
    return e1, e2


def _norm(tab: dict, q: np.ndarray) -> float:
    """L2 norm of a field given at the table's quadrature points: (nt, ncomp, nq)."""
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(q ** 2, axis=1))))


def l2_error(space: FeSpace, coeffs, exact=None, degree: int = NORM_DEGREE) -> float:
    """L2 distance between a finite element field and an analytic reference.

    Without a reference it is the field's L2 norm.
    """
    tab = _tables(space, degree)
    diff = _values(space, coeffs, tab)
    if exact is not None:
        diff = diff - _at_points(exact, tab, space.ncomp)
    return _norm(tab, diff)


def h1_seminorm_error(space: FeSpace, coeffs, exact_grad=None, degree: int = NORM_DEGREE) -> float:
    """L2 distance between a field's gradient and an analytic one ([c][d] for vector fields)."""
    tab = _tables(space, degree)
    ncomp = 2 * space.ncomp
    diff = _gradients(space, coeffs, tab).reshape(-1, ncomp, tab["vals"].shape[0])
    if exact_grad is not None:
        diff = diff - _at_points(exact_grad, tab, ncomp)
    return _norm(tab, diff)


def h1_error(space: FeSpace, coeffs, exact=None, exact_grad=None,
             degree: int = NORM_DEGREE) -> float:
    a = l2_error(space, coeffs, exact, degree)
    b = h1_seminorm_error(space, coeffs, exact_grad, degree)
    return float(np.sqrt(a * a + b * b))
