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
    gref = tab["gref"].reshape(nloc, 2, 1, nq).transpose(3, 0, 2, 1)  # (nq, nloc, 1, 2)
    inv = tab["inv"][:, None, None]  # (nt, 1, 1, 2, 2)
    # C order: the set-up einsums follow their inputs' layout, and the matrices' last bits with it
    out = np.multiply(gref[..., 0], inv[..., 0, :], out=np.empty((inv.shape[0], nq, nloc, 2)))
    out += gref[..., 1] * inv[..., 1, :]
    return out


def _cell_dofs(space: FeSpace) -> np.ndarray:
    """Global dof of each (cell, component, local basis function): (nt, ncomp, nloc)."""
    dofs = space._cache.get("cell_dofs")
    if dofs is None:
        nt, nloc = space.scalar_cell_dofs.shape
        dofs = np.ascontiguousarray(
            space.cell_dofs.reshape(nt, nloc, space.ncomp).transpose(0, 2, 1))
        space._cache["cell_dofs"] = dofs
    return dofs


def _gather(space: FeSpace, coeffs: np.ndarray) -> np.ndarray:
    """Per-cell coefficient blocks as GEMM rows: (nt * ncomp, nloc)."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != space.ndofs:
        raise ValueError(f"coefficient length {coeffs.shape[0]} != ndofs {space.ndofs}")
    dofs = _cell_dofs(space)
    return coeffs[dofs].reshape(-1, dofs.shape[2])


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


def eval_scalar(space: FeSpace, coeffs: np.ndarray, degree: int = ASSEMBLY_DEGREE) -> np.ndarray:
    return _values(space, coeffs, _tables(space, degree))[:, 0]


def eval_scalar_grad(space: FeSpace, coeffs, degree: int = ASSEMBLY_DEGREE) -> np.ndarray:
    return _gradients(space, coeffs, _tables(space, degree))[:, 0].transpose(0, 2, 1)


def eval_vector(space: FeSpace, coeffs, degree: int = ASSEMBLY_DEGREE) -> np.ndarray:
    return _values(space, coeffs, _tables(space, degree)).transpose(0, 2, 1)


def eval_vector_grad(space: FeSpace, coeffs, degree: int = ASSEMBLY_DEGREE) -> np.ndarray:
    """Gradient tensor g[t, q, c, d] = d u_c / d x_d at quadrature points."""
    return _gradients(space, coeffs, _tables(space, degree)).transpose(0, 3, 1, 2)


def _load(space: FeSpace, tab: dict, integrand: np.ndarray) -> np.ndarray:
    """Entries (integrand, basis_i) from quadrature values (nt, nq) or (nt, ncomp, nq)."""
    wdet = tab["wdet"] if integrand.ndim == 2 else tab["wdet"][:, None]
    nq = tab["vals"].shape[0]
    cellwise = (wdet * integrand).reshape(-1, nq) @ tab["vals"]
    return np.bincount(_cell_dofs(space).ravel(), weights=cellwise.ravel(),
                       minlength=space.ndofs)


def _matrix_from_cells(space: FeSpace, elem: np.ndarray) -> sp.csr_matrix:
    dofs = space.scalar_cell_dofs
    nloc = dofs.shape[1]
    rows = np.repeat(dofs, nloc, axis=1).ravel()
    cols = np.tile(dofs, (1, nloc)).ravel()
    n = space.ndofs if space.ncomp == 1 else space.ndofs // 2
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _expand_vector(m_scalar: sp.csr_matrix) -> sp.csr_matrix:
    # interleaved (x, y) components share the scalar sparsity blockwise
    return sp.kron(m_scalar, sp.eye(2), format="csr")


# ---------------------------------------------------------------------------
# matrices


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    tab = _tables(space, ASSEMBLY_DEGREE)
    elem = np.einsum("tq,qi,qj->tij", tab["wdet"], tab["vals"], tab["vals"])
    m = _matrix_from_cells(space, elem)
    return _expand_vector(m) if space.ncomp == 2 else m


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    tab = _tables(space, ASSEMBLY_DEGREE)
    grads = _basis_gradients(tab)
    elem = np.einsum("tq,tqid,tqjd->tij", tab["wdet"], grads, grads)
    k = _matrix_from_cells(space, elem)
    return _expand_vector(k) if space.ncomp == 2 else k


def assemble_pressure_gradient(p2v: FeSpace, p1: FeSpace) -> sp.csr_matrix:
    """G[i, k] = (grad q_k, v_i) for pressure basis q_k, velocity basis v_i."""
    tab2 = _tables(p2v, ASSEMBLY_DEGREE)
    tab1 = _tables(p1, ASSEMBLY_DEGREE)
    # P1 gradients are constant per triangle
    gradp1 = _basis_gradients(tab1)[:, 0]  # (nt, 3, 2)
    intn2 = np.einsum("tq,qm->tm", tab2["wdet"], tab2["vals"])
    elem = np.einsum("tm,tkc->tmck", intn2, gradp1)  # (nt, 6, 2, 3)
    vdofs = np.stack([2 * p2v.scalar_cell_dofs, 2 * p2v.scalar_cell_dofs + 1], axis=-1)
    rows = np.repeat(vdofs.reshape(-1, 12), 3, axis=1).ravel()
    cols = np.tile(p1.scalar_cell_dofs, (1, 12)).ravel()
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p2v.ndofs, p1.ndofs)).tocsr()


def assemble_divergence(p1: FeSpace, p2v: FeSpace) -> sp.csr_matrix:
    """D[k, i] = (div v_i, q_k); div_load(u) is then D @ u."""
    tab2 = _tables(p2v, ASSEMBLY_DEGREE)
    tab1 = _tables(p1, ASSEMBLY_DEGREE)
    elem = np.einsum("tq,qk,tqmc->tkmc", tab2["wdet"], tab1["vals"], _basis_gradients(tab2))
    vdofs = np.stack([2 * p2v.scalar_cell_dofs, 2 * p2v.scalar_cell_dofs + 1], axis=-1)
    rows = np.repeat(p1.scalar_cell_dofs, 12, axis=1).ravel()
    cols = np.tile(vdofs.reshape(-1, 12), (1, 3)).ravel()
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p1.ndofs, p2v.ndofs)).tocsr()


@dataclass
class AssembledForms:
    """Time-independent operators shared by every step of a run."""

    m_p1: sp.csr_matrix
    k_p1: sp.csr_matrix
    m_v: sp.csr_matrix
    k_v: sp.csr_matrix
    grad_coupling: sp.csr_matrix  # (grad q_k, v_i)
    div_coupling: sp.csr_matrix   # (div v_i, q_k)
    lumped_p1: np.ndarray         # row sums of m_p1, i.e. (1, q_k)


def assemble_forms(p1: FeSpace, p2v: FeSpace) -> AssembledForms:
    m_p1 = assemble_mass(p1)
    return AssembledForms(
        m_p1=m_p1,
        k_p1=assemble_stiffness(p1),
        m_v=assemble_mass(p2v),
        k_v=assemble_stiffness(p2v),
        grad_coupling=assemble_pressure_gradient(p2v, p1),
        div_coupling=assemble_divergence(p1, p2v),
        lumped_p1=np.asarray(m_p1.sum(axis=1)).ravel(),
    )


# ---------------------------------------------------------------------------
# load vectors


def assemble_load(space: FeSpace, f, degree: int = ASSEMBLY_DEGREE) -> np.ndarray:
    """Entries (f, basis_i); f(x, y) vectorized, pair-valued for vector spaces."""
    tab = _tables(space, degree)
    shape = tab["x"].shape
    if space.ncomp == 1:
        return _load(space, tab, np.broadcast_to(f(tab["x"], tab["y"]), shape))
    fx, fy = f(tab["x"], tab["y"])
    return _load(space, tab, np.stack([np.broadcast_to(fx, shape),
                                       np.broadcast_to(fy, shape)], axis=1))


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
    n = a.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[dofs] = False
    coo = a.tocoo()
    m = keep[coo.row] & keep[coo.col]
    rows = np.concatenate([coo.row[m], dofs])
    cols = np.concatenate([coo.col[m], dofs])
    vals = np.concatenate([coo.data[m], np.ones(len(dofs))])
    return sp.csr_matrix((vals, (rows, cols)), shape=a.shape)


class DirichletOperator:
    """Symmetric elimination of constrained dofs, reusable across right-hand sides."""

    def __init__(self, a: sp.csr_matrix, dofs: np.ndarray):
        self.dofs = np.asarray(dofs, dtype=np.int64)
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


def apply_dirichlet(matrix: sp.csr_matrix, rhs: np.ndarray, dofs, values):
    """One-shot symmetric elimination; see DirichletOperator for the reusable form."""
    dofs = np.asarray(dofs, dtype=np.int64)
    values = np.broadcast_to(np.asarray(values, dtype=float), dofs.shape)
    op = DirichletOperator(matrix, dofs)
    return op.matrix, op.prepare_rhs(rhs, values)


# ---------------------------------------------------------------------------
# energies and norms


def free_energy_density(v: np.ndarray, eps: float, gamma: float) -> np.ndarray:
    return (v ** 2 - 1.0) ** 2 / (4.0 * eps ** 2) - 0.5 * gamma * v ** 2


def mixing_energy(p1: FeSpace, phi, eps: float, gamma: float) -> float:
    """Integral of the stabilized density F(phi_h); quartic, so exact at degree 5."""
    tab = _tables(p1, ASSEMBLY_DEGREE)
    phiq = eval_scalar(p1, phi)
    return float(np.sum(tab["wdet"] * free_energy_density(phiq, eps, gamma)))


def compute_discrete_energies(p1: FeSpace, m_v: sp.csr_matrix, phi, u, params) -> tuple[float, float]:
    """Shifted energies (E1 + C1, E2 + C2) whose square roots drive the scheme."""
    e1 = mixing_energy(p1, phi, params.eps, params.gamma) + params.c1
    e2 = 0.5 * float(u @ (m_v @ u)) + params.c2
    if e1 <= 0.0 or e2 <= 0.0:
        raise NonpositiveEnergyError(f"shifted energies must be positive, got {e1}, {e2}")
    return e1, e2


def l2_norm(space: FeSpace, coeffs, degree: int = NORM_DEGREE) -> float:
    tab = _tables(space, degree)
    if space.ncomp == 1:
        vq = eval_scalar(space, coeffs, degree)
        return float(np.sqrt(np.sum(tab["wdet"] * vq ** 2)))
    vq = eval_vector(space, coeffs, degree)
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(vq ** 2, axis=-1))))


def h1_seminorm(space: FeSpace, coeffs, degree: int = NORM_DEGREE) -> float:
    tab = _tables(space, degree)
    if space.ncomp == 1:
        g = eval_scalar_grad(space, coeffs, degree)
        return float(np.sqrt(np.sum(tab["wdet"] * np.sum(g ** 2, axis=-1))))
    g = eval_vector_grad(space, coeffs, degree)
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(g ** 2, axis=(-2, -1)))))


def l2_error(space: FeSpace, coeffs, exact=None, degree: int = NORM_DEGREE) -> float:
    """L2 distance between a finite element field and an analytic reference."""
    tab = _tables(space, degree)
    if space.ncomp == 1:
        diff = eval_scalar(space, coeffs, degree)
        if exact is not None:
            diff = diff - exact(tab["x"], tab["y"])
        return float(np.sqrt(np.sum(tab["wdet"] * diff ** 2)))
    diff = eval_vector(space, coeffs, degree)
    if exact is not None:
        ex, ey = exact(tab["x"], tab["y"])
        diff = diff - np.stack([np.broadcast_to(ex, tab["x"].shape),
                                np.broadcast_to(ey, tab["x"].shape)], axis=-1)
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(diff ** 2, axis=-1))))


def h1_seminorm_error(space: FeSpace, coeffs, exact_grad=None, degree: int = NORM_DEGREE) -> float:
    tab = _tables(space, degree)
    if space.ncomp == 1:
        diff = eval_scalar_grad(space, coeffs, degree)
        if exact_grad is not None:
            gx, gy = exact_grad(tab["x"], tab["y"])
            diff = diff - np.stack([np.broadcast_to(gx, tab["x"].shape),
                                    np.broadcast_to(gy, tab["x"].shape)], axis=-1)
        return float(np.sqrt(np.sum(tab["wdet"] * np.sum(diff ** 2, axis=-1))))
    diff = eval_vector_grad(space, coeffs, degree)
    if exact_grad is not None:
        g = exact_grad(tab["x"], tab["y"])  # nested [c][d] of arrays
        ref = np.empty_like(diff)
        for c in range(2):
            for d in range(2):
                ref[..., c, d] = g[c][d]
        diff = diff - ref
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(diff ** 2, axis=(-2, -1)))))


def h1_error(space: FeSpace, coeffs, exact=None, exact_grad=None,
             degree: int = NORM_DEGREE) -> float:
    a = l2_error(space, coeffs, exact, degree)
    b = h1_seminorm_error(space, coeffs, exact_grad, degree)
    return float(np.sqrt(a * a + b * b))
