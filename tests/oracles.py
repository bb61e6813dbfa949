"""Independent reference computations the tests check the solver against."""

import numpy as np
import scipy.sparse as sp

from chns import assembly as asm
from chns.fem import FeSpace
from chns.linsolve import SolverError, solve_general, solve_spd
from chns.mesh import Mesh, mesh_size
from chns.scheme import closest_ratio_root, explicit_terms


def picard_step(state, params, ops, forcing=None, tol=1e-12, max_iter=400):
    """Fixed-point solve of the coupled step with frozen auxiliary scalars.

    Iterates: solve the phase/potential block and the tentative velocity
    with (r, rho) frozen, then update r from its equation and rho from its
    quadratic, until both scalars settle. This is the monolithic statement
    of the step, solved without the superposition splitting.
    """
    tau, lam = params.tau, params.lam
    f = ops.forms
    terms = explicit_terms(ops, params, state, forcing)
    se1, se2 = terms.sqrt_e1, terms.sqrt_e2
    conv_scalar, fp, capillary, convection = \
        terms.conv_scalar, terms.fp, terms.capillary, terms.convection
    g_phi_load = 0.0 if forcing is None else terms.g_phi_load
    g_u_load = 0.0 if forcing is None else terms.g_u_load

    n = ops.p1.ndofs
    m_v = kron_planar(f.m_p2)
    r, rho = state.r, state.rho
    phi = mu = u_tilde = None
    for _ in range(max_iter):
        rhs = np.concatenate([
            f.m_p1 @ state.phi / tau + g_phi_load - (r / se1) * conv_scalar,
            (lam * r / se1) * fp,
        ])
        x, _ = solve_general(ops.a_ch, rhs, 1e-13)
        phi, mu = x[:n], x[n:]

        rhs_v = m_v @ state.u / tau - terms.grad_p + g_u_load \
            + (r / se1) * capillary - (rho / se2) * convection
        u_tilde, _ = solve_spd(ops.velocity.matrix, ops.velocity.prepare_rhs(rhs_v), 1e-13)

        r_new = state.r + tau / (2.0 * se1) * (
            (fp @ (phi - state.phi)) / tau
            + (conv_scalar @ mu) / lam
            - (capillary @ u_tilde) / lam)

        a2 = 2.0 / tau
        a1 = -2.0 * state.rho / tau - 2.0 * (convection @ u_tilde) / se2
        a0 = -((u_tilde - state.u) @ (m_v @ u_tilde)) / tau
        disc = max(a1 * a1 - 4.0 * a2 * a0, 0.0)
        sq = np.sqrt(disc)
        q = -0.5 * (a1 + np.copysign(sq, a1)) if a1 != 0.0 else -0.5 * sq
        candidates = [q / a2, a0 / q] if q != 0.0 else [0.0]
        rho_new, _, _ = closest_ratio_root(candidates, lambda root: u_tilde,
                                           m_v, params.c2)

        done = (abs(r_new - r) <= tol * max(1.0, abs(r))
                and abs(rho_new - rho) <= tol * max(1.0, abs(rho)))
        r, rho = r_new, rho_new
        if done:
            break
    return {"phi": phi, "mu": mu, "u_tilde": u_tilde, "r": r, "rho": rho}


# ---------------------------------------------------------------------------
# einsum forms of the per-step field evaluations and loads


def _planar_dofs(space):
    """Global dof of each (cell, local node, component) of a planar vector space."""
    dofs, n = space.scalar_cell_dofs, space.ndofs // 2
    return np.stack([dofs, dofs + n], axis=-1)


def _einsum_gather(space, coeffs):
    """Per-cell coefficients: (nt, nloc) scalar or (nt, nloc, 2) vector."""
    coeffs = np.asarray(coeffs)
    if space.ncomp == 1:
        return coeffs[space.scalar_cell_dofs]
    return coeffs[_planar_dofs(space)]


def _einsum_scatter(space, cellwise):
    dofs = space.scalar_cell_dofs if space.ncomp == 1 else _planar_dofs(space)
    return np.bincount(dofs.ravel(), weights=cellwise.ravel(), minlength=space.ndofs)


def einsum_eval_scalar(space, coeffs, degree=5):
    tab = asm._tables(space, degree)
    return np.einsum("ti,qi->tq", _einsum_gather(space, coeffs), tab["vals"])


def einsum_eval_scalar_grad(space, coeffs, degree=5):
    tab = asm._tables(space, degree)
    return np.einsum("ti,tqid->tqd", _einsum_gather(space, coeffs), asm._basis_gradients(tab))


def einsum_eval_vector(space, coeffs, degree=5):
    tab = asm._tables(space, degree)
    return np.einsum("tic,qi->tqc", _einsum_gather(space, coeffs), tab["vals"])


def einsum_eval_vector_grad(space, coeffs, degree=5):
    tab = asm._tables(space, degree)
    return np.einsum("tic,tqid->tqcd", _einsum_gather(space, coeffs), asm._basis_gradients(tab))


def einsum_load(space, integrand, degree=5):
    """Entries (integrand, basis_i) from values (nt, nq) or (nt, nq, 2)."""
    tab = asm._tables(space, degree)
    if space.ncomp == 1:
        cellwise = np.einsum("tq,tq,qi->ti", tab["wdet"], integrand, tab["vals"])
    else:
        cellwise = np.einsum("tq,tqc,qi->tic", tab["wdet"], integrand, tab["vals"])
    return _einsum_scatter(space, cellwise)


def einsum_assemble_load(space, f, degree=5):
    tab = asm._tables(space, degree)
    if space.ncomp == 1:
        return einsum_load(space, np.broadcast_to(f(tab["x"], tab["y"]), tab["x"].shape), degree)
    fx, fy = f(tab["x"], tab["y"])
    vals = np.stack([np.broadcast_to(fx, tab["x"].shape),
                     np.broadcast_to(fy, tab["x"].shape)], axis=-1)
    return einsum_load(space, vals, degree)


def einsum_convective_load_scalar(p2v, p1, u, phi):
    integrand = np.einsum("tqc,tqc->tq", einsum_eval_vector(p2v, u), einsum_eval_scalar_grad(p1, phi))
    return einsum_load(p1, integrand)


def einsum_convective_load_vector(p2v, u):
    integrand = np.einsum("tqd,tqcd->tqc", einsum_eval_vector(p2v, u), einsum_eval_vector_grad(p2v, u))
    return einsum_load(p2v, integrand)


def einsum_mu_grad_phi_load(p2v, p1, mu, phi):
    integrand = einsum_eval_scalar(p1, mu)[..., None] * einsum_eval_scalar_grad(p1, phi)
    return einsum_load(p2v, integrand)


def einsum_fprime_load(p1, phi, eps, gamma):
    return einsum_load(p1, asm.fprime(einsum_eval_scalar(p1, phi), eps, gamma))


def _einsum_reference(tab, f, shape):
    """f(x, y) at the table's points, (nt, nq) + shape; f gives nested components."""
    out = np.empty(tab["x"].shape + shape)
    vals = f(tab["x"], tab["y"])
    for index in np.ndindex(*shape):
        v = vals
        for i in index:
            v = v[i]
        out[(...,) + index] = v
    return out


def einsum_l2_error(space, coeffs, exact=None, degree=8):
    """L2 distance from an analytic field (the norm without one), point by point."""
    tab = asm._tables(space, degree)
    if space.ncomp == 1:
        diff = einsum_eval_scalar(space, coeffs, degree)
        if exact is not None:
            diff = diff - _einsum_reference(tab, lambda x, y: [exact(x, y)], (1,))[..., 0]
        return float(np.sqrt(np.einsum("tq,tq->", tab["wdet"], diff ** 2)))
    diff = einsum_eval_vector(space, coeffs, degree)
    if exact is not None:
        diff = diff - _einsum_reference(tab, exact, (2,))
    return float(np.sqrt(np.einsum("tq,tqc->", tab["wdet"], diff ** 2)))


def einsum_h1_seminorm_error(space, coeffs, exact_grad=None, degree=8):
    """L2 distance from an analytic gradient ([c][d] for vector fields), point by point."""
    tab = asm._tables(space, degree)
    if space.ncomp == 1:
        diff = einsum_eval_scalar_grad(space, coeffs, degree)
        if exact_grad is not None:
            diff = diff - _einsum_reference(tab, exact_grad, (2,))
        return float(np.sqrt(np.einsum("tq,tqd->", tab["wdet"], diff ** 2)))
    diff = einsum_eval_vector_grad(space, coeffs, degree)
    if exact_grad is not None:
        diff = diff - _einsum_reference(tab, exact_grad, (2, 2))
    return float(np.sqrt(np.einsum("tq,tqcd->", tab["wdet"], diff ** 2)))


# ---------------------------------------------------------------------------
# scalar form of the splitmix64 stream


def splitmix64_scalar(seed, count):
    """One 64-bit state advanced and mixed per value, in numpy uint64 scalars."""
    out = np.empty(count)
    state = np.uint64(seed)
    golden = np.uint64(0x9E3779B97F4A7C15)
    c1 = np.uint64(0xBF58476D1CE4E5B9)
    c2 = np.uint64(0x94D049BB133111EB)
    with np.errstate(over="ignore"):
        for i in range(count):
            state = state + golden
            z = state
            z = (z ^ (z >> np.uint64(30))) * c1
            z = (z ^ (z >> np.uint64(27))) * c2
            z = z ^ (z >> np.uint64(31))
            out[i] = float(z) / 2.0 ** 64
    return out


# ---------------------------------------------------------------------------
# loop, dict, kron and COO forms of the set-up path

#: (nx, ny, rect) of the meshes the vectorized set-up must reproduce bit for bit
SETUP_SHAPES = [(1, 1, (0.0, 0.0, 1.0, 1.0)), (5, 3, (0.0, 0.0, 1.0, 1.0)),
                (17, 9, (0.0, 0.0, 1.0, 1.0)), (64, 64, (0.0, 0.0, 1.0, 1.0)),
                (7, 4, (-0.5, 0.25, 1.5, 0.75))]


def identical(a, b):
    """Same dtype, shape and values; for CSR matrices, the same three arrays."""
    if sp.issparse(a):
        return a.shape == b.shape and all(identical(getattr(a, f), getattr(b, f))
                                          for f in ("data", "indices", "indptr"))
    return a.dtype == b.dtype and np.array_equal(a, b)


def loop_uniform_mesh(nx, ny, rect=(0.0, 0.0, 1.0, 1.0)):
    """build_uniform_mesh with triangles and edge incidences filled cell by cell."""
    x0, y0, x1, y1 = rect
    xg, yg = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10 = v00 + 1
            v01 = v00 + (nx + 1)
            v11 = v01 + 1
            tris[k] = (v00, v10, v11)
            tris[k + 1] = (v00, v11, v01)
            k += 2

    raw = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    for e, t in zip(inverse.ravel(), np.tile(np.arange(tris.shape[0]), 3)):
        if edge_tris[e, 0] < 0:
            edge_tris[e, 0] = t
        else:
            edge_tris[e, 1] = t
    boundary_edges = np.flatnonzero(edge_tris[:, 1] < 0)
    mesh = Mesh(vertices=vertices, triangles=tris, edges=edges, edge_triangles=edge_tris,
                boundary_vertices=np.unique(edges[boundary_edges].ravel()),
                boundary_edges=boundary_edges, h=0.0)
    mesh.h = mesh_size(mesh)
    return mesh


def dict_space(mesh, kind):
    """build_space with the P2 edge dofs looked up per triangle in a dict."""
    if kind == "p1":
        scalar_dofs = mesh.triangles.copy()
        coords = mesh.vertices.copy()
        bdofs = mesh.boundary_vertices.copy()
    else:
        nv = mesh.num_vertices
        edge_index = {tuple(e): i for i, e in enumerate(map(tuple, mesh.edges))}
        scalar_dofs = np.empty((mesh.num_triangles, 6), dtype=np.int64)
        scalar_dofs[:, :3] = mesh.triangles
        for t, (a, b, c) in enumerate(mesh.triangles):
            scalar_dofs[t, 3] = nv + edge_index[tuple(sorted((a, b)))]
            scalar_dofs[t, 4] = nv + edge_index[tuple(sorted((b, c)))]
            scalar_dofs[t, 5] = nv + edge_index[tuple(sorted((c, a)))]
        midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        coords = np.vstack([mesh.vertices, midpoints])
        bdofs = np.sort(np.concatenate([mesh.boundary_vertices, nv + mesh.boundary_edges]))
    if kind == "p2vec":
        # planar: component c of node k is dof c * n + k
        n = coords.shape[0]
        cell_dofs = np.empty((scalar_dofs.shape[0], 12), dtype=scalar_dofs.dtype)
        for t, dofs in enumerate(scalar_dofs):
            for c in range(2):
                for i in range(6):
                    cell_dofs[t, 6 * c + i] = c * n + dofs[i]
        bdofs = np.array([c * n + k for c in range(2) for k in bdofs], dtype=bdofs.dtype)
        ndofs, ncomp = 2 * n, 2
    else:
        cell_dofs = scalar_dofs
        ndofs, ncomp = coords.shape[0], 1
    return FeSpace(kind=kind, mesh=mesh, ndofs=ndofs, ncomp=ncomp, cell_dofs=cell_dofs,
                   boundary_dofs=bdofs, dof_coords=coords, scalar_cell_dofs=scalar_dofs)


def kron_planar(block):
    """The vector operator of a planar space: kron(I_2, block), one block per component."""
    return sp.kron(sp.eye(2), block, format="csr")


def broadcast_basis_gradients(tab):
    """asm._basis_gradients as one broadcast multiply-add over (nt, nq, nloc, 2)."""
    nloc, nq = tab["gref"].shape[0], tab["vals"].shape[0]
    gref = tab["gref"].reshape(nloc, 2, 1, nq).transpose(3, 0, 2, 1)  # (nq, nloc, 1, 2)
    inv = tab["inv"][:, None, None]  # (nt, 1, 1, 2, 2)
    out = np.multiply(gref[..., 0], inv[..., 0, :], out=np.empty((inv.shape[0], nq, nloc, 2)))
    out += gref[..., 1] * inv[..., 1, :]
    return out


def assemble_forms_by_hand(p1, p2v):
    """assemble_forms with basis gradients made per matrix, and the coupling
    blocks' planar velocity dofs numbered from the scalar ones by hand."""
    tab1, tab2 = asm._tables(p1, 5), asm._tables(p2v, 5)

    def mass(space, tab):
        return asm._matrix_from_cells(space, np.einsum("tq,qi,qj->tij", tab["wdet"],
                                                       tab["vals"], tab["vals"]))

    def stiffness(space, tab):
        g = broadcast_basis_gradients(tab)
        return asm._matrix_from_cells(space, np.einsum("tq,tqid,tqjd->tij", tab["wdet"], g, g))

    # component-major within a cell, as assemble_forms lists the entries: COO sums
    # repeated entries in an order that depends on it, and that order sets the last bits
    vdofs = _planar_dofs(p2v).transpose(0, 2, 1)
    intn2 = np.einsum("tq,qm->tm", tab2["wdet"], tab2["vals"])
    elem = np.einsum("tm,tkc->tcmk", intn2, broadcast_basis_gradients(tab1)[:, 0])
    rows = np.repeat(vdofs.reshape(-1, 12), 3, axis=1).ravel()
    cols = np.tile(p1.scalar_cell_dofs, (1, 12)).ravel()
    grad = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p2v.ndofs, p1.ndofs)).tocsr()
    elem = np.einsum("tq,qk,tqmc->tkcm", tab2["wdet"], tab1["vals"],
                     broadcast_basis_gradients(tab2))
    rows = np.repeat(p1.scalar_cell_dofs, 12, axis=1).ravel()
    cols = np.tile(vdofs.reshape(-1, 12), (1, 3)).ravel()
    div = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p1.ndofs, p2v.ndofs)).tocsr()
    m_p1 = mass(p1, tab1)
    return asm.AssembledForms(m_p1=m_p1, k_p1=stiffness(p1, tab1), m_p2=mass(p2v, tab2),
                              k_p2=stiffness(p2v, tab2), grad_coupling=grad, div_coupling=div,
                              lumped_p1=np.asarray(m_p1.sum(axis=1)).ravel())


def coo_eliminated_matrix(a, dofs):
    """Symmetric elimination through a COO round trip."""
    keep = np.ones(a.shape[0], dtype=bool)
    keep[dofs] = False
    coo = a.tocoo()
    m = keep[coo.row] & keep[coo.col]
    rows = np.concatenate([coo.row[m], dofs])
    cols = np.concatenate([coo.col[m], dofs])
    vals = np.concatenate([coo.data[m], np.ones(len(dofs))])
    return sp.csr_matrix((vals, (rows, cols)), shape=a.shape)


# ---------------------------------------------------------------------------
# BiCGStab with a fresh vector per update


def bicgstab_loop(a, b, dinv, tol, max_it):
    """The textbook-expression form of linsolve._bicgstab. Returns (x, iterations)."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    restarts = 0
    best = np.inf

    def restart():
        nonlocal r, r_shadow, rho, alpha, omega, v, p, restarts, best
        r = b - a @ x
        res = np.linalg.norm(r)
        if not np.isfinite(res) or (res >= best and restarts > 2):
            raise SolverError("bicgstab stagnated", res / bnorm)
        best = min(best, res)
        restarts += 1
        r_shadow = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros_like(b)
        p = np.zeros_like(b)

    k = 0
    while k < max_it:
        k += 1
        rho_new = r_shadow @ r
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm) or rnorm > 1e8 * bnorm:
            raise SolverError("bicgstab diverged", rnorm / bnorm)
        scale = np.linalg.norm(r_shadow) * rnorm
        if rho_new == 0.0 or abs(rho_new) < 1e-30 * max(scale, 1e-300) or abs(omega) < 1e-300:
            restart()
            continue
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = dinv * p
        v = a @ phat
        denom = r_shadow @ v
        scale = np.linalg.norm(r_shadow) * np.linalg.norm(v)
        if denom == 0.0 or abs(denom) < 1e-30 * max(scale, 1e-300):
            restart()
            continue
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol:
            x += alpha * phat
            r = b - a @ x
            if np.linalg.norm(r) <= tol:
                return x, k
            continue
        shat = dinv * s
        t = a @ shat
        tt = t @ t
        if tt < 1e-300:
            restart()
            continue
        omega = (t @ s) / tt
        x += alpha * phat + omega * shat
        r = s - omega * t
        if np.linalg.norm(r) <= tol:
            r = b - a @ x
            if np.linalg.norm(r) <= tol:
                return x, k
    raise SolverError("bicgstab did not converge", np.linalg.norm(b - a @ x) / bnorm)


# ---------------------------------------------------------------------------
# the SPD and the projected conjugate gradient loops, one hand-written loop each


def cg_loop(a, b, precondition, tol, max_it):
    """Preconditioned conjugate gradients as solve_spd ran them. Returns (x, iterations)."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    k = 0
    while k < max_it:
        k += 1
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol:
            r = b - a @ x
            if np.linalg.norm(r) <= tol:
                break
        z = precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverError("conjugate gradients did not converge",
                          np.linalg.norm(b - a @ x) / bnorm)
    return x, k


def projected_cg_loop(k_mat, b, precondition, tol, max_it):
    """Conjugate gradients off the constants as solve_neumann_zero_mean ran them,
    for a right-hand side already projected. Returns (x, iterations)."""
    n = b.shape[0]
    bnorm = np.linalg.norm(b)

    def project(v):
        return v - v.sum() / n

    x = np.zeros_like(b)
    r = b.copy()
    z = project(precondition(r))
    p = z.copy()
    rz = r @ z
    k = 0
    while k < max_it:
        k += 1
        ap = k_mat @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol:
            r = project(b - k_mat @ x)
            if np.linalg.norm(r) <= tol:
                break
        z = project(precondition(r))
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverError("projected conjugate gradients did not converge",
                          np.linalg.norm(b - k_mat @ x) / bnorm)
    return x, k
