"""Independent reference computations the tests check the solver against."""

import numpy as np
import scipy.sparse as sp

from chns import assembly as asm
from chns.experiments import rate
from chns.fem import NORM_DEGREE, FeSpace, build_space, p1_tables, p2_tables, \
    triangle_quadrature
from chns.linsolve import SolverError, jacobi, solve_general, solve_neumann_zero_mean, \
    solve_spd
from chns.mesh import Mesh, build_uniform_mesh
from chns.scheme import State, ch_split_solve, closest_ratio_root, explicit_terms, quad, \
    scalar_equation_residuals, scalar_reduction


def picard_step(state, ops, forcing=None, tol=1e-12, max_iter=400):
    """Fixed-point solve of the coupled step with frozen auxiliary scalars.

    Iterates: solve the phase/potential block and the tentative velocity
    with (r, rho) frozen, then update r from its equation and rho from its
    quadratic, until both scalars settle. This is the monolithic statement
    of the step, solved without the superposition splitting.
    """
    params, f = ops.params, ops.forms
    tau, lam = params.tau, params.lam
    terms = explicit_terms(ops, state, forcing)
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
        x, _ = solve_general(ops.a_ch, rhs, 1e-13, ops.ch_solver)
        phi, mu = x[:n], x[n:]

        rhs_v = m_v @ state.u / tau - terms.grad_p + g_u_load \
            + (r / se1) * capillary - (rho / se2) * convection
        u_tilde, _ = solve_spd(ops.velocity.matrix, ops.velocity.prepare_rhs(rhs_v), 1e-13,
                               jacobi(ops.velocity.matrix))

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
        # u_tilde frozen: its energy does not vary with the root
        rho_new, _ = closest_ratio_root(candidates, (u_tilde @ (m_v @ u_tilde), 0.0, 0.0),
                                        params.c2)

        done = (abs(r_new - r) <= tol * max(1.0, abs(r))
                and abs(rho_new - rho) <= tol * max(1.0, abs(rho)))
        r, rho = r_new, rho_new
        if done:
            break
    return {"phi": phi, "mu": mu, "u_tilde": u_tilde, "r": r, "rho": rho}


def phase_only_step(state, ops):
    """One step of the phase-field subsystem alone: the scheme's phase solves and
    scalar reduction with zero velocity splits, the flow left at rest and the
    pressure untouched."""
    terms = explicit_terms(ops, state)
    ch = ch_split_solve(ops, state.phi, terms)
    zero = np.zeros(ops.p2v.ndofs)
    r, rho, u_tilde, _ = scalar_reduction(ops, state, terms, ch, (zero, zero, zero))
    (phi0, mu0), (phi1, mu1) = ch
    return State(step=state.step + 1, phi=phi0 + r * phi1, mu=mu0 + r * mu1,
                 u_tilde=u_tilde, u=state.u.copy(), p=state.p.copy(), r=r, rho=rho)


def scheme_residuals(ops, old, new, forcing=None):
    """Relative residuals of the five coupled discrete equations.

    Substitutes a completed step back into the monolithic statement, which
    ties the decoupled step to it; all values should sit at the
    linear-solver tolerance. The r and rho entries are those `step` reports.
    """
    params, f = ops.params, ops.forms
    tau, lam = params.tau, params.lam
    terms = explicit_terms(ops, old, forcing)

    def rel(res, *scales):
        return float(np.linalg.norm(res) / max(1.0, *(np.linalg.norm(s) for s in scales)))

    r1 = f.m_p1 @ (new.phi - old.phi) / tau + (new.r / terms.sqrt_e1) * terms.conv_scalar \
        + params.mobility * (f.k_p1 @ new.mu)
    if forcing is not None:
        r1 -= terms.g_phi_load
    res_phi = rel(r1, f.m_p1 @ old.phi / tau)

    r2 = f.m_p1 @ new.mu - lam * (f.k_p1 @ new.phi) - lam * params.gamma * (f.m_p1 @ new.phi) \
        - (lam * new.r / terms.sqrt_e1) * terms.fp
    res_mu = rel(r2, f.m_p1 @ new.mu, lam * (f.k_p1 @ new.phi))

    r4 = f.m_v @ (new.u_tilde - old.u) / tau + (new.rho / terms.sqrt_e2) * terms.convection \
        + params.nu * (f.k_v @ new.u_tilde) + terms.grad_p \
        - (new.r / terms.sqrt_e1) * terms.capillary
    if forcing is not None:
        r4 -= terms.g_u_load
    interior = np.setdiff1d(np.arange(ops.p2v.ndofs), ops.p2v.boundary_dofs)
    res_u = rel(r4[interior], f.m_v @ old.u / tau)

    res_r, res_rho = scalar_equation_residuals(ops, old, new, terms, f.m_v @ new.u_tilde)
    return {"phi": res_phi, "mu": res_mu, "r": res_r, "u": res_u, "rho": res_rho}


# ---------------------------------------------------------------------------
# a step's diagnostics, each formed afresh


def modified_energy(ops, state):
    """The discrete Lyapunov functional, every product formed afresh."""
    f, lam, gamma, tau = ops.forms, ops.params.lam, ops.params.gamma, ops.params.tau
    return (lam * quad(f.k_p1, state.phi) + lam * gamma * quad(f.m_p1, state.phi)
            + 2.0 * lam * state.r ** 2 + 0.5 * quad(f.m_v, state.u)
            + tau ** 2 * quad(f.k_p1, state.p) + state.rho ** 2)


def dissipation(ops, new):
    params = ops.params
    return 2.0 * params.tau * (params.mobility * quad(ops.forms.k_p1, new.mu)
                               + params.nu * quad(ops.forms.k_v, new.u_tilde))


def energy_identity_residual(ops, old, new):
    """The per-step energy balance, every product and energy formed afresh."""
    f, params, lam = ops.forms, ops.params, ops.params.lam
    dphi = new.phi - old.phi
    increments = (lam * (quad(f.k_p1, dphi) + params.gamma * quad(f.m_p1, dphi))
                  + 2.0 * lam * (new.r - old.r) ** 2
                  + 0.5 * quad(f.m_v, new.u_tilde - old.u)
                  - 0.5 * quad(f.m_v, new.u_tilde - new.u)
                  + (new.rho - old.rho) ** 2)
    return (modified_energy(ops, new) - modified_energy(ops, old) + increments
            + dissipation(ops, new))


def step_diagnostics(ops, old, new, forcing=None, bc=None):
    """The StepReport fields of the step old -> new that the states determine, each
    from its defining formula: the fields evaluated point by point (einsum), every
    mass product and energy formed afresh."""
    f, params = ops.forms, ops.params
    tab = _table(ops.p1)
    phiq = einsum_eval_scalar(ops.p1, old.phi)
    e1h = float(np.einsum("tq,tq->", tab["wdet"],
                          asm.free_energy_density(phiq, params.eps, params.gamma))) + params.c1
    e2h = 0.5 * quad(f.m_v, old.u) + params.c2
    terms = explicit_terms(ops, old, forcing)
    res_r, res_rho = scalar_equation_residuals(ops, old, new, terms, f.m_v @ new.u_tilde)
    unforced = forcing is None and bc is None
    return {
        "energy_before": modified_energy(ops, old),
        "energy_after": modified_energy(ops, new),
        "dissipation": dissipation(ops, new),
        "identity_residual": energy_identity_residual(ops, old, new) if unforced else np.nan,
        "root_ratio": new.rho / np.sqrt(0.5 * quad(f.m_v, new.u_tilde) + params.c2),
        "r_eq_residual": res_r, "rho_eq_residual": res_rho,
        "div_norm": float(np.linalg.norm(f.div_coupling @ new.u)),
        "e1h": e1h, "e2h": e2h,
    }


# ---------------------------------------------------------------------------
# the nonlinear loads of coefficient vectors, as explicit_terms makes them


def convective_load_scalar(p2v, p1, u, phi):
    return asm.convective_load_scalar(p1, asm.evaluate(p2v, u)[0], asm.evaluate(p1, phi)[1])


def convective_load_vector(p2v, u):
    return asm.convective_load_vector(p2v, *asm.evaluate(p2v, u))


def mu_grad_phi_load(p2v, p1, mu, phi):
    return asm.mu_grad_phi_load(p2v, asm.evaluate(p1, mu)[0], asm.evaluate(p1, phi)[1])


def fprime_load(p1, phi, eps, gamma):
    return asm.fprime_load(p1, asm.evaluate(p1, phi)[0], eps, gamma)


# ---------------------------------------------------------------------------
# einsum forms of the per-step field evaluations and loads


def _planar_dofs(space):
    """Global dof of each (cell, local node, component) of a planar vector space."""
    dofs, n = space.scalar_cell_dofs, space.ndofs // 2
    return np.stack([dofs, dofs + n], axis=-1)


def _table(space, degree=5):
    """A space's quadrature data in the cell-first layout the einsum forms index:
    wdet, x and y (nt, nq), the basis values (nq, nloc) and reference gradients
    (nq, nloc, 2), and the inverse Jacobians (nt, 2, 2)."""
    rule = triangle_quadrature(degree)
    vals, gref = (p1_tables if space.kind == "p1" else p2_tables)(rule.points)
    tab = asm._tables(space, degree)
    return {"wdet": tab["wdet"].T, "x": tab["x"].T, "y": tab["y"].T, "vals": vals,
            "gref": gref, "inv": asm._geometry(space.mesh)["inv"].transpose(2, 0, 1)}


def basis_gradients(tab):
    """Physical basis gradients grad_i = J^{-T} gref_i at every point of a table: (nt, nq, nloc, 2)."""
    nq, nloc, _ = tab["gref"].shape
    gref = tab["gref"].transpose(2, 0, 1).reshape(2, nq * nloc)  # [d, (q, i)]
    inv = tab["inv"]  # (nt, 2, 2)
    out = np.empty((inv.shape[0], nq, nloc, 2))
    for e in range(2):
        comp = np.multiply.outer(inv[:, 0, e], gref[0])
        comp += np.multiply.outer(inv[:, 1, e], gref[1])
        out[..., e] = comp.reshape(-1, nq, nloc)
    return out


def _einsum_gather(space, coeffs):
    """Per-cell coefficients: (nt, nloc) scalar or (nt, nloc, 2) vector."""
    coeffs = np.asarray(coeffs)
    if space.ncomp == 1:
        return coeffs[space.scalar_cell_dofs]
    return coeffs[_planar_dofs(space)]


def _einsum_scatter(space, cellwise):
    dofs = space.scalar_cell_dofs if space.ncomp == 1 else _planar_dofs(space)
    return np.bincount(dofs.ravel(), weights=cellwise.ravel(), minlength=space.ndofs)


def einsum_points(mesh, rule):
    """Physical quadrature points origin_T + J_T ref_q as one einsum: (nt, nq, 2)."""
    geom = asm._geometry(mesh)
    return geom["origin"][:, None, :] + np.einsum("tcd,qd->tqc", geom["jac"], rule.points[:, 1:])


def einsum_eval_scalar(space, coeffs, degree=5):
    tab = _table(space, degree)
    return np.einsum("ti,qi->tq", _einsum_gather(space, coeffs), tab["vals"])


def einsum_eval_scalar_grad(space, coeffs, degree=5):
    tab = _table(space, degree)
    return np.einsum("ti,tqid->tqd", _einsum_gather(space, coeffs), basis_gradients(tab))


def einsum_eval_vector(space, coeffs, degree=5):
    tab = _table(space, degree)
    return np.einsum("tic,qi->tqc", _einsum_gather(space, coeffs), tab["vals"])


def einsum_eval_vector_grad(space, coeffs, degree=5):
    tab = _table(space, degree)
    return np.einsum("tic,tqid->tqcd", _einsum_gather(space, coeffs), basis_gradients(tab))


def einsum_load(space, integrand, degree=5):
    """Entries (integrand, basis_i) from values (nt, nq) or (nt, nq, 2)."""
    tab = _table(space, degree)
    if space.ncomp == 1:
        cellwise = np.einsum("tq,tq,qi->ti", tab["wdet"], integrand, tab["vals"])
    else:
        cellwise = np.einsum("tq,tqc,qi->tic", tab["wdet"], integrand, tab["vals"])
    return _einsum_scatter(space, cellwise)


def einsum_assemble_load(space, f, degree=5):
    tab = _table(space, degree)
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
    tab = _table(space, degree)
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
    tab = _table(space, degree)
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
    return Mesh(vertices=vertices, triangles=tris, edges=edges,
                boundary_vertices=np.unique(edges[boundary_edges].ravel()),
                boundary_edges=boundary_edges)


def triangle_areas(mesh):
    """Signed areas of all triangles (positive for counter-clockwise)."""
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


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


def assemble_forms_by_hand(p1, p2v):
    """assemble_forms as quadrature sums over physical basis gradients at every
    point, with the divergence block's planar velocity dofs numbered from the
    scalar ones by hand."""
    tab1, tab2 = _table(p1, 5), _table(p2v, 5)

    def mass(space, tab):
        return asm._matrix_from_cells(space, np.einsum("tq,qi,qj->tij", tab["wdet"],
                                                       tab["vals"], tab["vals"]))

    def stiffness(space, tab):
        g = basis_gradients(tab)
        return asm._matrix_from_cells(space, np.einsum("tq,tqid,tqjd->tij", tab["wdet"], g, g))

    vdofs = _planar_dofs(p2v).transpose(0, 2, 1)
    elem = np.einsum("tq,qk,tqmc->tkcm", tab2["wdet"], tab1["vals"],
                     basis_gradients(tab2))
    rows = np.repeat(p1.scalar_cell_dofs, 12, axis=1).ravel()
    cols = np.tile(vdofs.reshape(-1, 12), (1, 3)).ravel()
    div = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p1.ndofs, p2v.ndofs)).tocsr()
    m_p1 = mass(p1, tab1)
    return asm.AssembledForms(m_p1=m_p1, k_p1=stiffness(p1, tab1), m_p2=mass(p2v, tab2),
                              k_p2=stiffness(p2v, tab2), div_coupling=div,
                              lumped_p1=np.asarray(m_p1.sum(axis=1)).ravel())


def with_cell_zeros(a, row_dofs, col_dofs):
    """`a` with an explicit 0.0 at every (row, column) pair that some cell couples
    and `a` does not store: the COO sum before its exact zeros are dropped."""
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
    cols = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
    pattern = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=a.shape)
    coo = pattern.tocoo()
    data = np.asarray(a[coo.row, coo.col]).ravel()
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=a.shape)


def pressure_gradient_by_hand(p1, p2v):
    """G[i, k] = (grad q_k, v_i) assembled as its own form: P1 gradients are
    constant per triangle, so each entry is grad q_k times the integral of v_i."""
    tab1, tab2 = _table(p1, 5), _table(p2v, 5)
    vdofs = _planar_dofs(p2v).transpose(0, 2, 1)
    intn2 = np.einsum("tq,qm->tm", tab2["wdet"], tab2["vals"])
    elem = np.einsum("tm,tkc->tcmk", intn2, basis_gradients(tab1)[:, 0])
    rows = np.repeat(vdofs.reshape(-1, 12), 3, axis=1).ravel()
    cols = np.tile(p1.scalar_cell_dofs, (1, 12)).ravel()
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(p2v.ndofs, p1.ndofs)).tocsr()


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
# the gradient-matching (Ritz) projection onto P1


def ritz_projection(p1, grad, integral: float = 0.0) -> np.ndarray:
    """Gradient-matching projection onto the linear space.

    grad is the analytic gradient of the projected field; integral is the
    field's integral over the domain, which pins the constant mode.
    """
    k = asm.assemble_stiffness(p1)
    lumped = np.asarray(asm.assemble_mass(p1).sum(axis=1)).ravel()
    proj, _ = solve_neumann_zero_mean(k, grad_load(p1, grad), lumped, 1e-10, jacobi(k))
    return proj + integral / lumped.sum()


def grad_load(p1, grad) -> np.ndarray:
    """Entries (grad f, grad w_i) assembled from an analytic gradient."""
    tab = _table(p1, NORM_DEGREE)
    g = asm._at_points(grad, tab, 2)
    cellwise = np.einsum("tq,tdq,tqid->ti", tab["wdet"], g, basis_gradients(tab))
    return np.bincount(p1.scalar_cell_dofs.ravel(), weights=cellwise.ravel(),
                       minlength=p1.ndofs)


def projection_rate_check(levels=(4, 8, 16)):
    """Observed L2/H1 orders of the gradient-matching projection of a smooth field."""
    pi = np.pi

    def field(x, y):
        return np.sin(pi * x) * np.cos(pi * y)

    def grad(x, y):
        return (pi * np.cos(pi * x) * np.cos(pi * y),
                -pi * np.sin(pi * x) * np.sin(pi * y))

    errs_l2, errs_h1 = [], []
    for nx in levels:
        p1 = build_space(build_uniform_mesh(nx, nx), "p1")
        # the test field has zero mean, so no shift is needed
        proj = ritz_projection(p1, grad)
        errs_l2.append(asm.l2_error(p1, proj, field))
        errs_h1.append(asm.h1_seminorm_error(p1, proj, grad))
    return {"l2_errors": errs_l2, "h1_errors": errs_h1,
            "l2_rates": [rate(a, b) for a, b in zip(errs_l2, errs_l2[1:])],
            "h1_rates": [rate(a, b) for a, b in zip(errs_h1, errs_h1[1:])]}


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


# ---------------------------------------------------------------------------
# the multigrid V-cycle by scipy's `@`, one vector at a time


def matmul_vcycle(cycle, b):
    """One V-cycle on `cycle`'s levels as it ran with `@` products: one damped
    Jacobi sweep before and one after each coarse correction, restriction by
    the CSC view P^T, the coarsest level smoothed alike. `b` is one vector."""
    def down(level, b):
        a, w = cycle.ops[level], cycle.smoothers[level]
        x = w * b
        if level < len(cycle.prolong):
            r = a @ x
            np.subtract(b, r, out=r)
            p = cycle.prolong[level]
            x += p @ down(level + 1, p.T @ r)
        r = a @ x
        np.subtract(b, r, out=r)
        r *= w
        x += r
        return x

    return down(0, b)


# ---------------------------------------------------------------------------
# the embedding of P1 in P2


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


def finite_difference_forcing(case, params, t, x, y, dx: float = 1e-5, dt: float = 1e-6):
    """Forcing recomputed by central differences on the analytic fields.

    Independent cross-check of the closed-form derivatives in g_phi/g_u;
    agreement is limited by the stencil, not the implementation.
    """
    mob, nu = params.mobility, params.nu

    def ddt(f):
        return (np.asarray(f(t + dt, x, y)) - np.asarray(f(t - dt, x, y))) / (2 * dt)

    def grad_fd(f):
        return ((np.asarray(f(t, x + dx, y)) - np.asarray(f(t, x - dx, y))) / (2 * dx),
                (np.asarray(f(t, x, y + dx)) - np.asarray(f(t, x, y - dx))) / (2 * dx))

    def laplace_fd(f):
        return (np.asarray(f(t, x + dx, y)) + np.asarray(f(t, x - dx, y))
                + np.asarray(f(t, x, y + dx)) + np.asarray(f(t, x, y - dx))
                - 4.0 * np.asarray(f(t, x, y))) / dx ** 2

    u1, u2 = case.u(t, x, y)
    gpx, gpy = grad_fd(case.phi)
    g_phi = ddt(case.phi) + u1 * gpx + u2 * gpy - mob * laplace_fd(case.mu)

    ut = ddt(case.u)
    gu1 = grad_fd(lambda tt, xx, yy: case.u(tt, xx, yy)[0])
    gu2 = grad_fd(lambda tt, xx, yy: case.u(tt, xx, yy)[1])
    lu1 = laplace_fd(lambda tt, xx, yy: case.u(tt, xx, yy)[0])
    lu2 = laplace_fd(lambda tt, xx, yy: case.u(tt, xx, yy)[1])
    gp = grad_fd(case.p)
    m = case.mu(t, x, y)
    g1 = ut[0] + u1 * gu1[0] + u2 * gu1[1] - nu * lu1 + gp[0] - m * gpx
    g2 = ut[1] + u1 * gu2[0] + u2 * gu2[1] - nu * lu2 + gp[1] - m * gpy
    return g_phi, (g1, g2)
