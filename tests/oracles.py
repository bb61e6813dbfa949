"""Independent reference computations the tests check the solver against."""

import numpy as np

from chns import assembly as asm
from chns.linsolve import SolverConfig, solve_general, solve_spd


def picard_step(state, params, ops, forcing=None, tol=1e-12, max_iter=400):
    """Fixed-point solve of the coupled step with frozen auxiliary scalars.

    Iterates: solve the phase/potential block and the tentative velocity
    with (r, rho) frozen, then update r from its equation and rho from its
    quadratic, until both scalars settle. This is the monolithic statement
    of the step, solved without the superposition splitting.
    """
    tau, lam = params.tau, params.lam
    t_next = (state.step + 1) * tau
    f = ops.forms
    e1h, e2h = asm.compute_discrete_energies(ops.p1, f.m_v, state.phi, state.u, params)
    se1, se2 = np.sqrt(e1h), np.sqrt(e2h)

    conv_scalar = asm.convective_load_scalar(ops.p2v, ops.p1, state.u, state.phi)
    fp = asm.fprime_load(ops.p1, state.phi, params.eps, params.gamma)
    capillary = asm.mu_grad_phi_load(ops.p2v, ops.p1, state.mu, state.phi)
    convection = asm.convective_load_vector(ops.p2v, state.u)
    grad_p = asm.grad_p_load(f, state.p)
    g_phi_load = np.zeros(ops.p1.ndofs)
    g_u_load = np.zeros(ops.p2v.ndofs)
    if forcing is not None:
        g_phi_load = asm.assemble_load(ops.p1, lambda x, y: forcing.g_phi(t_next, x, y))
        g_u_load = asm.assemble_load(ops.p2v, lambda x, y: forcing.g_u(t_next, x, y))

    n = ops.p1.ndofs
    cfg = SolverConfig(rel_tolerance=1e-13)
    r, rho = state.r, state.rho
    phi = mu = u_tilde = None
    for _ in range(max_iter):
        rhs = np.concatenate([
            f.m_p1 @ state.phi / tau + g_phi_load - (r / se1) * conv_scalar,
            (lam * r / se1) * fp,
        ])
        x = solve_general(ops.a_ch, rhs, cfg)
        phi, mu = x[:n], x[n:]

        rhs_v = f.m_v @ state.u / tau - grad_p + g_u_load \
            + (r / se1) * capillary - (rho / se2) * convection
        u_tilde = solve_spd(ops.velocity.matrix, ops.velocity.prepare_rhs(rhs_v), cfg)

        r_new = state.r + tau / (2.0 * se1) * (
            (fp @ (phi - state.phi)) / tau
            + (conv_scalar @ mu) / lam
            - (capillary @ u_tilde) / lam)

        a2 = 2.0 / tau
        a1 = -2.0 * state.rho / tau - 2.0 * (convection @ u_tilde) / se2
        a0 = -((u_tilde - state.u) @ (f.m_v @ u_tilde)) / tau
        disc = max(a1 * a1 - 4.0 * a2 * a0, 0.0)
        sq = np.sqrt(disc)
        q = -0.5 * (a1 + np.copysign(sq, a1)) if a1 != 0.0 else -0.5 * sq
        candidates = [q / a2, a0 / q] if q != 0.0 else [0.0]
        best = None
        for root in candidates:
            ratio = root / np.sqrt(0.5 * (u_tilde @ (f.m_v @ u_tilde)) + params.c2)
            if best is None or abs(ratio - 1.0) < abs(best[1] - 1.0):
                best = (root, ratio)
        rho_new = best[0]

        done = (abs(r_new - r) <= tol * max(1.0, abs(r))
                and abs(rho_new - rho) <= tol * max(1.0, abs(rho)))
        r, rho = r_new, rho_new
        if done:
            break
    return {"phi": phi, "mu": mu, "u_tilde": u_tilde, "r": r, "rho": rho}


# ---------------------------------------------------------------------------
# einsum forms of the per-step field evaluations and loads


def _einsum_gather(space, coeffs):
    """Per-cell coefficients: (nt, nloc) scalar or (nt, nloc, 2) vector."""
    coeffs = np.asarray(coeffs)
    if space.ncomp == 1:
        return coeffs[space.scalar_cell_dofs]
    return coeffs.reshape(-1, 2)[space.scalar_cell_dofs]


def _einsum_scatter(space, cellwise):
    dofs = space.scalar_cell_dofs
    if space.ncomp == 2:
        dofs = np.stack([2 * dofs, 2 * dofs + 1], axis=-1)
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
