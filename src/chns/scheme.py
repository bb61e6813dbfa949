"""One time step of the decoupled two-SAV scheme with pressure correction.

The scheme is linear in each unknown once the two auxiliary scalars are
known, so a step splits each linear solve by superposition:

* the phase/potential block is solved for two right-hand sides, giving
  (phi, mu) = X0 + r X1 for any scalar r;
* the tentative velocity is solved for three right-hand sides, giving
  u_tilde = Y0 + r Y1 + rho Y2;
* substituting into the discrete auxiliary-variable equations collapses
  the step to r = alpha + beta rho and one quadratic in rho, whose root
  closer to the target ratio 1 is kept;
* a pressure Poisson solve projects the tentative velocity and updates
  the zero-mean pressure.

Residuals of the original coupled equations are re-checked after every
step, which ties this decoupled realization to the monolithic statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from .assembly import AssembledForms, DirichletOperator
from .fem import FeSpace, interpolate
from .linsolve import Factors, SolverConfig, solve_general, solve_neumann_zero_mean, solve_spd
from .mesh import Mesh


class ReductionError(RuntimeError):
    """The scalar reduction became ill-posed; diagnostics in the message."""


@dataclass
class Params:
    """Physical constants and numerical controls.

    c1/c2 shift the two auxiliary energies so their square roots exist;
    the analysis wants c1 > gamma, but the reference experiments
    themselves run with c1 <= gamma, so only positivity is enforced here.
    """

    mobility: float = 0.001
    lam: float = 0.001
    nu: float = 0.1
    eps: float = 0.04
    gamma: float = 1.0
    c1: float = 0.1
    c2: float = 0.1
    tau: float = 1e-3
    t_end: float = 0.1
    solver_tol: float = 1e-10
    solver_maxit: int | None = None

    def __post_init__(self):
        for name in ("mobility", "lam", "nu", "eps", "gamma", "c1", "c2", "tau", "t_end"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"parameter {name} must be positive")
        if self.tau > self.t_end:
            raise ValueError("time step exceeds final time")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(rel_tolerance=self.solver_tol, max_iterations=self.solver_maxit)


@dataclass
class State:
    """All unknowns at one time level."""

    step: int
    phi: np.ndarray
    mu: np.ndarray
    u_tilde: np.ndarray
    u: np.ndarray
    p: np.ndarray
    r: float
    rho: float


@dataclass
class Forcing:
    """Manufactured right-hand sides; absent in the physical experiments."""

    g_phi: object  # g_phi(t, x, y) -> array
    g_u: object    # g_u(t, x, y) -> (array, array)


@dataclass
class StepReport:
    energy_before: float
    energy_after: float
    dissipation: float
    identity_residual: float
    a2: float
    a1: float
    a0: float
    discriminant: float
    roots: tuple
    chosen_root: float
    root_ratio: float
    alpha: float
    beta: float
    r_eq_residual: float
    rho_eq_residual: float
    div_norm: float
    e1h: float
    e2h: float
    iterations: dict = field(default_factory=dict)


@dataclass
class Operators:
    """Matrices and eliminated systems reused across steps for a fixed tau."""

    mesh: Mesh
    p1: FeSpace
    p2v: FeSpace
    forms: AssembledForms
    a_ch: sp.csr_matrix
    velocity: DirichletOperator     # m_v / tau + nu k_v, boundary rows eliminated
    projection: DirichletOperator   # m_v with boundary rows eliminated
    config: SolverConfig
    # solver data per matrix: its Jacobi diagonal, and for a_ch the LU
    # factors made the first time BiCGStab gives up on it
    ch_factors: Factors = field(default_factory=Factors)
    velocity_factors: Factors = field(default_factory=Factors)
    projection_factors: Factors = field(default_factory=Factors)
    pressure_factors: Factors = field(default_factory=Factors)  # k_p1


def build_operators(p1: FeSpace, p2v: FeSpace, params: Params,
                    forms: AssembledForms | None = None) -> Operators:
    forms = forms if forms is not None else asm.assemble_forms(p1, p2v)
    tau, lam, gamma = params.tau, params.lam, params.gamma
    a_ch = sp.bmat([
        [forms.m_p1 / tau, params.mobility * forms.k_p1],
        [-lam * forms.k_p1 - lam * gamma * forms.m_p1, forms.m_p1],
    ], format="csr")
    a_v = (forms.m_v / tau + params.nu * forms.k_v).tocsr()
    bdofs = p2v.boundary_dofs
    return Operators(
        mesh=p1.mesh, p1=p1, p2v=p2v, forms=forms, a_ch=a_ch,
        velocity=DirichletOperator(a_v, bdofs),
        projection=DirichletOperator(forms.m_v.tocsr(), bdofs),
        config=params.solver_config(),
    )


def zero_mean(forms: AssembledForms, p: np.ndarray) -> np.ndarray:
    return p - (forms.lumped_p1 @ p) / forms.lumped_p1.sum()


def _as_coeffs(space: FeSpace, data) -> np.ndarray:
    if callable(data):
        return interpolate(space, data)
    arr = np.asarray(data, dtype=float)
    if arr.shape != (space.ndofs,):
        raise ValueError(f"expected {space.ndofs} coefficients, got shape {arr.shape}")
    return arr.copy()


def init_state(ops: Operators, phi0, u0, p0, params: Params, mu0=None) -> State:
    """Interpolate the initial data and seed the auxiliary scalars.

    mu0 may be a callable/coefficient vector; by default the initial
    chemical potential solves its own discrete equation for phi0.
    """
    phi = _as_coeffs(ops.p1, phi0)
    u = _as_coeffs(ops.p2v, u0)
    p = zero_mean(ops.forms, _as_coeffs(ops.p1, p0))
    e1h, e2h = asm.compute_discrete_energies(ops.p1, ops.forms.m_v, phi, u, params)
    if mu0 is not None:
        mu = _as_coeffs(ops.p1, mu0)
    else:
        rhs = params.lam * (ops.forms.k_p1 @ phi) \
            + params.lam * params.gamma * (ops.forms.m_p1 @ phi) \
            + params.lam * asm.fprime_load(ops.p1, phi, params.eps, params.gamma)
        mu = solve_spd(ops.forms.m_p1, rhs, ops.config)
    return State(step=0, phi=phi, mu=mu, u_tilde=u.copy(), u=u,
                 p=p, r=float(np.sqrt(e1h)), rho=float(np.sqrt(e2h)))


def ch_split_solve(ops: Operators, params: Params, phi_n: np.ndarray,
                   conv_scalar: np.ndarray, fprime_vec: np.ndarray,
                   g_phi_load: np.ndarray | None, sqrt_e1: float,
                   iterations: dict | None = None):
    """Solve the phase/potential block for the two superposition states.

    X0 carries the explicit data (and forcing); X1 carries everything the
    new auxiliary scalar multiplies. (phi, mu) = X0 + r X1 then satisfies
    both discrete equations for any r.
    """
    n = ops.p1.ndofs
    rhs0 = np.concatenate([ops.forms.m_p1 @ phi_n / params.tau, np.zeros(n)])
    if g_phi_load is not None:
        rhs0[:n] += g_phi_load
    rhs1 = np.concatenate([-conv_scalar / sqrt_e1, params.lam * fprime_vec / sqrt_e1])

    info0, info1 = {}, {}
    x0 = solve_general(ops.a_ch, rhs0, ops.config, info0, ops.ch_factors)
    x1 = solve_general(ops.a_ch, rhs1, ops.config, info1, ops.ch_factors)
    if iterations is not None:
        iterations["ch_x0"] = info0["iterations"]
        iterations["ch_x1"] = info1["iterations"]
    return (x0[:n], x0[n:]), (x1[:n], x1[n:])


def velocity_split_solve(ops: Operators, params: Params, u_n: np.ndarray,
                         grad_p: np.ndarray, capillary: np.ndarray,
                         convection: np.ndarray, g_u_load: np.ndarray | None,
                         sqrt_e1: float, sqrt_e2: float,
                         bc_values: np.ndarray | None = None,
                         iterations: dict | None = None):
    """Solve the tentative-velocity system for the three superposition states.

    Y0 carries the explicit data with the step's boundary values; Y1 and
    Y2 (the r- and rho-scaled parts) use homogeneous conditions so the
    combination Y0 + r Y1 + rho Y2 keeps the prescribed trace.
    """
    rhs0 = ops.forms.m_v @ u_n / params.tau - grad_p
    if g_u_load is not None:
        rhs0 += g_u_load
    infos = [{}, {}, {}]
    y0 = solve_spd(ops.velocity.matrix, ops.velocity.prepare_rhs(rhs0, bc_values),
                   ops.config, infos[0], ops.velocity_factors)
    y1 = solve_spd(ops.velocity.matrix, ops.velocity.prepare_rhs(capillary / sqrt_e1),
                   ops.config, infos[1], ops.velocity_factors)
    y2 = solve_spd(ops.velocity.matrix, ops.velocity.prepare_rhs(-convection / sqrt_e2),
                   ops.config, infos[2], ops.velocity_factors)
    if iterations is not None:
        for name, inf in zip(("vel_y0", "vel_y1", "vel_y2"), infos):
            iterations[name] = inf["iterations"]
    return y0, y1, y2


def solve_quadratic(a2: float, a1: float, a0: float) -> tuple[float, ...]:
    """Roots of a2 x^2 + a1 x + a0 = 0, organized to avoid cancellation.

    A discriminant within -1e-12 * scale of zero is clamped to zero; more
    negative raises ReductionError. Near-vanishing a2 degrades to the
    linear equation.
    """
    scale = max(a1 * a1, abs(4.0 * a2 * a0))
    if abs(a2) < 1e-14 * max(abs(a1), abs(a0)):
        if a1 == 0.0:
            raise ReductionError(f"degenerate quadratic: a2={a2}, a1={a1}, a0={a0}")
        return (-a0 / a1,)
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        if disc < -1e-12 * scale:
            raise ReductionError(f"no real root: discriminant {disc} at scale {scale}")
        disc = 0.0
    sq = np.sqrt(disc)
    q = -0.5 * (a1 + np.copysign(sq, a1) if a1 != 0.0 else a1 + sq)
    if q == 0.0:
        return (0.0, 0.0)
    return (q / a2, a0 / q)


def affine_reduction(r_n: float, tau: float, kappa0: float, kappa1: float,
                     kappa_rho: float) -> tuple[float, float]:
    """Resolve the r equation to r = alpha + beta rho.

    Aborts rather than divides when the prefactor 1/tau - kappa1 loses all
    significant digits.
    """
    denom = 1.0 / tau - kappa1
    if abs(denom) < 1e-12 / tau:
        raise ReductionError(f"r-reduction ill-posed: 1/tau - kappa1 = {denom}")
    return (r_n / tau + kappa0) / denom, kappa_rho / denom


def scalar_reduction(ops: Operators, params: Params, state: State,
                     splits, vectors, sqrt_e1: float, sqrt_e2: float):
    """Collapse the discrete auxiliary-variable equations to two scalars.

    The r update is affine in rho (r = alpha + beta rho); the rho update
    then closes into one quadratic whose real root keeping the ratio
    rho / sqrt(E2(u_tilde) + c2) nearest 1 is selected.

    Returns (r, rho, u_tilde, diagnostics-dict).
    """
    (phi0, mu0), (phi1, mu1) = splits["ch"]
    y0, y1, y2 = splits["velocity"]
    conv_scalar, fp, capillary, convection = vectors
    tau, lam = params.tau, params.lam
    m_v = ops.forms.m_v

    kappa1 = ((fp @ phi1) / tau + (conv_scalar @ mu1) / lam
              - (capillary @ y1) / lam) / (2.0 * sqrt_e1)
    kappa0 = ((fp @ (phi0 - state.phi)) / tau + (conv_scalar @ mu0) / lam
              - (capillary @ y0) / lam) / (2.0 * sqrt_e1)
    kappa_rho = -(capillary @ y2) / (2.0 * lam * sqrt_e1)
    alpha, beta = affine_reduction(state.r, tau, kappa0, kappa1, kappa_rho)

    z0 = y0 + alpha * y1
    z1 = beta * y1 + y2
    mz0 = m_v @ z0
    mz1 = m_v @ z1
    du = z0 - state.u

    a2 = 2.0 / tau - (z1 @ mz1) / tau - 2.0 * (convection @ z1) / sqrt_e2
    a1 = (-2.0 * state.rho / tau - ((du @ mz1) + (z0 @ mz1)) / tau
          - 2.0 * (convection @ z0) / sqrt_e2)
    a0 = -(du @ mz0) / tau
    disc = a1 * a1 - 4.0 * a2 * a0
    roots = solve_quadratic(a2, a1, a0)

    best = None
    for root in roots:
        ut = z0 + root * z1
        ratio = root / np.sqrt(0.5 * (ut @ (m_v @ ut)) + params.c2)
        if best is None or abs(ratio - 1.0) < abs(best[2] - 1.0):
            best = (root, ut, ratio)
    rho, u_tilde, ratio = best
    r = alpha + beta * rho

    diag = {"alpha": alpha, "beta": beta, "a2": a2, "a1": a1, "a0": a0,
            "discriminant": disc, "roots": tuple(roots), "rho": rho,
            "ratio": ratio, "z0": z0, "z1": z1}
    return r, rho, u_tilde, diag


def pressure_correction(ops: Operators, params: Params, u_tilde: np.ndarray,
                        p_n: np.ndarray, iterations: dict | None = None):
    """Project the tentative velocity and update the zero-mean pressure.

    psi solves (grad psi, grad q) = -(div u_tilde, q)/tau; the end-of-step
    velocity is the constrained L2 projection of u_tilde - tau grad psi,
    keeping the tentative trace on the boundary.
    """
    tau = params.tau
    infos = [{}, {}]
    rhs = -asm.div_load(ops.forms, u_tilde) / tau
    psi = solve_neumann_zero_mean(ops.forms.k_p1, rhs, ops.forms.lumped_p1,
                                  ops.config, infos[0], ops.pressure_factors)
    p_new = zero_mean(ops.forms, p_n + psi)
    rhs_u = ops.forms.m_v @ u_tilde - tau * (ops.forms.grad_coupling @ psi)
    bvals = u_tilde[ops.p2v.boundary_dofs]
    u_new = solve_spd(ops.projection.matrix, ops.projection.prepare_rhs(rhs_u, bvals),
                      ops.config, infos[1], ops.projection_factors)
    if iterations is not None:
        iterations["pressure"] = infos[0]["iterations"]
        iterations["mass_projection"] = infos[1]["iterations"]
    return u_new, p_new, psi


def modified_energy(ops: Operators, params: Params, state: State) -> float:
    """Discrete Lyapunov functional that the scheme dissipates."""
    f, lam, gamma, tau = ops.forms, params.lam, params.gamma, params.tau
    return (lam * float(state.phi @ (f.k_p1 @ state.phi))
            + lam * gamma * float(state.phi @ (f.m_p1 @ state.phi))
            + 2.0 * lam * state.r ** 2
            + 0.5 * float(state.u @ (f.m_v @ state.u))
            + tau ** 2 * float(state.p @ (f.k_p1 @ state.p))
            + state.rho ** 2)


def energy_identity_residual(ops: Operators, params: Params,
                             old: State, new: State) -> float:
    """Signed defect of the exact per-step energy balance (zero in exact arithmetic).

    The balance telescopes the modified energy plus its difference terms
    against the dissipation. For the conforming projection used here the
    exact chain carries -1/2 ||u_tilde - u||^2 in place of the formal
    tau^2 ||grad(p_new - p_old)||^2 term of the semi-discrete argument;
    both forms agree up to O(tau^2) but only this one closes identically.
    """
    f, lam, gamma, tau = ops.forms, params.lam, params.gamma, params.tau
    dphi = new.phi - old.phi
    dut = new.u_tilde - old.u
    dproj = new.u_tilde - new.u

    total = lam * (quad(f.k_p1, new.phi) - quad(f.k_p1, old.phi) + quad(f.k_p1, dphi))
    total += lam * gamma * (quad(f.m_p1, new.phi) - quad(f.m_p1, old.phi) + quad(f.m_p1, dphi))
    total += 2.0 * lam * (new.r ** 2 - old.r ** 2 + (new.r - old.r) ** 2)
    total += 0.5 * (quad(f.m_v, new.u) - quad(f.m_v, old.u) + quad(f.m_v, dut))
    total -= 0.5 * quad(f.m_v, dproj)
    total += new.rho ** 2 - old.rho ** 2 + (new.rho - old.rho) ** 2
    total += tau ** 2 * (quad(f.k_p1, new.p) - quad(f.k_p1, old.p))
    total += 2.0 * params.mobility * tau * quad(f.k_p1, new.mu)
    total += 2.0 * params.nu * tau * quad(f.k_v, new.u_tilde)
    return total


def quad(a: sp.csr_matrix, x: np.ndarray) -> float:
    return float(x @ (a @ x))


def _boundary_values(space: FeSpace, bc) -> np.ndarray:
    coords = space.dof_coords[space.boundary_dofs]
    gx, gy = bc(coords[:, 0], coords[:, 1])
    comp = space.boundary_dofs % 2
    return np.where(comp == 0, gx, gy)


def step(state: State, params: Params, ops: Operators,
         forcing: Forcing | None = None, bc=None,
         strict_root: bool = False, velocity_frozen: bool = False) -> tuple[State, StepReport]:
    """Advance one time level and report the step diagnostics.

    velocity_frozen runs the pure phase-field subsystem: the flow stays at
    rest and the pressure untouched, which is the mode the conservation
    checks use.
    """
    tau = params.tau
    t_next = (state.step + 1) * tau
    iterations: dict = {}

    e1h, e2h = asm.compute_discrete_energies(ops.p1, ops.forms.m_v,
                                             state.phi, state.u, params)
    sqrt_e1, sqrt_e2 = np.sqrt(e1h), np.sqrt(e2h)

    conv_scalar = asm.convective_load_scalar(ops.p2v, ops.p1, state.u, state.phi)
    fp = asm.fprime_load(ops.p1, state.phi, params.eps, params.gamma)
    capillary = asm.mu_grad_phi_load(ops.p2v, ops.p1, state.mu, state.phi)
    convection = asm.convective_load_vector(ops.p2v, state.u)
    grad_p = asm.grad_p_load(ops.forms, state.p)
    g_phi_load = g_u_load = None
    if forcing is not None:
        g_phi_load = asm.assemble_load(ops.p1, lambda x, y: forcing.g_phi(t_next, x, y))
        g_u_load = asm.assemble_load(ops.p2v, lambda x, y: forcing.g_u(t_next, x, y))

    ch = ch_split_solve(ops, params, state.phi, conv_scalar, fp, g_phi_load,
                        sqrt_e1, iterations)
    bc_values = _boundary_values(ops.p2v, bc) if bc is not None else None
    if velocity_frozen:
        zero = np.zeros(ops.p2v.ndofs)
        vel = (zero, zero.copy(), zero.copy())
    else:
        vel = velocity_split_solve(ops, params, state.u, grad_p, capillary, convection,
                                   g_u_load, sqrt_e1, sqrt_e2, bc_values, iterations)

    splits = {"ch": ch, "velocity": vel}
    vectors = (conv_scalar, fp, capillary, convection)
    r, rho, u_tilde, diag = scalar_reduction(ops, params, state, splits, vectors,
                                             sqrt_e1, sqrt_e2)

    if strict_root and len(diag["roots"]) > 1:
        # re-rank the roots with the fully projected end-of-step velocity
        best = None
        for root in diag["roots"]:
            ut = diag["z0"] + root * diag["z1"]
            u_cand, _, _ = pressure_correction(ops, params, ut, state.p)
            ratio = root / np.sqrt(0.5 * quad(ops.forms.m_v, u_cand) + params.c2)
            if best is None or abs(ratio - 1.0) < abs(best[2] - 1.0):
                best = (root, ut, ratio)
        rho, u_tilde, diag["ratio"] = best
        diag["rho"] = rho
        r = diag["alpha"] + diag["beta"] * rho

    (phi0, mu0), (phi1, mu1) = ch
    phi_new = phi0 + r * phi1
    mu_new = mu0 + r * mu1

    if velocity_frozen:
        u_new, p_new = state.u.copy(), state.p.copy()
    else:
        u_new, p_new, _psi = pressure_correction(ops, params, u_tilde, state.p, iterations)
    new = State(step=state.step + 1, phi=phi_new, mu=mu_new, u_tilde=u_tilde,
                u=u_new, p=p_new, r=r, rho=rho)

    # verify the two scalar equations the reduction eliminated
    lhs_r = (r - state.r) / tau
    rhs_r = ((fp @ (phi_new - state.phi)) / tau + (conv_scalar @ mu_new) / params.lam
             - (capillary @ u_tilde) / params.lam) / (2.0 * sqrt_e1)
    res_r = abs(lhs_r - rhs_r) / max(1.0, abs(lhs_r), abs(rhs_r))
    lhs_rho = 2.0 * rho * (rho - state.rho) / tau
    rhs_rho = ((u_tilde - state.u) @ (ops.forms.m_v @ u_tilde)) / tau \
        + 2.0 * rho * (convection @ u_tilde) / sqrt_e2
    res_rho = abs(lhs_rho - rhs_rho) / max(1.0, abs(lhs_rho), abs(rhs_rho))

    energy_before = modified_energy(ops, params, state)
    energy_after = modified_energy(ops, params, new)
    dissipation = (2.0 * params.mobility * tau * quad(ops.forms.k_p1, mu_new)
                   + 2.0 * params.nu * tau * quad(ops.forms.k_v, u_tilde))
    residual = energy_identity_residual(ops, params, state, new) \
        if forcing is None and bc is None else float("nan")

    report = StepReport(
        energy_before=energy_before, energy_after=energy_after,
        dissipation=dissipation, identity_residual=residual,
        a2=diag["a2"], a1=diag["a1"], a0=diag["a0"],
        discriminant=diag["discriminant"], roots=diag["roots"],
        chosen_root=rho, root_ratio=diag["ratio"],
        alpha=diag["alpha"], beta=diag["beta"],
        r_eq_residual=res_r, rho_eq_residual=res_rho,
        div_norm=float(np.linalg.norm(asm.div_load(ops.forms, u_new))),
        e1h=e1h, e2h=e2h, iterations=iterations,
    )
    return new, report


def scheme_residuals(ops: Operators, params: Params, old: State, new: State,
                     forcing: Forcing | None = None) -> dict:
    """Relative residuals of the five coupled discrete equations.

    Substitutes a completed step back into the monolithic statement; all
    values should sit at the linear-solver tolerance.
    """
    tau, lam = params.tau, params.lam
    t_next = new.step * tau
    e1h, e2h = asm.compute_discrete_energies(ops.p1, ops.forms.m_v, old.phi, old.u, params)
    sqrt_e1, sqrt_e2 = np.sqrt(e1h), np.sqrt(e2h)
    f = ops.forms

    conv_scalar = asm.convective_load_scalar(ops.p2v, ops.p1, old.u, old.phi)
    fp = asm.fprime_load(ops.p1, old.phi, params.eps, params.gamma)
    capillary = asm.mu_grad_phi_load(ops.p2v, ops.p1, old.mu, old.phi)
    convection = asm.convective_load_vector(ops.p2v, old.u)

    def rel(res, *scales):
        return float(np.linalg.norm(res) / max(1.0, *(np.linalg.norm(s) for s in scales)))

    r1 = f.m_p1 @ (new.phi - old.phi) / tau + (new.r / sqrt_e1) * conv_scalar \
        + params.mobility * (f.k_p1 @ new.mu)
    if forcing is not None:
        r1 -= asm.assemble_load(ops.p1, lambda x, y: forcing.g_phi(t_next, x, y))
    res_phi = rel(r1, f.m_p1 @ old.phi / tau)

    r2 = f.m_p1 @ new.mu - lam * (f.k_p1 @ new.phi) - lam * params.gamma * (f.m_p1 @ new.phi) \
        - (lam * new.r / sqrt_e1) * fp
    res_mu = rel(r2, f.m_p1 @ new.mu, lam * (f.k_p1 @ new.phi))

    r3 = (new.r - old.r) / tau - ((fp @ (new.phi - old.phi)) / tau
                                  + (conv_scalar @ new.mu) / lam
                                  - (capillary @ new.u_tilde) / lam) / (2.0 * sqrt_e1)
    res_r = abs(r3) / max(1.0, abs(new.r - old.r) / tau)

    r4 = f.m_v @ (new.u_tilde - old.u) / tau + (new.rho / sqrt_e2) * convection \
        + params.nu * (f.k_v @ new.u_tilde) + asm.grad_p_load(f, old.p) \
        - (new.r / sqrt_e1) * capillary
    if forcing is not None:
        r4 -= asm.assemble_load(ops.p2v, lambda x, y: forcing.g_u(t_next, x, y))
    interior = np.setdiff1d(np.arange(ops.p2v.ndofs), ops.p2v.boundary_dofs)
    res_u = rel(r4[interior], f.m_v @ old.u / tau)

    r5 = 2.0 * new.rho * (new.rho - old.rho) / tau \
        - ((new.u_tilde - old.u) @ (f.m_v @ new.u_tilde)) / tau \
        - 2.0 * new.rho * (convection @ new.u_tilde) / sqrt_e2
    res_rho = abs(r5) / max(1.0, abs(2.0 * new.rho * (new.rho - old.rho) / tau))

    return {"phi": res_phi, "mu": res_mu, "r": res_r, "u": res_u, "rho": res_rho}
