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

The explicit data of a step (the shifted energies and the nonlinear,
pressure and forcing loads at the old level) are assembled in one place,
`explicit_terms`. `step` re-checks the two scalar equations the reduction
eliminated (`scalar_equation_residuals`); `scheme_residuals` substitutes a
completed step into all five coupled equations, which ties this decoupled
realization to the monolithic statement.

The discrete energy law has one source per term: `modified_energy` is the
Lyapunov functional, `dissipation` what a step dissipates, and
`energy_identity_residual` balances the two with the increment terms.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from .assembly import AssembledForms, DirichletOperator, NonpositiveEnergyError
from .fem import FeSpace, coarser_grid, grid_interpolation, interpolate, p1_to_p2
from .linsolve import Planar, Presb, PresbCycle, SolverError, VCycle, jacobi, solve_general, \
    solve_neumann_zero_mean, solve_spd
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

    def __post_init__(self):
        # each test is written so that a NaN fails it
        for name in ("mobility", "lam", "nu", "eps", "gamma", "c1", "c2", "tau", "t_end"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"parameter {name} must be positive")
        if self.tau > self.t_end:
            raise ValueError("time step exceeds final time")
        if not 0.0 < self.solver_tol < 1.0:
            raise ValueError(f"solver_tol must lie in (0, 1), got {self.solver_tol!r}")


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
    """Matrices and eliminated systems reused across steps for a fixed tau.

    Each matrix's solver data (a symmetric matrix's preconditioner, the
    phase block's `Presb`) is made by the first solve that reads it, and
    kept.
    """

    mesh: Mesh
    p1: FeSpace
    p2v: FeSpace
    forms: AssembledForms
    a_ch: sp.csr_matrix
    velocity: DirichletOperator     # m_p2 / tau + nu k_p2 per component, boundary rows eliminated
    projection: DirichletOperator   # m_p2 per component, boundary rows eliminated
    nu_tau: float                   # nu * tau, which sets the velocity's coarse levels
    tau: float
    ch_c: float                     # sqrt(tau m lam), the coupling of the scaled phase block
    ch_s: float                     # c / (tau m), the scaling mu = -s y

    @cached_property
    def velocity_precondition(self):
        return _velocity_precondition(self)

    @cached_property
    def pressure_precondition(self):  # of k_p1
        return _pressure_precondition(self.mesh, self.forms.k_p1)

    @cached_property
    def projection_precondition(self):
        return jacobi(self.projection.matrix)

    @cached_property
    def ch_solver(self) -> Presb:  # of a_ch
        return _ch_solver(self)


def build_operators(p1: FeSpace, p2v: FeSpace, params: Params,
                    forms: AssembledForms | None = None) -> Operators:
    forms = forms if forms is not None else asm.assemble_forms(p1, p2v)
    tau, lam, gamma = params.tau, params.lam, params.gamma
    a_ch = sp.bmat([
        [forms.m_p1 / tau, params.mobility * forms.k_p1],
        [-lam * forms.k_p1 - lam * gamma * forms.m_p1, forms.m_p1],
    ], format="csr")
    a_v = (forms.m_p2 / tau + params.nu * forms.k_p2).tocsr()
    bdofs = p2v.boundary_dofs
    ch_c = np.sqrt(tau * params.mobility * lam)
    return Operators(
        mesh=p1.mesh, p1=p1, p2v=p2v, forms=forms, a_ch=a_ch,
        velocity=DirichletOperator(Planar(a_v), bdofs),
        projection=DirichletOperator(Planar(forms.m_p2), bdofs),
        nu_tau=params.nu * tau, tau=tau, ch_c=ch_c, ch_s=ch_c / (tau * params.mobility),
    )


#: the pressure hierarchy coarsens until a level has at most this many nodes
COARSEST_PRESSURE_NODES = 100


def _grid_interior(grid: tuple[int, int]) -> np.ndarray:
    """Vertices of a uniform grid off the rectangle's boundary, row-major."""
    nx, ny = grid
    return (np.arange(1, ny)[:, None] * (nx + 1) + np.arange(1, nx)).ravel()


def _stiffness_dominates(weight: float, k_diag: np.ndarray, m_diag: np.ndarray) -> bool:
    """Whether the median of weight K_ii / M_ii exceeds 1."""
    return bool(np.median(weight * k_diag / m_diag) > 1.0)


def _grid_prolongations(grid, k: sp.csr_matrix, m: sp.csr_matrix, weight: float,
                        nodes=None) -> list:
    """P1 interpolations to ever coarser grids of the rectangle, finest first.

    `k` and `m` are the P1 stiffness and mass on `grid`'s vertices, or on
    the subset `nodes(grid)` of them. A level gets a coarser one below it
    only while its stiffness outweighs its mass on the diagonal (median of
    weight K_ii / M_ii above 1): below that, Jacobi alone smooths it well.
    A mesh that is not a uniform grid (grid None) gets no level, and the
    1 x 1 grid, which has no coarser one, ends the hierarchy.
    """
    prolongations = []
    while grid is not None and _stiffness_dominates(weight, k.diagonal(), m.diagonal()):
        coarse = coarser_grid(grid)
        if coarse == grid:
            break
        p = grid_interpolation(grid, coarse)
        if nodes is not None:
            p = p[nodes(grid)][:, nodes(coarse)]
        if p.shape[1] == 0:  # the coarser grid has no interior vertex
            break
        k, m = (p.T @ k @ p).tocsr(), (p.T @ m @ p).tocsr()
        prolongations.append(p)
        grid = coarse
    return prolongations


def _velocity_precondition(ops: Operators):
    """V-cycle of the eliminated velocity block on each component, or the Jacobi diagonal.

    The first coarse level is P1 on the same mesh, the next ones P1 on ever
    coarser grids of the rectangle (`_grid_prolongations` with weight
    nu tau), all without their boundary nodes. A matrix whose finest level
    is mass-dominated keeps Jacobi.
    """
    a, forms, p1, p2v = ops.velocity.matrix, ops.forms, ops.p1, ops.p2v
    free = np.setdiff1d(np.arange(a.block.shape[0]), p2v.boundary_dofs)  # nodes off the boundary
    k_diag, m_diag = forms.k_p2.diagonal(), forms.m_p2.diagonal()
    if not _stiffness_dominates(ops.nu_tau, k_diag[free], m_diag[free]):
        return jacobi(a)
    free = np.setdiff1d(np.arange(p1.ndofs), p1.boundary_dofs)
    if free.size == 0:  # no interior vertex, no coarse level
        return jacobi(a)
    prolongations = [p1_to_p2(ops.mesh)[:, free]]
    prolongations += _grid_prolongations(ops.mesh.grid, forms.k_p1[free][:, free],
                                         forms.m_p1[free][:, free], ops.nu_tau, _grid_interior)
    return Planar(VCycle(a.block, prolongations))


def _ch_solver(ops: Operators) -> Presb:
    """The phase block's PRESB data; H^-1 is one `PresbCycle` of H = M + c K.

    H is Neumann P1, so its levels keep every vertex. The block goes
    straight to PRESB-GMRES when it is stiffness-dominated (median of
    c K_ii / M_ii above 1), the rule that also gives H its coarse levels.
    """
    k, m, c = ops.forms.k_p1, ops.forms.m_p1, ops.ch_c
    prolongations = _grid_prolongations(ops.mesh.grid, k, m, c)
    h = PresbCycle((m + c * k).tocsr(), prolongations)
    return Presb(ops.a_ch, m, ops.tau, ops.ch_s, h,
                 direct=_stiffness_dominates(c, k.diagonal(), m.diagonal()))


def _pressure_precondition(mesh: Mesh, k: sp.csr_matrix):
    """V-cycle of the Neumann P1 stiffness matrix, or its Jacobi diagonal.

    Halves the grid until a level has at most COARSEST_PRESSURE_NODES nodes and
    applies the dense pseudo-inverse there. A mesh that is not a uniform grid
    has no coarse levels: small, it is solved directly, else it keeps Jacobi.
    """
    grid, nodes = mesh.grid, k.shape[0]
    if grid is None and nodes > COARSEST_PRESSURE_NODES:
        return jacobi(k)
    prolongations = []
    while nodes > COARSEST_PRESSURE_NODES:
        coarse = coarser_grid(grid)
        prolongations.append(grid_interpolation(grid, coarse))
        grid, nodes = coarse, (coarse[0] + 1) * (coarse[1] + 1)
    return VCycle(k, prolongations, coarse_pinv=True)


def zero_mean(forms: AssembledForms, p: np.ndarray) -> np.ndarray:
    return p - (forms.lumped_p1 @ p) / forms.lumped_p1.sum()


def _as_coeffs(space: FeSpace, data) -> np.ndarray:
    if callable(data):
        return interpolate(space, data)
    arr = np.asarray(data, dtype=float)
    if arr.shape != (space.ndofs,):
        raise ValueError(f"expected {space.ndofs} coefficients, got shape {arr.shape}")
    return arr.copy()


@contextmanager
def _naming_step(n: int):
    """Prefix "step n: " to the message of a SolverError, ReductionError or
    NonpositiveEnergyError raised inside; step 0 is the initial state."""
    try:
        yield
    except (SolverError, ReductionError, NonpositiveEnergyError) as exc:
        exc.args = (f"step {n}: {exc}",)
        raise


def init_state(ops: Operators, phi0, u0, p0, params: Params, mu0=None) -> State:
    """Interpolate the initial data and seed the auxiliary scalars.

    mu0 may be a callable/coefficient vector; by default the initial
    chemical potential solves its own discrete equation for phi0.
    """
    phi = _as_coeffs(ops.p1, phi0)
    u = _as_coeffs(ops.p2v, u0)
    p = zero_mean(ops.forms, _as_coeffs(ops.p1, p0))
    with _naming_step(0):
        e1h, e2h = asm.compute_discrete_energies(ops.p1, Planar(ops.forms.m_p2), phi, u, params)
        if mu0 is not None:
            mu = _as_coeffs(ops.p1, mu0)
        else:
            rhs = params.lam * (ops.forms.k_p1 @ phi) \
                + params.lam * params.gamma * (ops.forms.m_p1 @ phi) \
                + params.lam * asm.fprime_load(ops.p1, phi, params.eps, params.gamma)
            mu, _ = solve_spd(ops.forms.m_p1, rhs, params.solver_tol)
    return State(step=0, phi=phi, mu=mu, u_tilde=u.copy(), u=u,
                 p=p, r=float(np.sqrt(e1h)), rho=float(np.sqrt(e2h)))


@dataclass
class ExplicitTerms:
    """Data of one step at the old level; the forcing loads are None when unforced."""

    e1h: float                      # E1(phi^n) + c1
    e2h: float                      # E2(u^n) + c2
    sqrt_e1: float
    sqrt_e2: float
    conv_scalar: np.ndarray         # (u^n . grad phi^n, w)
    fp: np.ndarray                  # (F'(phi^n), w)
    capillary: np.ndarray           # (mu^n grad phi^n, v)
    convection: np.ndarray          # ((u^n . grad) u^n, v)
    grad_p: np.ndarray              # (grad p^n, v)
    g_phi_load: np.ndarray | None   # (g_phi(t^{n+1}), w)
    g_u_load: np.ndarray | None     # (g_u(t^{n+1}), v)


def explicit_terms(ops: Operators, params: Params, state: State,
                   forcing: Forcing | None = None) -> ExplicitTerms:
    """Assemble the explicit data of the step that starts from state."""
    # each load is looked up on the assembly module at call time, so a
    # wrapper installed there sees every call
    e1h, e2h = asm.compute_discrete_energies(ops.p1, Planar(ops.forms.m_p2),
                                             state.phi, state.u, params)
    terms = ExplicitTerms(
        e1h=e1h, e2h=e2h, sqrt_e1=np.sqrt(e1h), sqrt_e2=np.sqrt(e2h),
        conv_scalar=asm.convective_load_scalar(ops.p2v, ops.p1, state.u, state.phi),
        fp=asm.fprime_load(ops.p1, state.phi, params.eps, params.gamma),
        capillary=asm.mu_grad_phi_load(ops.p2v, ops.p1, state.mu, state.phi),
        convection=asm.convective_load_vector(ops.p2v, state.u),
        grad_p=asm.grad_p_load(ops.forms, state.p),
        g_phi_load=None, g_u_load=None)
    if forcing is not None:
        t_next = (state.step + 1) * params.tau
        terms.g_phi_load = asm.assemble_load(ops.p1, lambda x, y: forcing.g_phi(t_next, x, y))
        terms.g_u_load = asm.assemble_load(ops.p2v, lambda x, y: forcing.g_u(t_next, x, y))
    return terms


def ch_split_solve(ops: Operators, params: Params, phi_n: np.ndarray,
                   terms: ExplicitTerms, iterations: dict | None = None):
    """Solve the phase/potential block for the two superposition states.

    X0 carries the explicit data (and forcing); X1 carries everything the
    new auxiliary scalar multiplies. (phi, mu) = X0 + r X1 then satisfies
    both discrete equations for any r.
    """
    n = ops.p1.ndofs
    rhs0 = np.concatenate([ops.forms.m_p1 @ phi_n / params.tau, np.zeros(n)])
    if terms.g_phi_load is not None:
        rhs0[:n] += terms.g_phi_load
    rhs1 = np.concatenate([-terms.conv_scalar / terms.sqrt_e1,
                           params.lam * terms.fp / terms.sqrt_e1])

    x0, k0 = solve_general(ops.a_ch, rhs0, params.solver_tol, ops.ch_solver)
    x1, k1 = solve_general(ops.a_ch, rhs1, params.solver_tol, ops.ch_solver)
    if iterations is not None:
        iterations.update(ch_x0=k0, ch_x1=k1)
    return (x0[:n], x0[n:]), (x1[:n], x1[n:])


def velocity_split_solve(ops: Operators, params: Params, u_n: np.ndarray,
                         terms: ExplicitTerms, bc_values: np.ndarray | None = None,
                         iterations: dict | None = None):
    """Solve the tentative-velocity system for the three superposition states.

    Y0 carries the explicit data with the step's boundary values; Y1 and
    Y2 (the r- and rho-scaled parts) use homogeneous conditions so the
    combination Y0 + r Y1 + rho Y2 keeps the prescribed trace.
    """
    rhs0 = Planar(ops.forms.m_p2) @ u_n / params.tau - terms.grad_p
    if terms.g_u_load is not None:
        rhs0 += terms.g_u_load
    rhs = (ops.velocity.prepare_rhs(rhs0, bc_values),
           ops.velocity.prepare_rhs(terms.capillary / terms.sqrt_e1),
           ops.velocity.prepare_rhs(-terms.convection / terms.sqrt_e2))
    (y0, k0), (y1, k1), (y2, k2) = (
        solve_spd(ops.velocity.matrix, b, params.solver_tol, ops.velocity_precondition)
        for b in rhs)
    if iterations is not None:
        iterations.update(vel_y0=k0, vel_y1=k1, vel_y2=k2)
    return y0, y1, y2


def solve_quadratic(a2: float, a1: float, a0: float) -> tuple[float, ...]:
    """Roots of a2 x^2 + a1 x + a0 = 0, organized to avoid cancellation.

    A discriminant within -1e-12 * scale of zero is clamped to zero; more
    negative raises ReductionError. Near-vanishing a2 degrades to the
    linear equation, but only where the quadratic term is negligible at
    the linear root (|a2 a0| <= 1e-14 a1^2); elsewhere a small a2 keeps
    both roots, or none.
    """
    scale = max(a1 * a1, abs(4.0 * a2 * a0))
    if abs(a2) < 1e-14 * max(abs(a1), abs(a0)) and abs(a2 * a0) <= 1e-14 * a1 * a1:
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


def closest_ratio_root(roots, velocity_of, m_v: Planar, c2: float):
    """Pick the root whose ratio rho / sqrt(E2(u_tilde) + c2) lies nearest 1.

    u_tilde = velocity_of(rho); the first of two equally near roots wins.
    Returns (rho, u_tilde, ratio).
    """
    best = None
    for root in roots:
        ut = velocity_of(root)
        ratio = root / np.sqrt(0.5 * (ut @ (m_v @ ut)) + c2)
        if best is None or abs(ratio - 1.0) < abs(best[2] - 1.0):
            best = (root, ut, ratio)
    return best


def scalar_reduction(ops: Operators, params: Params, state: State,
                     terms: ExplicitTerms, ch, vel):
    """Collapse the discrete auxiliary-variable equations to two scalars.

    ch and vel are the split solutions. The r update is affine in rho
    (r = alpha + beta rho); the rho update closes into one quadratic whose
    root is picked by `closest_ratio_root`. Returns (r, rho, u_tilde, diag),
    diag holding the reduction's StepReport fields.
    """
    (phi0, mu0), (phi1, mu1) = ch
    y0, y1, y2 = vel
    tau, lam = params.tau, params.lam
    m_v = Planar(ops.forms.m_p2)

    kappa1 = ((terms.fp @ phi1) / tau + (terms.conv_scalar @ mu1) / lam
              - (terms.capillary @ y1) / lam) / (2.0 * terms.sqrt_e1)
    kappa0 = ((terms.fp @ (phi0 - state.phi)) / tau + (terms.conv_scalar @ mu0) / lam
              - (terms.capillary @ y0) / lam) / (2.0 * terms.sqrt_e1)
    kappa_rho = -(terms.capillary @ y2) / (2.0 * lam * terms.sqrt_e1)
    alpha, beta = affine_reduction(state.r, tau, kappa0, kappa1, kappa_rho)

    z0 = y0 + alpha * y1
    z1 = beta * y1 + y2
    mz0 = m_v @ z0
    mz1 = m_v @ z1
    du = z0 - state.u

    a2 = 2.0 / tau - (z1 @ mz1) / tau - 2.0 * (terms.convection @ z1) / terms.sqrt_e2
    a1 = (-2.0 * state.rho / tau - ((du @ mz1) + (z0 @ mz1)) / tau
          - 2.0 * (terms.convection @ z0) / terms.sqrt_e2)
    a0 = -(du @ mz0) / tau
    disc = a1 * a1 - 4.0 * a2 * a0
    roots = solve_quadratic(a2, a1, a0)
    rho, u_tilde, ratio = closest_ratio_root(roots, lambda root: z0 + root * z1,
                                             m_v, params.c2)
    r = alpha + beta * rho

    diag = {"alpha": alpha, "beta": beta, "a2": a2, "a1": a1, "a0": a0,
            "discriminant": disc, "roots": tuple(roots), "root_ratio": ratio}
    return r, rho, u_tilde, diag


def pressure_correction(ops: Operators, params: Params, u_tilde: np.ndarray,
                        p_n: np.ndarray, iterations: dict | None = None):
    """Project the tentative velocity and update the zero-mean pressure.

    psi solves (grad psi, grad q) = -(div u_tilde, q)/tau; the end-of-step
    velocity is the constrained L2 projection of u_tilde - tau grad psi,
    keeping the tentative trace on the boundary.
    """
    tau, tol = params.tau, params.solver_tol
    rhs = -asm.div_load(ops.forms, u_tilde) / tau
    psi, k_p = solve_neumann_zero_mean(ops.forms.k_p1, rhs, ops.forms.lumped_p1, tol,
                                       ops.pressure_precondition)
    p_new = zero_mean(ops.forms, p_n + psi)
    rhs_u = Planar(ops.forms.m_p2) @ u_tilde - tau * (ops.forms.grad_coupling @ psi)
    bvals = u_tilde[ops.p2v.boundary_dofs]
    u_new, k_m = solve_spd(ops.projection.matrix, ops.projection.prepare_rhs(rhs_u, bvals),
                           tol, ops.projection_precondition)
    if iterations is not None:
        iterations.update(pressure=k_p, mass_projection=k_m)
    return u_new, p_new, psi


def modified_energy(ops: Operators, params: Params, state: State) -> float:
    """Discrete Lyapunov functional that the scheme dissipates."""
    f, lam, gamma, tau = ops.forms, params.lam, params.gamma, params.tau
    return (lam * float(state.phi @ (f.k_p1 @ state.phi))
            + lam * gamma * float(state.phi @ (f.m_p1 @ state.phi))
            + 2.0 * lam * state.r ** 2
            + 0.5 * quad(Planar(f.m_p2), state.u)
            + tau ** 2 * float(state.p @ (f.k_p1 @ state.p))
            + state.rho ** 2)


def dissipation(ops: Operators, params: Params, new: State) -> float:
    """Energy the step into `new` dissipates: 2 tau (M ||grad mu||^2 + nu ||grad u_tilde||^2)."""
    f, tau = ops.forms, params.tau
    return (2.0 * params.mobility * tau * quad(f.k_p1, new.mu)
            + 2.0 * params.nu * tau * quad(Planar(f.k_p2), new.u_tilde))


def energy_identity_residual(ops: Operators, params: Params,
                             old: State, new: State) -> float:
    """Signed defect of the exact per-step energy balance (zero in exact arithmetic).

    The balance is the change of `modified_energy`, plus the numerical
    dissipation of the increments, plus `dissipation`. For the conforming
    projection used here the exact chain carries -1/2 ||u_tilde - u||^2 in
    place of the formal tau^2 ||grad(p_new - p_old)||^2 term of the
    semi-discrete argument; both forms agree up to O(tau^2) but only this
    one closes identically.
    """
    f, lam = ops.forms, params.lam
    dphi = new.phi - old.phi
    increments = (lam * (quad(f.k_p1, dphi) + params.gamma * quad(f.m_p1, dphi))
                  + 2.0 * lam * (new.r - old.r) ** 2
                  + 0.5 * quad(Planar(f.m_p2), new.u_tilde - old.u)
                  - 0.5 * quad(Planar(f.m_p2), new.u_tilde - new.u)
                  + (new.rho - old.rho) ** 2)
    return (modified_energy(ops, params, new) - modified_energy(ops, params, old)
            + increments + dissipation(ops, params, new))


def quad(a, x: np.ndarray) -> float:
    return float(x @ (a @ x))


def _boundary_values(space: FeSpace, bc) -> np.ndarray:
    return interpolate(space, bc)[space.boundary_dofs]


def step(state: State, params: Params, ops: Operators,
         forcing: Forcing | None = None, bc=None,
         velocity_frozen: bool = False) -> tuple[State, StepReport]:
    """Advance one time level and report the step diagnostics.

    velocity_frozen runs the pure phase-field subsystem: the flow stays at
    rest and the pressure untouched, which is the mode the conservation
    checks use. A SolverError, ReductionError or NonpositiveEnergyError
    raised on the way names the step it stopped (`_naming_step`).
    """
    iterations: dict = {}

    with _naming_step(state.step + 1):
        terms = explicit_terms(ops, params, state, forcing)
        ch = ch_split_solve(ops, params, state.phi, terms, iterations)
        bc_values = _boundary_values(ops.p2v, bc) if bc is not None else None
        if velocity_frozen:
            zero = np.zeros(ops.p2v.ndofs)
            vel = (zero, zero.copy(), zero.copy())
        else:
            vel = velocity_split_solve(ops, params, state.u, terms, bc_values, iterations)
        r, rho, u_tilde, diag = scalar_reduction(ops, params, state, terms, ch, vel)

        (phi0, mu0), (phi1, mu1) = ch
        phi_new = phi0 + r * phi1
        mu_new = mu0 + r * mu1

        if velocity_frozen:
            u_new, p_new = state.u.copy(), state.p.copy()
        else:
            u_new, p_new, _psi = pressure_correction(ops, params, u_tilde, state.p, iterations)
    new = State(step=state.step + 1, phi=phi_new, mu=mu_new, u_tilde=u_tilde,
                u=u_new, p=p_new, r=r, rho=rho)
    res_r, res_rho = scalar_equation_residuals(ops, params, state, new, terms)

    energy_before = modified_energy(ops, params, state)
    energy_after = modified_energy(ops, params, new)
    residual = energy_identity_residual(ops, params, state, new) \
        if forcing is None and bc is None else float("nan")

    report = StepReport(
        energy_before=energy_before, energy_after=energy_after,
        dissipation=dissipation(ops, params, new), identity_residual=residual,
        chosen_root=rho, r_eq_residual=res_r, rho_eq_residual=res_rho,
        div_norm=float(np.linalg.norm(asm.div_load(ops.forms, u_new))),
        e1h=terms.e1h, e2h=terms.e2h, iterations=iterations, **diag,
    )
    return new, report


def scalar_equation_residuals(ops: Operators, params: Params, old: State, new: State,
                              terms: ExplicitTerms) -> tuple[float, float]:
    """Residuals of the r and rho equations that the scalar reduction eliminated.

    Each is |lhs - rhs| / max(1, |lhs|, |rhs|) for the step old -> new.
    """
    tau, lam = params.tau, params.lam
    lhs_r = (new.r - old.r) / tau
    rhs_r = ((terms.fp @ (new.phi - old.phi)) / tau + (terms.conv_scalar @ new.mu) / lam
             - (terms.capillary @ new.u_tilde) / lam) / (2.0 * terms.sqrt_e1)
    res_r = abs(lhs_r - rhs_r) / max(1.0, abs(lhs_r), abs(rhs_r))
    lhs_rho = 2.0 * new.rho * (new.rho - old.rho) / tau
    rhs_rho = ((new.u_tilde - old.u) @ (Planar(ops.forms.m_p2) @ new.u_tilde)) / tau \
        + 2.0 * new.rho * (terms.convection @ new.u_tilde) / terms.sqrt_e2
    res_rho = abs(lhs_rho - rhs_rho) / max(1.0, abs(lhs_rho), abs(rhs_rho))
    return res_r, res_rho


def scheme_residuals(ops: Operators, params: Params, old: State, new: State,
                     forcing: Forcing | None = None) -> dict:
    """Relative residuals of the five coupled discrete equations.

    Substitutes a completed step back into the monolithic statement; all
    values should sit at the linear-solver tolerance. The r and rho entries
    are those `step` reports.
    """
    tau, lam = params.tau, params.lam
    terms = explicit_terms(ops, params, old, forcing)
    f = ops.forms

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

    m_v = Planar(f.m_p2)
    r4 = m_v @ (new.u_tilde - old.u) / tau + (new.rho / terms.sqrt_e2) * terms.convection \
        + params.nu * (Planar(f.k_p2) @ new.u_tilde) + terms.grad_p \
        - (new.r / terms.sqrt_e1) * terms.capillary
    if forcing is not None:
        r4 -= terms.g_u_load
    interior = np.setdiff1d(np.arange(ops.p2v.ndofs), ops.p2v.boundary_dofs)
    res_u = rel(r4[interior], m_v @ old.u / tau)

    res_r, res_rho = scalar_equation_residuals(ops, params, old, new, terms)
    return {"phi": res_phi, "mu": res_mu, "r": res_r, "u": res_u, "rho": res_rho}
