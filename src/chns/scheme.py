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
eliminated (`scalar_equation_residuals`).

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
from .fem import FeSpace, coarser_grid, grid_interpolation, interpolate
from .linsolve import Planar, Presb, Separable, SolverError, VCycle, jacobi, solve_general, \
    solve_neumann_zero_mean, solve_spd
from .mesh import Mesh


class ReductionError(RuntimeError):
    """The scalar reduction became ill-posed; diagnostics in the message."""


RUN_FAILURES = (SolverError, ReductionError, NonpositiveEnergyError)  # each ends a run


@dataclass(frozen=True)
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
        if self.tau * self.tau == float("inf"):  # the tau^2 ||grad p||^2 of the energy
            raise ValueError(f"time step {self.tau!r} is too large: its square overflows")
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


@dataclass(frozen=True)
class Operators:
    """The matrices of one run, built from `params`, the one source of the
    run's constants: every function of a step reads them from here. Frozen,
    like `Params`, so the matrices and their constants cannot drift apart.
    Each matrix's solver data (a symmetric matrix's preconditioner, the phase
    block's `Presb`) is made by the first solve that reads it, and kept."""

    mesh: Mesh
    p1: FeSpace
    p2v: FeSpace
    forms: AssembledForms
    params: Params
    a_ch: sp.csr_matrix
    velocity: DirichletOperator     # m_p2 / tau + nu k_p2 per component, boundary rows eliminated
    projection: DirichletOperator   # m_p2 per component, boundary rows eliminated

    @cached_property
    def velocity_precondition(self):
        return _velocity_precondition(self)

    @cached_property
    def pressure_precondition(self):  # of k_p1
        return _pressure_precondition(self.mesh)

    @cached_property
    def projection_precondition(self):
        return jacobi(self.projection.matrix)

    @cached_property
    def ch_solver(self) -> Presb:  # of a_ch
        return _ch_solver(self)


def build_operators(p1: FeSpace, p2v: FeSpace, params: Params) -> Operators:
    """The matrices of a run on a uniform grid (`build_uniform_mesh`): the
    preconditioners are made from its lattice and its coarser grids."""
    if not p1.mesh.grid:  # None off a uniform grid
        raise ValueError("build_operators needs a uniform grid: the mesh has grid=None")
    forms = asm.assemble_forms(p1, p2v)
    tau, lam, gamma = params.tau, params.lam, params.gamma
    a_ch = sp.bmat([
        [forms.m_p1 / tau, params.mobility * forms.k_p1],
        [-lam * forms.k_p1 - lam * gamma * forms.m_p1, forms.m_p1],
    ], format="csr")
    a_v = (forms.m_p2 / tau + params.nu * forms.k_p2).tocsr()
    bdofs = p2v.boundary_dofs
    return Operators(
        mesh=p1.mesh, p1=p1, p2v=p2v, forms=forms, params=params, a_ch=a_ch,
        velocity=DirichletOperator(Planar(a_v), bdofs),
        projection=DirichletOperator(forms.m_v, bdofs),
    )


def _stiffness_dominates(weight: float, k_diag: np.ndarray, m_diag: np.ndarray) -> bool:
    """Whether the median of weight K_ii / M_ii exceeds 1."""
    return bool(np.median(weight * k_diag / m_diag) > 1.0)


def _grid_prolongations(grid, k: sp.csr_matrix, m: sp.csr_matrix, weight: float) -> list:
    """P1 interpolations to ever coarser grids of the rectangle, finest first.

    `k` and `m` are the P1 stiffness and mass on `grid`'s vertices. A level
    gets a coarser one below it only while its stiffness outweighs its mass
    on the diagonal (median of weight K_ii / M_ii above 1): below that,
    Jacobi alone smooths it well. The 1 x 1 grid, which has no coarser one,
    ends the hierarchy.
    """
    prolongations = []
    while _stiffness_dominates(weight, k.diagonal(), m.diagonal()):
        coarse = coarser_grid(grid)
        if coarse == grid:
            break
        p = grid_interpolation(grid, coarse)
        k, m = (p.T @ k @ p).tocsr(), (p.T @ m @ p).tocsr()
        prolongations.append(p)
        grid = coarse
    return prolongations


def _lattice_axes(mesh: Mesh, refine: int, neumann: bool) -> list:
    """(K, d), x axis first, of the lattice splitting each grid cell refine x refine ways:
    its 1D P1 stiffness matrix, dense, and lumped mass diagonal, on every node for a
    Neumann problem and on the interior ones for a Dirichlet one."""
    axes = []
    for cells, width in zip(refine * np.array(mesh.grid), mesh.vertices[-1] - mesh.vertices[0]):
        h, g = width / cells, np.diff(np.eye(cells + 1), axis=0)  # the nodes' differences
        k, d = g.T @ g / h, np.full(cells + 1, h)
        d[[0, -1]] = 0.5 * h
        axes.append((k, d) if neumann else (k[1:-1, 1:-1], d[1:-1]))
    return axes


def _velocity_precondition(ops: Operators):
    """A `Separable` of the eliminated velocity block, per component, or its Jacobi diagonal.

    The P2 nodes of the grid are the lattice of half its cell widths: vertex (i, j) is
    node (2i, 2j), an edge midpoint the sum of its ends'. The preconditioner inverts in
    float32 that lattice's P1 lumped mass / tau + nu 5-point stiffness on the interior
    nodes; boundary rows pass through. A block whose interior is mass-dominated
    (median nu tau K_ii / M_ii at most 1) keeps Jacobi.
    """
    a, forms, mesh = ops.velocity.matrix, ops.forms, ops.mesh
    free = np.setdiff1d(np.arange(a.block.shape[0]), ops.p2v.boundary_dofs)
    nu, tau = ops.params.nu, ops.params.tau
    if not _stiffness_dominates(nu * tau, forms.k_p2.diagonal()[free], forms.m_p2.diagonal()[free]):
        return jacobi(a)
    (nx, ny), nv = mesh.grid, mesh.num_vertices
    vertex = np.stack([np.arange(nv) % (nx + 1), np.arange(nv) // (nx + 1)], axis=1)
    i, j = np.concatenate([2 * vertex, vertex[mesh.edges].sum(axis=1)]).T
    inside = (0 < i) & (i < 2 * nx) & (0 < j) & (j < 2 * ny)
    # the interior lattice row-major, then the boundary nodes
    order = np.argsort(np.where(inside, 0, (2 * nx + 1) * (2 * ny + 1)) + j * (2 * nx + 1) + i)
    (kx, dx), (ky, dy) = _lattice_axes(mesh, 2, neumann=False)
    return Separable((nu * kx, dx), (nu * ky, dy), 1.0 / tau, order, np.float32)


def _ch_solver(ops: Operators) -> Presb:
    """The phase block's PRESB data (c and s as in `Presb`); H^-1 is one `VCycle` of H = M + c K.

    H is Neumann P1, so its levels keep every vertex. The block goes
    straight to PRESB-GMRES when it is stiffness-dominated (median of
    c K_ii / M_ii above 1), the rule that also gives H its coarse levels.
    """
    tau, mobility = ops.params.tau, ops.params.mobility
    k, m, c = ops.forms.k_p1, ops.forms.m_p1, np.sqrt(tau * mobility * ops.params.lam)
    prolongations = _grid_prolongations(ops.mesh.grid, k, m, c)
    h = VCycle((m + c * k).tocsr(), prolongations)
    return Presb(ops.a_ch, m, tau, c / (tau * mobility), h,
                 direct=_stiffness_dominates(c, k.diagonal(), m.diagonal()))


def _pressure_precondition(mesh: Mesh) -> Separable:
    """The float64 pseudo-inverse of the Neumann P1 stiffness: on a uniform grid, whose
    vertices `build_uniform_mesh` numbers as a row-major lattice, that matrix is exactly
    (hy/hx) D (x) T + (hx/hy) T (x) D, T = [-1 2 -1] and D = diag(1/2, 1, ..., 1, 1/2)."""
    x_axis, y_axis = _lattice_axes(mesh, 1, neumann=True)
    return Separable(x_axis, y_axis, 0.0, np.arange(mesh.num_vertices))


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
def naming_failures(where: str):
    """Prefix "where: " to the message of a run failure (`RUN_FAILURES`) raised inside."""
    try:
        yield
    except RUN_FAILURES as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def init_state(ops: Operators, phi0, u0, p0, mu0=None) -> State:
    """Interpolate the initial data and seed the auxiliary scalars.

    mu0 may be a callable/coefficient vector; by default the initial
    chemical potential solves its own discrete equation for phi0.
    """
    phi = _as_coeffs(ops.p1, phi0)
    u = _as_coeffs(ops.p2v, u0)
    p = zero_mean(ops.forms, _as_coeffs(ops.p1, p0))
    params = ops.params
    with naming_failures("step 0"):  # the initial state
        phiq, _ = asm.evaluate(ops.p1, phi, gradient=False)
        e1h, e2h = asm.compute_discrete_energies(ops.p1, phiq, u, ops.forms.m_v @ u, params)
        if mu0 is not None:
            mu = _as_coeffs(ops.p1, mu0)
        else:
            rhs = params.lam * (ops.forms.k_p1 @ phi) \
                + params.lam * params.gamma * (ops.forms.m_p1 @ phi) \
                + params.lam * asm.fprime_load(ops.p1, phiq, params.eps, params.gamma)
            mu, _ = solve_spd(ops.forms.m_p1, rhs, params.solver_tol, jacobi(ops.forms.m_p1))
    return State(step=0, phi=phi, mu=mu, u_tilde=u.copy(), u=u,
                 p=p, r=float(np.sqrt(e1h)), rho=float(np.sqrt(e2h)))


@dataclass
class ExplicitTerms:
    """Data of one step at the old level; the forcing loads are None when unforced."""

    e1h: float                      # E1(phi^n) + c1
    e2h: float                      # E2(u^n) + c2
    sqrt_e1: float
    sqrt_e2: float
    m_u: np.ndarray                 # M u^n
    conv_scalar: np.ndarray         # (u^n . grad phi^n, w)
    fp: np.ndarray                  # (F'(phi^n), w)
    capillary: np.ndarray           # (mu^n grad phi^n, v)
    convection: np.ndarray          # ((u^n . grad) u^n, v)
    grad_p: np.ndarray              # (grad p^n, v)
    g_phi_load: np.ndarray | None   # (g_phi(t^{n+1}), w)
    g_u_load: np.ndarray | None     # (g_u(t^{n+1}), v)


def explicit_terms(ops: Operators, state: State, forcing: Forcing | None = None) -> ExplicitTerms:
    """Assemble the explicit data of the step that starts from state; each field
    (u, grad u, phi, grad phi, mu) is evaluated at the quadrature points once."""
    # each load is looked up on the assembly module at call time, so a
    # wrapper installed there sees every call
    params = ops.params
    uq, gu = asm.evaluate(ops.p2v, state.u)
    convection = asm.convective_load_vector(ops.p2v, uq, gu)
    del gu  # the largest evaluation: freed before the next one
    phiq, gphi = asm.evaluate(ops.p1, state.phi)
    muq, _ = asm.evaluate(ops.p1, state.mu, gradient=False)
    m_u = ops.forms.m_v @ state.u
    e1h, e2h = asm.compute_discrete_energies(ops.p1, phiq, state.u, m_u, params)
    terms = ExplicitTerms(
        e1h=e1h, e2h=e2h, sqrt_e1=np.sqrt(e1h), sqrt_e2=np.sqrt(e2h), m_u=m_u,
        conv_scalar=asm.convective_load_scalar(ops.p1, uq, gphi),
        fp=asm.fprime_load(ops.p1, phiq, params.eps, params.gamma),
        capillary=asm.mu_grad_phi_load(ops.p2v, muq, gphi),
        convection=convection,
        grad_p=asm.grad_p_load(ops.forms, state.p),
        g_phi_load=None, g_u_load=None)
    if forcing is not None:
        t_next = (state.step + 1) * params.tau
        terms.g_phi_load = asm.assemble_load(ops.p1, lambda x, y: forcing.g_phi(t_next, x, y))
        terms.g_u_load = asm.assemble_load(ops.p2v, lambda x, y: forcing.g_u(t_next, x, y))
    return terms


def ch_split_solve(ops: Operators, phi_n: np.ndarray, terms: ExplicitTerms,
                   iterations: dict | None = None):
    """Solve the phase/potential block for the two superposition states.

    X0 carries the explicit data (and forcing); X1 carries everything the
    new auxiliary scalar multiplies. (phi, mu) = X0 + r X1 then satisfies
    both discrete equations for any r.
    """
    n, params = ops.p1.ndofs, ops.params
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


def velocity_split_solve(ops: Operators, u_n: np.ndarray, terms: ExplicitTerms,
                         bc_values: np.ndarray | None = None, iterations: dict | None = None):
    """Solve the tentative-velocity system for the three superposition states.

    Y0 carries the explicit data with the step's boundary values; Y1 and
    Y2 (the r- and rho-scaled parts) use homogeneous conditions so the
    combination Y0 + r Y1 + rho Y2 keeps the prescribed trace. Y0's solve
    starts from u_n with the step's boundary values, Y1's and Y2's from zero.
    """
    rhs0 = terms.m_u / ops.params.tau - terms.grad_p
    if terms.g_u_load is not None:
        rhs0 += terms.g_u_load
    start = u_n.copy()
    start[ops.velocity.dofs] = 0.0 if bc_values is None else bc_values
    rhs = ((ops.velocity.prepare_rhs(rhs0, bc_values), start),
           (ops.velocity.prepare_rhs(terms.capillary / terms.sqrt_e1), None),
           (ops.velocity.prepare_rhs(-terms.convection / terms.sqrt_e2), None))
    (y0, k0), (y1, k1), (y2, k2) = (
        solve_spd(ops.velocity.matrix, b, ops.params.solver_tol, ops.velocity_precondition, x0)
        for b, x0 in rhs)
    if iterations is not None:
        iterations.update(vel_y0=k0, vel_y1=k1, vel_y2=k2)
    return y0, y1, y2


def solve_quadratic(a2: float, a1: float, a0: float) -> tuple[float, ...]:
    """Roots of a2 x^2 + a1 x + a0 = 0, organized to avoid cancellation.

    The coefficients are first divided by a power of two near max(|a1|,
    2 sqrt|a2 a0|), exactly, so that a1^2 and 4 a2 a0 keep their digits. A
    discriminant within -1e-12 * scale of zero is clamped to zero; more
    negative raises ReductionError. Near-vanishing a2 degrades to the linear equation, but
    only where the quadratic term is negligible at the linear root
    (|a2 a0| <= 1e-14 a1^2); elsewhere a small a2 keeps both roots, or none.
    """
    coeffs = (a2, a1, a0)
    size = max(abs(a1), 2.0 * np.sqrt(abs(a2)) * np.sqrt(abs(a0)))
    e = max(np.frexp(size)[1], np.frexp(max(map(abs, coeffs)))[1] - 1000)
    a2, a1, a0 = np.ldexp(np.array(coeffs, dtype=float), -e)
    scale = max(a1 * a1, abs(4.0 * a2 * a0))
    if abs(a2) < 1e-14 * max(abs(a1), abs(a0)) and abs(a2 * a0) <= 1e-14 * a1 * a1:
        if a1 == 0.0:
            raise ReductionError("degenerate quadratic: a2={}, a1={}, a0={}".format(*coeffs))
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


def closest_ratio_root(roots, form, c2: float) -> tuple[float, float]:
    """Pick the root whose ratio rho / sqrt(E2(u_tilde) + c2) lies nearest 1.

    u_tilde = z0 + rho z1 and form = (z0 . M z0, z0 . M z1, z1 . M z1), so
    2 E2(u_tilde) = form[0] + 2 rho form[1] + rho^2 form[2]. The first of two
    equally near roots wins. Returns (rho, ratio).
    """
    q00, q01, q11 = form
    best = None
    for root in roots:
        ratio = root / np.sqrt(0.5 * (q00 + root * (2.0 * q01 + root * q11)) + c2)
        if best is None or abs(ratio - 1.0) < abs(best[1] - 1.0):
            best = (root, ratio)
    return best


def scalar_reduction(ops: Operators, state: State, terms: ExplicitTerms, ch, vel):
    """Collapse the discrete auxiliary-variable equations to two scalars.

    ch and vel are the split solutions. The r update is affine in rho
    (r = alpha + beta rho); the rho update closes into one quadratic whose
    root is picked by `closest_ratio_root`. Returns (r, rho, u_tilde, diag),
    diag holding the reduction's StepReport fields.
    """
    (phi0, mu0), (phi1, mu1) = ch
    y0, y1, y2 = vel
    tau, lam = ops.params.tau, ops.params.lam
    m_v = ops.forms.m_v

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
    z1mz1, z0mz1 = z1 @ mz1, z0 @ mz1

    a2 = 2.0 / tau - z1mz1 / tau - 2.0 * (terms.convection @ z1) / terms.sqrt_e2
    a1 = (-2.0 * state.rho / tau - ((du @ mz1) + z0mz1) / tau
          - 2.0 * (terms.convection @ z0) / terms.sqrt_e2)
    a0 = -(du @ mz0) / tau
    # only reported: an overflow reads inf, and solve_quadratic scales first
    with np.errstate(over="ignore", invalid="ignore"):
        disc = a1 * a1 - 4.0 * a2 * a0
    roots = solve_quadratic(a2, a1, a0)
    rho, ratio = closest_ratio_root(roots, (z0 @ mz0, z0mz1, z1mz1), ops.params.c2)
    u_tilde = z0 + rho * z1
    r = alpha + beta * rho

    diag = {"alpha": alpha, "beta": beta, "a2": a2, "a1": a1, "a0": a0,
            "discriminant": disc, "roots": tuple(roots), "root_ratio": ratio}
    return r, rho, u_tilde, diag


def pressure_correction(ops: Operators, u_tilde: np.ndarray, m_u_tilde: np.ndarray,
                        p_n: np.ndarray, iterations: dict | None = None):
    """Project the tentative velocity and update the zero-mean pressure.

    psi solves (grad psi, grad q) = -(div u_tilde, q)/tau; the end-of-step
    velocity is the constrained L2 projection of u_tilde - tau grad psi,
    keeping the tentative trace on the boundary. m_u_tilde is M u_tilde; the
    projection's solve starts from u_tilde.
    """
    tau, tol = ops.params.tau, ops.params.solver_tol
    rhs = -asm.div_load(ops.forms, u_tilde) / tau
    psi, k_p = solve_neumann_zero_mean(ops.forms.k_p1, rhs, ops.forms.lumped_p1, tol,
                                       ops.pressure_precondition)
    p_new = zero_mean(ops.forms, p_n + psi)
    rhs_u = m_u_tilde - tau * asm.grad_p_load(ops.forms, psi)
    bvals = u_tilde[ops.p2v.boundary_dofs]
    u_new, k_m = solve_spd(ops.projection.matrix, ops.projection.prepare_rhs(rhs_u, bvals),
                           tol, ops.projection_precondition, u_tilde)
    if iterations is not None:
        iterations.update(pressure=k_p, mass_projection=k_m)
    return u_new, p_new, psi


def modified_energy(ops: Operators, state: State, m_u: np.ndarray | None = None) -> float:
    """Discrete Lyapunov functional that the scheme dissipates; m_u is M state.u if given."""
    f, lam, gamma, tau = ops.forms, ops.params.lam, ops.params.gamma, ops.params.tau
    m_u = f.m_v @ state.u if m_u is None else m_u
    return (lam * quad(f.k_p1, state.phi)
            + lam * gamma * quad(f.m_p1, state.phi)
            + 2.0 * lam * state.r * state.r
            + 0.5 * float(state.u @ m_u)
            + tau * tau * quad(f.k_p1, state.p)
            + state.rho * state.rho)


def dissipation(ops: Operators, new: State) -> float:
    """Energy the step into `new` dissipates: 2 tau (M ||grad mu||^2 + nu ||grad u_tilde||^2)."""
    f, params = ops.forms, ops.params
    return (2.0 * params.mobility * params.tau * quad(f.k_p1, new.mu)
            + 2.0 * params.nu * params.tau * quad(f.k_v, new.u_tilde))


def energy_identity_residual(ops: Operators, old: State, new: State, energies, mass) -> float:
    """Signed defect of the exact per-step energy balance (zero in exact arithmetic).

    The balance is the change of `modified_energy`, plus the numerical
    dissipation of the increments, plus `dissipation`: energies holds the
    three, mass = (M old.u, M new.u_tilde, M new.u). For the conforming
    projection used here the exact chain carries -1/2 ||u_tilde - u||^2 in
    place of the formal tau^2 ||grad(p_new - p_old)||^2 term of the
    semi-discrete argument; both forms agree up to O(tau^2) but only this
    one closes identically.
    """
    f, lam = ops.forms, ops.params.lam
    energy_before, energy_after, dissipated = energies
    m_u_old, m_u_tilde, m_u_new = mass
    dphi = new.phi - old.phi
    increments = (lam * (quad(f.k_p1, dphi) + ops.params.gamma * quad(f.m_p1, dphi))
                  + 2.0 * lam * (new.r - old.r) ** 2
                  + 0.5 * float((new.u_tilde - old.u) @ (m_u_tilde - m_u_old))
                  - 0.5 * float((new.u_tilde - new.u) @ (m_u_tilde - m_u_new))
                  + (new.rho - old.rho) ** 2)
    return energy_after - energy_before + increments + dissipated


def quad(a, x: np.ndarray) -> float:
    return float(x @ (a @ x))


def _boundary_values(space: FeSpace, bc) -> np.ndarray:
    return interpolate(space, bc)[space.boundary_dofs]


def step(state: State, ops: Operators, forcing: Forcing | None = None,
         bc=None) -> tuple[State, StepReport]:
    """Advance one time level with the constants `ops` was built from, and
    report the step diagnostics.

    Each product with M (of u^n, z0, z1, u_tilde, u^{n+1}) is formed once.
    A SolverError, ReductionError or NonpositiveEnergyError raised on the
    way names the step it stopped (`naming_failures`).
    """
    iterations: dict = {}
    m_v = ops.forms.m_v
    with naming_failures(f"step {state.step + 1}"):
        terms = explicit_terms(ops, state, forcing)
        ch = ch_split_solve(ops, state.phi, terms, iterations)
        bc_values = _boundary_values(ops.p2v, bc) if bc is not None else None
        vel = velocity_split_solve(ops, state.u, terms, bc_values, iterations)
        r, rho, u_tilde, diag = scalar_reduction(ops, state, terms, ch, vel)

        (phi0, mu0), (phi1, mu1) = ch
        phi_new = phi0 + r * phi1
        mu_new = mu0 + r * mu1
        m_u_tilde = m_v @ u_tilde
        u_new, p_new, _psi = pressure_correction(ops, u_tilde, m_u_tilde, state.p, iterations)
    new = State(step=state.step + 1, phi=phi_new, mu=mu_new, u_tilde=u_tilde,
                u=u_new, p=p_new, r=r, rho=rho)
    m_u_new = m_v @ u_new
    res_r, res_rho = scalar_equation_residuals(ops, state, new, terms, m_u_tilde)

    energies = (modified_energy(ops, state, terms.m_u), modified_energy(ops, new, m_u_new),
                dissipation(ops, new))
    residual = energy_identity_residual(ops, state, new, energies,
                                        (terms.m_u, m_u_tilde, m_u_new)) \
        if forcing is None and bc is None else float("nan")

    report = StepReport(
        energy_before=energies[0], energy_after=energies[1],
        dissipation=energies[2], identity_residual=residual,
        chosen_root=rho, r_eq_residual=res_r, rho_eq_residual=res_rho,
        div_norm=float(np.linalg.norm(asm.div_load(ops.forms, u_new))),
        e1h=terms.e1h, e2h=terms.e2h, iterations=iterations, **diag,
    )
    return new, report


def scalar_equation_residuals(ops: Operators, old: State, new: State,
                              terms: ExplicitTerms, m_u_tilde: np.ndarray) -> tuple[float, float]:
    """Residuals of the r and rho equations that the scalar reduction eliminated.

    Each is |lhs - rhs| / max(1, |lhs|, |rhs|) for the step old -> new;
    m_u_tilde is M new.u_tilde.
    """
    tau, lam = ops.params.tau, ops.params.lam
    lhs_r = (new.r - old.r) / tau
    rhs_r = ((terms.fp @ (new.phi - old.phi)) / tau + (terms.conv_scalar @ new.mu) / lam
             - (terms.capillary @ new.u_tilde) / lam) / (2.0 * terms.sqrt_e1)
    res_r = abs(lhs_r - rhs_r) / max(1.0, abs(lhs_r), abs(rhs_r))
    lhs_rho = 2.0 * new.rho * (new.rho - old.rho) / tau
    rhs_rho = ((new.u_tilde - old.u) @ m_u_tilde) / tau \
        + 2.0 * new.rho * (terms.convection @ new.u_tilde) / terms.sqrt_e2
    res_rho = abs(lhs_rho - rhs_rho) / max(1.0, abs(lhs_rho), abs(rhs_rho))
    return res_r, res_rho
