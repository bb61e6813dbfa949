"""The four reference experiments: convergence study, coarsening dynamics,
shape relaxation under a rotational boundary field, and the stability sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import assembly as asm
from .assembly import l2_error, h1_error
from .fem import NORM_DEGREE, build_space
from .mesh import build_uniform_mesh
from .mms import MmsCase, trig_case
from .scheme import Forcing, Operators, Params, State, StepReport, build_operators, init_state, \
    naming_failures, step


@dataclass
class ErrorRecord:
    """Errors of one resolution level in the norms the study reports."""

    h: float
    tau: float
    phi_linf_l2: float
    mu_l2_l2: float
    u_linf_l2: float
    p_l2_l2: float
    phi_h1: float
    mu_h1: float
    u_h1: float
    p_h1: float
    r_err: float
    rho_err: float


def rate(err_coarse: float, err_fine: float) -> float:
    """Observed order between two levels whose mesh size halves."""
    return math.log2(err_coarse / err_fine)


def rates_between(records: list[ErrorRecord], attr: str) -> list[float]:
    vals = [getattr(rec, attr) for rec in records]
    return [rate(a, b) for a, b in zip(vals, vals[1:])]


class ErrorAccumulator:
    """Online accumulation of trajectory error norms (no state storage)."""

    def __init__(self, ops: Operators, case: MmsCase):
        self.ops = ops
        self.case = case
        self.phi_linf = 0.0
        self.u_linf = 0.0
        self.mu_sq_sum = 0.0
        self.p_sq_sum = 0.0

    def update(self, state: State, t: float) -> None:
        c = self.case
        e_phi = l2_error(self.ops.p1, state.phi, lambda x, y: c.phi(t, x, y))
        e_mu = l2_error(self.ops.p1, state.mu, lambda x, y: c.mu(t, x, y))
        e_u = l2_error(self.ops.p2v, state.u, lambda x, y: c.u(t, x, y))
        e_p = l2_error(self.ops.p1, state.p, lambda x, y: c.p(t, x, y))
        self.phi_linf = max(self.phi_linf, e_phi)
        self.u_linf = max(self.u_linf, e_u)
        self.mu_sq_sum += e_mu ** 2
        self.p_sq_sum += e_p ** 2

    def finalize(self, state: State, t_final: float, h: float) -> ErrorRecord:
        c, ops, prm = self.case, self.ops, self.ops.params
        tau = prm.tau
        tab = asm._tables(ops.p1, NORM_DEGREE)
        phi = c.phi(t_final, tab["x"], tab["y"])
        u1, u2 = c.u(t_final, tab["x"], tab["y"])
        e1 = float(np.sum(tab["wdet"] * asm.free_energy_density(phi, prm.eps, prm.gamma)))
        e2 = 0.5 * float(np.sum(tab["wdet"] * (u1 ** 2 + u2 ** 2)))
        r_exact = math.sqrt(e1 + prm.c1)
        rho_exact = math.sqrt(e2 + prm.c2)
        return ErrorRecord(
            h=h, tau=tau,
            phi_linf_l2=self.phi_linf,
            mu_l2_l2=math.sqrt(tau * self.mu_sq_sum),
            u_linf_l2=self.u_linf,
            p_l2_l2=math.sqrt(tau * self.p_sq_sum),
            phi_h1=h1_error(ops.p1, state.phi,
                            lambda x, y: c.phi(t_final, x, y),
                            lambda x, y: c.grad_phi(t_final, x, y)),
            mu_h1=h1_error(ops.p1, state.mu,
                           lambda x, y: c.mu(t_final, x, y),
                           lambda x, y: c.grad_mu(t_final, x, y)),
            u_h1=h1_error(ops.p2v, state.u,
                          lambda x, y: c.u(t_final, x, y),
                          lambda x, y: c.grad_u(t_final, x, y)),
            p_h1=h1_error(ops.p1, state.p,
                          lambda x, y: c.p(t_final, x, y),
                          lambda x, y: c.grad_p(t_final, x, y)),
            r_err=abs(state.r - r_exact),
            rho_err=abs(state.rho - rho_exact),
        )


def _unit_square_operators(nx: int, params: Params) -> Operators:
    """Operators of the nx x nx uniform mesh of the unit square."""
    mesh = build_uniform_mesh(nx, nx)
    return build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)


def tau_rule(tau_factor: float):
    """The convergence study's time step at mesh size h: tau_factor h^3."""
    return lambda h: tau_factor * h ** 3


default_tau_rule = tau_rule(0.1)


def run_convergence_level(nx: int, params: Params, t_end: float = 0.1,
                          tau_rule=default_tau_rule, on_step=None) -> ErrorRecord:
    """March the manufactured problem on one mesh and collect its errors."""
    h = 1.0 / nx
    tau = tau_rule(h)
    nsteps = round(t_end / tau)
    prm = replace(params, tau=tau, t_end=t_end)

    ops = _unit_square_operators(nx, prm)
    case = trig_case(prm)
    forcing = Forcing(g_phi=case.g_phi, g_u=case.g_u)

    state = init_state(ops,
                       lambda x, y: case.phi(0.0, x, y),
                       lambda x, y: case.u(0.0, x, y),
                       lambda x, y: case.p(0.0, x, y),
                       mu0=lambda x, y: case.mu(0.0, x, y))
    acc = ErrorAccumulator(ops, case)
    acc.update(state, 0.0)
    for n in range(nsteps):
        state, report = step(state, ops, forcing=forcing)
        acc.update(state, (n + 1) * tau)
        if on_step is not None:
            on_step(state, report)
    return acc.finalize(state, nsteps * tau, h)


def run_convergence(levels, params: Params, t_end: float = 0.1,
                    tau_rule=default_tau_rule, on_step=None) -> list[ErrorRecord]:
    if sorted(levels) != list(levels):
        raise ValueError("levels must be sorted coarse to fine")
    records = []
    for nx in levels:
        with naming_failures(f"level nx={nx}"):
            records.append(run_convergence_level(nx, params, t_end, tau_rule, on_step))
    return records


# ---------------------------------------------------------------------------
# random initial data


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """Deterministic uniform stream in [0, 1) from a 64-bit mixing generator.

    The generator is fixed here (not delegated to a library) so traces are
    reproducible across platforms and library versions. Value i mixes the
    state seed + (i + 1) * golden (mod 2^64); all values are made at once in
    uint64 arithmetic, which wraps.
    """
    golden = np.uint64(0x9E3779B97F4A7C15)
    c1 = np.uint64(0xBF58476D1CE4E5B9)
    c2 = np.uint64(0x94D049BB133111EB)
    z = np.uint64(seed) + np.arange(1, count + 1, dtype=np.uint64) * golden
    z = (z ^ (z >> np.uint64(30))) * c1
    z = (z ^ (z >> np.uint64(27))) * c2
    z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) / 2.0 ** 64


def random_phase_field(seed: int, ndofs: int, amplitude: float = 0.1) -> np.ndarray:
    return amplitude * (2.0 * splitmix64_stream(seed, ndofs) - 1.0)


@dataclass
class EnergyTrace:
    """Per-step diagnostics of one dissipative run."""

    steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    dissipation: list[float] = field(default_factory=list)
    identity_residual: list[float] = field(default_factory=list)
    discriminant: list[float] = field(default_factory=list)
    root_ratio: list[float] = field(default_factory=list)

    def append(self, report: StepReport, n: int, t: float) -> None:
        self.steps.append(n)
        self.times.append(t)
        self.energy.append(report.energy_after)
        self.dissipation.append(report.dissipation)
        self.identity_residual.append(report.identity_residual)
        self.discriminant.append(report.discriminant)
        self.root_ratio.append(report.root_ratio)

    def monotone(self, slack: float = 1e-8) -> bool:
        e = self.energy
        return all(e[i + 1] <= e[i] + slack * max(1.0, e[i]) for i in range(len(e) - 1))


@dataclass
class RunArtifacts:
    trace: EnergyTrace
    snapshots: list[tuple[float, State]]
    final_state: State
    ops: Operators
    initial_energy: float


def _march(ops: Operators, state: State, snapshot_times=(), bc=None,
           on_step=None) -> RunArtifacts:
    """Step from state to the final time of `ops.params`, tracing the energy."""
    from .scheme import modified_energy

    tau = ops.params.tau
    trace = EnergyTrace()
    initial_energy = modified_energy(ops, state)
    remaining = sorted(snapshot_times)
    snaps = []
    if remaining and remaining[0] <= 0.0:
        snaps.append((0.0, state))
        remaining = [t for t in remaining if t > 0.0]
    for n in range(round(ops.params.t_end / tau)):
        state, report = step(state, ops, bc=bc)
        t = (n + 1) * tau
        trace.append(report, n + 1, t)
        while remaining and t >= remaining[0] - 0.5 * tau:
            snaps.append((remaining.pop(0), state))
        if on_step is not None:
            on_step(state, report)
    return RunArtifacts(trace=trace, snapshots=snaps, final_state=state,
                        ops=ops, initial_energy=initial_energy)


def coarsening_params() -> Params:
    return Params(mobility=0.0001, lam=0.02, nu=1.0, eps=0.01, gamma=1.0,
                  c1=1.0, c2=0.1, tau=0.001, t_end=5.0)


def run_coarsening(seed: int, nx: int, tau: float, t_end: float,
                   snapshot_times=(), params: Params | None = None,
                   on_step=None) -> RunArtifacts:
    """Spinodal decomposition from small random data; energy must decay."""
    prm = replace(params or coarsening_params(), tau=tau, t_end=t_end)
    ops = _unit_square_operators(nx, prm)

    phi0 = random_phase_field(seed, ops.p1.ndofs)
    state = init_state(ops, phi0, np.zeros(ops.p2v.ndofs), np.zeros(ops.p1.ndofs),
                       mu0=phi0.copy())
    return _march(ops, state, snapshot_times, on_step=on_step)


def run_stability_sweep(tau_list, seed: int, nx: int, t_end: float,
                        params: Params | None = None) -> dict[float, RunArtifacts]:
    """Repeat the coarsening run for each time step; one trace per tau."""
    return {tau: run_coarsening(seed, nx, tau, t_end, params=params)
            for tau in tau_list}


# ---------------------------------------------------------------------------
# shape relaxation


def default_cross_polygon(center=(0.5, 0.5), half_width=0.1, half_span=0.3) -> np.ndarray:
    """Plus-sign with four reentrant corners, traversed counter-clockwise."""
    cx, cy = center
    w, a = half_width, half_span
    return np.array([
        (cx - w, cy - a), (cx + w, cy - a), (cx + w, cy - w), (cx + a, cy - w),
        (cx + a, cy + w), (cx + w, cy + w), (cx + w, cy + a), (cx - w, cy + a),
        (cx - w, cy + w), (cx - a, cy + w), (cx - a, cy - w), (cx - w, cy - w),
    ])


def _segments_intersect(p, q, r, s) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p, q, r), orient(p, q, s)
    d3, d4 = orient(r, s, p), orient(r, s, q)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def polygon_is_simple(poly: np.ndarray) -> bool:
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(a, b, poly[j], poly[(j + 1) % n]):
                return False
    return True


def points_in_polygon(poly: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Even-odd ray test, vectorized over the query points."""
    inside = np.zeros(x.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside


def relaxation_params() -> Params:
    return Params(mobility=0.001, lam=0.1, nu=1.0, eps=0.01, gamma=1.0,
                  c1=1.0, c2=0.1, tau=0.001, t_end=0.5)


def run_relaxation(polygon, nx: int, tau: float, t_end: float,
                   snapshot_times=(), params: Params | None = None,
                   on_step=None) -> RunArtifacts:
    """Relax a polygonal blob while the boundary drives a rigid rotation."""
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3 or not polygon_is_simple(poly):
        raise ValueError("polygon must be simple (non self-intersecting)")
    prm = replace(params or relaxation_params(), tau=tau, t_end=t_end)
    ops = _unit_square_operators(nx, prm)

    def rotation(x, y):
        return y - 0.5, -(x - 0.5)

    inside = points_in_polygon(poly, ops.p1.dof_coords[:, 0], ops.p1.dof_coords[:, 1])
    phi0 = np.where(inside, 1.0, -1.0)
    state = init_state(ops, phi0, rotation, np.zeros(ops.p1.ndofs))
    return _march(ops, state, snapshot_times, bc=rotation, on_step=on_step)
