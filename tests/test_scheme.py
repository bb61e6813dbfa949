from dataclasses import replace

import numpy as np
import pytest

import oracles
from chns import assembly as asm
from chns import scheme
from chns.experiments import coarsening_params, default_cross_polygon, points_in_polygon, \
    random_phase_field, relaxation_params
from chns.fem import build_space, interpolate
from chns.mesh import build_uniform_mesh
from chns.mms import trig_case
from chns.scheme import Forcing, Params, ReductionError, build_operators, \
    explicit_terms, init_state, modified_energy, pressure_correction, quad, solve_quadratic, \
    step


def _terms(ops, phi, u=None, mu=None):
    """Explicit terms of a step from phi, u (default 0), mu (default 0), p = 0."""
    zero1, zero2 = np.zeros(ops.p1.ndofs), np.zeros(ops.p2v.ndofs)
    state = init_state(ops, phi, zero2 if u is None else u, zero1,
                       mu0=zero1 if mu is None else mu)
    return explicit_terms(ops, state)


def test_params_validation():
    nan = float("nan")
    for bad in (dict(tau=0.5, t_end=0.1), dict(eps=-1.0), dict(eps=nan),
                dict(solver_tol=0.0), dict(solver_tol=1.0), dict(solver_tol=nan)):
        with pytest.raises(ValueError):
            Params(**bad)


def _on_mesh4(small_ops, prm):
    """Operators built for prm on the mesh of small_ops."""
    return build_operators(small_ops.p1, small_ops.p2v, prm)


def test_init_state_examples(small_ops):
    ops = _on_mesh4(small_ops, Params(gamma=1.0, c1=1.0, c2=0.1, eps=0.04, tau=1e-3, t_end=1.0))
    s = init_state(ops, np.ones(ops.p1.ndofs), np.zeros(ops.p2v.ndofs),
                   np.zeros(ops.p1.ndofs))
    assert s.r == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert s.rho == pytest.approx(np.sqrt(0.1), abs=1e-15)
    assert np.array_equal(s.u_tilde, s.u)

    # rest flow always seeds rho = sqrt(c2)
    ops = _on_mesh4(small_ops, Params(c2=0.04, tau=1e-3, t_end=1.0))
    s2 = init_state(ops, np.zeros(ops.p1.ndofs), np.zeros(ops.p2v.ndofs),
                    np.zeros(ops.p1.ndofs))
    assert s2.rho == pytest.approx(0.2, abs=1e-15)

    # manufactured start: phi == 2 everywhere at t = 0
    ops = _on_mesh4(small_ops, Params(eps=0.04, gamma=1.0, c1=0.1, c2=0.1, tau=1e-3, t_end=0.1))
    s3 = init_state(ops, np.full(ops.p1.ndofs, 2.0), np.zeros(ops.p2v.ndofs),
                    np.zeros(ops.p1.ndofs))
    assert s3.r == pytest.approx(np.sqrt(9.0 / (4 * 0.04 ** 2) - 2.0 + 0.1), rel=1e-12)


def test_init_state_pressure_zero_mean(small_ops):
    ops = small_ops
    s = init_state(ops, np.zeros(ops.p1.ndofs), np.zeros(ops.p2v.ndofs),
                   lambda x, y: x)
    assert abs(ops.forms.lumped_p1 @ s.p) <= 1e-12 * (1.0 + np.linalg.norm(s.p))


def test_build_operators_block_action(small_ops, coarsen_params):
    ops, prm = small_ops, coarsen_params
    n = ops.p1.ndofs
    c = 1.3
    x = np.concatenate([np.full(n, c), np.zeros(n)])
    y = ops.a_ch @ x
    row_sums = np.asarray(ops.forms.m_p1.sum(axis=1)).ravel()
    assert np.allclose(y[:n], c / prm.tau * row_sums, atol=1e-12)
    assert np.allclose(y[n:], -prm.lam * prm.gamma * c * row_sums, atol=1e-12)


def test_build_operators_rejects_a_mesh_without_a_grid():
    # the same triangulation as build_uniform_mesh(4, 4), built without its grid
    mesh = oracles.loop_uniform_mesh(4, 4)
    assert mesh.grid is None
    with pytest.raises(ValueError, match="grid"):
        build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), Params())


def test_build_operators_velocity_spd_and_tau_scaling(small_ops, coarsen_params):
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(small_ops.p2v.ndofs)
        assert x @ (small_ops.velocity.matrix @ x) > 0.0
    p1, p2v = small_ops.p1, small_ops.p2v
    ops2 = build_operators(p1, p2v, replace(coarsen_params, tau=2 * coarsen_params.tau))
    interior = np.setdiff1d(np.arange(p2v.ndofs // 2), p2v.boundary_dofs)
    i = interior[0]
    m_ii = small_ops.forms.m_p2[i, i]
    k_ii = small_ops.forms.k_p2[i, i]
    # one block serves both components
    assert small_ops.velocity.matrix.block[i, i] == pytest.approx(
        m_ii / coarsen_params.tau + coarsen_params.nu * k_ii)
    assert ops2.velocity.matrix.block[i, i] == pytest.approx(
        m_ii / (2 * coarsen_params.tau) + coarsen_params.nu * k_ii)


def test_zero_state_is_fixed_point(small_ops):
    ops = small_ops
    s0 = init_state(ops, np.zeros(ops.p1.ndofs), np.zeros(ops.p2v.ndofs),
                    np.zeros(ops.p1.ndofs))
    s1, report = step(s0, ops)
    assert np.abs(s1.phi).max() == 0.0
    assert np.abs(s1.u).max() == 0.0
    assert s1.r == s0.r
    assert s1.rho == s0.rho
    assert report.energy_after == pytest.approx(report.energy_before, abs=1e-14)
    assert report.identity_residual == pytest.approx(0.0, abs=1e-12)


def test_stationary_quadratic_roots(small_ops):
    ops = small_ops
    s0 = init_state(ops, np.zeros(ops.p1.ndofs), np.zeros(ops.p2v.ndofs),
                    np.zeros(ops.p1.ndofs))
    _, report = step(s0, ops)
    roots = sorted(report.roots)
    assert roots[0] == pytest.approx(0.0, abs=1e-15)
    assert roots[1] == pytest.approx(s0.rho, abs=1e-12 * s0.rho)
    assert report.chosen_root == pytest.approx(s0.rho, abs=1e-12)
    assert report.a0 == pytest.approx(0.0, abs=1e-15)


def test_affine_reduction_guard():
    from chns.scheme import affine_reduction

    alpha, beta = affine_reduction(2.0, 0.1, 0.5, 1.0, 0.25)
    assert alpha == pytest.approx((2.0 / 0.1 + 0.5) / (10.0 - 1.0))
    assert beta == pytest.approx(0.25 / 9.0)
    with pytest.raises(ReductionError):
        affine_reduction(1.0, 0.1, 0.0, 10.0 - 1e-13, 0.0)


def test_solve_quadratic_stable_and_degenerate():
    r1, r2 = sorted(solve_quadratic(2.0, -3.0, 1.0))
    assert r1 == pytest.approx(0.5) and r2 == pytest.approx(1.0)
    # a0 = 0 factors one exact zero root
    roots = solve_quadratic(2.0e3, -4.0e3, 0.0)
    assert 0.0 in roots
    # cancellation-prone: tiny a0 against large a1
    roots = sorted(solve_quadratic(1.0, -1e8, 1.0))
    assert roots[0] == pytest.approx(1e-8, rel=1e-9)
    # near-zero discriminant is clamped
    roots = solve_quadratic(1.0, 2.0, 1.0 + 1e-16)
    assert all(np.isfinite(roots))
    # genuinely negative discriminant fails loudly
    with pytest.raises(ReductionError):
        solve_quadratic(1.0, 0.0, 1.0)
    # vanishing a2 degrades to the linear equation
    assert solve_quadratic(0.0, 2.0, -1.0) == (0.5,)


def test_ch_split_residual_at_arbitrary_r(small_ops, coarsen_params):
    from chns.scheme import ch_split_solve

    ops, prm = small_ops, coarsen_params
    phi0 = random_phase_field(3, ops.p1.ndofs)
    u0 = interpolate(ops.p2v, lambda x, y: (np.sin(np.pi * y) * x * (1 - x), np.zeros_like(x)))
    terms = _terms(ops, phi0, u0)
    (a0, b0), (a1, b1) = ch_split_solve(ops, phi0, terms)

    r = 1.37
    x = np.concatenate([a0 + r * a1, b0 + r * b1])
    rhs = np.concatenate([ops.forms.m_p1 @ phi0 / prm.tau - r * terms.conv_scalar / terms.sqrt_e1,
                          prm.lam * r * terms.fp / terms.sqrt_e1])
    res = np.linalg.norm(ops.a_ch @ x - rhs) / np.linalg.norm(rhs)
    assert res <= 1e-9


def test_ch_split_constant_phase_closed_form(small_ops, coarsen_params):
    from chns.scheme import ch_split_solve
    from chns.assembly import fprime

    ops, prm = small_ops, coarsen_params
    c = 0.4
    phi0 = np.full(ops.p1.ndofs, c)
    terms = _terms(ops, phi0)   # at rest, so no transport
    assert np.abs(terms.conv_scalar).max() == 0.0
    (phi_a, mu_a), (phi_b, mu_b) = ch_split_solve(ops, phi0, terms)
    # with no transport a constant phase is a pure-diffusion fixed point:
    # X0 = (c, lam*gamma*c), X1 = (0, lam F'(c)/sqrt(E1h))
    assert np.allclose(phi_a, c, atol=1e-10)
    assert np.allclose(mu_a, prm.lam * prm.gamma * c, atol=1e-10)
    assert np.allclose(phi_b, 0.0, atol=1e-10)
    expected = prm.lam * fprime(np.array(c), prm.eps, prm.gamma) / terms.sqrt_e1
    assert np.allclose(mu_b, expected, atol=1e-9 * max(1.0, abs(expected)))


def test_ch_split_linearity_in_forcing(small_ops):
    from chns.scheme import ch_split_solve

    ops = small_ops
    phi0 = np.zeros(ops.p1.ndofs)
    terms = _terms(ops, phi0)
    g = asm.assemble_load(ops.p1, lambda x, y: np.sin(np.pi * x))
    (x0, y0), _ = ch_split_solve(ops, phi0, replace(terms, g_phi_load=g))
    (x2, y2), _ = ch_split_solve(ops, phi0, replace(terms, g_phi_load=2.0 * g))
    assert np.allclose(x2, 2.0 * x0, atol=1e-9 * max(1.0, np.abs(x0).max()))


def test_velocity_split_residual_and_bc(small_ops, coarsen_params):
    from chns.scheme import velocity_split_solve, _boundary_values

    ops, prm = small_ops, coarsen_params
    u0 = np.zeros(ops.p2v.ndofs)
    phi0 = random_phase_field(5, ops.p1.ndofs)
    mu0 = random_phase_field(6, ops.p1.ndofs)
    # arbitrary energy roots, so r and rho below scale the loads by 1
    terms = replace(_terms(ops, phi0, u0, mu0), sqrt_e1=2.0, sqrt_e2=3.0)

    def bc(x, y):
        return y - 0.5, -(x - 0.5)

    bvals = _boundary_values(ops.p2v, bc)
    y0, y1, y2 = velocity_split_solve(ops, u0, terms, bvals)
    # prescribed trace is imposed exactly on the explicit part
    bd = ops.p2v.boundary_dofs
    x, y = ops.p2v.dof_coords[bd[:bd.size // 2]].T  # the nodes of u_x, then of u_y
    assert np.allclose(y0[bd], np.concatenate([y - 0.5, -(x - 0.5)]), atol=1e-14)
    assert np.abs(y1[ops.p2v.boundary_dofs]).max() == 0.0
    assert np.abs(y2[ops.p2v.boundary_dofs]).max() == 0.0

    r, rho = 2.0, 3.0
    combo = y0 + r * y1 + rho * y2
    rhs = ops.forms.m_v @ u0 / prm.tau - terms.grad_p + (r / 2.0) * terms.capillary \
        - (rho / 3.0) * terms.convection
    rhs = ops.velocity.prepare_rhs(rhs, bvals)
    res = np.linalg.norm(ops.velocity.matrix @ combo - rhs) / np.linalg.norm(rhs)
    assert res <= 1e-9


def test_pressure_correction_examples(small_ops):
    ops = small_ops
    p0 = np.zeros(ops.p1.ndofs)
    zero_u = np.zeros(ops.p2v.ndofs)
    u_new, p_new, psi = pressure_correction(ops, zero_u, zero_u, p0)
    assert np.abs(u_new).max() == 0.0
    assert np.abs(psi).max() == 0.0
    assert np.array_equal(p_new, p0)

    # pointwise divergence-free linear field passes through untouched
    lin = interpolate(ops.p2v, lambda x, y: (x, -y))
    u_new, p_new, psi = pressure_correction(ops, lin, ops.forms.m_v @ lin, p0)
    assert np.abs(psi).max() <= 1e-10
    assert np.allclose(u_new, lin, atol=1e-9)


@pytest.mark.parametrize("nx_pair", [(8, 16)])
def test_pressure_correction_recovers_potential(nx_pair):
    # tentative field = grad(chi): the correction must recover chi / tau
    errs = []
    prm = Params(mobility=0.0001, lam=0.02, nu=1.0, eps=0.01, gamma=1.0,
                 c1=1.0, c2=0.1, tau=1.0, t_end=1.0)

    def chi(x, y):
        return np.cos(np.pi * x) * np.cos(np.pi * y)

    def grad_chi(x, y):
        return (-np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
                -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y))

    for nx in nx_pair:
        mesh = build_uniform_mesh(nx, nx)
        p1 = build_space(mesh, "p1")
        p2v = build_space(mesh, "p2vec")
        ops = build_operators(p1, p2v, prm)
        ut = interpolate(p2v, grad_chi)
        _, _, psi = pressure_correction(ops, ut, ops.forms.m_v @ ut, np.zeros(p1.ndofs))
        errs.append(asm.l2_error(p1, psi, chi))  # chi already has zero mean
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_step_energy_identity_and_residuals(small_ops):
    ops = small_ops
    phi0 = random_phase_field(42, ops.p1.ndofs)
    s0 = init_state(ops, phi0, np.zeros(ops.p2v.ndofs), np.zeros(ops.p1.ndofs), mu0=phi0.copy())
    s = s0
    for _ in range(3):
        prev = s
        s, report = step(s, ops)
        scale = max(1.0, report.energy_before)
        assert abs(report.identity_residual) <= 1e-8 * scale
        assert report.energy_after <= report.energy_before + 1e-8 * scale
        assert report.r_eq_residual <= 1e-9
        assert report.rho_eq_residual <= 1e-9
        res = oracles.scheme_residuals(ops, prev, s)
        assert max(res.values()) <= 1e-9
        # pressure stays mean-free
        assert abs(ops.forms.lumped_p1 @ s.p) <= 1e-12 * (1.0 + np.linalg.norm(s.p))


def _mms_start(nx):
    prm = Params(tau=1e-3, t_end=0.1)
    mesh = build_uniform_mesh(nx, nx)
    ops = build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), prm)
    case = trig_case(prm)
    s = init_state(ops, lambda x, y: case.phi(0, x, y), lambda x, y: case.u(0, x, y),
                   lambda x, y: case.p(0, x, y), mu0=lambda x, y: case.mu(0, x, y))
    return ops, s, {"forcing": Forcing(g_phi=case.g_phi, g_u=case.g_u)}


def _relax_start(nx):
    prm = replace(relaxation_params(), tau=1e-3)
    mesh = build_uniform_mesh(nx, nx)
    ops = build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), prm)

    def rotation(x, y):
        return y - 0.5, -(x - 0.5)

    xy = ops.p1.dof_coords
    phi0 = np.where(points_in_polygon(default_cross_polygon(), xy[:, 0], xy[:, 1]), 1.0, -1.0)
    s = init_state(ops, phi0, rotation, np.zeros(ops.p1.ndofs))
    return ops, s, {"bc": rotation}


@pytest.mark.parametrize("start", [lambda: _mms_start(4), lambda: _relax_start(8)],
                         ids=["mms4_forced", "relax8_boundary_driven"])
def test_step_reports_the_scheme_residuals_of_r_and_rho(start):
    ops, s, kwargs = start()
    for _ in range(3):
        prev = s
        s, report = step(s, ops, **kwargs)
        res = oracles.scheme_residuals(ops, prev, s, kwargs.get("forcing"))
        assert report.r_eq_residual == res["r"]
        assert report.rho_eq_residual == res["rho"]
        assert max(res.values()) <= 1e-8


def test_identity_residual_degrades_with_loose_solver(small_ops, coarsen_params):
    p1, p2v = small_ops.p1, small_ops.p2v
    phi0 = random_phase_field(42, p1.ndofs)

    results = {}
    for tol in (1e-10, 1e-4):
        prm = replace(coarsen_params, solver_tol=tol)
        ops = build_operators(p1, p2v, prm)
        s0 = init_state(ops, phi0, np.zeros(p2v.ndofs), np.zeros(p1.ndofs), mu0=phi0.copy())
        _, report = step(s0, ops)
        results[tol] = abs(report.identity_residual)
    assert results[1e-4] > 50.0 * results[1e-10]


def test_unconditional_energy_decrease_over_tau_sweep(small_ops):
    p1, p2v = small_ops.p1, small_ops.p2v
    phi0 = random_phase_field(17, p1.ndofs)
    for tau in (1e-4, 1e-3, 1e-2, 1e-1):
        prm = Params(mobility=0.0001, lam=0.02, nu=1.0, eps=0.01, gamma=1.0,
                     c1=1.0, c2=0.1, tau=tau, t_end=1.0)
        ops = build_operators(p1, p2v, prm)
        s = init_state(ops, phi0, np.zeros(p2v.ndofs), np.zeros(p1.ndofs), mu0=phi0.copy())
        for _ in range(5):
            s, report = step(s, ops)
            assert report.energy_after <= report.energy_before \
                + 1e-8 * max(1.0, report.energy_before)
            scale = max(report.a1 ** 2, abs(4 * report.a2 * report.a0), 1e-300)
            assert report.discriminant >= -1e-12 * scale


def test_mass_conservation_phase_only(small_ops):
    prm = Params(mobility=0.0001, lam=0.02, nu=1.0, eps=0.01, gamma=1.0,
                 c1=1.0, c2=0.1, tau=1e-3, t_end=1.0, solver_tol=1e-12)
    ops = build_operators(small_ops.p1, small_ops.p2v, prm)
    phi0 = random_phase_field(23, ops.p1.ndofs)
    s = init_state(ops, phi0, np.zeros(ops.p2v.ndofs), np.zeros(ops.p1.ndofs), mu0=phi0.copy())
    mass0 = ops.forms.lumped_p1 @ s.phi
    for _ in range(20):
        s = oracles.phase_only_step(s, ops)
    assert abs(ops.forms.lumped_p1 @ s.phi - mass0) <= 1e-10
    assert np.abs(s.u).max() == 0.0


def test_modified_energy_examples(small_ops):
    ops = _on_mesh4(small_ops, Params(lam=1.0, gamma=1.0, c1=1.0, c2=0.1, eps=0.04,
                                      tau=1e-3, t_end=1.0))
    s = init_state(ops, np.ones(ops.p1.ndofs), np.zeros(ops.p2v.ndofs),
                   np.zeros(ops.p1.ndofs))
    assert modified_energy(ops, s) == pytest.approx(2.1, abs=1e-12)
    # dropping the velocity removes exactly the kinetic part
    s.u = interpolate(ops.p2v, lambda x, y: (x, y))
    with_u = modified_energy(ops, s)
    kinetic = 0.5 * quad(ops.forms.m_v, s.u)
    s.u = np.zeros(ops.p2v.ndofs)
    assert with_u - modified_energy(ops, s) == pytest.approx(kinetic, rel=1e-12)


def test_single_mms_step_accuracy():
    prm = Params(tau=1e-3, t_end=0.1)
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    ops = build_operators(p1, p2v, prm)
    case = trig_case(prm)
    forcing = Forcing(g_phi=case.g_phi, g_u=case.g_u)
    s = init_state(ops, lambda x, y: case.phi(0, x, y), lambda x, y: case.u(0, x, y),
                   lambda x, y: case.p(0, x, y), mu0=lambda x, y: case.mu(0, x, y))
    s, _ = step(s, ops, forcing=forcing)
    err = asm.l2_error(p1, s.phi, lambda x, y: case.phi(prm.tau, x, y))
    assert err <= 1e-2


def test_splitting_matches_picard_oracle():
    from oracles import picard_step

    prm = Params(tau=1e-3, t_end=0.1, solver_tol=1e-12)
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    ops = build_operators(p1, p2v, prm)
    case = trig_case(prm)
    forcing = Forcing(g_phi=case.g_phi, g_u=case.g_u)
    s = init_state(ops, lambda x, y: case.phi(0, x, y), lambda x, y: case.u(0, x, y),
                   lambda x, y: case.p(0, x, y), mu0=lambda x, y: case.mu(0, x, y))

    def rel(a, b):
        return np.linalg.norm(np.atleast_1d(a - b)) / max(np.linalg.norm(np.atleast_1d(b)), 1e-30)

    for _ in range(5):
        oracle = picard_step(s, ops, forcing)
        s, _ = step(s, ops, forcing=forcing)
        assert rel(oracle["phi"], s.phi) <= 1e-8
        assert rel(oracle["mu"], s.mu) <= 1e-8
        assert rel(oracle["u_tilde"], s.u_tilde) <= 1e-8
        assert abs(oracle["r"] - s.r) <= 1e-8 * max(1.0, abs(s.r))
        assert abs(oracle["rho"] - s.rho) <= 1e-8 * max(1.0, abs(s.rho))


def test_splitting_matches_picard_on_random_states(small_ops):
    from oracles import picard_step

    ops = small_ops
    phi0 = random_phase_field(99, ops.p1.ndofs)
    s = init_state(ops, phi0, np.zeros(ops.p2v.ndofs), np.zeros(ops.p1.ndofs), mu0=phi0.copy())
    for _ in range(5):
        oracle = picard_step(s, ops)
        s, _ = step(s, ops)
        assert np.linalg.norm(oracle["phi"] - s.phi) <= 1e-8 * max(1.0, np.linalg.norm(s.phi))
        assert np.linalg.norm(oracle["u_tilde"] - s.u_tilde) <= 1e-8 * max(1.0, np.linalg.norm(s.u_tilde))
        assert abs(oracle["r"] - s.r) <= 1e-8 * max(1.0, abs(s.r))
        assert abs(oracle["rho"] - s.rho) <= 1e-8 * max(1.0, abs(s.rho))


def test_energy_identity_zero_for_fixed_point(small_ops):
    ops = small_ops
    s0 = init_state(ops, np.zeros(ops.p1.ndofs), np.zeros(ops.p2v.ndofs),
                    np.zeros(ops.p1.ndofs))
    s1, report = step(s0, ops)
    assert report.identity_residual == pytest.approx(0.0, abs=1e-13)
    assert oracles.energy_identity_residual(ops, s0, s1) == pytest.approx(0.0, abs=1e-13)


# -- a step forms each field, mass product and energy once ---------------------


def _coarsen_start(nx):
    """A coarsening state with a random interior velocity and pressure."""
    mesh = build_uniform_mesh(nx, nx)
    ops = build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"),
                          replace(coarsening_params(), tau=1e-3))
    rng = np.random.default_rng(8)
    u = 0.1 * rng.standard_normal(ops.p2v.ndofs)
    u[ops.p2v.boundary_dofs] = 0.0
    phi0 = random_phase_field(8, ops.p1.ndofs)
    s = init_state(ops, phi0, u, rng.standard_normal(ops.p1.ndofs), mu0=phi0.copy())
    return ops, s, {}


class _CountedProducts:
    """An operator that counts its products."""

    def __init__(self, a):
        self.a, self.calls = a, 0

    def __matmul__(self, x):
        self.calls += 1
        return self.a @ x


def test_an_unforced_step_forms_each_product_energy_and_field_once(monkeypatch):
    ops, s, _ = _coarsen_start(4)
    m_v = _CountedProducts(ops.forms.m_v)
    monkeypatch.setitem(ops.forms.__dict__, "m_v", m_v)  # the cached property's slot
    calls = {"modified_energy": 0, "dissipation": 0}
    for name in calls:
        def counted(*args, real=getattr(scheme, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(scheme, name, counted)
    evaluated = []
    real_evaluate = asm.evaluate

    def evaluate(space, coeffs, *args, **kwargs):
        evaluated.append(coeffs)
        return real_evaluate(space, coeffs, *args, **kwargs)

    monkeypatch.setattr(asm, "evaluate", evaluate)
    _, report = step(s, ops)
    # M u^n, M z0, M z1, M u_tilde and M u^{n+1}
    assert m_v.calls <= 5
    assert calls == {"modified_energy": 2, "dissipation": 1}
    assert len(evaluated) == 3 and all(any(c is f for c in evaluated) for f in (s.u, s.phi, s.mu))
    assert not np.isnan(report.identity_residual)


@pytest.mark.parametrize("start", [lambda: _coarsen_start(4), lambda: _relax_start(8),
                                   lambda: _mms_start(4)],
                         ids=["coarsen4", "relax8_boundary_driven", "mms4_forced"])
def test_step_diagnostics_match_their_formulas_formed_afresh(start):
    ops, s, kwargs = start()
    for _ in range(2):
        new, report = step(s, ops, **kwargs)
        want = oracles.step_diagnostics(ops, s, new, **kwargs)
        for name, value in want.items():
            got = getattr(report, name)
            if name == "identity_residual" and kwargs:
                assert np.isnan(got) and np.isnan(value)
                continue
            # the residuals are defects of terms the size of the energy
            scale = report.energy_before if name == "identity_residual" else abs(value)
            assert abs(got - value) <= 1e-12 * max(1.0, scale), name
        s = new
