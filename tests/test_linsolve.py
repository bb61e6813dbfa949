import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from chns import assembly as asm
from chns import linsolve
from chns import fem
from chns.experiments import coarsening_params, default_tau_rule, random_phase_field, \
    relaxation_params, run_coarsening
from chns.fem import build_space, interpolate
from chns.linsolve import Planar, Separable, SolverError, VCycle, jacobi, solve_general, \
    solve_neumann_zero_mean, solve_spd
from chns.mesh import build_uniform_mesh
from chns.scheme import ExplicitTerms, Params, _lattice_axes, build_operators, ch_split_solve


def test_config_validation():
    # the solver tolerance is checked where it is set, in Params
    for bad in (0.0, 2.0, float("nan")):
        with pytest.raises(ValueError):
            Params(solver_tol=bad)
    # the iteration limit is 10 n: one preconditioner call per iteration, plus the first
    calls = []

    def counting(r):
        calls.append(1)
        return r.copy()

    with pytest.raises(SolverError, match="did not converge"):
        solve_spd(_small_spd(7), np.ones(7), 1e-20, counting)
    assert len(calls) == 71


def test_cg_identity_and_2x2():
    eye = sp.identity(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(solve_spd(eye, b, 1e-10, jacobi(eye))[0], b)
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(solve_spd(a, np.array([3.0, 3.0]), 1e-10, jacobi(a))[0], [1.0, 1.0])


def test_cg_zero_rhs():
    a = sp.identity(4, format="csr")
    x, iterations = solve_spd(a, np.zeros(4), 1e-10, jacobi(a))
    assert np.array_equal(x, np.zeros(4))
    assert iterations == 0


def test_cg_manufactured_dirichlet_stiffness():
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    field = interpolate(p1, lambda x, y: x * y + 0.3 * x)
    a2 = asm._eliminated_matrix(k, p1.boundary_dofs)
    b = a2 @ field
    x, iterations = solve_spd(a2, b, 1e-12, jacobi(a2))
    assert np.linalg.norm(x - field) <= 1e-9 * np.linalg.norm(field)
    assert iterations >= 1
    # residual contract holds under explicit re-verification
    assert np.linalg.norm(b - a2 @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_cg_from_a_first_iterate_verifies_the_residual_of_the_original_rhs(scale):
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    a = asm._eliminated_matrix(asm.assemble_stiffness(p1), p1.boundary_dofs)
    field = interpolate(p1, lambda x, y: x * y + 0.3 * x)
    b = scale * (a @ field)
    near = scale * (field + 1e-8 * np.random.default_rng(2).standard_normal(p1.ndofs))
    given = near.copy()
    x, iterations = solve_spd(a, b, 1e-12, jacobi(a), near)
    assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
    assert 1 <= iterations < solve_spd(a, b, 1e-12, jacobi(a))[1]
    assert np.array_equal(near, given)


def test_cg_from_a_first_iterate_that_meets_tol_takes_no_iteration():
    a = _small_spd()
    x_true = np.arange(1.0, 6.0)
    for start in (x_true, x_true * (1.0 + 1e-13)):
        with np.errstate(all="raise"):  # no 0/0 from a zero residual
            x, iterations = solve_spd(a, a @ x_true, 1e-10, jacobi(a), start)
        assert iterations == 0 and np.array_equal(x, start)


def _small_spd(n=5, seed=77):
    q = np.random.default_rng(seed).standard_normal((n, n))
    return sp.csr_matrix(q @ q.T + n * np.eye(n))


def test_cg_failure_carries_residual():
    # a tolerance below round-off runs into the 10 n iteration limit
    a = _small_spd()
    with pytest.raises(SolverError, match="did not converge") as err:
        solve_spd(a, np.ones(5), 1e-20, jacobi(a))
    assert 0.0 < err.value.residual < 1e-10


@pytest.mark.parametrize("neumann", [False, True], ids=["spd", "neumann"])
def test_cg_stops_at_the_first_non_finite_residual(neumann):
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    b = np.random.default_rng(3).standard_normal(p1.ndofs)
    b[5] = np.nan
    calls = []

    def counting(r):
        calls.append(1)
        return r.copy()

    with pytest.raises(SolverError, match="non-finite residual"):
        if neumann:
            solve_neumann_zero_mean(k, b, np.ones(p1.ndofs), 1e-10, counting)
        else:
            solve_spd(asm._eliminated_matrix(k, p1.boundary_dofs), b, 1e-10, counting)
    # not the 10 n = 810 iterations of the limit
    assert 1 <= len(calls) <= 2


def test_general_ch_block_manufactured():
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    ops = build_operators(p1, p2v, Params(tau=1e-3))
    rng = np.random.default_rng(9)
    x_true = rng.standard_normal(ops.a_ch.shape[0])
    b = ops.a_ch @ x_true
    x, _ = solve_general(ops.a_ch, b, 1e-12, ops.ch_solver)
    assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_neumann_zero_mean_examples():
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    m = np.asarray(asm.assemble_mass(p1).sum(axis=1)).ravel()

    pre = jacobi(k)
    assert solve_neumann_zero_mean(k, np.zeros(p1.ndofs), m, 1e-10, pre)[1] == 0
    # pure kernel data projects away entirely
    x, iterations = solve_neumann_zero_mean(k, np.full(p1.ndofs, 3.7), m, 1e-10, pre)
    assert np.array_equal(x, np.zeros(p1.ndofs)) and iterations == 0

    x_true = interpolate(p1, lambda x, y: np.cos(np.pi * x))
    x_true -= (m @ x_true) / m.sum()
    psi, iterations = solve_neumann_zero_mean(k, k @ x_true, m, 1e-12, pre)
    assert np.linalg.norm(psi - x_true) <= 1e-8 * np.linalg.norm(x_true)
    # mass-weighted mean is pinned to zero
    assert abs(m @ psi) <= 1e-12 * max(1.0, np.linalg.norm(psi))
    # a power-of-two scale changes no bit of the solve
    scaled = solve_neumann_zero_mean(k, np.ldexp(k @ x_true, -40), m, 1e-12, pre)
    assert scaled[0].tobytes() == np.ldexp(psi, -40).tobytes() and scaled[1] == iterations


@pytest.mark.parametrize("scale", [1e-14, 1e-16, 1e-160])
def test_neumann_solve_keeps_a_tiny_right_hand_side(scale):
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    m = np.asarray(asm.assemble_mass(p1).sum(axis=1)).ravel()
    x_true = interpolate(p1, lambda x, y: np.cos(np.pi * x) * y)
    x_true -= (m @ x_true) / m.sum()
    b = scale * (k @ x_true)
    pre = jacobi(k)
    x, iterations = solve_neumann_zero_mean(k, b, m, 1e-12, pre)
    assert iterations >= 1
    assert np.linalg.norm(b - k @ x) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - scale * x_true) <= 1e-8 * scale * np.linalg.norm(x_true)
    # data that lies only in the kernel still projects away at any scale
    x, iterations = solve_neumann_zero_mean(k, np.full(p1.ndofs, 3.7 * scale), m, 1e-10, pre)
    assert np.array_equal(x, np.zeros(p1.ndofs)) and iterations == 0


def test_residual_contract_on_random_systems():
    # every returned solution must satisfy the verified residual bound
    rng = np.random.default_rng(77)
    for n in (5, 17, 40):
        q = rng.standard_normal((n, n))
        spd = sp.csr_matrix(q @ q.T + n * np.eye(n))
        b = rng.standard_normal(n)
        x, _ = solve_spd(spd, b, 1e-11, jacobi(spd))
        assert np.linalg.norm(b - spd @ x) <= 1e-11 * np.linalg.norm(b)


def test_general_singular_matrix_raises_solver_error():
    # BiCGStab gives up on the inconsistent system, and so does GMRES: its
    # second column adds nothing, and its next cycle lowers nothing. Each
    # must end in the documented SolverError without dividing by zero:
    # BiCGStab's second iteration meets an exactly zero denominator with
    # ||v|| = 0, and GMRES a zero rotation.
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    b = np.array([1.0, 0.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match="bicgstab"):
            linsolve._bicgstab(a, b, linsolve._inv_diagonal(a), 1e-10, 20)
        with pytest.raises(SolverError, match="gmres stagnated") as err:
            linsolve._gmres(linsolve._product(a), b, jacobi(a), 1e-10, 20, np.zeros(2))
    # the least-squares residual: b's part off the range of a
    assert err.value.residual == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _counted(monkeypatch, *names):
    """Count the calls of linsolve functions, looked up there at call time."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(linsolve, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(linsolve, name, wrapper)
    return calls


def test_stiff_ch_block_skips_bicgstab_and_builds_presb_once(monkeypatch):
    # the relaxation block at nx=32 is stiffness-dominated: median c K_ii / M_ii 2.6
    mesh = build_uniform_mesh(32, 32)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    params = relaxation_params()
    ops = build_operators(p1, p2v, params)
    calls = _counted(monkeypatch, "_bicgstab", "_gmres_fallback", "_presb_gmres")
    rng = np.random.default_rng(31)
    tol = params.solver_tol
    built = []
    for solves in (1, 2):
        b = rng.standard_normal(ops.a_ch.shape[0])
        x, iterations = solve_general(ops.a_ch, b, tol, ops.ch_solver)
        assert np.linalg.norm(b - ops.a_ch @ x) <= tol * np.linalg.norm(b)
        assert 1 <= iterations <= 30
        assert calls == {"_bicgstab": 0, "_gmres_fallback": 0, "_presb_gmres": solves}
        built.append(ops.ch_solver)
    presb = built[0]
    assert presb.direct and built[1] is presb
    assert isinstance(presb.h_inverse, VCycle) and len(presb.h_inverse.ops) == 2

    # another tau is another Operators, with a hierarchy of its own
    params2 = replace(params, tau=2.0 * params.tau)
    ops2 = build_operators(p1, p2v, params2)
    n = p1.ndofs
    iterations = {}
    phi_n = rng.standard_normal(n)
    terms = ExplicitTerms(e1h=1.0, e2h=1.0, sqrt_e1=1.0, sqrt_e2=1.0, m_u=None,
                          conv_scalar=rng.standard_normal(n), fp=rng.standard_normal(n),
                          capillary=None, convection=None, grad_p=None,
                          g_phi_load=None, g_u_load=None)
    ch_split_solve(ops2, phi_n, terms, iterations)
    assert calls == {"_bicgstab": 0, "_gmres_fallback": 0, "_presb_gmres": 4}
    assert 1 <= iterations["ch_x0"] <= 30 and 1 <= iterations["ch_x1"] <= 30
    assert ops2.ch_solver is not presb and ops2.ch_solver.h_inverse is not presb.h_inverse
    assert ops.ch_solver is presb


@pytest.mark.parametrize("nx", [1, 2, 4])
def test_a_very_stiff_ch_block_ends_its_hierarchy_at_the_one_cell_grid(nx):
    # c = sqrt(tau m lam) above 1/9 leaves even the 1 x 1 grid stiffness-dominated
    # (median c K_ii / M_ii 9 c there), which has no coarser grid below it
    params = replace(relaxation_params(), tau=200.0, t_end=200.0)
    mesh = build_uniform_mesh(nx, nx)
    ops = build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)
    assert np.sqrt(params.tau * params.mobility * params.lam) > 1.0 / 9.0
    presb = ops.ch_solver
    assert presb.direct and len(presb.h_inverse.ops) == nx.bit_length()
    b = np.random.default_rng(nx).standard_normal(ops.a_ch.shape[0])
    x, iterations = solve_general(ops.a_ch, b, params.solver_tol, presb)
    assert 1 <= iterations <= 30
    assert np.linalg.norm(b - ops.a_ch @ x) <= params.solver_tol * np.linalg.norm(b)


def _ch_rhs(ops, params, seed):
    """The two right-hand sides of the phase block for a random phase field."""
    n = ops.p1.ndofs
    phi = random_phase_field(seed, n)
    fp = oracles.fprime_load(ops.p1, phi, params.eps, params.gamma)
    return (np.concatenate([ops.forms.m_p1 @ phi / params.tau, np.zeros(n)]),
            np.concatenate([np.zeros(n), params.lam * fp]))


@pytest.mark.parametrize("nx", [32, 64])
def test_presb_gmres_iterations_stay_low_as_the_mesh_refines(nx):
    # tau = 0.1 makes the coarsening block stiffness-dominated: median 3.7 at
    # nx=32 (2 levels of H), 14.6 at nx=64 (3 levels); measured 18-22 iterations
    params = replace(coarsening_params(), tau=0.1)
    ops = _coarsening_ops(nx, params.tau)
    assert ops.ch_solver.direct and len(ops.ch_solver.h_inverse.ops) == nx // 32 + 1
    for b in _ch_rhs(ops, params, nx):
        x, iterations = solve_general(ops.a_ch, b, 1e-10, ops.ch_solver)
        assert 1 <= iterations <= 25
        assert np.linalg.norm(b - ops.a_ch @ x) <= 1e-10 * np.linalg.norm(b)


def test_a_mass_dominated_block_keeps_bicgstab_bit_for_bit_and_falls_back_to_presb(
        monkeypatch, spaces16):
    p1, p2v = spaces16
    params = coarsening_params()  # median c K_ii / M_ii 0.09 at nx=16
    ops = build_operators(p1, p2v, params)
    presb = ops.ch_solver
    assert not presb.direct and len(presb.h_inverse.ops) == 1
    b = _ch_rhs(ops, params, 4)[0]
    tol = 1e-10 * np.linalg.norm(b)
    x, k = solve_general(ops.a_ch, b, 1e-10, presb)
    x_b, k_b = linsolve._bicgstab(ops.a_ch, b, linsolve._inv_diagonal(ops.a_ch), tol, 300)
    assert x.tobytes() == x_b.tobytes() and k == k_b

    def gives_up(*args):
        raise SolverError("bicgstab broke down", 1.0)
    monkeypatch.setattr(linsolve, "_bicgstab", gives_up)
    calls = _counted(monkeypatch, "_gmres_fallback", "_presb_gmres")
    x, k = solve_general(ops.a_ch, b, 1e-10, presb)
    assert calls == {"_gmres_fallback": 1, "_presb_gmres": 1} and 1 <= k <= 30
    assert np.linalg.norm(b - ops.a_ch @ x) <= tol


def test_a_real_breakdown_is_finished_by_the_presb_fallback(monkeypatch):
    # coarsening at nx=16 with tau=0.1 keeps its phase block mass-dominated, and
    # BiCGStab breaks down on some of its solves: the fallback finishes each one
    failures = []
    bicgstab = linsolve._bicgstab

    def recorded(*args):
        try:
            return bicgstab(*args)
        except SolverError as exc:
            failures.append(str(exc))
            raise
    monkeypatch.setattr(linsolve, "_bicgstab", recorded)
    calls = _counted(monkeypatch, "_gmres_fallback")
    reports = []
    run_coarsening(2024, 16, 0.1, 1.0, on_step=lambda state, report: reports.append(report))
    assert len(reports) == 10
    assert any(f.startswith("bicgstab broke down") for f in failures)
    assert calls["_gmres_fallback"] == len(failures) >= 1
    for report in reports:
        assert report.r_eq_residual <= 1e-8 and report.rho_eq_residual <= 1e-8
        assert abs(report.identity_residual) <= 1e-8


def test_presb_gmres_goes_on_until_the_unscaled_residual_passes(monkeypatch):
    # on the manufactured block the scaled residual is the looser test: the
    # first GMRES run meets it, misses the unscaled one, and a second goes on
    params = replace(Params(), tau=default_tau_rule(1.0 / 16))
    mesh = build_uniform_mesh(16, 16)
    ops = build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)
    calls = _counted(monkeypatch, "_gmres")
    b = np.concatenate([np.zeros(ops.p1.ndofs), np.ones(ops.p1.ndofs)])
    x, k = linsolve._presb_gmres(ops.a_ch, b, 1e-10 * np.linalg.norm(b), 10 * b.shape[0],
                                 ops.ch_solver)
    assert calls["_gmres"] == 2 and 1 <= k <= 30
    assert np.linalg.norm(b - ops.a_ch @ x) <= 1e-10 * np.linalg.norm(b)


def _bicgstab_outcome(fn, a, b, max_it):
    try:
        x, k = fn(a, b, linsolve._inv_diagonal(a), 1e-10 * np.linalg.norm(b), max_it)
    except SolverError as exc:
        return str(exc), exc.residual
    return x.tobytes(), k


@pytest.fixture(scope="module")
def spaces16():
    mesh = build_uniform_mesh(16, 16)
    return build_space(mesh, "p1"), build_space(mesh, "p2vec")


@pytest.mark.parametrize("params", [coarsening_params(), relaxation_params()],
                         ids=["coarsen", "relax"])
def test_bicgstab_iterates_match_loop_oracle(params, spaces16):
    p1, p2v = spaces16
    ops = build_operators(p1, p2v, params)
    n = p1.ndofs
    phi = random_phase_field(3, n)
    fp = oracles.fprime_load(p1, phi, params.eps, params.gamma)
    for b in (np.concatenate([ops.forms.m_p1 @ phi / params.tau, np.zeros(n)]),
              np.concatenate([np.zeros(n), params.lam * fp])):
        for max_it in (300, 7):  # converged, and stopped by the iteration limit
            got = _bicgstab_outcome(linsolve._bicgstab, ops.a_ch, b, max_it)
            assert got == _bicgstab_outcome(oracles.bicgstab_loop, ops.a_ch, b, max_it)
    # raises at the exact breakdown, the zero denominator of its second iteration
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    got = _bicgstab_outcome(linsolve._bicgstab, singular, np.array([1.0, 0.0]), 50)
    assert got[0].startswith("bicgstab broke down") and got[1] == pytest.approx(np.sqrt(0.5))
    assert got == _bicgstab_outcome(oracles.bicgstab_loop, singular, np.array([1.0, 0.0]), 50)


def _solve_outcome(solve, a, b, *args):
    """(iterate bytes, iterations) of a public solve, or its error and residual."""
    try:
        x, k = solve(a, b, *args)
    except SolverError as exc:
        return str(exc), exc.residual
    return x.tobytes(), k


def _oracle_outcome(loop, a, b, precondition, tol, shift=None):
    try:
        x, k = loop(a, b, precondition, tol * np.linalg.norm(b), 10 * b.shape[0])
    except SolverError as exc:
        return str(exc), exc.residual
    if shift is not None:
        x -= (shift @ x) / shift.sum()
    return x.tobytes(), k


@pytest.mark.parametrize("preconditioner", ["jacobi", "vcycle"])
def test_cg_iterates_match_loop_oracles(preconditioner):
    # "vcycle" runs the operators' own preconditioners, fast diagonalizations now.
    # Converged at nx=16; at nx=4 a tolerance below round-off runs into the
    # 10 n iteration limit (tau = 1 keeps the velocity stiffness-dominated that small)
    for nx, tau, tol in ((16, 1e-3, 1e-10), (4, 1.0, 1e-20)):
        ops = _coarsening_ops(nx, tau)
        rng = np.random.default_rng(12)
        velocity, pressure = ops.velocity.matrix, ops.forms.k_p1
        if preconditioner == "vcycle":
            vel_pre, p_pre = ops.velocity_precondition, ops.pressure_precondition
            assert isinstance(vel_pre, Separable) and isinstance(p_pre, Separable)
        else:
            vel_pre, p_pre = jacobi(velocity), jacobi(pressure)
        b_vel = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
        b_p = rng.standard_normal(ops.p1.ndofs)
        lumped = ops.forms.lumped_p1
        got = _solve_outcome(solve_spd, velocity, b_vel, tol, vel_pre)
        assert got == _oracle_outcome(oracles.cg_loop, velocity, b_vel, vel_pre, tol)
        assert isinstance(got[1], int) == (tol == 1e-10)

        got = _solve_outcome(solve_neumann_zero_mean, pressure, b_p, lumped, tol, p_pre)
        projected = b_p - b_p.sum() / b_p.shape[0]
        assert got == _oracle_outcome(oracles.projected_cg_loop, pressure, projected,
                                      p_pre, tol, lumped)
        assert isinstance(got[1], int) == (tol == 1e-10)


def test_velocity_solves_reuse_the_diagonal_bit_for_bit(spaces16):
    # the manufactured-solution case is mass-dominated, so it keeps Jacobi CG
    p1, p2v = spaces16
    ops = build_operators(p1, p2v, replace(Params(), tau=default_tau_rule(1.0 / 16)))
    rng = np.random.default_rng(16)
    a = ops.velocity.matrix
    kept = []
    for _ in range(2):
        b = ops.velocity.prepare_rhs(rng.standard_normal(p2v.ndofs))
        x, _ = solve_spd(a, b, 1e-10, ops.velocity_precondition)
        assert x.tobytes() == solve_spd(a, b, 1e-10, jacobi(a))[0].tobytes()
        kept.append(ops.velocity_precondition)
    assert not isinstance(kept[0], Planar) and kept[1] is kept[0]


def _coarsening_ops(nx, tau=1e-3, ny=None, rect=(0.0, 0.0, 1.0, 1.0)):
    mesh = build_uniform_mesh(nx, ny or nx, rect)
    params = coarsening_params()
    params = replace(params, tau=tau, t_end=max(params.t_end, tau))
    return build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)


def _velocity_solve(ops, b, tol=1e-10):
    return solve_spd(ops.velocity.matrix, b, tol, ops.velocity_precondition)


def _pressure_solve(ops, b, tol=1e-10, precondition=None):
    return solve_neumann_zero_mean(ops.forms.k_p1, b, ops.forms.lumped_p1, tol,
                                   precondition or ops.pressure_precondition)


@pytest.mark.parametrize("tau", [1e-3, 1e-1, 1.0, 125.0])
@pytest.mark.parametrize("nx", [16, 32, 64])
def test_velocity_vcycle_iterations_do_not_grow_with_the_mesh(nx, tau):
    # the fast diagonalization of the h/2 lattice's P1 operator; measured 12-14 iterations
    ops = _coarsening_ops(nx, tau)
    a = ops.velocity.matrix
    rng = np.random.default_rng(nx)
    built = []
    for _ in range(2):
        b = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
        x, iterations = _velocity_solve(ops, b)
        # Jacobi CG takes 39 to 499 iterations here
        assert 1 <= iterations <= 15
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)
        built.append(ops.velocity_precondition)
    # built by the first solve, reused by the second
    pre = built[0]
    assert isinstance(pre, Separable) and built[1] is pre
    assert pre.inverse.shape == (2 * nx - 1, 2 * nx - 1) and pre.inverse.dtype == np.float32


def _pressure_agrees_with_jacobi(ops, seed):
    b = np.random.default_rng(seed).standard_normal(ops.p1.ndofs)
    psi, iterations = _pressure_solve(ops, b)
    assert iterations == 1
    assert isinstance(ops.pressure_precondition, Separable)
    # the old Jacobi projected CG
    psi_jacobi, jacobi_iterations = _pressure_solve(ops, b, precondition=jacobi(ops.forms.k_p1))
    assert np.linalg.norm(psi - psi_jacobi) <= 1e-8 * np.linalg.norm(psi_jacobi)
    assert abs(ops.forms.lumped_p1 @ psi) <= 1e-12 * np.linalg.norm(psi)
    return jacobi_iterations


@pytest.mark.parametrize("nx", [16, 32, 64])
def test_pressure_vcycle_iterations_and_agreement_with_jacobi(nx):
    # the pseudo-inverse is exact, so projected CG verifies after one iteration
    assert _pressure_agrees_with_jacobi(_coarsening_ops(nx), nx + 1) > 5


@pytest.mark.parametrize("nx,ny,rect", [(64, 64, (0.0, 0.0, 1.0, 1.0)),
                                        (8, 16, (0.0, 0.0, 1.0, 1.0)),
                                        (16, 8, (0.0, 0.0, 2.0, 1.0))],
                         ids=["square", "2:1 cells", "2:1 domain"])
def test_p1_stiffness_is_the_kronecker_form_of_its_axes(nx, ny, rect):
    # the premise of the pressure's fast diagonalization, exactly
    mesh = build_uniform_mesh(nx, ny, rect)
    (kx, dx), (ky, dy) = _lattice_axes(mesh, 1, neumann=True)
    kron = np.kron(np.diag(dy), kx) + np.kron(ky, np.diag(dx))
    k_p1 = asm.assemble_stiffness(build_space(mesh, "p1"))
    assert np.abs(k_p1.toarray() - kron).max() == 0.0


@pytest.mark.parametrize("dtype,alpha,neumann", [(np.float32, 7.0, False),
                                                 (np.float64, 7.0, False),
                                                 (np.float64, 0.0, True)],
                         ids=["float32", "float64", "pseudo-inverse"])
def test_separable_matches_a_dense_inverse_of_its_kronecker_operator(dtype, alpha, neumann):
    # a 5 x 3 lattice with unequal widths, its nodes shuffled among 4 pass-through entries
    rng = np.random.default_rng(20)
    (kx, dx), (ky, dy) = _lattice_axes(build_uniform_mesh(5, 3, (0.0, 0.0, 2.0, 0.5)), 1, neumann)
    kron = alpha * np.kron(np.diag(dy), np.diag(dx)) + np.kron(np.diag(dy), kx) \
        + np.kron(ky, np.diag(dx))
    m = kron.shape[0]
    order = rng.permutation(m + 4)
    pre = Separable((kx, dx), (ky, dy), alpha, order, dtype)
    r = rng.standard_normal((2, m + 4))
    if neumann:  # the range of the operator: off the constants
        r[:, order[:m]] -= r[:, order[:m]].mean(axis=1, keepdims=True)
    expected = r.copy()
    expected[:, order[:m]] = np.linalg.lstsq(kron, r[:, order[:m]].T, rcond=None)[0].T
    if neumann:  # the pseudo-inverse leaves the D-weighted mean zero
        d = np.kron(dy, dx)
        expected[:, order[:m]] -= (expected[:, order[:m]] @ d / d.sum())[:, None]
    z = pre(r.ravel()).reshape(2, -1)
    assert z.dtype == np.float64
    assert np.array_equal(z[:, order[m:]], r[:, order[m:]])
    tol = 1e-6 if dtype == np.float32 else 1e-13
    assert np.linalg.norm(z - expected) <= tol * np.linalg.norm(expected)


@pytest.mark.parametrize("tau", [1e-3, 1e-1])
def test_vcycle_preconditioners_are_symmetric(tau):
    # PRESB's H cycle and the float64 pressure pseudo-inverse to 1e-12 of
    # x.Cy. The velocity's fast diagonalization runs in float32, so it is
    # symmetric to float32 rounding of |x| |Cy| (measured 1e-10 to 1.1e-8 of
    # it, but up to 1e-5 of x.Cy, which cancels for random x and y)
    ops = _coarsening_ops(32, tau)
    rng = np.random.default_rng(7)
    for pre, n, float32 in ((ops.ch_solver.h_inverse, ops.p1.ndofs, False),
                            (ops.velocity_precondition, ops.p2v.ndofs, True),
                            (ops.pressure_precondition, ops.p1.ndofs, False)):
        for _ in range(3):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            xcy, ycx = x @ pre(y), y @ pre(x)
            if float32:
                eps = np.finfo(np.float32).eps
                assert abs(xcy - ycx) <= eps * np.linalg.norm(x) * np.linalg.norm(pre(y))
            else:
                assert abs(xcy - ycx) <= 1e-12 * abs(xcy)
            assert x @ pre(x) > 0.0


def test_vcycle_solves_keep_the_failure_contract():
    # a tolerance below round-off runs into the 10 n iteration limit
    ops = _coarsening_ops(4, tau=1.0)
    rng = np.random.default_rng(5)
    b = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    with pytest.raises(SolverError, match="conjugate gradients did not converge") as err:
        _velocity_solve(ops, b, 1e-20)
    assert 0.0 < err.value.residual < 1e-10
    assert isinstance(ops.velocity_precondition, Separable)
    with pytest.raises(SolverError, match="projected conjugate gradients did not") as err:
        _pressure_solve(ops, rng.standard_normal(ops.p1.ndofs), 1e-20)
    assert 0.0 < err.value.residual < 1e-10


@pytest.mark.parametrize("tau", [1e-3, 1e-5])
def test_velocity_precondition_is_the_scalar_cycle_per_component(tau):
    # tau 1e-3 is stiffness-dominated (fast diagonalization), 1e-5 mass-dominated (Jacobi)
    ops = _coarsening_ops(16, tau)
    block, pre = ops.velocity.matrix.block, ops.velocity_precondition
    n = block.shape[0]
    assert isinstance(pre, Separable) == (tau == 1e-3)
    # the same map on one component at a time, or the scalar Jacobi diagonal
    per_component = pre if tau == 1e-3 else jacobi(block)
    r = np.random.default_rng(2).standard_normal(2 * n)
    z = pre(r)
    assert z[:n].tobytes() == per_component(r[:n]).tobytes()
    assert z[n:].tobytes() == per_component(r[n:]).tobytes()


def test_kernel_cycles_match_the_matmul_cycle_byte_for_byte():
    # PRESB's H cycle, the one V-cycle left, on a vector and on a (2, n) stack
    ops = _coarsening_ops(32, tau=0.1)
    rng = np.random.default_rng(13)
    h = ops.ch_solver.h_inverse
    assert len(h.prolong) >= 1
    b = rng.standard_normal(h.ops[0].shape[0])
    assert h(b).tobytes() == oracles.matmul_vcycle(h, b).tobytes()
    b = rng.standard_normal((2, h.ops[0].shape[0]))
    expected = np.stack([oracles.matmul_vcycle(h, row) for row in b])
    assert h(b).tobytes() == expected.tobytes()


def test_solves_make_no_scipy_sparse_product(monkeypatch):
    # every product of a velocity, a pressure and a PRESB-GMRES solve runs the
    # compressed-sparse kernel directly, not through scipy's `@` or `dot`
    mesh = build_uniform_mesh(8, 8)
    params = replace(relaxation_params(), tau=0.1)
    ops = build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)
    rng = np.random.default_rng(8)
    b_vel = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    b_p, b_ch = rng.standard_normal(ops.p1.ndofs), rng.standard_normal(2 * ops.p1.ndofs)
    presb = ops.ch_solver  # the solver data are made before counting
    assert presb.direct and isinstance(presb.h_inverse, VCycle)
    assert isinstance(ops.velocity_precondition, Separable)
    assert isinstance(ops.pressure_precondition, Separable)
    calls = []
    for name in ("__matmul__", "dot"):
        fn = getattr(sp._base._spbase, name)
        monkeypatch.setattr(sp._base._spbase, name,
                            lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    _, k_vel = _velocity_solve(ops, b_vel)
    _, k_p = _pressure_solve(ops, b_p)
    _, k_ch = solve_general(ops.a_ch, b_ch, params.solver_tol, presb)
    assert min(k_vel, k_p, k_ch) >= 1 and calls == []
    ops.a_ch @ b_ch  # the counting itself works
    assert calls == ["__matmul__"]


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_vcycles_on_the_smallest_grids(nx):
    # tau = 1 makes the velocity stiffness-dominated down to the coarsest grid
    ops = _coarsening_ops(nx, tau=1.0)
    rng = np.random.default_rng(nx)
    b = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    x, _ = _velocity_solve(ops, b)
    assert np.linalg.norm(b - ops.velocity.matrix @ x) <= 1e-10 * np.linalg.norm(b)
    # even the 1 x 1 grid has an interior lattice node, its diagonal's midpoint
    assert ops.velocity_precondition.inverse.shape == (2 * nx - 1, 2 * nx - 1)
    _, iterations = _pressure_solve(ops, rng.standard_normal(ops.p1.ndofs))
    assert iterations == 1


def test_a_lone_small_pressure_level_is_solved_directly():
    # the pseudo-inverse is the whole preconditioner: one iteration on any grid
    # of a rectangle, square cells or not (hx = 1/6, hy = 1/5 on the second)
    _pressure_agrees_with_jacobi(_coarsening_ops(8), 8)
    _pressure_agrees_with_jacobi(_coarsening_ops(12, ny=5, rect=(0.0, 0.0, 2.0, 1.0)), 12)
