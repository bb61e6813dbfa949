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
    relaxation_params
from chns.fem import build_space, interpolate
from chns.linsolve import Planar, SolverError, VCycle, jacobi, solve_general, \
    solve_neumann_zero_mean, solve_spd
from chns.mesh import build_uniform_mesh
from chns.scheme import ExplicitTerms, Params, build_operators, ch_split_solve


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
    assert np.allclose(solve_spd(eye, b)[0], b)
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(solve_spd(a, np.array([3.0, 3.0]))[0], [1.0, 1.0])


def test_cg_zero_rhs():
    a = sp.identity(4, format="csr")
    x, iterations = solve_spd(a, np.zeros(4))
    assert np.array_equal(x, np.zeros(4))
    assert iterations == 0


def test_cg_manufactured_dirichlet_stiffness():
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    field = interpolate(p1, lambda x, y: x * y + 0.3 * x)
    a2 = asm.DirichletOperator(k, p1.boundary_dofs).matrix
    b = a2 @ field
    x, iterations = solve_spd(a2, b, 1e-12)
    assert np.linalg.norm(x - field) <= 1e-9 * np.linalg.norm(field)
    assert iterations >= 1
    # residual contract holds under explicit re-verification
    assert np.linalg.norm(b - a2 @ x) <= 1e-12 * np.linalg.norm(b)


def _small_spd(n=5, seed=77):
    q = np.random.default_rng(seed).standard_normal((n, n))
    return sp.csr_matrix(q @ q.T + n * np.eye(n))


def test_cg_failure_carries_residual():
    # a tolerance below round-off runs into the 10 n iteration limit
    a = _small_spd()
    with pytest.raises(SolverError, match="did not converge") as err:
        solve_spd(a, np.ones(5), 1e-20)
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
            solve_neumann_zero_mean(k, b, np.ones(p1.ndofs), precondition=counting)
        else:
            solve_spd(asm.DirichletOperator(k, p1.boundary_dofs).matrix, b,
                      precondition=counting)
    # not the 10 n = 810 iterations of the limit
    assert 1 <= len(calls) <= 2


def test_general_identity_and_rotation():
    eye = sp.identity(3, format="csr")
    b = np.array([4.0, 5.0, 6.0])
    assert np.allclose(solve_general(eye, b)[0], b)
    rot = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    x, _ = solve_general(rot, np.array([1.0, 0.0]))
    assert np.allclose(x, [0.0, 1.0], atol=1e-10)


def test_general_ch_block_manufactured():
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    ops = build_operators(p1, p2v, Params(tau=1e-3))
    rng = np.random.default_rng(9)
    x_true = rng.standard_normal(ops.a_ch.shape[0])
    b = ops.a_ch @ x_true
    x, _ = solve_general(ops.a_ch, b, 1e-12)
    assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_neumann_zero_mean_examples():
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    m = np.asarray(asm.assemble_mass(p1).sum(axis=1)).ravel()

    assert solve_neumann_zero_mean(k, np.zeros(p1.ndofs), m)[1] == 0
    # pure kernel data projects away entirely
    x, iterations = solve_neumann_zero_mean(k, np.full(p1.ndofs, 3.7), m)
    assert np.array_equal(x, np.zeros(p1.ndofs)) and iterations == 0

    x_true = interpolate(p1, lambda x, y: np.cos(np.pi * x))
    x_true -= (m @ x_true) / m.sum()
    psi, _ = solve_neumann_zero_mean(k, k @ x_true, m, 1e-12)
    assert np.linalg.norm(psi - x_true) <= 1e-8 * np.linalg.norm(x_true)
    # mass-weighted mean is pinned to zero
    assert abs(m @ psi) <= 1e-12 * max(1.0, np.linalg.norm(psi))


def test_residual_contract_on_random_systems():
    # every returned solution must satisfy the verified residual bound
    rng = np.random.default_rng(77)
    for n in (5, 17, 40):
        q = rng.standard_normal((n, n))
        spd = sp.csr_matrix(q @ q.T + n * np.eye(n))
        b = rng.standard_normal(n)
        x, _ = solve_spd(spd, b, 1e-11)
        assert np.linalg.norm(b - spd @ x) <= 1e-11 * np.linalg.norm(b)
        gen = sp.csr_matrix(q + n * np.eye(n))
        x, _ = solve_general(gen, b, 1e-11)
        assert np.linalg.norm(b - gen @ x) <= 1e-11 * np.linalg.norm(b)


def test_general_zero_diagonal_is_handled():
    # Jacobi scaling must not blow up on zero diagonal entries
    a = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 0.0]]))
    x, _ = solve_general(a, np.array([2.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_general_singular_matrix_raises_solver_error():
    # BiCGStab gives up on the inconsistent system, and so does GMRES: its
    # second column adds nothing, and its next cycle lowers nothing. Each
    # must end in the documented SolverError without dividing by zero:
    # BiCGStab's second iteration meets an exactly zero denominator with
    # ||v|| = 0, and GMRES a zero rotation.
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match="gmres stagnated") as err:
            solve_general(a, np.array([1.0, 0.0]))
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
    terms = ExplicitTerms(e1h=1.0, e2h=1.0, sqrt_e1=1.0, sqrt_e2=1.0,
                          conv_scalar=rng.standard_normal(n), fp=rng.standard_normal(n),
                          capillary=None, convection=None, grad_p=None,
                          g_phi_load=None, g_u_load=None)
    ch_split_solve(ops2, params2, phi_n, terms, iterations)
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
    assert ops.ch_c > 1.0 / 9.0
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
    fp = asm.fprime_load(ops.p1, phi, params.eps, params.gamma)
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
        raise SolverError("bicgstab stagnated", 1.0)
    monkeypatch.setattr(linsolve, "_bicgstab", gives_up)
    calls = _counted(monkeypatch, "_gmres_fallback", "_presb_gmres")
    x, k = solve_general(ops.a_ch, b, 1e-10, presb)
    assert calls == {"_gmres_fallback": 1, "_presb_gmres": 1} and 1 <= k <= 30
    assert np.linalg.norm(b - ops.a_ch @ x) <= tol


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
    fp = asm.fprime_load(p1, phi, params.eps, params.gamma)
    for b in (np.concatenate([ops.forms.m_p1 @ phi / params.tau, np.zeros(n)]),
              np.concatenate([np.zeros(n), params.lam * fp])):
        for max_it in (300, 7):  # converged, and stopped by the iteration limit
            got = _bicgstab_outcome(linsolve._bicgstab, ops.a_ch, b, max_it)
            assert got == _bicgstab_outcome(oracles.bicgstab_loop, ops.a_ch, b, max_it)
    # restarts on exact breakdown, then stagnation
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    got = _bicgstab_outcome(linsolve._bicgstab, singular, np.array([1.0, 0.0]), 50)
    assert got[0].startswith("bicgstab stagnated")
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
    # converged at nx=16; at nx=4 a tolerance below round-off runs into the
    # 10 n iteration limit (tau = 1 keeps a velocity V-cycle that small)
    for nx, tau, tol in ((16, 1e-3, 1e-10), (4, 1.0, 1e-20)):
        ops = _coarsening_ops(nx, tau)
        rng = np.random.default_rng(12)
        velocity, pressure = ops.velocity.matrix, ops.forms.k_p1
        if preconditioner == "vcycle":
            vel_pre, p_pre = ops.velocity_precondition, ops.pressure_precondition
            assert isinstance(vel_pre.block, VCycle) and isinstance(p_pre, VCycle)
            vel_oracle, p_oracle = vel_pre, p_pre
        else:  # the solves' default
            vel_pre = p_pre = None
            vel_oracle, p_oracle = jacobi(velocity), jacobi(pressure)
        b_vel = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
        b_p = rng.standard_normal(ops.p1.ndofs)
        lumped = ops.forms.lumped_p1
        got = _solve_outcome(solve_spd, velocity, b_vel, tol, vel_pre)
        assert got == _oracle_outcome(oracles.cg_loop, velocity, b_vel, vel_oracle, tol)
        assert isinstance(got[1], int) == (tol == 1e-10)

        got = _solve_outcome(solve_neumann_zero_mean, pressure, b_p, lumped, tol, p_pre)
        projected = b_p - b_p.sum() / b_p.shape[0]
        assert got == _oracle_outcome(oracles.projected_cg_loop, pressure, projected,
                                      p_oracle, tol, lumped)
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
        assert x.tobytes() == solve_spd(a, b)[0].tobytes()
        kept.append(ops.velocity_precondition)
    assert not isinstance(kept[0], Planar) and kept[1] is kept[0]


def _coarsening_ops(nx, tau=1e-3):
    mesh = build_uniform_mesh(nx, nx)
    params = replace(coarsening_params(), tau=tau)
    return build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)


def _velocity_solve(ops, b, tol=1e-10):
    return solve_spd(ops.velocity.matrix, b, tol, ops.velocity_precondition)


def _pressure_solve(ops, b, tol=1e-10, precondition=None):
    return solve_neumann_zero_mean(ops.forms.k_p1, b, ops.forms.lumped_p1, tol,
                                   precondition or ops.pressure_precondition)


@pytest.mark.parametrize("tau", [1e-3, 1e-1])
@pytest.mark.parametrize("nx", [16, 32, 64])
def test_velocity_vcycle_iterations_do_not_grow_with_the_mesh(nx, tau):
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
    cycle = built[0].block
    assert isinstance(cycle, VCycle) and built[1] is built[0] and len(cycle.prolong) >= 2


@pytest.mark.parametrize("nx", [16, 32, 64])
def test_pressure_vcycle_iterations_and_agreement_with_jacobi(nx):
    ops = _coarsening_ops(nx)
    rng = np.random.default_rng(nx + 1)
    b = rng.standard_normal(ops.p1.ndofs)
    psi, iterations = _pressure_solve(ops, b)
    assert 1 <= iterations <= 15
    assert ops.pressure_precondition.ops[-1].shape[0] > 0
    # the old Jacobi projected CG
    psi_jacobi, jacobi_iterations = _pressure_solve(ops, b, precondition=jacobi(ops.forms.k_p1))
    assert jacobi_iterations > 5 * iterations
    assert np.linalg.norm(psi - psi_jacobi) <= 1e-8 * np.linalg.norm(psi_jacobi)
    assert abs(ops.forms.lumped_p1 @ psi) <= 1e-12 * np.linalg.norm(psi)


@pytest.mark.parametrize("tau", [1e-3, 1e-1])
def test_vcycle_preconditioners_are_symmetric(tau):
    ops = _coarsening_ops(32, tau)
    rng = np.random.default_rng(7)
    for vcycle, n in ((ops.velocity_precondition, ops.p2v.ndofs),
                      (ops.pressure_precondition, ops.p1.ndofs)):
        for _ in range(3):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            xcy, ycx = x @ vcycle(y), y @ vcycle(x)
            assert abs(xcy - ycx) <= 1e-12 * abs(xcy)
            assert x @ vcycle(x) > 0.0


def test_vcycle_solves_keep_the_failure_contract():
    # a tolerance below round-off runs into the 10 n iteration limit
    ops = _coarsening_ops(4, tau=1.0)
    rng = np.random.default_rng(5)
    b = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    with pytest.raises(SolverError, match="conjugate gradients did not converge") as err:
        _velocity_solve(ops, b, 1e-20)
    assert 0.0 < err.value.residual < 1e-10
    assert isinstance(ops.velocity_precondition.block, VCycle)
    with pytest.raises(SolverError, match="projected conjugate gradients did not") as err:
        _pressure_solve(ops, rng.standard_normal(ops.p1.ndofs), 1e-20)
    assert 0.0 < err.value.residual < 1e-10


@pytest.mark.parametrize("tau", [1e-3, 1e-5])
def test_velocity_precondition_is_the_scalar_cycle_per_component(tau):
    # tau 1e-3 is stiffness-dominated (a V-cycle), 1e-5 mass-dominated (Jacobi)
    ops = _coarsening_ops(16, tau)
    block, pre = ops.velocity.matrix.block, ops.velocity_precondition
    n = block.shape[0]
    assert isinstance(pre, Planar) == (tau == 1e-3)
    # a scalar cycle made afresh on the same levels, or the scalar Jacobi diagonal
    per_component = linsolve.VCycle(block, pre.block.prolong) if tau == 1e-3 else jacobi(block)
    r = np.random.default_rng(2).standard_normal(2 * n)
    z = pre(r)
    assert z[:n].tobytes() == per_component(r[:n]).tobytes()
    assert z[n:].tobytes() == per_component(r[n:]).tobytes()


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_vcycles_on_the_smallest_grids(nx):
    # tau = 1 makes the velocity stiffness-dominated down to the coarsest grid
    ops = _coarsening_ops(nx, tau=1.0)
    rng = np.random.default_rng(nx)
    b = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    x, _ = _velocity_solve(ops, b)
    assert np.linalg.norm(b - ops.velocity.matrix @ x) <= 1e-10 * np.linalg.norm(b)
    # a mesh without interior vertices has no coarse velocity level
    assert isinstance(ops.velocity_precondition, Planar) == (nx != 1)
    _, iterations = _pressure_solve(ops, rng.standard_normal(ops.p1.ndofs))
    assert iterations == 1


def test_a_lone_small_pressure_level_is_solved_directly():
    # at most COARSEST_PRESSURE_NODES nodes: the cycle is the pseudo-inverse
    ops = _coarsening_ops(8)
    b = np.random.default_rng(8).standard_normal(ops.p1.ndofs)
    _, iterations = _pressure_solve(ops, b)
    assert iterations == 1 and not ops.pressure_precondition.prolong
