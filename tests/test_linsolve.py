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
from chns.linsolve import SolverConfig, SolverError, solve_general, \
    solve_neumann_zero_mean, solve_spd
from chns.mesh import build_uniform_mesh
from chns.scheme import ExplicitTerms, Params, build_operators, ch_split_solve


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=2.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    assert SolverConfig().iterations_for(7) == 70


def test_cg_identity_and_2x2():
    eye = sp.identity(5, format="csr")
    b = np.arange(5.0)
    assert np.allclose(solve_spd(eye, b), b)
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(solve_spd(a, np.array([3.0, 3.0])), [1.0, 1.0])


def test_cg_zero_rhs():
    a = sp.identity(4, format="csr")
    info = {}
    x = solve_spd(a, np.zeros(4), info=info)
    assert np.array_equal(x, np.zeros(4))
    assert info["iterations"] == 0


def test_cg_manufactured_dirichlet_stiffness():
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    field = interpolate(p1, lambda x, y: x * y + 0.3 * x)
    a2 = asm.DirichletOperator(k, p1.boundary_dofs).matrix
    b = a2 @ field
    info = {}
    x = solve_spd(a2, b, SolverConfig(rel_tolerance=1e-12), info)
    assert np.linalg.norm(x - field) <= 1e-9 * np.linalg.norm(field)
    assert info["iterations"] >= 1
    # residual contract holds under explicit re-verification
    assert np.linalg.norm(b - a2 @ x) <= 1e-12 * np.linalg.norm(b)


def test_cg_failure_carries_residual():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(SolverError) as err:
        solve_spd(a, np.array([1.0, 0.0]), SolverConfig(rel_tolerance=1e-15,
                                                        max_iterations=1))
    assert err.value.residual >= 0.0


def test_general_identity_and_rotation():
    eye = sp.identity(3, format="csr")
    b = np.array([4.0, 5.0, 6.0])
    assert np.allclose(solve_general(eye, b), b)
    rot = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    x = solve_general(rot, np.array([1.0, 0.0]))
    assert np.allclose(x, [0.0, 1.0], atol=1e-10)


def test_general_ch_block_manufactured():
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    ops = build_operators(p1, p2v, Params(tau=1e-3))
    rng = np.random.default_rng(9)
    x_true = rng.standard_normal(ops.a_ch.shape[0])
    b = ops.a_ch @ x_true
    x = solve_general(ops.a_ch, b, SolverConfig(rel_tolerance=1e-12))
    assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_neumann_zero_mean_examples():
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    m = np.asarray(asm.assemble_mass(p1).sum(axis=1)).ravel()

    assert np.array_equal(solve_neumann_zero_mean(k, np.zeros(p1.ndofs), m),
                          np.zeros(p1.ndofs))
    # pure kernel data projects away entirely
    assert np.abs(solve_neumann_zero_mean(k, np.full(p1.ndofs, 3.7), m)).max() <= 1e-12

    x_true = interpolate(p1, lambda x, y: np.cos(np.pi * x))
    x_true -= (m @ x_true) / m.sum()
    psi = solve_neumann_zero_mean(k, k @ x_true, m, SolverConfig(rel_tolerance=1e-12))
    assert np.linalg.norm(psi - x_true) <= 1e-8 * np.linalg.norm(x_true)
    # mass-weighted mean is pinned to zero
    assert abs(m @ psi) <= 1e-12 * max(1.0, np.linalg.norm(psi))


def test_residual_contract_on_random_systems():
    # every returned solution must satisfy the verified residual bound
    rng = np.random.default_rng(77)
    cfg = SolverConfig(rel_tolerance=1e-11)
    for n in (5, 17, 40):
        q = rng.standard_normal((n, n))
        spd = sp.csr_matrix(q @ q.T + n * np.eye(n))
        b = rng.standard_normal(n)
        x = solve_spd(spd, b, cfg)
        assert np.linalg.norm(b - spd @ x) <= 1e-11 * np.linalg.norm(b)
        gen = sp.csr_matrix(q + n * np.eye(n))
        x = solve_general(gen, b, cfg)
        assert np.linalg.norm(b - gen @ x) <= 1e-11 * np.linalg.norm(b)


def test_general_zero_diagonal_is_handled():
    # Jacobi scaling must not blow up on zero diagonal entries
    a = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 0.0]]))
    x = solve_general(a, np.array([2.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_general_singular_matrix_raises_solver_error():
    # BiCGStab gives up on the inconsistent system; the LU breakdown must
    # surface as the documented SolverError, not scipy's RuntimeError.
    # Its second iteration meets an exactly zero denominator with ||v|| = 0,
    # which must restart rather than divide by zero.
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match="factorization") as err:
            solve_general(a, np.array([1.0, 0.0]))
    assert err.value.residual == 1.0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_ch_factors_built_once_and_reused(monkeypatch):
    # at nx=32 BiCGStab gives up on the relaxation CH block for random data
    mesh = build_uniform_mesh(32, 32)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    params = relaxation_params()
    ops = build_operators(p1, p2v, params)
    calls = {"_bicgstab": 0, "_factorize": 0}

    def counted(name):
        fn = getattr(linsolve, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(linsolve, name, wrapper)

    counted("_bicgstab")
    counted("_factorize")
    rng = np.random.default_rng(31)
    tol = ops.config.rel_tolerance
    for _ in range(2):
        b = rng.standard_normal(ops.a_ch.shape[0])
        x = solve_general(ops.a_ch, b, ops.config, factors=ops.ch_factors)
        assert np.linalg.norm(b - ops.a_ch @ x) <= tol * np.linalg.norm(b)
        # the first solve tries BiCGStab and factors; the second uses the factors
        assert calls == {"_bicgstab": 1, "_factorize": 1}
    factors = ops.ch_factors.lu
    assert factors is not None

    # another tau is another Operators, with factors of its own
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
    assert calls == {"_bicgstab": 2, "_factorize": 2}
    assert iterations["ch_x0"] >= 1 and iterations["ch_x1"] >= 1
    assert ops2.ch_factors.lu is not None and ops2.ch_factors.lu is not factors
    assert ops.ch_factors.lu is factors


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


def _solve_outcome(solve, a, b, config, factors, *extra):
    """(iterate bytes, iterations) of a public solve, or its error and residual."""
    info = {}
    try:
        x = solve(a, b, *extra, config, info, factors)
    except SolverError as exc:
        return str(exc), exc.residual
    return x.tobytes(), info["iterations"]


def _oracle_outcome(loop, a, b, precondition, config, shift=None):
    try:
        x, k = loop(a, b, precondition, config.rel_tolerance * np.linalg.norm(b),
                    config.iterations_for(b.shape[0]))
    except SolverError as exc:
        return str(exc), exc.residual
    if shift is not None:
        x -= (shift @ x) / shift.sum()
    return x.tobytes(), k


@pytest.mark.parametrize("preconditioner", ["jacobi", "vcycle"])
def test_cg_iterates_match_loop_oracles(preconditioner):
    ops = _coarsening_ops(16)
    rng = np.random.default_rng(12)
    velocity, pressure = ops.velocity.matrix, ops.forms.k_p1
    if preconditioner == "vcycle":
        vel_factors, p_factors = ops.velocity_factors, ops.pressure_factors
    else:
        vel_factors, p_factors = linsolve.Factors(), linsolve.Factors()
    b_vel = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    b_p = rng.standard_normal(ops.p1.ndofs)
    lumped = ops.forms.lumped_p1
    for max_iterations in (None, 3):  # converged, and stopped by the iteration limit
        config = SolverConfig(rel_tolerance=1e-10, max_iterations=max_iterations)
        got = _solve_outcome(solve_spd, velocity, b_vel, config, vel_factors)
        precondition = linsolve._preconditioner(velocity, vel_factors)
        assert (preconditioner == "vcycle") == isinstance(precondition, linsolve.VCycle)
        assert got == _oracle_outcome(oracles.cg_loop, velocity, b_vel, precondition, config)

        got = _solve_outcome(solve_neumann_zero_mean, pressure, b_p, config, p_factors, lumped)
        precondition = linsolve._preconditioner(pressure, p_factors)
        assert (preconditioner == "vcycle") == isinstance(precondition, linsolve.VCycle)
        projected = b_p - b_p.sum() / b_p.shape[0]
        assert got == _oracle_outcome(oracles.projected_cg_loop, pressure, projected,
                                      precondition, config, lumped)
        assert isinstance(got[1], int) == (max_iterations is None)


def test_velocity_solves_reuse_the_diagonal_bit_for_bit(spaces16):
    # the manufactured-solution case is mass-dominated, so it keeps Jacobi CG
    p1, p2v = spaces16
    ops = build_operators(p1, p2v, replace(Params(), tau=default_tau_rule(1.0 / 16)))
    rng = np.random.default_rng(16)
    a = ops.velocity.matrix
    kept = []
    for _ in range(2):
        b = ops.velocity.prepare_rhs(rng.standard_normal(p2v.ndofs))
        x = solve_spd(a, b, ops.config, factors=ops.velocity_factors)
        assert x.tobytes() == solve_spd(a, b, ops.config).tobytes()
        kept.append(ops.velocity_factors.dinv)
    assert kept[0] is not None and kept[1] is kept[0]
    assert ops.velocity_factors.lu is None
    assert ops.velocity_factors.vcycle is None and ops.velocity_factors.coarsen is None


def _coarsening_ops(nx, tau=1e-3):
    mesh = build_uniform_mesh(nx, nx)
    params = replace(coarsening_params(), tau=tau)
    return build_operators(build_space(mesh, "p1"), build_space(mesh, "p2vec"), params)


def _velocity_solve(ops, b, config=None):
    info = {}
    x = solve_spd(ops.velocity.matrix, b, config or ops.config, info, ops.velocity_factors)
    return x, info["iterations"]


def _pressure_solve(ops, b, config=None, factors=None):
    info = {}
    psi = solve_neumann_zero_mean(ops.forms.k_p1, b, ops.forms.lumped_p1, config or ops.config,
                                  info, factors or ops.pressure_factors)
    return psi, info["iterations"]


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
        assert np.linalg.norm(b - a @ x) <= ops.config.rel_tolerance * np.linalg.norm(b)
        built.append(ops.velocity_factors.vcycle)
    # built by the first solve, reused by the second
    assert built[0] is not None and built[1] is built[0] and len(built[0].prolong) >= 2
    assert ops.velocity_factors.dinv is None


@pytest.mark.parametrize("nx", [16, 32, 64])
def test_pressure_vcycle_iterations_and_agreement_with_jacobi(nx):
    ops = _coarsening_ops(nx)
    rng = np.random.default_rng(nx + 1)
    b = rng.standard_normal(ops.p1.ndofs)
    psi, iterations = _pressure_solve(ops, b)
    assert 1 <= iterations <= 15
    assert ops.pressure_factors.vcycle.ops[-1].shape[0] > 0
    # the old Jacobi projected CG, without the holder
    psi_jacobi, jacobi_iterations = _pressure_solve(ops, b, factors=linsolve.Factors())
    assert jacobi_iterations > 5 * iterations
    assert np.linalg.norm(psi - psi_jacobi) <= 1e-8 * np.linalg.norm(psi_jacobi)
    assert abs(ops.forms.lumped_p1 @ psi) <= 1e-12 * np.linalg.norm(psi)


@pytest.mark.parametrize("tau", [1e-3, 1e-1])
def test_vcycle_preconditioners_are_symmetric(tau):
    ops = _coarsening_ops(32, tau)
    rng = np.random.default_rng(7)
    _velocity_solve(ops, ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs)))
    _pressure_solve(ops, rng.standard_normal(ops.p1.ndofs))
    for vcycle in (ops.velocity_factors.vcycle, ops.pressure_factors.vcycle):
        n = vcycle.ops[0].shape[0]
        for _ in range(3):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            xcy, ycx = x @ vcycle(y), y @ vcycle(x)
            assert abs(xcy - ycx) <= 1e-12 * abs(xcy)
            assert x @ vcycle(x) > 0.0


def test_vcycle_solves_keep_the_failure_contract():
    ops = _coarsening_ops(16)
    rng = np.random.default_rng(5)
    tight = SolverConfig(rel_tolerance=1e-10, max_iterations=2)
    b = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    with pytest.raises(SolverError, match="conjugate gradients did not converge") as err:
        _velocity_solve(ops, b, tight)
    assert 1e-10 < err.value.residual < 1.0
    assert ops.velocity_factors.vcycle is not None
    with pytest.raises(SolverError, match="projected conjugate gradients") as err:
        _pressure_solve(ops, rng.standard_normal(ops.p1.ndofs), tight)
    assert 1e-10 < err.value.residual < 1.0


def test_vcycle_of_an_interleaved_operator_is_its_scalar_cycle_per_component():
    ops = _coarsening_ops(16)
    a = ops.velocity.matrix
    scalar = a[0::2, 0::2].tocsr()
    assert oracles.identical(linsolve.expand_vector(scalar), a)
    free = np.setdiff1d(np.arange(ops.p1.ndofs), ops.p1.boundary_dofs)
    levels = [fem.p1_to_p2(ops.mesh)[:, free]]
    vector = linsolve.VCycle(a, levels, interleaved=True)
    per_component = linsolve.VCycle(scalar, levels)
    r = np.random.default_rng(2).standard_normal(a.shape[0])
    z = vector(r)
    for c in (0, 1):
        assert np.allclose(z[c::2], per_component(r[c::2]), rtol=1e-13,
                           atol=1e-13 * np.abs(z).max())


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_vcycles_on_the_smallest_grids(nx):
    # tau = 1 makes the velocity stiffness-dominated down to the coarsest grid
    ops = _coarsening_ops(nx, tau=1.0)
    rng = np.random.default_rng(nx)
    b = ops.velocity.prepare_rhs(rng.standard_normal(ops.p2v.ndofs))
    x, _ = _velocity_solve(ops, b)
    assert np.linalg.norm(b - ops.velocity.matrix @ x) <= 1e-10 * np.linalg.norm(b)
    # a mesh without interior vertices has no coarse velocity level
    assert (ops.velocity_factors.vcycle is None) == (nx == 1)
    _, iterations = _pressure_solve(ops, rng.standard_normal(ops.p1.ndofs))
    assert iterations == 1


def test_a_lone_small_pressure_level_is_solved_directly():
    # at most COARSEST_PRESSURE_NODES nodes: the cycle is the pseudo-inverse
    ops = _coarsening_ops(8)
    b = np.random.default_rng(8).standard_normal(ops.p1.ndofs)
    _, iterations = _pressure_solve(ops, b)
    assert iterations == 1 and not ops.pressure_factors.vcycle.prolong
