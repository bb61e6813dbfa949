import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from chns import assembly as asm
from chns import linsolve
from chns.experiments import relaxation_params
from chns.fem import build_space, interpolate
from chns.linsolve import SolverConfig, SolverError, solve_general, \
    solve_neumann_zero_mean, solve_spd, spmv
from chns.mesh import build_uniform_mesh
from chns.scheme import Params, build_operators, ch_split_solve


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=2.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    assert SolverConfig().iterations_for(7) == 70


def test_spmv_examples():
    eye = sp.identity(3, format="csr")
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(spmv(eye, x), x)
    zero = sp.csr_matrix((3, 3))
    assert np.array_equal(spmv(zero, x), np.zeros(3))
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.array_equal(spmv(a, np.ones(2)), np.array([3.0, 3.0]))
    with pytest.raises(ValueError):
        spmv(a, x)


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
    a2, _ = asm.apply_dirichlet(k, np.zeros(p1.ndofs), p1.boundary_dofs,
                                field[p1.boundary_dofs])
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
    ch_split_solve(ops2, params2, rng.standard_normal(n), rng.standard_normal(n),
                   rng.standard_normal(n), None, 1.0, iterations)
    assert calls == {"_bicgstab": 2, "_factorize": 2}
    assert iterations["ch_x0"] >= 1 and iterations["ch_x1"] >= 1
    assert ops2.ch_factors.lu is not None and ops2.ch_factors.lu is not factors
    assert ops.ch_factors.lu is factors
