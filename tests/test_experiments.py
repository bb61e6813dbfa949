import time

import numpy as np
import pytest

import oracles
from chns import assembly as asm
from chns.experiments import EnergyTrace, ErrorAccumulator, default_cross_polygon, \
    points_in_polygon, polygon_is_simple, random_phase_field, rate, run_coarsening, \
    run_convergence_level, run_relaxation, run_stability_sweep, splitmix64_stream
from chns.fem import build_space, interpolate
from chns.mesh import build_uniform_mesh
from chns.mms import trig_case
from chns.scheme import Params, build_operators, init_state


def test_rate_convention():
    # the reported order is log2 of the coarse/fine error ratio
    assert rate(3.10010e-4, 6.04209e-5) == pytest.approx(2.36, abs=0.01)


def test_splitmix_stream_deterministic_and_uniform():
    a = splitmix64_stream(2024, 500)
    b = splitmix64_stream(2024, 500)
    assert np.array_equal(a, b)
    c = splitmix64_stream(2025, 500)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.05


def test_splitmix_stream_matches_scalar_generator():
    for seed in (0, 1, 2024, 2 ** 63 + 5, 2 ** 64 - 1):
        for count in (0, 1, 2, 97):
            fast, slow = splitmix64_stream(seed, count), oracles.splitmix64_scalar(seed, count)
            assert fast.dtype == slow.dtype and fast.shape == (count,)
            assert np.array_equal(fast, slow)


def test_random_phase_field_amplitude():
    phi = random_phase_field(7, 1000)
    assert np.abs(phi).max() <= 0.1
    assert np.abs(phi).max() > 0.05


def test_error_accumulator_matches_interpolation_error():
    prm = Params(tau=1e-3, t_end=0.1)
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    ops = build_operators(p1, p2v, prm)
    case = trig_case(prm)

    t = 0.04
    state = init_state(ops, lambda x, y: case.phi(t, x, y),
                       lambda x, y: case.u(t, x, y),
                       lambda x, y: case.p(t, x, y),
                       mu0=lambda x, y: case.mu(t, x, y))
    acc = ErrorAccumulator(ops, case)
    acc.update(state, t)
    # errors equal interpolation errors, cross-checked against the norm helper
    assert acc.phi_linf == pytest.approx(
        asm.l2_error(p1, state.phi, lambda x, y: case.phi(t, x, y)), rel=1e-12)
    assert acc.phi_linf <= 5e-3

    # a state interpolating the exact fields only carries interpolation error
    assert acc.u_linf <= 5e-3


def test_coarsening_determinism_and_monotonicity():
    a = run_coarsening(seed=11, nx=8, tau=1e-2, t_end=0.08)
    b = run_coarsening(seed=11, nx=8, tau=1e-2, t_end=0.08)
    assert a.trace.energy == b.trace.energy  # bit identical
    assert a.trace.monotone()
    c = run_coarsening(seed=12, nx=8, tau=1e-2, t_end=0.08)
    assert a.trace.energy != c.trace.energy


def test_coarsening_initial_data_contract():
    # the run starts from the seeded nodal values, with the potential set to
    # the same random vector; one marched step pins both choices
    run = run_coarsening(seed=5, nx=8, tau=1e-1, t_end=0.1)
    ops = run.ops
    expected_phi0 = random_phase_field(5, ops.p1.ndofs)
    prm = Params(mobility=0.0001, lam=0.02, nu=1.0, eps=0.01, gamma=1.0,
                 c1=1.0, c2=0.1, tau=1e-1, t_end=0.1)
    assert ops.params == prm
    s = init_state(ops, expected_phi0, np.zeros(ops.p2v.ndofs),
                   np.zeros(ops.p1.ndofs), mu0=expected_phi0.copy())
    from chns.scheme import modified_energy, step
    assert modified_energy(ops, s) == pytest.approx(run.initial_energy, rel=1e-12)
    s1, _ = step(s, ops)
    assert np.array_equal(s1.phi, run.final_state.phi)
    assert np.array_equal(s1.u, run.final_state.u)
    # large tau still dissipates (unconditional stability at desk scale)
    assert run.trace.monotone()


@pytest.mark.parametrize("tau", [1.0, 0.1])
@pytest.mark.parametrize("nx", [1, 2, 3])
def test_coarsening_on_the_smallest_grids(nx, tau):
    # nx = 1 has no interior vertex, so the velocity keeps Jacobi; at nx = 2
    # and 3 the velocity hierarchy stops where the coarser grid has none
    reports = []
    run = run_coarsening(seed=0, nx=nx, tau=tau, t_end=3 * tau,
                         on_step=lambda state, report: reports.append(report))
    assert len(reports) == 3 and run.final_state.step == 3
    for report in reports:
        energy = report.energy_after
        assert energy <= report.energy_before + 1e-8 * max(1.0, report.energy_before)
        assert abs(report.identity_residual) <= 1e-8 * max(1.0, energy)


def test_coarsening_snapshots_at_listed_times():
    run = run_coarsening(seed=3, nx=8, tau=1e-2, t_end=0.1,
                         snapshot_times=[0.02, 0.05, 1.0])
    times = [t for t, _ in run.snapshots]
    assert times == [0.02, 0.05]  # beyond-horizon snapshots are skipped


def test_stability_sweep_reuses_coarsening_path():
    sweep = run_stability_sweep([1e-2], seed=11, nx=8, t_end=0.08)
    direct = run_coarsening(seed=11, nx=8, tau=1e-2, t_end=0.08)
    assert sweep[1e-2].trace.energy == direct.trace.energy


def test_polygon_helpers():
    poly = default_cross_polygon()
    assert len(poly) == 12
    assert polygon_is_simple(poly)
    bow_tie = np.array([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    assert not polygon_is_simple(bow_tie)

    x = np.array([0.5, 0.5, 0.05, 0.72])
    y = np.array([0.5, 0.25, 0.05, 0.5])
    inside = points_in_polygon(poly, x, y)
    assert inside.tolist() == [True, True, False, True]


def test_relaxation_initial_phase_and_bc():
    nx = 8
    run = run_relaxation(default_cross_polygon(), nx=nx, tau=1e-2, t_end=0.02)
    p2v = run.ops.p2v
    bd = p2v.boundary_dofs
    x, y = p2v.dof_coords[bd[:bd.size // 2]].T  # the nodes of u_x, then of u_y
    expect = np.concatenate([y - 0.5, -(x - 0.5)])
    assert np.allclose(run.final_state.u_tilde[bd], expect, atol=1e-10)

    # polygon covering the whole domain turns the phase on everywhere
    big = np.array([(-1.0, -1.0), (2.0, -1.0), (2.0, 2.0), (-1.0, 2.0)])
    prm = Params(mobility=0.001, lam=0.1, nu=1.0, eps=0.01, gamma=1.0,
                 c1=1.0, c2=0.1, tau=1e-2, t_end=0.5)
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    inside = points_in_polygon(big, p1.dof_coords[:, 0], p1.dof_coords[:, 1])
    assert inside.all()


def test_relaxation_rejects_bad_polygon():
    bow_tie = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(ValueError):
        run_relaxation(bow_tie, nx=4, tau=1e-2, t_end=0.02)


def test_relaxation_energy_decays():
    run = run_relaxation(default_cross_polygon(), nx=16, tau=1e-3, t_end=0.01)
    assert run.trace.monotone()
    assert run.trace.energy[-1] < run.initial_energy


def test_convergence_level_runs_fast_at_coarse_size():
    t0 = time.time()
    rec = run_convergence_level(4, Params())
    elapsed = time.time() - t0
    assert elapsed < 10.0
    assert rec.tau == pytest.approx(0.1 * 0.25 ** 3)
    assert rec.phi_linf_l2 < 0.01


def test_manufactured_run_is_first_order_in_time():
    # one mesh (nx=8), tau = 1e-2 halved 3 times to t_end 0.1: the difference
    # between the final fields of two neighbouring tau has no spatial error,
    # and halves with tau. Measured rates: phi 1.003, 1.002; u 1.34, 1.11
    finals = []
    for k in range(4):
        last = []
        run_convergence_level(8, Params(), t_end=0.1, tau_rule=lambda h, k=k: 1e-2 / 2 ** k,
                              on_step=lambda state, report: last.append(state))
        finals.append(last[-1])
    mesh = build_uniform_mesh(8, 8)
    p1, p2v = build_space(mesh, "p1"), build_space(mesh, "p2vec")
    rates = {}
    for name, space in (("phi", p1), ("u", p2v)):
        gaps = [asm.l2_error(space, getattr(a, name) - getattr(b, name))
                for a, b in zip(finals, finals[1:])]
        rates[name] = [rate(a, b) for a, b in zip(gaps, gaps[1:])]
    print(f"  temporal self-convergence rates: {rates}")
    assert all(0.9 <= r <= 1.5 for r in rates["phi"] + rates["u"]), rates


def test_ritz_projection_properties():
    mesh = build_uniform_mesh(8, 8)
    p1 = build_space(mesh, "p1")

    # linear fields project to themselves
    def grad_lin(x, y):
        return (np.full_like(x, 2.0), np.full_like(x, -1.0))

    lin = interpolate(p1, lambda x, y: 2.0 * x - y + 0.25)
    integral = 2.0 * 0.5 - 0.5 + 0.25  # exact integral over the unit square
    proj = oracles.ritz_projection(p1, grad_lin, integral)
    assert np.abs(proj - lin).max() <= 1e-10

    # constants are fixed points
    const = oracles.ritz_projection(p1, lambda x, y: (np.zeros_like(x), np.zeros_like(x)), 3.0)
    assert np.allclose(const, 3.0, atol=1e-12)


def test_projection_rate_check_orders():
    out = oracles.projection_rate_check((4, 8, 16))
    for r in out["l2_rates"]:
        assert 1.8 <= r <= 2.2
    for r in out["h1_rates"]:
        assert r >= 0.9


def test_energy_trace_monotone_flag():
    tr = EnergyTrace()
    tr.energy = [3.0, 2.0, 1.5]
    assert tr.monotone()
    tr.energy = [3.0, 3.5, 1.0]
    assert not tr.monotone()
