"""Acceptance gates, one test per criterion, each printing its verdict.

The expensive runs (the three-level manufactured study and the three-tau
stability sweep at nx=32, T=1) are shared session fixtures.

Criterion 1 gates the mu and p L2(0,T; L2) rates at the order the paper
proves for P1, 2, with the phase field's slack (>= 1.9). No P1 field can
beat the L2 projection of the exact solution, whose error rate for both
fields falls from 2.10 (nx 4 -> 8) to 2.00 by nx=128. The scheme's mu
error sits within 10 % of that floor at nx=4 and about 1 % at nx=8 and 16,
so a >= 2.3 rate would need a coarse error well above the best P1 error.
The p error is 2.4x, 1.5x and 1.2x the floor at nx=4, 8, 16; that excess
fades, so the rate falls towards 2, and a >= 2.4 rate over nx=16 -> 32
would need an error below the floor there.
"""

import numpy as np
import pytest

from chns import assembly as asm
from chns.experiments import rate, random_phase_field, run_coarsening, run_convergence_level
from chns.fem import build_space, p1_basis, p2_basis, triangle_quadrature
from chns.mesh import build_uniform_mesh, triangle_areas
from chns.mms import finite_difference_forcing, trig_case
from chns.scheme import Forcing, Params, build_operators, init_state, solve_quadratic, step


def verdict(criterion: str, gates: dict[str, bool]) -> None:
    ok = all(gates.values())
    detail = ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in gates.items())
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def table(records, attr):
    vals = [getattr(r, attr) for r in records]
    rates = [rate(a, b) for a, b in zip(vals, vals[1:])]
    return vals, rates


def test_criterion_1_l2_convergence_rates(convergence_results):
    records, _ = convergence_results
    gates = {}
    for attr, line in (("phi_linf_l2", "phi"), ("mu_l2_l2", "mu"),
                       ("u_linf_l2", "u"), ("p_l2_l2", "p")):
        vals, rates = table(records, attr)
        print(f"  {line}: errors {[f'{v:.5e}' for v in vals]} rates {[f'{r:.3f}' for r in rates]}")
    _, phi_rates = table(records, "phi_linf_l2")
    _, mu_rates = table(records, "mu_l2_l2")
    _, u_rates = table(records, "u_linf_l2")
    _, p_rates = table(records, "p_l2_l2")
    gates["phi>=1.9 (both)"] = all(r >= 1.9 for r in phi_rates)
    gates["u>=2.4 then >=2.6"] = u_rates[0] >= 2.4 and u_rates[1] >= 2.6
    gates["mu>=1.9 (both)"] = all(r >= 1.9 for r in mu_rates)
    gates["p>=1.9 (both)"] = all(r >= 1.9 for r in p_rates)
    verdict("criterion 1 (L2 rates)", gates)


def test_convergence_errors_strictly_decrease(convergence_results):
    records, _ = convergence_results
    for attr in ("phi_linf_l2", "mu_l2_l2", "u_linf_l2", "p_l2_l2",
                 "phi_h1", "mu_h1", "u_h1", "p_h1"):
        vals = [getattr(r, attr) for r in records]
        assert all(b < a for a, b in zip(vals, vals[1:])), attr


def test_criterion_2_h1_convergence_rates(convergence_results):
    records, _ = convergence_results
    _, phi_rates = table(records, "phi_h1")
    _, mu_rates = table(records, "mu_h1")
    _, u_rates = table(records, "u_h1")
    _, p_rates = table(records, "p_h1")
    print(f"  H1 rates: phi {phi_rates} mu {mu_rates} u {u_rates} p {p_rates}")
    gates = {
        "phi>=0.9": all(r >= 0.9 for r in phi_rates),
        "mu>=0.8": all(r >= 0.8 for r in mu_rates),
        "u>=1.7": all(r >= 1.7 for r in u_rates),
        "p>=0.9 (first)": p_rates[0] >= 0.9,
    }
    verdict("criterion 2 (H1 rates)", gates)


def test_criterion_3_unconditional_stability(stability_runs):
    gates = {}
    for tau, run in stability_runs.items():
        energies = [run.initial_energy] + run.trace.energy
        ok = all(b <= a + 1e-8 * max(1.0, a) for a, b in zip(energies, energies[1:]))
        gates[f"tau={tau:g} monotone"] = ok
    verdict("criterion 3 (unconditional energy stability)", gates)


def test_criterion_4_energy_identity(stability_runs):
    run = stability_runs[1e-3]
    energies = [run.initial_energy] + run.trace.energy
    residuals = run.trace.identity_residual[:50]
    worst = max(abs(res) / max(1.0, energies[i])
                for i, res in enumerate(residuals))
    print(f"  worst |identity residual| / max(1, E): {worst:.3e}")
    verdict("criterion 4 (exact energy identity)",
            {"50 steps <= 1e-8": worst <= 1e-8})


def test_criterion_5_quadratic_root_machinery(convergence_results, stability_runs,
                                              small_ops, coarsen_params):
    _, diag = convergence_results
    gates = {"discriminant (mms runs)": diag["min_disc_scaled"] >= -1e-12}
    for tau, run in stability_runs.items():
        gates[f"discriminant tau={tau:g}"] = run.trace.min_disc_scaled >= -1e-12

    # stationary state returns the previous scalar exactly
    s0 = init_state(small_ops, np.zeros(small_ops.p1.ndofs),
                    np.zeros(small_ops.p2v.ndofs), np.zeros(small_ops.p1.ndofs),
                    coarsen_params)
    _, report = step(s0, coarsen_params, small_ops)
    gates["stationary rho"] = abs(report.chosen_root - s0.rho) <= 1e-12

    # a zero constant coefficient factors an exact zero root, which the
    # ratio test rejects at order-one energies
    roots = solve_quadratic(2.0 / 1e-3, -2.0 * 0.5 / 1e-3, 0.0)
    gates["a0=0 factorization"] = 0.0 in roots and max(roots) == pytest.approx(0.5)
    gates["a0=0 selection"] = report.a0 == pytest.approx(0.0, abs=1e-13) \
        and report.chosen_root != 0.0
    verdict("criterion 5 (quadratic root machinery)", gates)


def test_criterion_6_picard_oracle_equivalence():
    from oracles import picard_step

    prm = Params(tau=1e-3, t_end=0.1, solver_tol=1e-12)
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")
    ops = build_operators(p1, p2v, prm)
    case = trig_case(prm)
    forcing = Forcing(g_phi=case.g_phi, g_u=case.g_u)
    s = init_state(ops, lambda x, y: case.phi(0, x, y), lambda x, y: case.u(0, x, y),
                   lambda x, y: case.p(0, x, y), prm, mu0=lambda x, y: case.mu(0, x, y))

    def rel(a, b):
        return np.linalg.norm(np.atleast_1d(a - b)) / max(np.linalg.norm(np.atleast_1d(b)), 1e-30)

    worst = 0.0
    for _ in range(5):
        oracle = picard_step(s, prm, ops, forcing)
        s, _ = step(s, prm, ops, forcing=forcing)
        worst = max(worst, rel(oracle["phi"], s.phi), rel(oracle["mu"], s.mu),
                    rel(oracle["u_tilde"], s.u_tilde),
                    abs(oracle["r"] - s.r) / max(1.0, abs(s.r)),
                    abs(oracle["rho"] - s.rho) / max(1.0, abs(s.rho)))
    print(f"  worst relative deviation from the fixed-point oracle: {worst:.3e}")
    verdict("criterion 6 (oracle equivalence)", {"<=1e-8 all fields": worst <= 1e-8})


def test_criterion_7_conservation_and_structure(small_ops):
    gates = {}

    # phase-only mass conservation
    prm = Params(mobility=0.0001, lam=0.02, nu=1.0, eps=0.01, gamma=1.0,
                 c1=1.0, c2=0.1, tau=1e-3, t_end=1.0, solver_tol=1e-12)
    ops = build_operators(small_ops.p1, small_ops.p2v, prm)
    phi0 = random_phase_field(23, ops.p1.ndofs)
    s = init_state(ops, phi0, np.zeros(ops.p2v.ndofs), np.zeros(ops.p1.ndofs),
                   prm, mu0=phi0.copy())
    mass0 = ops.forms.lumped_p1 @ s.phi
    for _ in range(20):
        s, _ = step(s, prm, ops, velocity_frozen=True)
    gates["mass conservation <=1e-10"] = abs(ops.forms.lumped_p1 @ s.phi - mass0) <= 1e-10

    # pressure mean-free at every step of a flowing run
    prm2 = Params(mobility=0.0001, lam=0.02, nu=1.0, eps=0.01, gamma=1.0,
                  c1=1.0, c2=0.1, tau=1e-3, t_end=1.0)
    means = []

    def on_step(state, report):
        means.append(abs(ops.forms.lumped_p1 @ state.p)
                     / (1.0 + np.linalg.norm(state.p)))

    run = run_coarsening(seed=2024, nx=4, tau=1e-3, t_end=0.05, params=prm2,
                         on_step=on_step)
    assert run.trace.monotone()
    gates["pressure zero-mean <=1e-12"] = max(means) <= 1e-12

    # structural properties: SPD, kernels, partition of unity, quadrature
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    k = asm.assemble_stiffness(p1)
    m = asm.assemble_mass(p1)
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((5, p1.ndofs))
    gates["spd/kernel"] = (np.abs(k @ np.ones(p1.ndofs)).max() <= 1e-13
                           and all(x @ (m @ x) > 0 for x in xs)
                           and all(x @ (k @ x) >= -1e-13 for x in xs)
                           and abs(triangle_areas(mesh).sum() - 1.0) <= 1e-12)
    pts = rng.dirichlet([1, 1, 1], size=100)
    gates["partition of unity"] = all(
        abs(p1_basis(pt)[0].sum() - 1) <= 1e-14 and abs(p2_basis(pt)[0].sum() - 1) <= 1e-14
        for pt in pts)
    import math
    rule = triangle_quadrature(5)
    exact_ok = True
    for a in range(6):
        for b in range(6 - a):
            ref = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = float(np.sum(rule.weights * rule.points[:, 1] ** a * rule.points[:, 2] ** b))
            exact_ok = exact_ok and abs(got - ref) <= 1e-13 * ref
    gates["quadrature exactness"] = exact_ok

    # forcing terms cross-validated against finite differences
    case = trig_case(Params())
    rng = np.random.default_rng(123)
    x, y = rng.uniform(0.05, 0.95, 50), rng.uniform(0.05, 0.95, 50)
    ga, (gu1a, gu2a) = case.g_phi(0.05, x, y), case.g_u(0.05, x, y)
    gb, (gu1b, gu2b) = finite_difference_forcing(case, Params(), 0.05, x, y)
    scale = max(np.abs(ga).max(), np.abs(gu1a).max(), np.abs(gu2a).max())
    gates["mms forcing fd-check <=1e-6"] = (
        np.abs(ga - gb).max() <= 1e-6 * scale
        and np.abs(gu1a - gu1b).max() <= 1e-6 * scale
        and np.abs(gu2a - gu2b).max() <= 1e-6 * scale)

    verdict("criterion 7 (conservation and structure)", gates)


def test_criterion_8_determinism(tmp_path):
    from chns.cli import main

    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(["coarsen", "--nx", "8", "--tau", "1e-2", "--t-end", "0.04",
                     "--seed", "2024", "--out", str(out)])
        assert code == 0
        outs.append((out / "energy.csv").read_bytes())
    verdict("criterion 8 (determinism)", {"byte-identical CSV": outs[0] == outs[1]})


@pytest.mark.slow
def test_manufactured_level_32_third_transition(convergence_results):
    # opt-in (-m slow): 32768 steps at nx=32, about 14 minutes on one core.
    # mu and p are gated at the P1 order; the u rate, which the paper shows
    # optimal for r = 1, is reported
    records, _ = convergence_results
    fine = run_convergence_level(32, Params())
    rates = {attr: rate(getattr(records[-1], attr), getattr(fine, attr))
             for attr in ("phi_linf_l2", "mu_l2_l2", "u_linf_l2", "p_l2_l2")}
    print("  nx 16 -> 32 L2 rates: " + ", ".join(f"{a} {r:.3f}" for a, r in rates.items()))
    verdict("nx=32 level (third L2 transition)",
            {"mu>=1.9": rates["mu_l2_l2"] >= 1.9, "p>=1.9": rates["p_l2_l2"] >= 1.9})
