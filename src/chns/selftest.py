"""Fast built-in invariant checks, runnable without the test suite."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import assembly as asm
from .experiments import coarsening_params, relaxation_params
from .fem import build_space, p1_basis, p2_basis, triangle_quadrature
from .linsolve import solve_general
from .mesh import build_uniform_mesh, triangle_areas
from .mms import finite_difference_forcing, trig_case
from .scheme import Params, build_operators, init_state, step


def _checks():
    mesh = build_uniform_mesh(4, 4)
    p1 = build_space(mesh, "p1")
    p2v = build_space(mesh, "p2vec")

    yield "mesh area sum", abs(triangle_areas(mesh).sum() - 1.0) < 1e-12
    v, e, t = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    yield "mesh Euler relation", v - e + t == 1

    rule = triangle_quadrature(5)
    ok = abs(rule.weights.sum() - 0.5) < 1e-14
    for a in range(4):
        for b in range(4 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            approx = np.sum(rule.weights * rule.points[:, 1] ** a * rule.points[:, 2] ** b)
            ok = ok and abs(approx - exact) < 1e-13 * max(1.0, exact)
    yield "quadrature exactness", ok

    pts = np.random.default_rng(0).dirichlet([1, 1, 1], size=20)
    ok = all(abs(p1_basis(pt)[0].sum() - 1) < 1e-14 and abs(p2_basis(pt)[0].sum() - 1) < 1e-14
             for pt in pts)
    yield "partition of unity", ok

    k = asm.assemble_stiffness(p1)
    ones = np.ones(p1.ndofs)
    yield "stiffness kernel", np.linalg.norm(k @ ones) < 1e-12
    m = asm.assemble_mass(p1)
    rng = np.random.default_rng(1)
    yield "mass positive definite", all(
        x @ (m @ x) > 0 for x in rng.standard_normal((5, p1.ndofs)))

    params = replace(coarsening_params(), tau=0.01, t_end=1.0)
    ops = build_operators(p1, p2v, params)
    state = init_state(ops, np.zeros(p1.ndofs), np.zeros(p2v.ndofs),
                       np.zeros(p1.ndofs), params)
    new, report = step(state, params, ops)
    yield "zero state is stationary", (
        np.allclose(new.phi, 0) and np.allclose(new.u, 0)
        and abs(new.r - state.r) < 1e-12 and abs(new.rho - state.rho) < 1e-12)

    phi0 = 0.1 * np.cos(np.pi * p1.dof_coords[:, 0])
    state = init_state(ops, phi0, np.zeros(p2v.ndofs), np.zeros(p1.ndofs), params,
                       mu0=phi0.copy())
    new, report = step(state, params, ops)
    scale = max(1.0, report.energy_before)
    yield "energy identity", abs(report.identity_residual) < 1e-8 * scale
    yield "energy nonincreasing", report.energy_after <= report.energy_before + 1e-8 * scale

    # a stiffness-dominated phase block (median c K_ii / M_ii 1.28) goes
    # through PRESB-GMRES, a mass-dominated one (about 0.02) through BiCGStab
    ok = True
    stiff = replace(relaxation_params(), tau=1.0, t_end=1.0)
    for prm, direct in ((stiff, True), (params, False)):
        ch_ops = build_operators(p1, p2v, prm)
        b = rng.standard_normal(ch_ops.a_ch.shape[0])
        x, _ = solve_general(ch_ops.a_ch, b, prm.solver_tol, ch_ops.ch_solver)
        ok = ok and ch_ops.ch_solver.direct == direct and \
            np.linalg.norm(b - ch_ops.a_ch @ x) <= prm.solver_tol * np.linalg.norm(b)
    yield "phase block solver paths", ok

    mms_params = Params()
    case = trig_case(mms_params)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0.05, 0.95, 10), rng.uniform(0.05, 0.95, 10)
    ga, gua = case.g_phi(0.37, x, y), case.g_u(0.37, x, y)
    gb, gub = finite_difference_forcing(case, mms_params, 0.37, x, y)
    num = max(np.max(np.abs(ga - gb)), np.max(np.abs(gua[0] - gub[0])),
              np.max(np.abs(gua[1] - gub[1])))
    den = max(np.max(np.abs(ga)), np.max(np.abs(gua[0])), np.max(np.abs(gua[1])))
    yield "forcing cross-check", num < 1e-6 * den


def run() -> int:
    failures = 0
    for name, ok in _checks():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1
    return 1 if failures else 0
