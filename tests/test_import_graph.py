"""What a fresh interpreter imports, checked where it matters.

`scipy.sparse.linalg` alone adds about 9 MB to a process, and no solve
needs it: a whole time step, with its phase block on either solver path
or on the GMRES fallback, must leave it unimported. And `io` writes the
experiments' records without depending on the experiments module.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_whole_steps_leave_sparse_linalg_unimported():
    out = _run_fresh("""
import sys
from dataclasses import replace
import numpy as np
from chns import linsolve
from chns.experiments import coarsening_params, random_phase_field, relaxation_params
from chns.fem import build_space
from chns.linsolve import SolverError, VCycle
from chns.mesh import build_uniform_mesh
from chns.scheme import build_operators, init_state, step

mesh = build_uniform_mesh(16, 16)
p1, p2v = build_space(mesh, "p1"), build_space(mesh, "p2vec")


def one_step(params):
    ops = build_operators(p1, p2v, params)
    phi = random_phase_field(1, p1.ndofs)
    state = init_state(ops, phi, np.zeros(p2v.ndofs), np.zeros(p1.ndofs),
                       mu0=phi.copy())
    new, report = step(state, ops)
    assert new.step == 1 and report.iterations["ch_x0"] >= 1
    return ops


def gives_up(*args):
    raise SolverError("bicgstab stagnated", 1.0)


stiff = one_step(replace(relaxation_params(), tau=4e-3))  # median c K_ii / M_ii 1.30
mass = one_step(coarsening_params())                      # median 0.09
assert stiff.ch_solver.direct and not mass.ch_solver.direct
assert isinstance(stiff.velocity_precondition.block, VCycle)
assert isinstance(mass.pressure_precondition, VCycle)
calls = []
fallback = linsolve._gmres_fallback
linsolve._bicgstab = gives_up
linsolve._gmres_fallback = lambda *args: calls.append(1) or fallback(*args)
one_step(coarsening_params())
assert len(calls) == 2
print("scipy.sparse.linalg" in sys.modules)
""")
    assert out == "False"


def test_io_does_not_import_the_experiments():
    out = _run_fresh("import sys, chns.io; print('chns.experiments' in sys.modules)")
    assert out == "False"
