"""What a fresh interpreter imports, checked where it matters.

`scipy.sparse.linalg` alone adds about 9 MB to a process, so the velocity
and pressure solves must not pull it in; only the LU fallback of the
nonsymmetric solver may. And `io` writes the experiments' records without
depending on the experiments module.
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


def test_velocity_and_pressure_solves_leave_sparse_linalg_unimported():
    out = _run_fresh("""
import sys
import numpy as np
from chns.experiments import coarsening_params, random_phase_field
from chns.fem import build_space
from chns.linsolve import VCycle
from chns.mesh import build_uniform_mesh
from chns.scheme import build_operators, explicit_terms, init_state, pressure_correction, \\
    velocity_split_solve

params = coarsening_params()
mesh = build_uniform_mesh(16, 16)
p1, p2v = build_space(mesh, "p1"), build_space(mesh, "p2vec")
ops = build_operators(p1, p2v, params)
phi = random_phase_field(1, p1.ndofs)
state = init_state(ops, phi, np.zeros(p2v.ndofs), np.zeros(p1.ndofs), params, mu0=phi.copy())
terms = explicit_terms(ops, params, state)
y0, y1, y2 = velocity_split_solve(ops, params, state.u, terms)
pressure_correction(ops, params, y0 + y1 + y2, state.p)
assert isinstance(ops.velocity_precondition, VCycle)
assert isinstance(ops.pressure_precondition, VCycle)
print("scipy.sparse.linalg" in sys.modules)
""")
    assert out == "False"


def test_io_does_not_import_the_experiments():
    out = _run_fresh("import sys, chns.io; print('chns.experiments' in sys.modules)")
    assert out == "False"
