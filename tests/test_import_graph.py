"""What a fresh interpreter imports, and what the package refers to, checked
where it matters.

`scipy.sparse.linalg` alone adds about 9 MB to a process, and `scipy.fft`
(its pocketfft module) about 5 MB, and no solve needs either: a whole time
step, with its phase block on either solver path or on the GMRES fallback,
and its velocity and pressure on their fast diagonalizations, must leave
both unimported. And `io` writes the experiments' records without
depending on the experiments module. Code that only the tests call
belongs in `tests/oracles.py`, not in `src`.
"""

import ast
import glob
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
from chns.linsolve import Separable, SolverError
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
assert isinstance(stiff.velocity_precondition, Separable)
assert isinstance(mass.pressure_precondition, Separable)
calls = []
fallback = linsolve._gmres_fallback
linsolve._bicgstab = gives_up
linsolve._gmres_fallback = lambda *args: calls.append(1) or fallback(*args)
one_step(coarsening_params())
assert len(calls) == 2
print("scipy.sparse.linalg" in sys.modules, "scipy.fft" in sys.modules)
""")
    assert out == "False False"


def test_io_does_not_import_the_experiments():
    out = _run_fresh("import sys, chns.io; print('chns.experiments' in sys.modules)")
    assert out == "False"


def _names_used(node) -> set:
    """Every name a node reads, as a variable, an attribute or an import."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_every_top_level_function_and_class_is_used_in_src():
    # a definition counts as used when any other top-level statement of
    # src/chns reads its name; an import into __init__ alone does not count,
    # since only the package namespace would then name it
    statements = []
    for path in sorted(glob.glob(os.path.join(SRC, "chns", "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            module = ast.parse(fh.read(), path)
        statements += [(os.path.basename(path), node, _names_used(node)) for node in module.body]
    unused = [f"{name}: {node.name}" for name, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not any(node.name in used for _, other, used in statements if other is not node)]
    assert unused == []
