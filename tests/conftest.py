from dataclasses import replace

import numpy as np
import pytest

from chns.experiments import coarsening_params
from chns.mesh import build_uniform_mesh
from chns.fem import build_space
from chns.scheme import Params, build_operators


@pytest.fixture(scope="session")
def mesh4():
    return build_uniform_mesh(4, 4)


@pytest.fixture(scope="session")
def spaces4(mesh4):
    return build_space(mesh4, "p1"), build_space(mesh4, "p2"), build_space(mesh4, "p2vec")


@pytest.fixture(scope="session")
def coarsen_params():
    return replace(coarsening_params(), t_end=1.0)


@pytest.fixture(scope="session")
def small_ops(spaces4, coarsen_params):
    p1, _, p2v = spaces4
    return build_operators(p1, p2v, coarsen_params)


# -- shared expensive runs for the acceptance suite ------------------------

def _least_scaled_discriminant(diag: dict, key):
    """An on_step callback keeping in diag[key] the least discriminant / max(a1^2, |4 a2 a0|)."""
    diag[key] = np.inf

    def on_step(state, report):
        scale = max(report.a1 ** 2, abs(4.0 * report.a2 * report.a0), 1e-300)
        diag[key] = min(diag[key], report.discriminant / scale)
    return on_step


@pytest.fixture(scope="session")
def convergence_results():
    """Levels 4/8/16 of the manufactured study plus per-step diagnostics."""
    from chns.experiments import run_convergence

    diag = {}
    records = run_convergence([4, 8, 16], Params(),
                              on_step=_least_scaled_discriminant(diag, "min_disc_scaled"))
    return records, diag


@pytest.fixture(scope="session")
def stability_runs():
    """Coarsening setup at nx=32 for tau in {1e-3, 1e-2, 1e-1}, run to T=1, plus the
    least scaled discriminant of each run."""
    from chns.experiments import run_coarsening

    diag = {}
    runs = {tau: run_coarsening(2024, 32, tau, 1.0, on_step=_least_scaled_discriminant(diag, tau))
            for tau in (1e-3, 1e-2, 1e-1)}
    return runs, diag
