"""The benchmark's span tracer still sees every per-step layer of the program.

The tracer in perfbench/ wraps program functions by module and name and
files a span under a layer by its name and its parent span. A refactor that
imports a load by name, or calls it below another traced function, leaves
its layer silently empty; this test catches that.
"""

import os
import sys

import pytest

import chns.experiments
import chns.linsolve
import chns.scheme

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    yield tracer
    for name in ("tracer", "benchlib", "workloads"):
        sys.modules.pop(name, None)


def test_traced_coarsening_fills_every_step_layer(tracer_module):
    tr = tracer_module.Tracer()
    tr.install(chns)
    reports = []
    try:
        chns.experiments.run_coarsening(0, 4, 1e-3, 2e-3,
                                        on_step=lambda state, report: reports.append(report))
    finally:
        tr.restore()
    # every function of a step-child layer is called by step itself; the
    # forcing loads run only in the manufactured case
    spans = tr.spans
    under_step = {name for name, _, _, parent, _, _ in spans
                  if parent is not None and spans[parent][0] == tracer_module.STEP}
    assert set(tracer_module.STEP_CHILD_LAYERS) - {"assembly.assemble_load"} <= under_step
    metrics = tracer_module.layer_metrics(spans)
    for layer in ("assembly.explicit_ms", "assembly.energies_ms", "scheme.ch_solve_ms",
                  "scheme.velocity_solve_ms", "scheme.reduction_ms", "scheme.projection_ms",
                  "scheme.diagnostics_ms", "linsolve.general_ms", "linsolve.spd_ms",
                  "linsolve.neumann_ms"):
        assert metrics[layer] > 0.0, layer
    # the benchmark records a step's iteration counts under these names
    from workloads import ITER_KEYS
    assert reports and all(set(r.iterations) == set(ITER_KEYS) for r in reports)
    assert chns.experiments.step is chns.scheme.step
