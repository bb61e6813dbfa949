"""Span tracing from outside the program.

The tracer replaces module attributes that the experiment drivers and
`scheme.step` look up at call time with wrappers that record a span
(name, start, end, parent, simulation, step) in memory. Nothing in the
program changes; `restore` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import benchlib

# (module, attribute) pairs wrapped in a traced simulation; the span name is
# "<module>.<attribute>"
TRACED = [
    ("experiments", "build_uniform_mesh"),
    ("experiments", "build_space"),
    ("experiments", "build_operators"),
    ("experiments", "init_state"),
    ("experiments", "step"),
    ("scheme", "ch_split_solve"),
    ("scheme", "velocity_split_solve"),
    ("scheme", "scalar_reduction"),
    ("scheme", "pressure_correction"),
    ("scheme", "modified_energy"),
    ("scheme", "energy_identity_residual"),
    ("scheme", "solve_general"),
    ("scheme", "solve_spd"),
    ("scheme", "solve_neumann_zero_mean"),
    ("assembly", "assemble_load"),
    ("assembly", "convective_load_scalar"),
    ("assembly", "convective_load_vector"),
    ("assembly", "mu_grad_phi_load"),
    ("assembly", "fprime_load"),
    ("assembly", "grad_p_load"),
    ("assembly", "div_load"),
    ("assembly", "compute_discrete_energies"),
    ("assembly", "assemble_forms"),
    # the only private hook: a call means BiCGStab gave up and GMRES reran the solve
    ("linsolve", "_gmres_fallback"),
]
ERROR_UPDATE = "experiments.ErrorAccumulator.update"
STEP = "experiments.step"
IO_WRITE = "io.write"
FALLBACK = "linsolve._gmres_fallback"
GENERAL = "scheme.solve_general"

EXPLICIT_LOADS = {"assembly.convective_load_scalar", "assembly.fprime_load",
                  "assembly.mu_grad_phi_load", "assembly.convective_load_vector",
                  "assembly.grad_p_load"}
STEP_DIAGNOSTICS = {"scheme.modified_energy", "scheme.energy_identity_residual",
                    "assembly.div_load"}

# layers measured once per simulation, in seconds: span name -> (metric, self time?)
SETUP_LAYERS = {
    "experiments.build_uniform_mesh": ("mesh.build_s", False),
    "experiments.build_space": ("fem.build_space_s", False),
    "assembly.assemble_forms": ("assembly.forms_s", False),
    "experiments.build_operators": ("scheme.build_operators_s", True),
    "experiments.init_state": ("scheme.init_state_s", False),
}
# layers measured per time step, in milliseconds, on spans anywhere below a step
STEP_LAYERS = {
    "scheme.ch_split_solve": "scheme.ch_solve_ms",
    "scheme.velocity_split_solve": "scheme.velocity_solve_ms",
    "scheme.scalar_reduction": "scheme.reduction_ms",
    "scheme.pressure_correction": "scheme.projection_ms",
    "scheme.solve_general": "linsolve.general_ms",
    "scheme.solve_spd": "linsolve.spd_ms",
    "scheme.solve_neumann_zero_mean": "linsolve.neumann_ms",
    ERROR_UPDATE: "experiments.error_norms_ms",
}
# layers made of spans called by `step` itself
STEP_CHILD_LAYERS = {
    **{name: "assembly.explicit_ms" for name in EXPLICIT_LOADS},
    **{name: "scheme.diagnostics_ms" for name in STEP_DIAGNOSTICS},
    "assembly.compute_discrete_energies": "assembly.energies_ms",
    "assembly.assemble_load": "mms.forcing_ms",
}
PER_STEP_MS = sorted(set(STEP_LAYERS.values()) | set(STEP_CHILD_LAYERS.values())
                     | {"scheme.step_self_ms", "linsolve.wasted_ms"})
PER_RUN_S = sorted({metric for metric, _ in SETUP_LAYERS.values()} | {"io.write_s"})


class Tracer:
    """In-memory span recorder that wraps program functions while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, sim, step]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.sim = 0
        self.step = 0

    def begin_sim(self, sim: int) -> None:
        self.sim, self.step = sim, 0

    def open(self, name: str) -> int:
        if name == STEP:
            self.step += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.sim, self.step])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self, chns) -> None:
        for module, attr in TRACED:
            self._wrap(getattr(chns, module), attr, f"{module}.{attr}")
        self._wrap(chns.experiments.ErrorAccumulator, "update", ERROR_UPDATE)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        self._stack.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, sim, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "sim": sim, "step": step}) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer figures from closed spans.

    Per-step layers are the median over traced steps of each step's sum, in
    ms; per-run layers the median over traced simulations, in s. Also gives
    the fallback counts and, per step, the summed self time of all spans,
    which should account for the whole iteration.
    """
    selfs = benchlib.self_times([(s[1], s[2], s[3]) for s in spans])
    per_step: dict = defaultdict(lambda: dict.fromkeys(PER_STEP_MS, 0.0))
    per_sim: dict = defaultdict(lambda: dict.fromkeys(PER_RUN_S, 0.0))
    step_self: dict = defaultdict(float)
    fallbacks = general_calls = 0
    for i, (name, start, end, parent, sim, step) in enumerate(spans):
        dur = end - start
        parent_name = spans[parent][0] if parent is not None else None
        if name == IO_WRITE:
            per_sim[sim]["io.write_s"] += dur
            continue
        if step == 0:
            if name in SETUP_LAYERS:
                metric, use_self = SETUP_LAYERS[name]
                per_sim[sim][metric] += selfs[i] if use_self else dur
            continue
        key = (sim, step)
        row = per_step[key]
        step_self[key] += selfs[i]
        if name == STEP:
            row["scheme.step_self_ms"] += 1e3 * selfs[i]
        elif name in STEP_LAYERS:
            row[STEP_LAYERS[name]] += 1e3 * dur
        elif parent_name == STEP and name in STEP_CHILD_LAYERS:
            row[STEP_CHILD_LAYERS[name]] += 1e3 * dur
        if name == GENERAL:
            general_calls += 1
        elif name == FALLBACK:
            fallbacks += 1
            if parent_name == GENERAL:
                row["linsolve.wasted_ms"] += 1e3 * (start - spans[parent][1])
    out = {}
    for metric in PER_STEP_MS:
        out[metric] = benchlib.median([r[metric] for r in per_step.values()]) if per_step else 0.0
    for metric in PER_RUN_S:
        out[metric] = benchlib.median([r[metric] for r in per_sim.values()]) if per_sim else 0.0
    nsims = max(1, len(per_sim))
    out["linsolve.fallbacks"] = fallbacks / nsims
    out["linsolve.general_calls"] = general_calls / nsims
    out["linsolve.fallback_ratio"] = fallbacks / general_calls if general_calls else 0.0
    out["_step_self_s"] = list(step_self.values())
    return out
