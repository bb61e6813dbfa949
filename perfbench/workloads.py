"""The three benchmark workloads and the checks on their outputs.

Each workload is one simulation through a public driver of
`chns.experiments`, a fixed number of steps long. The benchmark seed picks
one of VARIANTS inputs, so every input has a fingerprint recorded in
reference.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
from time import perf_counter

import numpy as np

import benchlib
from tracer import IO_WRITE

VARIANTS = 16
RESIDUAL_TOL = 1e-8     # r and rho equation residuals, and the energy identity
ITER_KEYS = ("ch_x0", "ch_x1", "vel_y0", "vel_y1", "vel_y2", "pressure", "mass_projection")


class SetupDone(Exception):
    """Raised at the first call of `step` to end a setup-only probe."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    steps: int     # time steps per simulation

    def variant(self, seed: int) -> int:
        return 0 if self.name == "mms16" else seed % VARIANTS


# why each workload was chosen is stated in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in [
    Workload("coarsen64", 10),
    Workload("relax32", 20),
    Workload("mms16", 200),
]}


def relax_center(variant: int) -> tuple[float, float]:
    """Centre of the cross, shifted by at most 0.05 in each direction."""
    rng = random.Random(variant)
    return 0.5 + rng.uniform(-0.05, 0.05), 0.5 + rng.uniform(-0.05, 0.05)


def drive(chns, workload: Workload, variant: int, on_step):
    """Run the workload's driver; returns the driver's result."""
    ex = chns.experiments
    n = workload.steps
    if workload.name == "coarsen64":
        return ex.run_coarsening(variant, 64, 1e-3, n * 1e-3, on_step=on_step)
    if workload.name == "relax32":
        poly = ex.default_cross_polygon(center=relax_center(variant))
        return ex.run_relaxation(poly, 32, 1e-3, n * 1e-3, on_step=on_step)
    tau = ex.default_tau_rule(1.0 / 16)
    return ex.run_convergence_level(16, chns.scheme.Params(), t_end=n * tau,
                                    on_step=on_step)


class StepChecker:
    """Per-step output checks, run from the driver's on_step callback."""

    def __init__(self, check_energy_decay: bool):
        self.check_energy_decay = check_energy_decay
        self.steps = 0
        self.failed: dict[int, list[str]] = {}
        self.iterations: list[list[int]] = []
        self.last_state = None

    def fail(self, step: int, why: str) -> None:
        self.failed.setdefault(step, []).append(why)

    def __call__(self, state, report) -> None:
        self.steps += 1
        k = self.steps
        self.last_state = state
        self.iterations.append([report.iterations.get(key, 0) for key in ITER_KEYS])
        if not (report.r_eq_residual <= RESIDUAL_TOL and report.rho_eq_residual <= RESIDUAL_TOL):
            self.fail(k, f"equation residuals r={report.r_eq_residual:.3g} "
                         f"rho={report.rho_eq_residual:.3g}")
        energy = report.energy_after
        if not math.isnan(report.identity_residual) \
                and not abs(report.identity_residual) <= RESIDUAL_TOL * max(1.0, energy):
            self.fail(k, f"energy identity residual {report.identity_residual:.3g}")
        if self.check_energy_decay \
                and not energy <= report.energy_before + RESIDUAL_TOL * max(1.0, report.energy_before):
            self.fail(k, f"energy increased {report.energy_before!r} -> {energy!r}")
        fields = (state.phi, state.mu, state.u_tilde, state.u, state.p)
        if not (all(np.isfinite(f).all() for f in fields)
                and math.isfinite(state.r) and math.isfinite(state.rho) and math.isfinite(energy)):
            self.fail(k, "non-finite field")


def fingerprint(workload: Workload, state, result) -> dict:
    """Final-state numbers compared against reference.json."""
    fp = {"phi_norm": float(np.linalg.norm(state.phi)), "r": float(state.r),
          "rho": float(state.rho)}
    if workload.name == "mms16":
        fp.update({k: float(v) for k, v in dataclasses.asdict(result).items()})
    return fp


def iterations_digest(iterations) -> str:
    return hashlib.sha256(np.asarray(iterations, dtype=np.int64).tobytes()).hexdigest()


@dataclasses.dataclass
class SimResult:
    setup_s: float | None = None
    run_s: float | None = None
    io_s: float = 0.0
    iteration_s: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: dict = dataclasses.field(default_factory=dict)
    iterations: list = dataclasses.field(default_factory=list)
    fingerprint: dict = dataclasses.field(default_factory=dict)
    energy_csv_sha256: str | None = None


def simulate(chns, workload: Workload, variant: int, out_dir: str, reference: dict | None,
             tracer=None, setup_only: bool = False) -> SimResult:
    """One simulation of the workload, timed; traced when a tracer is given.

    `step` is wrapped for timestamps only: an iteration runs from one return
    of `step` to the next (the first from its first call), so it includes
    the bookkeeping the driver does between steps.
    """
    ex = chns.experiments
    real_step = ex.step
    marks: list[float] = []

    def clocked(*args, **kwargs):
        if not marks:
            marks.append(perf_counter())
            if setup_only:
                raise SetupDone
        result = real_step(*args, **kwargs)
        marks.append(perf_counter())
        return result

    checker = StepChecker(check_energy_decay=workload.name == "coarsen64")
    sim = SimResult()
    ex.step = clocked
    if tracer is not None:
        tracer.install(chns)
    start = perf_counter()
    try:
        result = drive(chns, workload, variant, checker)
        done = perf_counter()
    except SetupDone:
        sim.setup_s = marks[0] - start
        return sim
    except Exception as exc:  # a failed step is counted, not fatal to the run
        sim.attempted = checker.steps + 1
        sim.failed = {**checker.failed, checker.steps + 1: [f"{type(exc).__name__}: {exc}"]}
        return sim
    finally:
        if tracer is not None:
            tracer.restore()
        ex.step = real_step

    sim.setup_s = marks[0] - start
    sim.iteration_s = list(np.diff(marks))
    sim.attempted = checker.steps
    sim.failed = checker.failed
    sim.iterations = checker.iterations
    sim.fingerprint = fingerprint(workload, checker.last_state, result)
    if workload.name == "coarsen64":
        sim.io_s, sim.energy_csv_sha256 = write_outputs(chns, result, out_dir, tracer)
    sim.run_s = done - start + sim.io_s
    if reference is not None:
        bad = benchlib.fingerprint_mismatches(sim.fingerprint, reference["fingerprint"])
        if bad:
            sim.failed.setdefault(checker.steps, []).append(f"fingerprint mismatch in {bad}")
    return sim


def write_outputs(chns, run, out_dir: str, tracer=None) -> tuple[float, str]:
    """Write energy.csv and a final VTK snapshot as the coarsen command does.

    Returns the write time and the sha256 of energy.csv; the files are removed.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "energy.csv")
    vtk_path = os.path.join(out_dir, "final.vtk")
    state = run.final_state
    nv = run.ops.mesh.num_vertices
    fields = {"phi": state.phi[:nv], "mu": state.mu[:nv], "p": state.p[:nv], "u": state.u}
    span = tracer.open(IO_WRITE) if tracer is not None else None
    start = perf_counter()
    chns.io.write_energy_csv(run.trace, csv_path)
    chns.io.write_vtk_snapshot(run.ops.mesh, fields, vtk_path)
    elapsed = perf_counter() - start
    if span is not None:
        tracer.close(span)
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.remove(csv_path)
    os.remove(vtk_path)
    return elapsed, digest
