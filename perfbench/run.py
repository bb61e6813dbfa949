"""Benchmark of the chns solver: closed-loop time stepping on three workloads.

    python3 perfbench/run.py --workload coarsen64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source tree; the program is imported from ./src.
One workload runs in this process, single-threaded, repeating whole
simulations until --seconds have passed; each step waits for the one
before. `--workload all` runs every workload in its own fresh process and
prints a table. The last line of output is the result as JSON; the line
before it, prefixed "record ", holds what the run was made on, the
determinism record and every figure with its sample count. See README.md.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy loads: the benchmark is single-threaded
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import benchlib  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, iterations_digest, simulate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SHARE = 0.1


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import chns from ./src of this tree, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chns", "__init__.py")):
        raise ProgramMissing(f"no program source under {src}")
    sys.path.insert(0, src)
    for name in ("experiments", "scheme", "assembly", "linsolve", "io"):
        importlib.import_module(f"chns.{name}")
    chns = sys.modules["chns"]
    if os.path.dirname(os.path.abspath(chns.__file__)) != os.path.join(src, "chns"):
        raise ProgramMissing(f"chns imported from {chns.__file__}, not from {src}")
    return chns


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    git = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never ask a repository above the tree
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "chns")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_revision": git, "source_sha256": src.hexdigest(),
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
    }


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(chns, workload, seed: int, seconds: float, trace: bool, reference) -> tuple[dict, dict]:
    """Repeat simulations for `seconds`; returns (metrics, record)."""
    variant = workload.variant(seed)
    ref = reference.get(workload.name, {}).get(str(variant)) if reference is not None else None
    out_dir = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    deadline = perf_counter() + seconds
    setups, untraced, traced = [], [], []
    tracer = tracing.Tracer() if trace else None

    sims, sim_s = [], 0.0
    while True:
        start = perf_counter()
        if not trace:
            # set-up probes between simulations, about a tenth of the run, so
            # set-up time is sampled as often and as spread out as the steps
            while True:
                gc.collect()
                probe = simulate(chns, workload, variant, out_dir, ref, setup_only=True)
                if probe.setup_s is None:
                    break  # set-up raised; the simulation below records the failure
                setups.append(probe.setup_s)
                if perf_counter() - start >= SETUP_SHARE * sim_s:
                    break
        traced_turn = trace and len(traced) < len(untraced)
        if traced_turn:
            tracer.begin_sim(len(traced) + 1)
        # garbage left by the previous simulation is not charged to this one
        gc.collect()
        sim_start = perf_counter()
        sim = simulate(chns, workload, variant, out_dir, ref, tracer if traced_turn else None)
        sim_s = perf_counter() - sim_start
        sims.append(sim)
        (traced if traced_turn else untraced).append(sim)
        if sim.failed and sim.run_s is None:
            break  # the driver raised; the next simulation would too
        now = perf_counter()
        if (traced if trace else untraced) and now + (now - start) > deadline:
            break
    if os.path.isdir(out_dir):
        os.rmdir(out_dir)

    attempted = sum(s.attempted for s in sims)
    failed = sum(len(s.failed) for s in sims)
    failures = [why for s in sims for k in sorted(s.failed) for why in s.failed[k]]
    done = [s for s in sims if s.run_s is not None]
    if ref is None:
        failures.insert(0, f"no reference fingerprint for variant {variant}")
    record = {"workload": workload.name, "seed": seed, "variant": variant,
              "reference_found": ref is not None,
              "steps_per_simulation": workload.steps, "simulations": len(sims),
              "attempted": attempted, "failed": failed,
              "failed_step_ratio": failed / max(1, attempted), "failures": failures[:20]}
    digests = {iterations_digest(s.iterations) for s in done}
    energy = {s.energy_csv_sha256 for s in done}
    record["determinism"] = {
        "iterations_sha256": sorted(digests), "energy_csv_sha256": sorted(energy - {None}),
        "repeats_identical": len(digests) <= 1 and len(energy) <= 1,
        "matches_reference": ref is not None and bool(done)
        and digests == {ref["iterations_sha256"]}
        and energy == {ref.get("energy_csv_sha256")},
        "iterations": done[0].iterations if done else [],
    }
    untraced_done = [s for s in untraced if s.run_s is not None]
    traced_done = [s for s in traced if s.run_s is not None]
    if not untraced_done or (trace and not traced_done):
        return {}, record

    steps = [t for s in untraced_done for t in s.iteration_s]
    if not trace:
        p90, p90_counted = benchlib.tail_percentile(steps, 0.9)
        setups += [s.setup_s for s in untraced_done]
        metrics = {"run_s": benchlib.median([s.run_s for s in untraced_done]),
                   "setup_s": benchlib.median(setups),
                   "step_s.p50": benchlib.median(steps),
                   "step_s.p90": p90,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        record["samples"] = {"run_s": len(done), "setup_s": len(setups),
                             "step_s": len(steps), "step_s.p90_counted": p90_counted}
    else:
        layers = tracing.layer_metrics(tracer.spans)
        step_self = layers.pop("_step_self_s")
        iters = [row for s in traced_done for row in s.iterations]
        untraced_p50 = benchlib.median(steps)
        metrics = dict(layers)
        metrics.update({
            "linsolve.ch_iters": benchlib.median([r[0] + r[1] for r in iters]),
            "linsolve.vel_iters": benchlib.median([r[2] + r[3] + r[4] for r in iters]),
            "linsolve.pressure_iters": benchlib.median([r[5] for r in iters]),
            "linsolve.mass_projection_iters": benchlib.median([r[6] for r in iters]),
            "trace.overhead_s": benchlib.median([s.run_s for s in traced_done])
            - benchlib.median([s.run_s for s in untraced_done]),
            "trace.self_time_share": benchlib.median(step_self) / untraced_p50,
        })
        record["samples"] = {"traced_simulations": len(traced_done),
                             "untraced_simulations": len(untraced_done),
                             "traced_steps": len(step_self), "untraced_steps": len(steps)}
        record["untraced_step_s.p50"] = untraced_p50
        # spans must cover the traced iterations: only the driver's own
        # bookkeeping between steps runs outside them
        record["trace_coverage"] = benchlib.median(step_self) / benchlib.median(
            [t for s in traced_done for t in s.iteration_s])
        spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics, record


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    try:
        chns = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    reference = load_reference()
    os.makedirs(OUT, exist_ok=True)
    metrics, record = measure(chns, workload, args.seed, args.seconds, bool(args.trace), reference)
    record["machine"] = machine_record()
    correct = (bool(metrics) and record["failed"] == 0 and record["reference_found"]
               and record["determinism"]["repeats_identical"])
    spec = benchmark_spec()
    if args.trace and metrics:
        p50_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "step_s.p50")
        record["trace_covers_steps"] = record["trace_coverage"] >= 1.0 - p50_bound
        correct = correct and record["trace_covers_steps"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if metrics and missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{workload.name:10s} {name:34s} {metrics[name]:14.6g} {unit}")
    print(f"{workload.name:10s} {'failed_step_ratio':34s} {record['failed_step_ratio']:14.6g} "
          f"({record['failed']}/{record['attempted']})")
    with open(os.path.join(OUT, f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    slim = {k: v for k, v in record.items() if k != "determinism"}
    slim["determinism"] = {k: v for k, v in record["determinism"].items() if k != "iterations"}
    print("record " + json.dumps(slim, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(1, record["attempted"]),
                      "failed": record["failed"],
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items() if name in metrics}}))
    return 0 if correct else 1


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Every workload in its own fresh process; prints one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        status = max(status, proc.returncode)
        record = json.loads(lines[-2][len("record "):])
        result = json.loads(lines[-1])
        rows.append((name, result, record))
    print(f"{'metric':34s} " + " ".join(f"{name:>14s}" for name, _, _ in rows) + "  unit")
    spec = benchmark_spec()
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        cells = [r["metrics"].get(m["name"], {}).get("value") for _, r, _ in rows]
        print(f"{m['name']:34s} " + " ".join("{:>14s}".format("-") if v is None else f"{v:14.6g}"
                                             for v in cells) + f"  {m['unit']}")
    print(f"{'failed_step_ratio':34s} "
          + " ".join(f"{rec['failed_step_ratio']:14.6g}" for _, _, rec in rows) + "  1")
    print(f"{'attempted steps':34s} " + " ".join(f"{r['attempted']:14d}" for _, r, _ in rows))
    print(f"{'correct':34s} " + " ".join(f"{str(r['correct']):>14s}" for _, r, _ in rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
