"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload coarsen64 --seeds 10 [--first-seed 1]
                                [--save perfbench/baseline.json]

Runs the benchmark once per seed, each in its own process, and prints every
end-to-end metric's values, median and quartile spread (q3 - q1 over the
median) beside the bound BENCHMARK.json fixes for it. --save merges the
figures into a JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    record = None
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed or incorrect\n{proc.stderr}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        record = json.loads(proc.stdout.strip().splitlines()[-2][len("record "):])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    summary = {"seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
               "run_seconds": spec["run_seconds"], "machine": record["machine"], "metrics": {}}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2
        verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{args.workload} {m['name']:12s} median {q2:.6g} {m['unit']} "
              f"spread {spread:.4f} bound {m['bound']} {verdict}")
        summary["metrics"][m["name"]] = {"unit": m["unit"], "median": q2, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}
    if args.save:
        saved = {}
        if os.path.exists(args.save):
            with open(args.save, encoding="utf-8") as fh:
                saved = json.load(fh)
        saved[args.workload] = summary
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
