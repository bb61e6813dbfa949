"""Record the reference fingerprints the benchmark checks its outputs against.

    python3 perfbench/record_reference.py

Runs one untimed simulation per workload input (each of VARIANTS seeds;
mms16 has one input) and writes perfbench/reference.json with the final
state's fingerprint, the sha256 of the per-step iteration counts and, for
coarsen64, of energy.csv. Rerun it only on a commit whose numerics are
known to be right; the benchmark fails any run that drifts from it by more
than 1e-6 relative.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import VARIANTS, WORKLOADS, iterations_digest, simulate


def main() -> int:
    chns = run.load_program()
    out_dir = os.path.join(run.OUT, f"record-{os.getpid()}")
    reference = {}
    for workload in WORKLOADS.values():
        variants = sorted({workload.variant(seed) for seed in range(VARIANTS)})
        reference[workload.name] = {}
        for variant in variants:
            sim = simulate(chns, workload, variant, out_dir, reference=None)
            if sim.failed or sim.run_s is None:
                print(f"{workload.name} variant {variant} failed: {sim.failed}", file=sys.stderr)
                return 1
            reference[workload.name][str(variant)] = {
                "fingerprint": sim.fingerprint,
                "iterations_sha256": iterations_digest(sim.iterations),
                "energy_csv_sha256": sim.energy_csv_sha256,
            }
            print(workload.name, variant, sim.fingerprint, flush=True)
    if os.path.isdir(out_dir):
        os.rmdir(out_dir)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
