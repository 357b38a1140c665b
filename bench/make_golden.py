"""Rebuild bench/golden.json, the reference the benchmark's drift and sweep
checks compare against.

    python3 bench/make_golden.py

Solve workloads: objective, outer rounds and converged flag for every pool
scenario in its seed-0 layout.  Sweep: status and cost of every baseline
cell of every pool seed (None for an infinite cost).  Rebuild only when a
change is meant to alter these results, and say so in CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import sc3opt  # noqa: E402
from workloads import SWEEP_POOL, SWEEP_SCHEMES, SWEEP_VALUES, WORKLOADS  # noqa: E402


def main():
    golden = {}
    for name in ("solve_k5", "solve_k50"):
        golden[name] = {}
        for s, sc in WORKLOADS[name].inputs(0, None):
            alloc, trace = sc3opt.sca_solve(sc)
            golden[name][str(s)] = {
                "objective": alloc.sum_lqr,
                "rounds": len(trace.iterations) - 1,
                "converged": trace.converged,
            }
            print(name, s, golden[name][str(s)], flush=True)
    cells = {}
    for s in SWEEP_POOL:
        rows = sc3opt.run_sweep(
            sc3opt.SweepSpec("p_max_dbw", tuple(SWEEP_VALUES), tuple(SWEEP_SCHEMES), (s,))
        )
        cells[str(s)] = [
            [row["status"], row["sum_lqr"] if math.isfinite(row["sum_lqr"]) else None] for row in rows
        ]
    golden["sweep_baselines"] = {"values": SWEEP_VALUES, "schemes": SWEEP_SCHEMES, "cells": cells}
    with open(BENCH / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
