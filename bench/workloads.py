"""The four benchmark workloads: inputs from a seed, one op, its checks.

Every workload draws its scenarios from a fixed pool of scenario seeds; the
benchmark seed sets the order the pool runs in (seed 0 keeps pool order).
Runs time whole passes over the pool.  BENCHMARK.md gives the reasons.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics

import numpy as np

import sc3opt
import sc3opt.cli
from sc3opt.surrogate import SurrogateAnchor, convex_compute_time

from checks import check_oracle, check_solve, check_sweep_rows, read_csv

K50_OVERRIDES = {"k_loops": 50, "p_max_dbw": 20.0, "f_max_ghz": 50.0, "r_max_mbps": 500.0}
SWEEP_VALUES = [2.5 * i for i in range(9)]  # p_max_dbw from 0 to 20
SWEEP_SCHEMES = ["power_only", "comm_oriented"]
SWEEP_POOL = range(64)
SWEEP_SEEDS_PER_OP = 4
ORACLE_TWO_LOOP = {"k_loops": 2, "p_max_dbw": 3.0}  # criterion 8's generated instance
ORACLE_POOL = range(32)
MC_CYCLES = 2000


def _shuffled(pool, seed):
    pool = list(pool)
    return pool if seed == 0 else [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]


class Workload:
    name = ""

    def inputs(self, seed: int, workdir) -> list:
        raise NotImplementedError

    def run(self, inp, index: int, workdir):
        raise NotImplementedError

    def check(self, inp, out, golden: dict) -> list[str]:
        raise NotImplementedError

    def summary(self, done: list, golden: dict) -> dict:
        """Quality figures over (input, output) pairs that passed their checks."""
        return {}

    def traces(self, out) -> list:
        """SolveTraces an op produced."""
        return []

    def cell_seconds(self, out) -> float:
        """Per-cell wall time the program itself reported for an op."""
        return 0.0


class Solve(Workload):
    """One op is one ``sca_solve`` on a pool scenario."""

    def __init__(self, name, pool, overrides):
        self.name = name
        self.pool = pool
        self.overrides = overrides

    def inputs(self, seed, workdir):
        order = _shuffled(self.pool, seed)
        return [(s, sc3opt.generate_scenario(s, self.overrides)) for s in order]

    def run(self, inp, index, workdir):
        return sc3opt.sca_solve(inp[1])

    def check(self, inp, out, golden):
        return check_solve(inp[1], *out)

    def traces(self, out):
        return [out[1]]

    def summary(self, done, golden):
        ref = golden.get(self.name, {})
        objectives = [alloc.sum_lqr for _, (alloc, _) in done]
        drift, round_moves, flag_moves = 0.0, 0, 0
        for (s, _), (alloc, trace) in done:
            g = ref.get(str(s))
            if g is None:
                continue
            drift = max(drift, abs(alloc.sum_lqr - g["objective"]) / g["objective"])
            round_moves += len(trace.iterations) - 1 != g["rounds"]
            flag_moves += trace.converged != g["converged"]
        return {
            "sum_lqr_geomean": math.exp(statistics.fmean(math.log(v) for v in objectives)),
            "unconverged_frac": sum(not t.converged for _, (_, t) in done) / len(done),
            "golden_max_rel_drift": drift,
            "golden_round_mismatches": round_moves,
            "golden_converged_mismatches": flag_moves,
        }


class SweepBaselines(Workload):
    """One op is one in-process ``sc3opt sweep`` over the p_max grid for the
    two baseline schemes on a few pool seeds, writing its CSV."""

    name = "sweep_baselines"

    def inputs(self, seed, workdir):
        order = _shuffled(SWEEP_POOL, seed)
        config = workdir / "sweep_config.json"
        config.write_text(json.dumps({"seed": seed, "overrides": {}}))
        out = []
        for j in range(0, len(order), SWEEP_SEEDS_PER_OP):
            seeds = order[j : j + SWEEP_SEEDS_PER_OP]
            spec = workdir / f"sweep_{j // SWEEP_SEEDS_PER_OP}.json"
            spec.write_text(
                json.dumps(
                    {
                        "parameter": "p_max_dbw",
                        "values": SWEEP_VALUES,
                        "schemes": SWEEP_SCHEMES,
                        "seeds": seeds,
                    }
                )
            )
            out.append((seeds, str(config), str(spec)))
        return out

    def run(self, inp, index, workdir):
        _, config, spec = inp
        csv_path = str(workdir / f"sweep_out_{index}.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = sc3opt.cli.main(["sweep", "--config", config, "--sweep", spec, "--out", csv_path])
        return code, csv_path

    def check(self, inp, out, golden):
        code, csv_path = out
        if code != 0:
            return [f"sweep exited with {code}"]
        rows = read_csv(csv_path)
        return check_sweep_rows(
            rows, SWEEP_VALUES, SWEEP_SCHEMES, inp[0], golden["sweep_baselines"]["cells"]
        )

    def cell_seconds(self, out):
        return sum(float(row["wall_ms"]) for row in read_csv(out[1])) / 1e3

    def summary(self, done, golden):
        statuses = [row["status"] for _, (_, path) in done for row in read_csv(path)]
        return {f"cells_{s}": statuses.count(s) for s in sorted(set(statuses))}


class OracleCheck(Workload):
    """One op validates a generated instance against all four oracles."""

    name = "oracle_check"

    def inputs(self, seed, workdir):
        out = []
        for s in _shuffled(ORACLE_POOL, seed):
            plant = sc3opt.generate_scenario(s).loops[0].control
            rng = np.random.default_rng(s)
            flows = []
            for _ in range(8):  # criterion 1's parameter and flow ranges
                alpha = rng.uniform(20.0, 200.0)
                params = sc3opt.ComputeParams(
                    alpha=alpha,
                    beta=alpha * rng.uniform(0.1, 0.8),
                    rho=rng.uniform(0.05, 1.0),
                    tau=rng.uniform(1e-3, 1e-2),
                )
                d, f, r = 10.0 ** rng.uniform(5.0, 7.0), 10.0 ** rng.uniform(6.0, 10.0), 10.0 ** rng.uniform(4.0, 8.0)
                flows.append((params, f, r, d))
            out.append(
                {
                    "seed": s,
                    "two_loop": sc3opt.generate_scenario(s, ORACLE_TWO_LOOP),
                    "plant": plant,
                    "h": sc3opt.intrinsic_entropy(plant.a),
                    "flows": flows,
                }
            )
        return out

    def run(self, inp, index, workdir):
        sc, s = inp["two_loop"], inp["seed"]
        alloc, trace = sc3opt.sca_solve(sc)
        _, grid_objective = sc3opt.grid_search_global(sc, grid_n=60)
        mc_below = sc3opt.monte_carlo_loop(inp["plant"], 0.9 * inp["h"], MC_CYCLES, s)
        mc_above = sc3opt.monte_carlo_loop(inp["plant"], 2.0 * inp["h"], MC_CYCLES, s)
        flows = [
            (sc3opt.min_compute_time(f, r, d, p), sc3opt.brute_force_min_time(f, r, d, p, grid_n=200))
            for p, f, r, d in inp["flows"]
        ]
        loop, b = sc.loops[0], sc.budgets
        anchor = SurrogateAnchor.at(b.f_max_cycles / 2, b.r_max_bits / 2, loop.data_bits, sc.compute)
        box = [(1e-3 * b.f_max_cycles, b.f_max_cycles), (1e-3 * b.r_max_bits, b.r_max_bits)]
        probe = sc3opt.convexity_probe(
            lambda z: float(convex_compute_time(z[0], z[1], anchor, loop.data_bits, sc.compute)),
            box,
            500,
            s,
        )
        return {
            "solve": (sc, alloc, trace),
            "grid_objective": grid_objective,
            "mc_below": mc_below,
            "mc_above": mc_above,
            "flows": flows,
            "probe": probe,
        }

    def check(self, inp, out, golden):
        return check_oracle(out)

    def traces(self, out):
        return [out["solve"][2]]

    def summary(self, done, golden):
        gaps = [(o["solve"][1].sum_lqr - o["grid_objective"]) / o["grid_objective"] for _, o in done]
        return {"grid_gap_rel": statistics.median(gaps), "grid_gap_rel_max": max(gaps)}


WORKLOADS = {
    w.name: w
    for w in (
        Solve("solve_k5", range(20), {}),
        Solve("solve_k50", range(8), K50_OVERRIDES),
        SweepBaselines(),
        OracleCheck(),
    )
}
