"""Output checks behind the benchmark's ``failed`` count.

Each check returns a list of problems; an empty list means the output is
correct.  They run after the timed phase, so they cost no op time.
"""

from __future__ import annotations

import csv
import math

import sc3opt

EVAL_RTOL = 1e-9  # evaluate_allocation against the solver's own sum_lqr
MONOTONE_RTOL = 1e-12  # float noise allowed in the outer objective sequence
GOLDEN_RTOL = 1e-9  # sweep cell costs against the stored golden record
BRUTE_RTOL = 0.01  # closed-form latency against the grid oracle (criterion 1)
GRID_GAP_TOL = 0.02  # solver objective above the grid optimum (criterion 8)


def check_solve(scenario, alloc, trace) -> list[str]:
    """A solver output is feasible, self-consistent and monotone."""
    problems = []
    report = sc3opt.check_allocation(scenario, alloc)
    if not report.ok:
        problems.append("check_allocation: " + "; ".join(report.violations))
    total = sc3opt.evaluate_allocation(scenario, alloc)
    if not (math.isfinite(total) and abs(total - alloc.sum_lqr) <= EVAL_RTOL * abs(alloc.sum_lqr)):
        problems.append(f"evaluate_allocation {total!r} != sum_lqr {alloc.sum_lqr!r}")
    objectives = trace.objectives
    for i, (prev, cur) in enumerate(zip(objectives, objectives[1:])):
        if not cur <= prev * (1.0 + MONOTONE_RTOL):
            problems.append(f"objective rose in round {i + 1}: {prev!r} -> {cur!r}")
            break
    return problems


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep_rows(rows, values, schemes, seeds, golden_cells) -> list[str]:
    """Rows come one per cell in (value, scheme, seed) order and each cell's
    status and cost match the golden record.

    ``golden_cells[str(seed)]`` lists ``[status, cost]`` in (value, scheme)
    order, with ``None`` for an infinite cost.
    """
    expected = [(v, s, seed) for v in values for s in schemes for seed in seeds]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows for {len(expected)} cells"]
    problems = []
    for row, (value, scheme, seed) in zip(rows, expected):
        where = f"cell ({value}, {scheme}, {seed})"
        if (float(row["param_value"]), row["scheme"], int(row["seed"])) != (value, scheme, seed):
            problems.append(f"{where}: row out of order")
            continue
        cells = golden_cells.get(str(seed))
        if cells is None:
            problems.append(f"{where}: seed missing from the golden record")
            continue
        status, cost = cells[values.index(value) * len(schemes) + schemes.index(scheme)]
        got = float(row["sum_lqr"])
        if row["status"] != status:
            problems.append(f"{where}: status {row['status']} != golden {status}")
        elif cost is None:
            if math.isfinite(got):
                problems.append(f"{where}: finite cost {got!r} where golden is infinite")
        elif not abs(got - cost) <= GOLDEN_RTOL * abs(cost):
            problems.append(f"{where}: cost {got!r} != golden {cost!r}")
    return problems


def check_oracle(out: dict) -> list[str]:
    """The four oracles agree with the closed forms and the solver.

    ``out`` holds ``solve`` (scenario, alloc, trace), ``grid_objective``,
    ``mc_below`` / ``mc_above`` (McResult), ``flows`` as (closed, brute)
    pairs and ``probe`` (ProbeReport).
    """
    problems = check_solve(*out["solve"])
    alloc = out["solve"][1]
    grid = out["grid_objective"]
    if not alloc.sum_lqr <= grid * (1.0 + GRID_GAP_TOL):
        problems.append(f"solver {alloc.sum_lqr!r} above grid optimum {grid!r} + {GRID_GAP_TOL:.0%}")
    if not out["mc_below"].diverged:
        problems.append("Monte Carlo below the intrinsic rate did not diverge")
    above = out["mc_above"]
    if above.diverged or not math.isfinite(above.empirical_cost):
        problems.append("Monte Carlo above the intrinsic rate diverged")
    for closed, brute in out["flows"]:
        if brute < closed * (1.0 - 1e-12) or abs(closed - brute) > BRUTE_RTOL * brute:
            problems.append(f"closed form {closed!r} vs brute force {brute!r}")
    if not out["probe"].passed:
        problems.append(f"majorant convexity probe: {out['probe'].violations} violations")
    return problems
