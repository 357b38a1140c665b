"""The benchmark's checks pass real outputs and flag corrupted ones.

    python3 -m pytest bench
"""

import dataclasses
import json
import math

import pytest

import sc3opt
import sc3opt.solver
from checks import check_oracle, check_solve, check_sweep_rows, read_csv
from conftest import BENCH
from run import tail
from tracer import Tracer
from workloads import SWEEP_SCHEMES, SWEEP_VALUES, WORKLOADS


@pytest.fixture(scope="module")
def golden():
    with open(BENCH / "golden.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def solved():
    scenario = sc3opt.generate_scenario(0)
    return (scenario, *sc3opt.sca_solve(scenario))


@pytest.fixture(scope="module")
def oracle_out():
    wl = WORKLOADS["oracle_check"]
    inp = wl.inputs(0, None)[0]
    return wl.run(inp, 0, None)


def test_solve_check_accepts_solver_output(solved):
    assert check_solve(*solved) == []


def test_solve_check_flags_budget_violation(solved):
    scenario, alloc, trace = solved
    loops = list(alloc.loops)
    loops[0] = dataclasses.replace(loops[0], p_w=2.0 * scenario.budgets.p_max_w)
    bad = dataclasses.replace(alloc, loops=tuple(loops))
    assert any(p.startswith("check_allocation") for p in check_solve(scenario, bad, trace))


def test_solve_check_flags_misreported_cost(solved):
    scenario, alloc, trace = solved
    bad = dataclasses.replace(alloc, sum_lqr=alloc.sum_lqr * (1.0 + 1e-6))
    assert any(p.startswith("evaluate_allocation") for p in check_solve(scenario, bad, trace))


def test_solve_check_flags_rising_objective(solved):
    scenario, alloc, trace = solved
    recs = list(trace.iterations)
    recs[2] = dataclasses.replace(recs[2], objective=recs[1].objective * 1.001)
    bad = dataclasses.replace(trace, iterations=tuple(recs))
    assert any("rose" in p for p in check_solve(scenario, alloc, bad))


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    spec = sc3opt.SweepSpec("p_max_dbw", tuple(SWEEP_VALUES), tuple(SWEEP_SCHEMES), (0, 1))
    path = tmp_path_factory.mktemp("sweep") / "out.csv"
    sc3opt.cli.write_csv(sc3opt.run_sweep(spec), str(path))
    return read_csv(path)


def _check_sweep(rows, golden):
    return check_sweep_rows(rows, SWEEP_VALUES, SWEEP_SCHEMES, [0, 1], golden["sweep_baselines"]["cells"])


def test_sweep_check_accepts_current_output(sweep_rows, golden):
    statuses = {row["status"] for row in sweep_rows}
    assert {"ok", "infeasible", "unstable"} <= statuses
    assert _check_sweep(sweep_rows, golden) == []


def test_sweep_check_flags_missing_row(sweep_rows, golden):
    assert _check_sweep(sweep_rows[:-1], golden)


def test_sweep_check_flags_reordered_rows(sweep_rows, golden):
    rows = list(sweep_rows)
    rows[0], rows[1] = rows[1], rows[0]
    assert any("out of order" in p for p in _check_sweep(rows, golden))


@pytest.mark.parametrize(
    "field, status, value, what",
    [
        ("status", "ok", None, "status"),
        ("sum_lqr", "ok", lambda v: repr(float(v) * (1.0 + 1e-6)), "cost"),
        ("sum_lqr", "unstable", lambda v: "12.5", "finite cost"),
    ],
)
def test_sweep_check_flags_changed_cell(sweep_rows, golden, field, status, value, what):
    rows = [dict(row) for row in sweep_rows]
    i = next(i for i, row in enumerate(rows) if row["status"] == status)
    rows[i][field] = "infeasible" if value is None else value(rows[i][field])
    assert any(what in p for p in _check_sweep(rows, golden))


def test_oracle_check_accepts_current_output(oracle_out):
    assert check_oracle(oracle_out) == []


@pytest.mark.parametrize(
    "corrupt, what",
    [
        (lambda o: {"grid_objective": o["solve"][1].sum_lqr / 1.03}, "grid optimum"),
        (lambda o: {"mc_below": dataclasses.replace(o["mc_below"], diverged=False)}, "below"),
        (lambda o: {"mc_above": dataclasses.replace(o["mc_above"], diverged=True)}, "above"),
        (lambda o: {"mc_above": dataclasses.replace(o["mc_above"], empirical_cost=math.inf)}, "above"),
        (lambda o: {"flows": [(c * 1.02, b) for c, b in o["flows"]]}, "brute force"),
        (lambda o: {"flows": [(c, b * 1.02) for c, b in o["flows"]]}, "brute force"),
        (lambda o: {"probe": dataclasses.replace(o["probe"], passed=False, violations=3)}, "convexity"),
    ],
)
def test_oracle_check_flags_disagreement(oracle_out, corrupt, what):
    bad = {**oracle_out, **corrupt(oracle_out)}
    assert any(what in p for p in check_oracle(bad))


def test_tail_averages_the_slowest_quarter():
    assert tail([float(v) for v in range(1, 41)]) == (35.5, 10)
    assert tail([3.0, 1.0, 2.0, 4.0, 0.5]) == (3.5, 2)
    assert tail([2.0]) == (2.0, 1)


def test_tracer_restores_names_and_links_spans():
    original = sc3opt.solver.surrogate_batch
    tracer = Tracer()
    tracer.op = 0
    with tracer:
        assert sc3opt.solver.surrogate_batch is not original
        sc3opt.sca_solve(sc3opt.generate_scenario(1))
    assert sc3opt.solver.surrogate_batch is original
    ids = {span[0]: span[1] for span in tracer.spans}
    solve = [span for span in tracer.spans if span[1] == "solver.sca_solve"]
    assert len(solve) == 1
    children = {ids[span[0]] for span in tracer.spans if span[4] == solve[0][0]}
    assert {"surrogate.surrogate_batch", "solver.make_anchors", "compute.min_compute_time"} <= children


@pytest.mark.parametrize(
    "workload, trace, key",
    [("sweep_baselines", 0, "end_to_end"), ("oracle_check", 1, "per_layer")],  # the quickest runs
)
def test_run_prints_exactly_the_declared_metrics(capsys, workload, trace, key):
    from run import main

    assert main(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
