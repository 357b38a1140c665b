import copy
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import sc3opt.baselines
import sc3opt.cli
from sc3opt import (
    BadConfig,
    BadOverride,
    Infeasible,
    Sc3Error,
    SolverConfig,
    SweepSpec,
    check_allocation,
    communication_oriented,
    evaluate_allocation,
    generate_scenario,
    intrinsic_entropy,
    monte_carlo_loop,
    power_only_closed_loop,
    run_sweep,
    sca_solve,
)
from sc3opt.optim import newton_descent
from sc3opt.solver import Allocation, LoopAllocation, feasible_power_init
from sc3opt.cli import (
    DEFAULTS,
    SCHEMES,
    SWEEP_PARAMETERS,
    allocation_from_dict,
    allocation_to_dict,
    db_to_linear,
    dbm_to_watts,
    dbw_to_watts,
    load_scenario,
    main,
    scenario_from_dict,
    scenario_to_dict,
    write_csv,
)


def test_unit_conversions():
    assert dbw_to_watts(10.0) == pytest.approx(10.0)
    assert dbm_to_watts(-110.0) == pytest.approx(1e-14)
    assert db_to_linear(-60.0) == pytest.approx(1e-6)


def test_generate_deterministic():
    a = scenario_to_dict(generate_scenario(42))
    b = scenario_to_dict(generate_scenario(42))
    assert a == b
    c = scenario_to_dict(generate_scenario(43))
    assert a != c


def test_generate_defaults():
    sc = generate_scenario(0)
    assert sc.k == 5
    assert sc.link.bandwidth_hz == 5000.0
    assert sc.budgets.p_max_w == pytest.approx(10.0)
    assert sc.budgets.f_max_cycles == pytest.approx(5e9)
    assert sc.budgets.r_max_bits == pytest.approx(5e7)
    assert sc.compute.tau == pytest.approx(5e-3)
    for loop in sc.loops:
        assert 100.0 <= loop.distance_m <= math.hypot(100.0, 5000.0)
        assert loop.entropy.h > 0.0


def test_generate_center_distance():
    sc = generate_scenario(0, {"radius_m": 0.0})
    for loop in sc.loops:
        assert loop.distance_m == pytest.approx(100.0)


def test_generate_rejects_unknown_override():
    with pytest.raises(BadOverride):
        generate_scenario(0, {"power_max": 10})


def test_generate_accepts_a_single_state_magnitude():
    sc = generate_scenario(0, {"k_loops": 1, "n_state": 3, "a_mag_low": 2.0, "a_mag_high": 2.0})
    assert sorted(abs(sc.loops[0].control.a)) == [2.0, 2.0, 2.0]


def test_mc_oracle_refuses_an_explicit_stable_plant(tmp_path, capsys):
    """The generator no longer draws stable plants, so an explicit scenario
    carries one: the Monte-Carlo oracle refuses a first loop with h <= 0,
    whatever its number of modes."""
    for modes in (1, 5):
        data = scenario_to_dict(generate_scenario(0, {"k_loops": 1, "n_state": modes}))
        data["loops"][0]["control"]["a_diag"] = [0.5] * modes
        config = tmp_path / "stable.json"
        config.write_text(json.dumps(data))
        assert main(["oracle", "--config", str(config), "--mode", "mc"]) == 1
        assert f"needs an unstable plant (h > 0), loop 0 has h = -{modes}" in capsys.readouterr().err


def test_generate_structural_overrides():
    sc = generate_scenario(0, {"n_state": 4, "k_loops": 3, "sigma_v2": 0.05})
    assert sc.k == 3
    for loop in sc.loops:
        assert loop.entropy.n == 4
        assert loop.control.sigma_v2 == 0.05
    # a noisier plant needs a higher cost floor
    base = generate_scenario(0, {"n_state": 4, "k_loops": 3})
    assert sc.loops[0].entropy.l_min > base.loops[0].entropy.l_min


def test_scenario_roundtrip():
    sc = generate_scenario(7)
    blob = json.dumps(scenario_to_dict(sc))
    again = scenario_from_dict(json.loads(blob))
    assert scenario_to_dict(again) == scenario_to_dict(sc)


def test_scenario_explicit_entropy_passthrough(tmp_path):
    # entropy constants given directly must be used verbatim
    sc = generate_scenario(3)
    data = scenario_to_dict(sc)
    for entry in data["loops"]:
        entry.pop("control")
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(data))
    loaded = load_scenario(str(path))
    for loop, entry in zip(loaded.loops, data["loops"]):
        assert loop.control is None
        assert loop.entropy.h == entry["entropy"]["h_bits"]
        assert loop.entropy.c == entry["entropy"]["c"]


def test_sweep_spec_validation():
    with pytest.raises(BadOverride):
        SweepSpec(parameter="bandwidth", values=(1.0,))
    with pytest.raises(ValueError):
        SweepSpec(parameter="p_max_dbw", values=())
    with pytest.raises(BadOverride):
        SweepSpec(parameter="p_max_dbw", values=(1.0,), schemes=("magic",))


def test_run_sweep_rows_and_inf_encoding(tmp_path):
    sweep = SweepSpec(
        parameter="f_max_ghz",
        values=(0.5, 5.0),
        schemes=("power_only",),
        seeds=(0,),
    )
    rows = run_sweep(sweep)
    assert [r["param_value"] for r in rows] == [0.5, 5.0]
    # 0.5 GHz leaves no communication window at the equal split
    assert rows[0]["status"] == "infeasible"
    assert math.isinf(rows[0]["sum_lqr"])
    assert rows[1]["status"] == "ok"
    out = tmp_path / "sweep.csv"
    write_csv(rows, str(out))
    with open(out) as fh:
        parsed = list(csv.DictReader(fh))
    assert list(parsed[0].keys()) == [
        "param_value", "scheme", "seed", "sum_lqr", "status", "iterations", "wall_ms",
    ]
    assert parsed[0]["sum_lqr"] == "inf"
    assert float(parsed[1]["sum_lqr"]) > 0.0


def test_run_sweep_serial_runs_agree():
    sweep = SweepSpec(
        parameter="p_max_dbw", values=(10.0, 14.0), schemes=("power_only",), seeds=(0, 1)
    )
    strip = lambda rows: [  # noqa: E731
        {k: v for k, v in r.items() if k != "wall_ms"} for r in rows
    ]
    assert strip(run_sweep(sweep)) == strip(run_sweep(sweep))


def reference_run_sweep(sweep, base_overrides=None, chain=True):
    """run_sweep as it was before cells shared scenarios: every
    (value, scheme, seed) cell generates its own scenario.

    With ``chain``, a power-only cell starts, as run_sweep documents, from
    the powers of the previous power-only cell of its seed entry, scaled
    by the ratio of the power budgets, while that cell ended ok; without
    it, every cell starts cold.  comm_oriented cells always descend the
    split, which run_sweep's reused split equals bit for bit."""
    rows = []
    chains = [None] * len(sweep.seeds)  # (powers, p_max_w) per seed entry
    for value in sweep.values:
        for scheme in sweep.schemes:
            for entry, seed in enumerate(sweep.seeds):
                start = time.perf_counter()
                iterations = 0
                chained = chains[entry] if chain else None
                if scheme == "power_only":
                    chains[entry] = None  # until the cell ends ok
                try:
                    scenario = generate_scenario(seed, {**(base_overrides or {}), sweep.parameter: value})
                    if scheme == "sca":
                        alloc, trace = sca_solve(scenario)
                        iterations = len(trace.iterations) - 1
                    elif scheme == "power_only":
                        p_max = scenario.budgets.p_max_w
                        init = None if chained is None else chained[0] * (p_max / chained[1])
                        alloc = power_only_closed_loop(scenario, init=init)
                        if math.isfinite(alloc.sum_lqr):
                            chains[entry] = np.array([la.p_w for la in alloc.loops]), p_max
                    else:
                        alloc = communication_oriented(scenario)
                    total = evaluate_allocation(scenario, alloc)
                    status = "ok" if math.isfinite(total) else "unstable"
                except Infeasible:
                    total, status = math.inf, "infeasible"
                except Sc3Error as exc:
                    total, status = math.inf, f"error:{type(exc).__name__}"
                rows.append(
                    {
                        "param_value": value,
                        "scheme": scheme,
                        "seed": seed,
                        "sum_lqr": total,
                        "status": status,
                        "iterations": iterations,
                        "wall_ms": round((time.perf_counter() - start) * 1e3, 3),
                    }
                )
    return rows


def _without_wall_ms(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


BASELINES = ("power_only", "comm_oriented")


@pytest.mark.parametrize(
    "sweep, statuses",
    [
        (
            SweepSpec("p_max_dbw", tuple(2.5 * i for i in range(9)), BASELINES, tuple(range(6))),
            {"ok", "infeasible", "unstable"},
        ),
        (
            SweepSpec("f_max_ghz", (-1.0, 0.5, 5.0), SCHEMES, (0, 1)),
            {"error:BadConfig", "infeasible", "ok"},
        ),
        (SweepSpec("r_max_mbps", (5.0, 50.0, 500.0), BASELINES, (0, 1, 2)), {"ok", "infeasible", "unstable"}),
        (SweepSpec("sigma_v2", (0.005, 0.05), ("sca", "power_only"), (0,)), {"ok"}),
        (
            SweepSpec("p_max_dbw", (10.0, 2.0, 10.0), ("power_only", "comm_oriented", "power_only"), (1, 0, 1)),
            {"ok", "infeasible", "unstable"},
        ),
    ],
    ids=["p_max", "f_max_rejected_first", "r_max", "sigma_v2_sca", "repeated_values_and_seeds"],
)
def test_run_sweep_matches_per_cell_reference(sweep, statuses):
    rows = run_sweep(sweep)
    assert _without_wall_ms(rows) == _without_wall_ms(reference_run_sweep(sweep))
    assert len(rows) == len(sweep.values) * len(sweep.schemes) * len(sweep.seeds)
    assert statuses <= {r["status"] for r in rows}


P_MAX_GRID = tuple(2.5 * i for i in range(9))
SEEDS_16 = tuple(range(16))


@pytest.mark.parametrize(
    "sweep",
    [
        SweepSpec("p_max_dbw", P_MAX_GRID, BASELINES, SEEDS_16),
        SweepSpec("p_max_dbw", P_MAX_GRID[::-1], BASELINES, SEEDS_16),
        SweepSpec("p_max_dbw", (10.0, 10.0, 2.5, 20.0, 20.0, 10.0, 0.0, 10.0), BASELINES, SEEDS_16),
        SweepSpec("r_max_mbps", (5.0, 50.0, 500.0, 50.0), BASELINES, SEEDS_16),
        SweepSpec("sigma_v2", (0.005, 0.05, 0.01), BASELINES, SEEDS_16),
    ],
    ids=["p_max_ascending", "p_max_descending", "p_max_repeated", "r_max", "sigma_v2"],
)
def test_chained_rows_match_cold_calls(sweep):
    """Carrying each baseline's answer to the next cell changes no status,
    moves power-only costs only by rounding and comm_oriented costs not at
    all."""
    rows = run_sweep(sweep)
    cold = reference_run_sweep(sweep, chain=False)
    assert [r["status"] for r in rows] == [r["status"] for r in cold]
    for row, ref in zip(rows, cold):
        if row["scheme"] == "comm_oriented" or not math.isfinite(ref["sum_lqr"]):
            assert row["sum_lqr"] == ref["sum_lqr"]
        else:
            assert row["sum_lqr"] == pytest.approx(ref["sum_lqr"], rel=1e-12, abs=0.0)


def _count_cold_work(monkeypatch):
    """Record ``feasible_power_init``'s outcomes ("start" or "infeasible")
    and the ``newton_descent`` runs on the compute split."""
    starts, descents = [], []

    def counted_init(*args):
        try:
            p = feasible_power_init(*args)
        except Infeasible:
            starts.append("infeasible")
            raise
        starts.append("start")
        return p

    def counted_descent(*args):
        descents.append(args[-1])
        return newton_descent(*args)

    monkeypatch.setattr(sc3opt.baselines, "feasible_power_init", counted_init)
    monkeypatch.setattr(sc3opt.baselines, "newton_descent", counted_descent)
    return starts, descents


@pytest.mark.parametrize("seed", range(8))
def test_budget_sweep_starts_each_chain_cold_once(monkeypatch, seed):
    """Up a 0-20 dBW sweep a seed's power-only cells start cold until the
    first one that solves, and the rest continue from it; the split
    descends once."""
    starts, descents = _count_cold_work(monkeypatch)
    rows = run_sweep(SweepSpec("p_max_dbw", P_MAX_GRID, BASELINES, (seed,)))
    power = [r["status"] for r in rows if r["scheme"] == "power_only"]
    solved = power.index("ok")
    assert set(power[:solved]) <= {"infeasible"} and set(power[solved:]) == {"ok"}
    assert starts == ["infeasible"] * solved + ["start"]
    assert descents.count("compute split") == 1


def test_f_max_sweep_descends_the_split_at_every_value(monkeypatch):
    _, descents = _count_cold_work(monkeypatch)
    run_sweep(SweepSpec("f_max_ghz", (2.5, 5.0, 10.0), BASELINES, (0, 1)))
    assert descents.count("compute split") == 6


@pytest.mark.parametrize(
    "parameter, values, draws", [("p_max_dbw", (4.0, 10.0, 16.0), 2), ("sigma_v2", (0.005, 0.01, 0.05), 6)]
)
def test_run_sweep_draws_each_seed_once_per_budget_sweep(monkeypatch, parameter, values, draws):
    calls = []

    def counted(seed, overrides=None):
        calls.append(seed)
        return generate_scenario(seed, overrides)

    monkeypatch.setattr(sc3opt.cli, "generate_scenario", counted)
    rows = run_sweep(SweepSpec(parameter, values, BASELINES, (0, 1)))
    assert len(rows) == 12
    assert len(calls) == draws


def test_run_sweep_reports_each_schemes_own_cost(monkeypatch):
    """Each row's ``sum_lqr`` is the allocation's own; the per-cell
    reference above checks that it equals ``evaluate_allocation``."""
    calls = []

    def counted(scenario, alloc):
        calls.append(alloc)
        return evaluate_allocation(scenario, alloc)

    monkeypatch.setattr(sc3opt.cli, "evaluate_allocation", counted)
    rows = run_sweep(SweepSpec("p_max_dbw", (2.0, 12.0), SCHEMES, (0, 1)))
    assert len(rows) == 12
    assert {"ok", "infeasible"} <= {r["status"] for r in rows}
    assert calls == []


def test_allocation_roundtrip():
    import sc3opt

    sc = generate_scenario(0)
    alloc, _ = sc3opt.sca_solve(sc)
    again = allocation_from_dict(allocation_to_dict(alloc))
    assert again.sum_lqr == alloc.sum_lqr
    assert [la.p_w for la in again.loops] == [la.p_w for la in alloc.loops]


def test_cli_solve_validate_cycle(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    out = tmp_path / "alloc.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["trace"]["converged"]
    assert main(["validate", "--config", str(config), "--alloc", str(out)]) == 0


def test_cli_solve_warns_when_not_converged(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    out = tmp_path / "alloc.json"
    # every round on seed 1 still lowers the objective by more than 1e-12
    # of it, so the solve runs into the round cap
    assert main(["solve", "--config", str(config), "--out", str(out), "--eps", "1e-12"]) == 0
    payload = json.loads(out.read_text())
    assert not payload["trace"]["converged"]
    rounds = len(payload["trace"]["objectives"]) - 1
    assert rounds == SolverConfig().max_outer_iters
    assert f"warning: not converged after {rounds} rounds" in capsys.readouterr().err
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err


def test_cli_solve_infeasible_exit_code(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"f_max_ghz": 0.5}}))
    out = tmp_path / "alloc.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    # the infeasibility report follows the message, one entry a line
    config.write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2, "p_max_dbw": -60}}))
    capsys.readouterr()
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "infeasible: initialization: power budget cannot stabilize every loop"
    assert [line[:14] for line in lines[1:]] == ["  {'loop': 0, ", "  {'loop': 1, "]


def test_cli_grid_oracle_infeasible_exit_code(tmp_path, capsys):
    """No grid point stabilizes both loops at -60 dBW: the grid oracle
    exits 2 with an ``infeasible:`` line, as ``solve`` does."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2, "p_max_dbw": -60}}))
    assert main(["oracle", "--config", str(config), "--mode", "grid", "--grid-n", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("infeasible:") and "grid optimum" not in captured.out


def test_cli_validate_flags_broken_allocation(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    out = tmp_path / "alloc.json"
    main(["solve", "--config", str(config), "--out", str(out)])
    payload = json.loads(out.read_text())
    for entry in payload["loops"]:
        entry["p_w"] *= 20.0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["validate", "--config", str(config), "--alloc", str(broken)]) == 2


def test_cli_sweep_and_oracle(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2}}))
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(
        json.dumps(
            {
                "parameter": "p_max_dbw",
                "values": [10.0],
                "schemes": ["power_only"],
                "seeds": [0],
            }
        )
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--sweep", str(sweep_file), "--out", str(out)]) == 0
    assert out.exists()
    assert main(["oracle", "--config", str(config), "--mode", "grid", "--grid-n", "20"]) == 0
    assert main(["oracle", "--config", str(config), "--mode", "convexity", "--seed", "1"]) == 0
    assert main(["oracle", "--config", str(config), "--mode", "mc", "--seed", "1"]) == 0


def test_cli_bad_config_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"nope": 1}}))
    out = tmp_path / "alloc.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "fields",
    [
        '"values": [Infinity]',
        '"values": []',
        '"values": [1.0], "seeds": [0, 1.5]',
        '"values": [1.0], "seeds": []',
        '"values": [1.0], "schemes": []',
        '"values": [1.0], "seeds": [0, -1]',
        '"values": [1.0], "seeds": [true, false]',
    ],
    ids=["infinite_value", "no_values", "fractional_seed", "no_seeds", "no_schemes", "negative_seed", "boolean_seeds"],
)
def test_cli_sweep_bad_spec_ends_in_error_line(tmp_path, capsys, fields):
    # a later key wins, so "schemes" in fields replaces the default one here
    text = '{"parameter": "p_max_dbw", "schemes": ["power_only"], %s}' % fields
    with pytest.raises(BadConfig):
        SweepSpec.from_dict(json.loads(text))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    spec = tmp_path / "sweep.json"
    spec.write_text(text)
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _explicit_scenario_text(section, key, value):
    data = scenario_to_dict(generate_scenario(0))
    data[section][key] = value
    return json.dumps(data)


def _explicit_state_dimension_text(n):
    """A one-loop scenario whose entropy block gives state dimension n and
    no plant."""
    data = scenario_to_dict(generate_scenario(0, {"k_loops": 1, "n_state": 4}))
    del data["loops"][0]["control"]
    data["loops"][0]["entropy"]["n"] = n
    return json.dumps(data)


def test_cli_reads_integral_floats_as_integers(tmp_path):
    """4.0 loads as 4 wherever an integer is read: the seed, k_loops,
    n_state, the entropy block's n and the sweep seeds."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 2.0, "overrides": {"k_loops": 3.0, "n_state": 4.0}}))
    expected = generate_scenario(2, {"k_loops": 3, "n_state": 4})
    assert scenario_to_dict(load_scenario(str(config))) == scenario_to_dict(expected)
    for n in (4, 4.0):
        config.write_text(_explicit_state_dimension_text(n))
        loaded = load_scenario(str(config)).loops[0].entropy.n
        assert loaded == 4 and type(loaded) is int
    spec = SweepSpec.from_dict({"parameter": "p_max_dbw", "values": [1.0], "seeds": [0, 1.0]})
    assert spec.seeds == (0, 1) and all(type(s) is int for s in spec.seeds)


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"seed": 0, "overrides": {"p_max_dbw": math.inf}}),
        json.dumps({"seed": 0, "overrides": {"tau_s": -1.0}}),
        json.dumps({"seed": 0, "overrides": {"n_state": 1, "a_mag_low": 0.2, "a_mag_high": 0.5}}),
        json.dumps({"seed": 0, "overrides": {"a_mag_low": 3.0, "a_mag_high": 2.0}}),
        _explicit_scenario_text("link", "bandwidth_hz", math.nan),
        _explicit_scenario_text("budgets", "r_max_bits", "fast"),
        '{"seed": 0,',
        _explicit_scenario_text("compute", "rho", None),
        json.dumps({**scenario_to_dict(generate_scenario(0)), "compute": {"rho": 0.25}}),
        _explicit_state_dimension_text(4.9),
        json.dumps({"seed": 0, "overrides": {"k_loops": 2.5}}),
        json.dumps({"seed": 0, "overrides": {"k_loops": True}}),
        json.dumps({"seed": 0, "overrides": {"n_state": 3.7}}),
        json.dumps({"seed": 0.5}),
    ],
    ids=[
        "inf_override",
        "negative_override",
        "stable_plants",
        "magnitude_band_reversed",
        "nan_link",
        "text_budget",
        "truncated_json",
        "null_value",
        "missing_key",
        "fractional_state_dimension",
        "fractional_loop_count",
        "boolean_loop_count",
        "fractional_n_state",
        "fractional_seed",
    ],
)
def test_cli_bad_value_ends_in_error_line(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    with pytest.raises(BadConfig):
        load_scenario(str(config))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "alloc.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# every number a config, sweep, scenario or allocation file holds, found
# from the tables that read and write them: the generation defaults, the
# sweepable parameters and each number scenario_to_dict and
# allocation_to_dict write (a plant's diagonals and sum_lqr included)
_SMALL = {"k_loops": 1, "n_state": 1}
_GENERATION = {"seed": 0, "overrides": _SMALL}


def _number_paths(data, path=()):
    if isinstance(data, dict):
        return [p for key, value in data.items() for p in _number_paths(value, path + (key,))]
    if isinstance(data, list):
        return [p for i, value in enumerate(data) for p in _number_paths(value, path + (i,))]
    return [path]


def _sweep(parameter):
    return {"parameter": parameter, "values": [DEFAULTS[parameter]], "schemes": ["power_only"], "seeds": [0]}


_SCENARIO = scenario_to_dict(generate_scenario(0, _SMALL))
_ALLOCATION = allocation_to_dict(Allocation(loops=(LoopAllocation(1.0, 1e9, 1e7, 0.03, 5.0),), sum_lqr=5.0))
NUMBER_ENTRIES = (
    [("config", _GENERATION, ("overrides", key)) for key in DEFAULTS]
    + [("sweep", _sweep(key), ("values", 0)) for key in SWEEP_PARAMETERS]
    + [("sweep", _sweep("p_max_dbw"), ("seeds", 0))]
    + [("config", _SCENARIO, path) for path in _number_paths(_SCENARIO)]
    + [("alloc", _ALLOCATION, path) for path in _number_paths(_ALLOCATION)]
)
_READERS = {
    "config": lambda d: scenario_from_dict(d) if "loops" in d else generate_scenario(d["seed"], d["overrides"]),
    "sweep": SweepSpec.from_dict,
    "alloc": allocation_from_dict,
}
_COMMANDS = {"config": "solve", "sweep": "sweep", "alloc": "validate"}


def _placed(base, path, value):
    data = copy.deepcopy(base)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def _value_at(base, path):
    """The number at path in base; for an override base does not give, its
    default."""
    if path[0] == "overrides":
        return base["overrides"].get(path[1], DEFAULTS[path[1]])
    for key in path:
        base = base[key]
    return base


@pytest.mark.parametrize(
    "file, base, path",
    NUMBER_ENTRIES,
    ids=[f"{file}:{base.get('parameter', '')}:{'.'.join(map(str, path))}" for file, base, path in NUMBER_ENTRIES],
)
def test_every_config_number_refuses_bools_and_strings(tmp_path, capsys, file, base, path):
    """True, numpy's True and the string "10" are refused wherever a number
    is read, by the reader and by the CLI command that reads the file; the
    number there as a numpy float, or as a JSON integer where integral,
    reads as the number itself."""
    read = _READERS[file]
    number = _value_at(base, path)
    expected = repr(read(_placed(base, path, number)))
    assert repr(read(_placed(base, path, np.float64(number)))) == expected
    if float(number).is_integer():
        assert repr(read(json.loads(json.dumps(_placed(base, path, int(number)))))) == expected
    files = {"config": _GENERATION, "sweep": _sweep("p_max_dbw"), "alloc": _ALLOCATION}
    for bad in (True, np.True_, "10"):
        with pytest.raises(BadConfig):
            read(_placed(base, path, bad))
        if bad is np.True_:
            continue  # JSON holds no numpy value
        argv = [_COMMANDS[file]]
        for name, data in {**files, file: _placed(base, path, bad)}.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
            if name == "config" or name == file:
                argv += [f"--{name}", str(tmp_path / f"{name}.json")]
        if file != "alloc":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "overrides, args, status",
    [
        ({}, ["solve", "--eps", "-1"], 2),
        ({}, ["solve", "--eps", "0"], 2),
        ({}, ["oracle", "--mode", "mc", "--seed", "-1"], 2),
        ({"k_loops": 2}, ["oracle", "--mode", "grid", "--grid-n", "-5"], 2),
        ({"k_loops": 2}, ["oracle", "--mode", "grid", "--grid-n", "500"], 2),
        ({}, ["oracle", "--mode", "grid"], 1),
        ({"n_state": 1, "a_mag_low": 0.2, "a_mag_high": 0.5}, ["oracle", "--mode", "mc"], 1),
    ],
    ids=[
        "negative_eps",
        "zero_eps",
        "negative_seed",
        "negative_grid_n",
        "grid_n_above_100",
        "grid_on_five_loops",
        "mc_on_stable_plant",
    ],
)
def test_cli_argument_the_model_rejects_ends_without_traceback(tmp_path, capsys, overrides, args, status):
    """A usage error (exit 2) for an argument argparse can check alone, an
    ``error:`` line (exit 1) for one that clashes with the scenario."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": overrides}))
    argv = [args[0], "--config", str(config), *args[1:]]
    if args[0] == "solve":
        argv += ["--out", str(tmp_path / "alloc.json")]
    if status == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: " in capsys.readouterr().err
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "alloc.json").exists()


def test_cli_validate_rejects_non_finite_allocation(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    alloc = tmp_path / "alloc.json"
    main(["solve", "--config", str(config), "--out", str(alloc)])
    payload = json.loads(alloc.read_text())
    payload["loops"][0]["p_w"] = math.nan
    alloc.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", "--config", str(config), "--alloc", str(alloc)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_validate_rejects_wrong_loop_count(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    alloc = tmp_path / "alloc.json"
    main(["solve", "--config", str(config), "--out", str(alloc)])
    payload = json.loads(alloc.read_text())
    payload["loops"] = payload["loops"][:3]
    alloc.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", "--config", str(config), "--alloc", str(alloc)]) == 2
    out = capsys.readouterr().out
    assert "VIOLATION: allocation has 3 loops, the scenario 5" in out
    assert "allocation is feasible" not in out


def test_cli_validate_reports_a_negative_rate(tmp_path, capsys):
    """A share the latency model refuses ends in a ``VIOLATION:`` line and
    exit code 2, like any other broken constraint."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    alloc = tmp_path / "alloc.json"
    main(["solve", "--config", str(config), "--out", str(alloc)])
    payload = json.loads(alloc.read_text())
    payload["loops"][2]["r_bits"] = -1.0
    alloc.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", "--config", str(config), "--alloc", str(alloc)]) == 2
    out = capsys.readouterr().out
    assert "loop 2: time slack -inf" in out
    assert "VIOLATION: loop 2: bad shares f=" in out


def test_json_allocation_gets_the_split_checks(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    alloc = tmp_path / "alloc.json"
    assert main(["solve", "--config", str(config), "--out", str(alloc)]) == 0
    loaded = allocation_from_dict(json.loads(alloc.read_text()))
    report = check_allocation(generate_scenario(0), loaded)
    assert report.ok
    assert len(report.slacks["split_gap"]) == 5
    assert all(0.0 <= gap <= 1e-12 for gap in report.slacks["split_gap"])


def test_mc_oracle_simulates_the_first_loops_plant(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "overrides": {"k_loops": 2, "n_state": 3}}))
    assert main(["oracle", "--config", str(config), "--mode", "mc", "--seed", "2"]) == 0
    plant = generate_scenario(3, {"k_loops": 2, "n_state": 3}).loops[0].control
    h = intrinsic_entropy(plant.a)
    expected = []
    for mult in (0.9, 1.1, 2.0, 10.0):
        res = monte_carlo_loop(plant, mult * h, 10_000, 2)
        expected.append(f"bits={mult:.1f}h cost={res.empirical_cost:.4g} diverged={res.diverged} cycles={res.cycles}")
    assert capsys.readouterr().out.splitlines() == expected


def test_mc_oracle_needs_a_control_block(tmp_path, capsys):
    data = scenario_to_dict(generate_scenario(0, {"k_loops": 1, "n_state": 2}))
    del data["loops"][0]["control"]
    config = tmp_path / "bare.json"
    config.write_text(json.dumps(data))
    assert main(["oracle", "--config", str(config), "--mode", "mc"]) == 1
    assert capsys.readouterr().err.startswith("error: the Monte Carlo oracle needs loop 0's plant")


def test_cli_sweep_refuses_an_explicit_scenario(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(scenario_to_dict(generate_scenario(0, {"k_loops": 1, "n_state": 2}))))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "p_max_dbw", "values": [5.0], "schemes": ["power_only"]}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: sweeps need a generated scenario config")
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "sc3opt", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: sc3opt")
    assert "RuntimeWarning" not in done.stderr


def test_cli_sweep_records_rejected_value_and_continues(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "f_max_ghz", "values": [-1.0, 5.0], "schemes": ["power_only"]}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["error:BadConfig", "ok"]
    assert rows[0]["sum_lqr"] == "inf"


@pytest.mark.parametrize("key", ["p_max_dbw", "gamma0_db", "noise_dbm"])
def test_cli_overflowing_db_value_ends_in_error_line(tmp_path, capsys, key):
    # 10 ** 400 does not fit in a float
    with pytest.raises(BadConfig):
        generate_scenario(0, {key: 4000.0})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {key: 4000.0}}))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "alloc.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("values", [[10.0, 4000.0], [4000.0, 10.0]], ids=["overflow_second", "overflow_first"])
def test_cli_sweep_records_overflowing_value_and_continues(tmp_path, values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2}}))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "p_max_dbw", "values": values, "schemes": ["power_only"]}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 0
    with open(out) as fh:
        statuses = {float(row["param_value"]): row["status"] for row in csv.DictReader(fh)}
    assert statuses == {10.0: "ok", 4000.0: "error:BadConfig"}


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("entropy", "l_min", math.nan),
        ("entropy", "c", math.inf),
        ("control", "sigma_w2", math.nan),
        ("control", "sigma_v2", math.nan),
        ("control", "a_diag", [math.inf]),
    ],
    ids=["nan_l_min", "inf_c", "nan_sigma_w2", "nan_sigma_v2", "inf_a"],
)
def test_cli_non_finite_loop_value_ends_in_error_line(tmp_path, capsys, where, key, value):
    data = scenario_to_dict(generate_scenario(0, {"n_state": 1}))
    data["loops"][0][where][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    with pytest.raises(BadConfig):
        load_scenario(str(config))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "alloc.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_control_plant_of_another_dimension_ends_in_error_line(tmp_path, capsys):
    data = scenario_to_dict(generate_scenario(0, {"n_state": 4, "k_loops": 2}))
    data["loops"][0]["control"]["a_diag"] = [3.0]
    data["loops"][0]["control"]["b_diag"] = [1.0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    with pytest.raises(BadConfig):
        load_scenario(str(config))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "alloc.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"seed": 0, "overides": {"k_loops": 2}}),
        json.dumps({"seed": 0, "overrides": [["k_loops", 2]]}),
    ],
    ids=["misspelled_key", "overrides_not_object"],
)
def test_cli_sweep_rejects_malformed_generation_config(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "p_max_dbw", "values": [10.0], "schemes": ["power_only"]}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "alloc.json")]) == 1


def test_cli_convexity_probe_runs_the_scalar_majorant(tmp_path, monkeypatch):
    """The CLI probes the majorant through ``convex_compute_time``, as the
    benchmark does; it equals the solver's kernel bit for bit."""
    calls = []
    kernel = sc3opt.cli.convex_compute_time

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(sc3opt.cli, "convex_compute_time", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2}}))
    assert main(["oracle", "--config", str(config), "--mode", "convexity"]) == 0
    assert len(calls) >= 500


@pytest.mark.parametrize("broken", ["sweep", "config", "alloc"])
def test_cli_truncated_json_ends_in_error_line(tmp_path, capsys, broken):
    files = {
        "config": json.dumps({"seed": 0, "overrides": {"k_loops": 2}}),
        "sweep": json.dumps({"parameter": "p_max_dbw", "values": [10.0], "schemes": ["power_only"]}),
        "alloc": json.dumps(
            {"sum_lqr": 1.0, "loops": [{"p_w": 1.0, "f_cycles": 1e9, "r_bits": 1e7, "t_commu_s": 0.05, "lqr_cost": 1.0}]}
        ),
    }
    files[broken] = files[broken][: len(files[broken]) // 2]
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    if broken == "alloc":
        argv = ["validate", "--config", str(paths["config"]), "--alloc", str(paths["alloc"])]
    else:
        argv = ["sweep", "--config", str(paths["config"]), "--sweep", str(paths["sweep"]), "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "sweep", "validate"])
@pytest.mark.parametrize("text", ["5", "[1, 2]", '"seed"'], ids=["number", "list", "string"])
def test_cli_non_object_json_ends_in_error_line(tmp_path, capsys, command, text):
    # the file the command reads last holds a JSON value that is not an object
    config = tmp_path / "config.json"
    config.write_text(text if command == "solve" else json.dumps({"seed": 0}))
    other = tmp_path / "other.json"
    other.write_text(text)
    argv = {
        "solve": ["solve", "--config", str(config), "--out", str(tmp_path / "alloc.json")],
        "sweep": ["sweep", "--config", str(config), "--sweep", str(other), "--out", str(tmp_path / "rows.csv")],
        "validate": ["validate", "--config", str(config), "--alloc", str(other)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("missing", ["config", "sweep", "alloc"])
def test_cli_missing_file_ends_in_error_line(tmp_path, capsys, missing):
    paths = {name: tmp_path / f"{name}.json" for name in ("config", "sweep", "alloc")}
    paths["config"].write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2}}))
    paths["sweep"].write_text(json.dumps({"parameter": "p_max_dbw", "values": [10.0], "schemes": ["power_only"]}))
    assert main(["solve", "--config", str(paths["config"]), "--out", str(paths["alloc"])]) == 0
    paths[missing].unlink()
    capsys.readouterr()
    if missing == "alloc":
        argv = ["validate", "--config", str(paths["config"]), "--alloc", str(paths["alloc"])]
    elif missing == "sweep":
        argv = ["sweep", "--config", str(paths["config"]), "--sweep", str(paths["sweep"]), "--out", str(tmp_path / "rows.csv")]
    else:
        argv = ["solve", "--config", str(paths["config"]), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(paths[missing]) in err


def _unwritable_out(tmp_path, where, name):
    """An output path in a missing directory, or one naming a directory."""
    if where == "missing_dir":
        return tmp_path / "nodir" / name
    (tmp_path / name).mkdir()
    return tmp_path / name


@pytest.mark.parametrize("where", ["missing_dir", "is_a_directory"])
def test_cli_solve_unwritable_out_ends_in_error_line(tmp_path, capsys, monkeypatch, where):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2}}))
    out = _unwritable_out(tmp_path, where, "alloc.json")
    if where == "missing_dir":  # refused before the solve runs
        monkeypatch.setattr(sc3opt.cli, "sca_solve", None)
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("where", ["missing_dir", "is_a_directory"])
def test_cli_sweep_unwritable_out_ends_in_error_line(tmp_path, capsys, monkeypatch, where):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"k_loops": 2}}))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "p_max_dbw", "values": [10.0], "schemes": ["power_only"]}))
    out = _unwritable_out(tmp_path, where, "rows.csv")
    if where == "missing_dir":  # refused before the sweep runs
        monkeypatch.setattr(sc3opt.cli, "run_sweep", None)
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
