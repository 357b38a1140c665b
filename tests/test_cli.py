import csv
import json
import math

import pytest

from sc3opt import BadConfig, BadOverride, SweepSpec, generate_scenario, run_sweep
from sc3opt.cli import (
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


def test_cli_solve_infeasible_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "overrides": {"f_max_ghz": 0.5}}))
    out = tmp_path / "alloc.json"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2


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


@pytest.mark.parametrize("values", ["[Infinity]", "[]"], ids=["infinite_value", "no_values"])
def test_cli_sweep_bad_spec_ends_in_error_line(tmp_path, capsys, values):
    text = '{"parameter": "p_max_dbw", "values": %s, "schemes": ["power_only"]}' % values
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


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"seed": 0, "overrides": {"p_max_dbw": math.inf}}),
        json.dumps({"seed": 0, "overrides": {"tau_s": -1.0}}),
        _explicit_scenario_text("link", "bandwidth_hz", math.nan),
        _explicit_scenario_text("budgets", "r_max_bits", "fast"),
        '{"seed": 0,',
    ],
    ids=["inf_override", "negative_override", "nan_link", "text_budget", "truncated_json"],
)
def test_cli_bad_value_ends_in_error_line(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    with pytest.raises(BadConfig):
        load_scenario(str(config))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "alloc.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
