"""Scenario generation, config parsing, sweep execution and the CLI.

All dB-style unit conversion happens here, once, at parse time; config keys
carry their unit in the name (p_max_dbw, r_max_mbps, tau_s, ...).  The math
core only ever sees watts, cycles/s, bits/s and seconds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .baselines import communication_oriented, evaluate_allocation, power_only_closed_loop
from .channel import LinkParams
from .compute import ComputeParams
from .control import EntropyParams, LoopControlSpec, build_entropy_params, intrinsic_entropy
from .errors import BadConfig, BadOverride, Infeasible, Sc3Error
from .oracle import convexity_probe, grid_search_global, monte_carlo_loop
from .solver import (
    Allocation,
    Budgets,
    Loop,
    LoopAllocation,
    Scenario,
    SolverConfig,
    check_allocation,
    sca_solve,
)
from .surrogate import SurrogateAnchor, convex_compute_time

SWEEP_PARAMETERS = ("p_max_dbw", "f_max_ghz", "r_max_mbps", "sigma_v2")
SCHEMES = ("sca", "power_only", "comm_oriented")

# generation defaults; the data size per cycle is a modeling choice, picked
# so that computation occupies a meaningful share of the cycle only when
# offloading is actually exercised
DEFAULTS: dict[str, float] = {
    "k_loops": 5,
    "radius_m": 5000.0,
    "uav_height_m": 100.0,
    "bandwidth_hz": 5000.0,
    "gamma0_db": -60.0,
    "noise_dbm": -110.0,
    "tau_s": 5e-3,
    "p_max_dbw": 10.0,
    "f_max_ghz": 5.0,
    "r_max_mbps": 50.0,
    "alpha": 100.0,
    "beta": 50.0,
    "rho": 0.25,
    "cycle_s": 0.07,
    "d_bits": 1e6,
    "n_state": 50,
    "sigma_v2": 0.01,
    "sigma_w2": 0.001,
    "a_mag_low": 1.0,
    "a_mag_high": 10.0,
}


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def dbw_to_watts(dbw: float) -> float:
    return 10.0 ** (dbw / 10.0)


def _rejects_bad_values(parse):
    """Re-raise the ValueError a malformed or out-of-range value causes
    while reading or building a scenario (a bad number, non-finite input,
    invalid JSON, a budget the model rejects) as BadConfig."""

    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ValueError as exc:
            raise BadConfig(str(exc)) from exc

    return wrapper


@_rejects_bad_values
def generate_scenario(seed: int, overrides: dict | None = None) -> Scenario:
    """Deterministic random scenario: robots uniform in a disc around the
    hub, unstable diagonal plants, entropy constants from the builder.

    State-matrix magnitudes are drawn from (a_mag_low, a_mag_high] with
    random signs; magnitudes are kept above one so every mode contributes
    positive entropy and the stabilization constraint stays meaningful.
    """
    cfg = dict(DEFAULTS)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise BadOverride(f"unknown override {key!r}")
        cfg[key] = value
    rng = np.random.default_rng(seed)
    k = int(cfg["k_loops"])
    n = int(cfg["n_state"])

    link = LinkParams(
        bandwidth_hz=float(cfg["bandwidth_hz"]),
        gamma0=db_to_linear(float(cfg["gamma0_db"])),
        noise_power_w=dbm_to_watts(float(cfg["noise_dbm"])),
        uav_height_m=float(cfg["uav_height_m"]),
    )
    compute = ComputeParams(
        alpha=float(cfg["alpha"]),
        beta=float(cfg["beta"]),
        rho=float(cfg["rho"]),
        tau=float(cfg["tau_s"]),
    )
    budgets = Budgets(
        p_max_w=dbw_to_watts(float(cfg["p_max_dbw"])),
        f_max_cycles=float(cfg["f_max_ghz"]) * 1e9,
        r_max_bits=float(cfg["r_max_mbps"]) * 1e6,
    )

    loops = []
    for _ in range(k):
        radius = float(cfg["radius_m"]) * math.sqrt(rng.random())
        distance = math.hypot(float(cfg["uav_height_m"]), radius)
        mags = cfg["a_mag_low"] + (cfg["a_mag_high"] - cfg["a_mag_low"]) * rng.random(n)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        control = LoopControlSpec(
            a=np.diag(mags * signs),
            b_in=np.eye(n),
            c_obs=np.eye(n),
            q_w=np.eye(n),
            r_w=np.zeros((n, n)),
            sigma_v2=float(cfg["sigma_v2"]),
            sigma_w2=float(cfg["sigma_w2"]),
        )
        loops.append(
            Loop(
                entropy=build_entropy_params(control),
                data_bits=float(cfg["d_bits"]),
                cycle_seconds=float(cfg["cycle_s"]),
                distance_m=distance,
                control=control,
            )
        )
    return Scenario(loops=tuple(loops), compute=compute, link=link, budgets=budgets)


# ---------------------------------------------------------------------------
# serialization


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "compute": {
            "alpha_cycles_per_bit": scenario.compute.alpha,
            "beta_cycles_per_bit": scenario.compute.beta,
            "rho": scenario.compute.rho,
            "tau_s": scenario.compute.tau,
        },
        "link": {
            "bandwidth_hz": scenario.link.bandwidth_hz,
            "gamma0": scenario.link.gamma0,
            "noise_power_w": scenario.link.noise_power_w,
            "uav_height_m": scenario.link.uav_height_m,
        },
        "budgets": {
            "p_max_w": scenario.budgets.p_max_w,
            "f_max_cycles": scenario.budgets.f_max_cycles,
            "r_max_bits": scenario.budgets.r_max_bits,
        },
        "loops": [],
    }
    for loop in scenario.loops:
        entry = {
            "entropy": {
                "n": loop.entropy.n,
                "h_bits": loop.entropy.h,
                "l_min": loop.entropy.l_min,
                "c": loop.entropy.c,
            },
            "data_bits": loop.data_bits,
            "cycle_s": loop.cycle_seconds,
            "distance_m": loop.distance_m,
        }
        if loop.control is not None:
            entry["control"] = {
                "a_diag": np.diagonal(loop.control.a).tolist(),
                "b_diag": np.diagonal(loop.control.b_in).tolist(),
                "sigma_v2": loop.control.sigma_v2,
                "sigma_w2": loop.control.sigma_w2,
            }
        out["loops"].append(entry)
    return out


@_rejects_bad_values
def scenario_from_dict(data: dict) -> Scenario:
    compute = ComputeParams(
        alpha=float(data["compute"]["alpha_cycles_per_bit"]),
        beta=float(data["compute"]["beta_cycles_per_bit"]),
        rho=float(data["compute"]["rho"]),
        tau=float(data["compute"]["tau_s"]),
    )
    link = LinkParams(
        bandwidth_hz=float(data["link"]["bandwidth_hz"]),
        gamma0=float(data["link"]["gamma0"]),
        noise_power_w=float(data["link"]["noise_power_w"]),
        uav_height_m=float(data["link"]["uav_height_m"]),
    )
    budgets = Budgets(
        p_max_w=float(data["budgets"]["p_max_w"]),
        f_max_cycles=float(data["budgets"]["f_max_cycles"]),
        r_max_bits=float(data["budgets"]["r_max_bits"]),
    )
    loops = []
    for entry in data["loops"]:
        control = None
        if "control" in entry:
            a_diag = np.asarray(entry["control"]["a_diag"], dtype=float)
            b_diag = np.asarray(entry["control"]["b_diag"], dtype=float)
            m = a_diag.size
            control = LoopControlSpec(
                a=np.diag(a_diag),
                b_in=np.diag(b_diag),
                c_obs=np.eye(m),
                q_w=np.eye(m),
                r_w=np.zeros((m, m)),
                sigma_v2=float(entry["control"]["sigma_v2"]),
                sigma_w2=float(entry["control"]["sigma_w2"]),
            )
        loops.append(
            Loop(
                entropy=EntropyParams(
                    n=int(entry["entropy"]["n"]),
                    h=float(entry["entropy"]["h_bits"]),
                    l_min=float(entry["entropy"]["l_min"]),
                    c=float(entry["entropy"]["c"]),
                ),
                data_bits=float(entry["data_bits"]),
                cycle_seconds=float(entry["cycle_s"]),
                distance_m=float(entry["distance_m"]),
                control=control,
            )
        )
    return Scenario(loops=tuple(loops), compute=compute, link=link, budgets=budgets)


def allocation_to_dict(alloc: Allocation) -> dict:
    return {
        "sum_lqr": alloc.sum_lqr,
        "loops": [
            {
                "p_w": la.p_w,
                "f_cycles": la.f_cycles,
                "r_bits": la.r_bits,
                "t_commu_s": la.t_commu_s,
                "lqr_cost": la.lqr_cost,
            }
            for la in alloc.loops
        ],
    }


@_rejects_bad_values
def allocation_from_dict(data: dict) -> Allocation:
    loops = tuple(
        LoopAllocation(
            p_w=float(entry["p_w"]),
            f_cycles=float(entry["f_cycles"]),
            r_bits=float(entry["r_bits"]),
            t_commu_s=float(entry["t_commu_s"]),
            lqr_cost=float(entry["lqr_cost"]),
            split=None,
        )
        for entry in data["loops"]
    )
    resources = [v for la in loops for v in (la.p_w, la.f_cycles, la.r_bits, la.t_commu_s)]
    if not all(map(math.isfinite, resources)):
        raise ValueError("allocation resources and windows must be finite")
    return Allocation(loops=loops, sum_lqr=float(data["sum_lqr"]))


@_rejects_bad_values
def _read_json(path: str):
    """The JSON document in the file at path."""
    with open(path) as fh:
        return json.load(fh)


@_rejects_bad_values
def load_scenario(path: str) -> Scenario:
    data = _read_json(path)
    if "loops" in data:
        return scenario_from_dict(data)
    unknown = set(data) - {"seed", "overrides"}
    if unknown:
        raise BadOverride(f"unknown config keys {sorted(unknown)}")
    return generate_scenario(int(data.get("seed", 0)), data.get("overrides"))


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, the schemes to run and the seeds to average."""

    parameter: str
    values: tuple[float, ...]
    schemes: tuple[str, ...] = SCHEMES
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise BadOverride(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise ValueError("a sweep needs at least one value")
        if not all(map(math.isfinite, self.values)):
            raise ValueError("sweep values must be finite")
        bad = set(self.schemes) - set(SCHEMES)
        if bad:
            raise BadOverride(f"unknown schemes {sorted(bad)}")

    @classmethod
    @_rejects_bad_values
    def from_dict(cls, data: dict) -> "SweepSpec":
        return cls(
            parameter=data["parameter"],
            values=tuple(float(v) for v in data["values"]),
            schemes=tuple(data.get("schemes", SCHEMES)),
            seeds=tuple(int(s) for s in data.get("seeds", (0,))),
        )


CSV_HEADER = ("param_value", "scheme", "seed", "sum_lqr", "status", "iterations", "wall_ms")


def _run_cell(parameter, value, scheme, seed, base_overrides, config):
    start = time.perf_counter()
    iterations = 0
    try:
        overrides = dict(base_overrides or {})
        overrides[parameter] = value
        scenario = generate_scenario(seed, overrides)
        if scheme == "sca":
            alloc, trace = sca_solve(scenario, config)
            iterations = len(trace.iterations) - 1
        elif scheme == "power_only":
            alloc = power_only_closed_loop(scenario, config)
        else:
            alloc = communication_oriented(scenario, config)
        total = evaluate_allocation(scenario, alloc)
        status = "ok" if math.isfinite(total) else "unstable"
    except Infeasible:
        total, status = math.inf, "infeasible"
    except Sc3Error as exc:
        total, status = math.inf, f"error:{type(exc).__name__}"
    wall_ms = (time.perf_counter() - start) * 1e3
    return {
        "param_value": value,
        "scheme": scheme,
        "seed": seed,
        "sum_lqr": total,
        "status": status,
        "iterations": iterations,
        "wall_ms": round(wall_ms, 3),
    }


def run_sweep(
    sweep: SweepSpec,
    base_overrides: dict | None = None,
    config: SolverConfig | None = None,
) -> list[dict]:
    """All sweep cells, run one after another in (value, scheme, seed)
    order; failures are encoded in the status column and never abort the
    sweep."""
    return [
        _run_cell(sweep.parameter, value, scheme, seed, base_overrides, config)
        for value in sweep.values
        for scheme in sweep.schemes
        for seed in sweep.seeds
    ]


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# entry point


def _cmd_solve(args) -> int:
    scenario = load_scenario(args.config)
    config = SolverConfig(epsilon=args.eps) if args.eps else SolverConfig()
    try:
        alloc, trace = sca_solve(scenario, config)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for entry in exc.report:
            print(f"  {entry}", file=sys.stderr)
        return 2
    payload = allocation_to_dict(alloc)
    payload["trace"] = {
        "objectives": trace.objectives,
        "converged": trace.converged,
        "epsilon": trace.epsilon,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(
        f"sum LQR {alloc.sum_lqr:.6g} after {len(trace.iterations) - 1} iterations"
        f" (converged={trace.converged}) -> {args.out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    sweep = SweepSpec.from_dict(_read_json(args.sweep))
    data = _read_json(args.config)
    if "loops" in data:
        print("sweeps need a generated scenario config (seed/overrides)", file=sys.stderr)
        return 1
    base = data.get("overrides", {})
    rows = run_sweep(sweep, base)
    write_csv(rows, args.out)
    print(f"{len(rows)} sweep cells -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.config)
    alloc = allocation_from_dict(_read_json(args.alloc))
    report = check_allocation(scenario, alloc)
    print(f"power slack {report.slacks['power']:.3e}")
    print(f"compute slack {report.slacks['compute']:.3e}")
    print(f"rate slack {report.slacks['rate']:.3e}")
    for i, (ts, es) in enumerate(zip(report.slacks["time"], report.slacks["entropy"])):
        print(f"loop {i}: time slack {ts:.3e}, entropy slack {es:.3e}")
    if report.ok:
        print("allocation is feasible")
        return 0
    for violation in report.violations:
        print(f"VIOLATION: {violation}")
    return 2


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.config)
    if args.mode == "grid":
        _, objective = grid_search_global(scenario, grid_n=min(args.grid_n, 100))
        print(f"grid optimum {objective:.6g}")
        return 0
    if args.mode == "mc":
        loop = scenario.loops[0]
        if loop.control is None or loop.control.n > 4:
            a = np.array([[2.0]])
            control = LoopControlSpec(
                a=a, b_in=np.eye(1), c_obs=np.eye(1), q_w=np.eye(1),
                r_w=np.zeros((1, 1)), sigma_v2=0.01, sigma_w2=0.0,
            )
        else:
            control = loop.control
        h = intrinsic_entropy(control.a)
        for mult in (0.9, 1.1, 2.0, 10.0):
            res = monte_carlo_loop(control, mult * h, 10_000, args.seed)
            print(
                f"bits={mult:.1f}h cost={res.empirical_cost:.4g} "
                f"diverged={res.diverged} cycles={res.cycles}"
            )
        return 0
    # convexity: the entropy kernel and the surrogate branches
    kernel = lambda z: math.log1p(1.0 / (z[0] - 1.0)) / z[1]  # noqa: E731
    rep = convexity_probe(kernel, [(1.001, 50.0), (0.01, 10.0)], 500, args.seed)
    print(f"entropy kernel: passed={rep.passed} violations={rep.violations}")
    loop = scenario.loops[0]
    anchor = SurrogateAnchor.at(
        scenario.budgets.f_max_cycles / 2, scenario.budgets.r_max_bits / 2,
        loop.data_bits, scenario.compute,
    )
    fn = lambda z: float(  # noqa: E731
        convex_compute_time(z[0], z[1], anchor, loop.data_bits, scenario.compute)
    )
    box = [
        (1e-3 * scenario.budgets.f_max_cycles, scenario.budgets.f_max_cycles),
        (1e-3 * scenario.budgets.r_max_bits, scenario.budgets.r_max_bits),
    ]
    rep = convexity_probe(fn, box, 500, args.seed)
    print(f"latency majorant: passed={rep.passed} violations={rep.violations}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sc3opt",
        description="Joint communication/computing allocation for edge-hub control loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the alternating solver on a scenario")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--eps", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sweep", required=True)
    p_sweep.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="check an allocation against a scenario")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--alloc", required=True)

    p_oracle = sub.add_parser("oracle", help="run an independent validator")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--mode", choices=("grid", "mc", "convexity"), required=True)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--grid-n", type=int, default=40, dest="grid_n")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_oracle(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except Sc3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
