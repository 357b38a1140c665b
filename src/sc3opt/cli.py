"""Scenario generation, config parsing, sweep execution and the CLI.

All dB-style unit conversion happens here, once, at parse time; config keys
carry their unit in the name (p_max_dbw, r_max_mbps, tau_s, ...).  The math
core only ever sees watts, cycles/s, bits/s and seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import communication_oriented, power_only_closed_loop
from .baselines import evaluate_allocation  # noqa: F401  unused; bench/tracer.py wraps it in this module
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
from .surrogate import MajorantCoefficients, surrogate_batch

BUDGET_PARAMETERS = ("p_max_dbw", "f_max_ghz", "r_max_mbps")
SWEEP_PARAMETERS = BUDGET_PARAMETERS + ("sigma_v2",)
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
    """Re-raise the error a malformed, missing or out-of-range value causes
    while reading or building a scenario (a bad number, non-finite input,
    invalid JSON, a missing key or a value of the wrong type, a budget the
    model rejects, a dB value too large for a float) as BadConfig."""

    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except KeyError as exc:
            raise BadConfig(f"missing key {exc}") from exc
        except (ValueError, OverflowError, TypeError) as exc:
            raise BadConfig(str(exc)) from exc

    return wrapper


def _integer(value) -> int:
    """An integral number, 4 or 4.0, as int; anything else is a ValueError."""
    number = int(value)
    if number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _budgets(cfg: dict) -> Budgets:
    """The budgets a generation config names, in model units."""
    return Budgets(
        p_max_w=dbw_to_watts(float(cfg["p_max_dbw"])),
        f_max_cycles=float(cfg["f_max_ghz"]) * 1e9,
        r_max_bits=float(cfg["r_max_mbps"]) * 1e6,
    )


@_rejects_bad_values
def generate_scenario(seed: int, overrides: dict | None = None) -> Scenario:
    """Deterministic random scenario: robots uniform in a disc around the
    hub, unstable diagonal plants, entropy constants from the builder.

    State-matrix magnitudes are drawn from (a_mag_low, a_mag_high] with
    random signs; magnitudes are kept above one so every mode contributes
    positive entropy and the stabilization constraint stays meaningful:
    a_mag_low below 1, or a_mag_high below a_mag_low, is a BadConfig.
    """
    cfg = dict(DEFAULTS)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise BadOverride(f"unknown override {key!r}")
        cfg[key] = value
    rng = np.random.default_rng(seed)
    k = _integer(cfg["k_loops"])
    n = _integer(cfg["n_state"])
    a_low, a_high = float(cfg["a_mag_low"]), float(cfg["a_mag_high"])
    if not 1.0 <= a_low <= a_high:  # magnitudes below one give h <= 0
        raise BadConfig(f"need 1 <= a_mag_low <= a_mag_high, not {a_low} and {a_high}")

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
    budgets = _budgets(cfg)

    loops = []
    for _ in range(k):
        radius = float(cfg["radius_m"]) * math.sqrt(rng.random())
        distance = math.hypot(float(cfg["uav_height_m"]), radius)
        mags = a_low + (a_high - a_low) * rng.random(n)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        control = LoopControlSpec(
            a=mags * signs,
            b=np.ones(n),
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


def _as_given(value):
    return value  # a plant's diagonals: LoopControlSpec checks them


# JSON key -> (attribute, reader) for each type written to JSON, in the
# order written
_FIELDS = {
    ComputeParams: {
        "alpha_cycles_per_bit": ("alpha", float),
        "beta_cycles_per_bit": ("beta", float),
        "rho": ("rho", float),
        "tau_s": ("tau", float),
    },
    LinkParams: {key: (key, float) for key in ("bandwidth_hz", "gamma0", "noise_power_w", "uav_height_m")},
    Budgets: {key: (key, float) for key in ("p_max_w", "f_max_cycles", "r_max_bits")},
    EntropyParams: {"n": ("n", _integer), "h_bits": ("h", float), "l_min": ("l_min", float), "c": ("c", float)},
    Loop: {"data_bits": ("data_bits", float), "cycle_s": ("cycle_seconds", float), "distance_m": ("distance_m", float)},
    LoopControlSpec: {
        "a_diag": ("a", _as_given),
        "b_diag": ("b", _as_given),
        "sigma_v2": ("sigma_v2", float),
        "sigma_w2": ("sigma_w2", float),
    },
    LoopAllocation: {key: (key, float) for key in ("p_w", "f_cycles", "r_bits", "t_commu_s", "lqr_cost")},
}
_SECTIONS = (("compute", ComputeParams), ("link", LinkParams), ("budgets", Budgets))


def _to_dict(obj) -> dict:
    """The fields of obj's table under their JSON keys."""
    values = ((key, getattr(obj, attr)) for key, (attr, _) in _FIELDS[type(obj)].items())
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in values}


def _from_dict(cls, data: dict, **more):
    """cls from its JSON object, each field read by its table's reader, and
    the fields ``more`` gives."""
    return cls(**{attr: read(data[key]) for key, (attr, read) in _FIELDS[cls].items()}, **more)


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {name: _to_dict(getattr(scenario, name)) for name, _ in _SECTIONS}
    out["loops"] = []
    for loop in scenario.loops:
        entry = {"entropy": _to_dict(loop.entropy), **_to_dict(loop)}
        if loop.control is not None:
            entry["control"] = _to_dict(loop.control)
        out["loops"].append(entry)
    return out


@_rejects_bad_values
def scenario_from_dict(data: dict) -> Scenario:
    sections = {name: _from_dict(cls, data[name]) for name, cls in _SECTIONS}
    loops = tuple(
        _from_dict(
            Loop,
            entry,
            entropy=_from_dict(EntropyParams, entry["entropy"]),
            control=_from_dict(LoopControlSpec, entry["control"]) if "control" in entry else None,
        )
        for entry in data["loops"]
    )
    return Scenario(loops=loops, **sections)


def allocation_to_dict(alloc: Allocation) -> dict:
    return {"sum_lqr": alloc.sum_lqr, "loops": [_to_dict(la) for la in alloc.loops]}


@_rejects_bad_values
def allocation_from_dict(data: dict) -> Allocation:
    loops = tuple(_from_dict(LoopAllocation, entry, split=None) for entry in data["loops"])
    resources = [v for la in loops for v in (la.p_w, la.f_cycles, la.r_bits, la.t_commu_s)]
    if not all(map(math.isfinite, resources)):
        raise ValueError("allocation resources and windows must be finite")
    return Allocation(loops=loops, sum_lqr=float(data["sum_lqr"]))


@_rejects_bad_values
def _read_json(path: str) -> dict:
    """The JSON object in the file at path; an unreadable file, or one that
    holds another JSON value, is a BadConfig like a malformed one."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read {path}: {exc.strerror or exc}") from exc
    if not isinstance(data, dict):
        raise BadConfig(f"{path} does not hold a JSON object")
    return data


@_rejects_bad_values
def _generation_config(data: dict) -> tuple[int, dict]:
    """The seed and overrides of a generation config, which holds no other
    key; a sweep reads only the overrides."""
    unknown = set(data) - {"seed", "overrides"}
    if unknown:
        raise BadOverride(f"unknown config keys {sorted(unknown)}")
    overrides = data.get("overrides")
    if overrides is not None and not isinstance(overrides, dict):
        raise BadConfig("overrides must be a JSON object")
    return _integer(data.get("seed", 0)), overrides


@_rejects_bad_values
def load_scenario(path: str) -> Scenario:
    data = _read_json(path)
    if "loops" in data:
        return scenario_from_dict(data)
    return generate_scenario(*_generation_config(data))


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
            seeds=tuple(map(_integer, data.get("seeds", (0,)))),
        )


CSV_HEADER = ("param_value", "scheme", "seed", "sum_lqr", "status", "iterations", "wall_ms")


def _run_cell(scenario, value, scheme, seed, config, start):
    """One row: ``scheme`` on ``scenario``, or the Sc3Error building it raised;
    ``sum_lqr`` is the allocation's own, ``wall_ms`` counts from ``start``."""
    iterations = 0
    try:
        if isinstance(scenario, Sc3Error):
            raise scenario
        if scheme == "sca":
            alloc, trace = sca_solve(scenario, config)
            iterations = len(trace.iterations) - 1
        elif scheme == "power_only":
            alloc = power_only_closed_loop(scenario, config)
        else:
            alloc = communication_oriented(scenario, config)
        total = alloc.sum_lqr
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


@_rejects_bad_values
def _with_budgets(scenario: Scenario, overrides: dict) -> Scenario:
    """``scenario`` with the budgets the generation overrides name."""
    return replace(scenario, budgets=_budgets({**DEFAULTS, **overrides}))


def _seed_rows(sweep, seed, base_overrides, config):
    """One seed's rows in (value, scheme) order.  Every scheme of a value
    shares its scenario; a budget sweep draws the seed's loops only once."""
    rows = []
    drawn = None
    for value in sweep.values:
        overrides = {**(base_overrides or {}), sweep.parameter: value}
        start = time.perf_counter()
        try:
            if drawn is not None and sweep.parameter in BUDGET_PARAMETERS:
                scenario = _with_budgets(drawn, overrides)
            else:
                scenario = drawn = generate_scenario(seed, overrides)
        except Sc3Error as exc:
            scenario = exc
        for scheme in sweep.schemes:
            rows.append(_run_cell(scenario, value, scheme, seed, config, start))
            start = time.perf_counter()
    return rows


def run_sweep(
    sweep: SweepSpec,
    base_overrides: dict | None = None,
    config: SolverConfig | None = None,
) -> list[dict]:
    """All sweep cells, one row each in (value, scheme, seed) order;
    failures are encoded in the status column and never abort the sweep.

    Cells run seed by seed in the calling thread, so only one seed's
    scenario is alive at a time.  A budget sweep draws a seed's loops once,
    at the first value the model accepts, and re-budgets that scenario for
    each later value: budgets consume no randomness, so every row equals a
    fresh draw's.  A ``sigma_v2`` sweep draws once per (seed, value).  The
    first scheme's ``wall_ms`` includes building the value's scenario.
    """
    per_seed = [_seed_rows(sweep, seed, base_overrides, config) for seed in sweep.seeds]
    return [rows[cell] for cell in range(len(sweep.values) * len(sweep.schemes)) for rows in per_seed]


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# entry point


def _check_out_dir(path: str) -> None:
    """Refuse an output path in a missing directory before any work runs."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise BadConfig(f"cannot write {path}: no directory {directory}")


@contextlib.contextmanager
def _write_errors(path: str):
    """Re-raise an OSError while writing path as BadConfig."""
    try:
        yield
    except OSError as exc:
        raise BadConfig(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_solve(args) -> int:
    _check_out_dir(args.out)
    scenario = load_scenario(args.config)
    config = SolverConfig(epsilon=args.eps)
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
    with _write_errors(args.out), open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    rounds = len(trace.iterations) - 1
    print(f"sum LQR {alloc.sum_lqr:.6g} after {rounds} iterations (converged={trace.converged}) -> {args.out}")
    if not trace.converged:
        print(f"warning: not converged after {rounds} rounds", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    _check_out_dir(args.out)
    sweep = SweepSpec.from_dict(_read_json(args.sweep))
    data = _read_json(args.config)
    if "loops" in data:
        print("sweeps need a generated scenario config (seed/overrides)", file=sys.stderr)
        return 1
    _, base = _generation_config(data)
    rows = run_sweep(sweep, base)
    with _write_errors(args.out):
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
        if scenario.k > 2:
            raise BadConfig(f"the grid oracle handles one or two loops, the scenario has {scenario.k}")
        _, objective = grid_search_global(scenario, grid_n=args.grid_n)
        print(f"grid optimum {objective:.6g}")
        return 0
    if args.mode == "mc":
        loop = scenario.loops[0]
        control = loop.control
        if control is None or control.n > 4:
            control = LoopControlSpec(a=[2.0], b=[1.0], sigma_v2=0.01, sigma_w2=0.0)
        h = intrinsic_entropy(control.a)
        if h <= 0.0:
            raise BadConfig(f"the Monte Carlo oracle needs an unstable plant (h > 0), loop 0 has h = {h:.4g}")
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
    coef = MajorantCoefficients.at(
        np.array([scenario.budgets.f_max_cycles / 2]), np.array([scenario.budgets.r_max_bits / 2]),
        np.array([loop.data_bits]), scenario.compute,
    )
    fn = lambda z: float(surrogate_batch(z[:1], z[1:], coef)[0][0])  # noqa: E731
    box = [
        (1e-3 * scenario.budgets.f_max_cycles, scenario.budgets.f_max_cycles),
        (1e-3 * scenario.budgets.r_max_bits, scenario.budgets.r_max_bits),
    ]
    rep = convexity_probe(fn, box, 500, args.seed)
    print(f"latency majorant: passed={rep.passed} violations={rep.violations}")
    return 0


def _epsilon(text: str) -> float:
    """--eps: an outer tolerance SolverConfig accepts."""
    try:
        return SolverConfig(epsilon=float(text)).epsilon
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid epsilon {text!r}: {exc}") from None


def _between(low: int, high: float = math.inf):
    """An argparse type: an integer from low to high."""

    def integer(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} is outside [{low}, {high}]")
        return value

    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sc3opt",
        description="Joint communication/computing allocation for edge-hub control loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the alternating solver on a scenario")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--eps", type=_epsilon, default=SolverConfig.epsilon)

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
    p_oracle.add_argument("--seed", type=_between(0), default=0)
    p_oracle.add_argument("--grid-n", type=_between(1, 100), default=40, dest="grid_n")

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
