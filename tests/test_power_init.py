"""The power start against its predecessor.

``feasible_power_init`` ends its margin bisection at the first step that
moves neither end; the reference below, its predecessor, always runs 200
steps.  A step that moves neither end leaves the state as it found it, so
every later step repeats it, and both must return the same bits.
"""

import numpy as np
import pytest

import sc3opt.baselines
import sc3opt.solver
from sc3opt import Infeasible, generate_scenario, power_only_closed_loop, sca_solve, solve_inner
from sc3opt.solver import LoopData, feasible_power_init, make_anchors

K50_OVERRIDES = {"k_loops": 50, "p_max_dbw": 20.0, "f_max_ghz": 50.0, "r_max_mbps": 500.0}


def reference_feasible_power_init(data, t_commu, what):
    """feasible_power_init with all 200 bisection steps."""
    p_max = data.scenario.budgets.p_max_w
    if (t_commu <= 0.0).any():
        raise Infeasible(f"{what}: computation consumes the whole cycle")
    lo = 1e-6
    if float(sc3opt.solver._stabilizing_power(data, t_commu, lo).sum()) > p_max:
        raise Infeasible(f"{what}: power budget cannot stabilize every loop")
    hi = 1.0
    while hi < 1e7 and float(sc3opt.solver._stabilizing_power(data, t_commu, hi).sum()) <= p_max:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(sc3opt.solver._stabilizing_power(data, t_commu, mid).sum()) <= p_max:
            lo = mid
        else:
            hi = mid
    p = sc3opt.solver._stabilizing_power(data, t_commu, lo)
    total = float(p.sum())
    if total <= 0.0:
        return np.full(data.k, p_max / data.k)
    return p * (p_max / total)


def equal_split_windows(scenario):
    """LoopData and the communication windows of the equal compute and
    backhaul split, where ``sca_solve`` and the power-only baseline start."""
    data = LoopData(scenario)
    b = scenario.budgets
    f = np.full(data.k, b.f_max_cycles / data.k)
    r = np.full(data.k, b.r_max_bits / data.k)
    return data, data.t_cycle - data.true_min_times(f, r)


def same_start(data, t_commu):
    """Both versions on one input: equal bits, or both Infeasible.  True
    when the input was feasible."""
    try:
        want = reference_feasible_power_init(data, t_commu, "reference")
    except Infeasible:
        with pytest.raises(Infeasible):
            feasible_power_init(data, t_commu, "test")
        return False
    got = feasible_power_init(data, t_commu, "test")
    assert got.tobytes() == want.tobytes()
    return True


def test_matches_reference_over_power_grid():
    feasible = 0
    for seed in range(16):
        for p_max_dbw in range(21):
            scenario = generate_scenario(seed, {"p_max_dbw": float(p_max_dbw)})
            feasible += same_start(*equal_split_windows(scenario))
    assert feasible >= 250  # of 336; the rest cannot stabilize every loop at low power


def test_matches_reference_on_k50_pool():
    for seed in range(8):
        assert same_start(*equal_split_windows(generate_scenario(seed, K50_OVERRIDES)))


def test_matches_reference_when_doubling_hits_cap():
    # at 1 GHz of bandwidth even a 1e7-bit margin fits the power budget, so
    # the upper end stops at the cap while feasible and the bisection
    # climbs until its midpoint rounds onto that end
    data, t_commu = equal_split_windows(generate_scenario(0, {"bandwidth_hz": 1e9}))
    at_cap = sc3opt.solver._stabilizing_power(data, t_commu, 1e7)
    assert float(at_cap.sum()) <= data.scenario.budgets.p_max_w
    assert same_start(data, t_commu)


def test_matches_reference_at_every_solver_start(monkeypatch):
    starts = []

    def checked(data, t_commu, what):
        starts.append(same_start(data, t_commu))
        return feasible_power_init(data, t_commu, what)

    monkeypatch.setattr(sc3opt.solver, "feasible_power_init", checked)
    monkeypatch.setattr(sc3opt.baselines, "feasible_power_init", checked)
    for seed in (0, 3):
        sca_solve(generate_scenario(seed))
    for seed in range(4):
        scenario = generate_scenario(seed, {"p_max_dbw": 6.0})
        power_only_closed_loop(scenario)
        b = scenario.budgets
        solve_inner(scenario, make_anchors(scenario, np.full(5, b.f_max_cycles / 5), np.full(5, b.r_max_bits / 5)))
    assert len(starts) == 10 and all(starts)


def test_bisection_stops_once_converged(monkeypatch):
    calls = 0
    stabilizing_power = sc3opt.solver._stabilizing_power

    def counted(*args):
        nonlocal calls
        calls += 1
        return stabilizing_power(*args)

    monkeypatch.setattr(sc3opt.solver, "_stabilizing_power", counted)
    for seed in range(16):
        data, t_commu = equal_split_windows(generate_scenario(seed))
        calls = 0
        feasible_power_init(data, t_commu, "test")
        assert calls <= 80
        calls = 0
        reference_feasible_power_init(data, t_commu, "reference")
        assert calls > 200
