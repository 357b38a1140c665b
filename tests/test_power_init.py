"""The power start against its predecessor.

``feasible_power_init`` finds the common entropy margin by safeguarded
Newton steps; the reference below, its predecessor, doubles an upper end
and then always runs 200 bisection steps.  Both end within rounding of the
same margin, so after scaling to the budget each loop's power agrees to
within 1e-14 relative, and both give the same ``Infeasible`` reports.
"""

import dataclasses

import numpy as np
import pytest

import sc3opt.baselines
import sc3opt.solver
from sc3opt import Infeasible, generate_scenario, power_only_closed_loop, sca_solve, solve_inner
from sc3opt.control import LN2
from sc3opt.solver import LoopData, feasible_power_init, make_anchors

K50_OVERRIDES = {"k_loops": 50, "p_max_dbw": 20.0, "f_max_ghz": 50.0, "r_max_mbps": 500.0}
RTOL = 1e-14


def reference_feasible_power_init(data, t_commu, what):
    """feasible_power_init by doubling and all 200 bisection steps."""
    p_max = data.scenario.budgets.p_max_w
    dead = t_commu <= 0.0
    if dead.any():
        report = [
            {"loop": int(i), "t_commu_s": float(t_commu[i]), "reason": "no communication window"}
            for i in np.nonzero(dead)[0]
        ]
        raise Infeasible(f"{what}: computation consumes the whole cycle", report=report)
    lo = 1e-6
    if float(sc3opt.solver._stabilizing_power(data, t_commu, lo).sum()) > p_max:
        e_max = data.bandwidth * t_commu * np.log1p(data.gamma * p_max) / LN2
        report = [
            {"loop": i, "max_entropy_bits": float(e_max[i]), "intrinsic_rate_bits": float(data.h[i])}
            for i in range(data.k)
            if e_max[i] <= data.h[i] + lo
        ]
        raise Infeasible(f"{what}: power budget cannot stabilize every loop", report=report)
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
    """Both versions on one input: each loop's power within RTOL, or both
    Infeasible with equal messages and reports.  True when the input was
    feasible."""
    try:
        want = reference_feasible_power_init(data, t_commu, "start")
    except Infeasible as expected:
        with pytest.raises(Infeasible) as raised:
            feasible_power_init(data, t_commu, "start")
        assert str(raised.value) == str(expected)
        assert raised.value.report == expected.report
        return False
    got = feasible_power_init(data, t_commu, "start")
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)
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
    # at 1 GHz of bandwidth even a 2^24-bit margin fits the power budget:
    # the reference's doubling stops at that cap and its bisection climbs
    # onto it, and the Newton search stays below the same ceiling
    data, t_commu = equal_split_windows(generate_scenario(0, {"bandwidth_hz": 1e9}))
    at_cap = sc3opt.solver._stabilizing_power(data, t_commu, 2.0**24)
    assert float(at_cap.sum()) <= data.scenario.budgets.p_max_w
    assert same_start(data, t_commu)
    got = feasible_power_init(data, t_commu, "start")
    np.testing.assert_allclose(got, at_cap * (data.scenario.budgets.p_max_w / at_cap.sum()), rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("p_max_dbw", [0.0, 10.0, 20.0])
def test_matches_reference_when_every_loop_is_stable(p_max_dbw):
    # every h_k < 0: the power sum is zero up to m = 1000, so the search
    # bisects its bracket until some loop draws power
    scenario = generate_scenario(0, {"k_loops": 4, "p_max_dbw": p_max_dbw})
    loops = tuple(
        dataclasses.replace(lp, entropy=dataclasses.replace(lp.entropy, h=-1000.0, n=1), control=None)
        for lp in scenario.loops
    )
    data, t_commu = equal_split_windows(dataclasses.replace(scenario, loops=loops))
    assert not sc3opt.solver._stabilizing_power(data, t_commu, 1000.0).any()
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


def test_newton_needs_few_margin_evaluations(monkeypatch):
    """At most 10 margin evaluations per start on the default seeds and
    the K=50 pool, the first one the feasibility test at 1e-6."""
    calls = 0
    stabilizing_power = sc3opt.solver._stabilizing_power

    def counted(*args):
        nonlocal calls
        calls += 1
        return stabilizing_power(*args)

    monkeypatch.setattr(sc3opt.solver, "_stabilizing_power", counted)
    for seed, overrides in [(s, None) for s in range(16)] + [(s, K50_OVERRIDES) for s in range(8)]:
        data, t_commu = equal_split_windows(generate_scenario(seed, overrides))
        calls = 0
        feasible_power_init(data, t_commu, "test")
        assert 2 <= calls <= 10
