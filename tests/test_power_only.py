"""The power-only baseline against its spectral projected gradient (SPG)
predecessor.

``power_only_closed_loop`` solves its one-budget problem by Newton on the
KKT system.  The predecessor, kept below as the reference, ran SPG
(``test_spg.reference_spg``) on the same objective in normalized power and
stopped at a prox residual of ``inner_tol``.  Both start from
``feasible_power_init``, so they must agree on which cells are infeasible;
where both solve, Newton must be at least as low to rounding, spend the
whole budget and carry a prox residual within ``inner_tol``, measured the
way SPG measures it.
"""

import dataclasses
import math

import numpy as np
import pytest

import sc3opt.baselines
from sc3opt import Infeasible, NoConvergence, SolverConfig, generate_scenario, power_only_closed_loop
from sc3opt.control import LN2
from sc3opt.optim import project_budget_simplex
from sc3opt.solver import LoopData, feasible_power_init
from test_spg import reference_spg

P_MAX_DBW = [2.5 * i for i in range(9)]  # 0, 2.5, ..., 20


def _power_objective(data, t_commu):
    """Reduced objective in normalized power only, windows held fixed, as
    the (value, gradient) pair ``reference_spg`` takes."""
    b = data.scenario.budgets
    bw_t = data.bandwidth * t_commu
    inf_grad = np.zeros(data.k)

    def fun(x):
        snr = data.gamma * (x * b.p_max_w)
        e = bw_t * data.spectral(snr)
        if not (e > data.h).all():
            return math.inf, inf_grad
        l, dl, _ = data.lqr_terms(e)
        return float(l.sum()), dl() * (bw_t * data.gamma / ((1.0 + snr) * LN2)) * b.p_max_w

    return fun


def _equal_split(data):
    b = data.scenario.budgets
    f = np.full(data.k, b.f_max_cycles / data.k)
    r = np.full(data.k, b.r_max_bits / data.k)
    return f, r, data.t_cycle - data.true_min_times(f, r)


def reference_power_only(scenario, config=None):
    """The power-only baseline as SPG solved it."""
    cfg = config or SolverConfig()
    data = LoopData(scenario)
    b = scenario.budgets
    f, r, t_commu = _equal_split(data)
    p0 = feasible_power_init(data, t_commu, "power-only baseline")
    fun = _power_objective(data, t_commu)
    project = lambda x: project_budget_simplex(x, 1.0)  # noqa: E731
    x = reference_spg(fun, project, p0 / b.p_max_w, cfg.inner_tol, cfg.inner_max_iters, "power-only baseline")[0]
    return data.allocation(x * b.p_max_w, f, r, t_commu)


def _prox_residual(scenario, alloc):
    """SPG's stationarity measure at the allocation's powers: the largest
    move of the relative-scaled prox step in normalized power."""
    data = LoopData(scenario)
    b = scenario.budgets
    _, _, t_commu = _equal_split(data)
    x = np.array([la.p_w for la in alloc.loops]) / b.p_max_w
    val, grad = _power_objective(data, t_commu)(x)
    assert math.isfinite(val)
    return float(np.abs(x - project_budget_simplex(x - grad / max(abs(val), 1e-300), 1.0)).max())


def _outcome(solve, scenario):
    try:
        return solve(scenario)
    except Infeasible:
        return None


def _scenario(seed, overrides, entropy0):
    """The generated scenario, with loop 0's entropy constants replaced by
    those ``entropy0`` names, if any, as an explicit scenario gives them:
    without a control plant."""
    scenario = generate_scenario(seed, overrides)
    if not entropy0:
        return scenario
    loops = list(scenario.loops)
    entropy = dataclasses.replace(loops[0].entropy, **entropy0)
    loops[0] = dataclasses.replace(loops[0], entropy=entropy, control=None)
    return dataclasses.replace(scenario, loops=tuple(loops))


def _cases():
    for seed in range(16):
        for dbw in P_MAX_DBW:
            yield f"seed{seed}-{dbw}dBW", seed, {"p_max_dbw": dbw}, None
    yield "k1", 0, {"k_loops": 1}, None
    # a cell whose last full Newton step would raise the sum by rounding
    yield "seed21-3.0dBW", 21, {"p_max_dbw": 3.0}, None
    yield "k2", 1, {"k_loops": 2}, None
    # the K=50 budgets of the benchmark's solve_k50 pool
    yield "k50", 0, {"k_loops": 50, "p_max_dbw": 20.0, "f_max_ghz": 50.0, "r_max_mbps": 500.0}, None
    # few state dimensions: at 30 dBW and above every loop's cost sits at
    # l_min and its curvature underflows
    for n in (1, 2):
        for dbw in P_MAX_DBW + [30.0, 40.0]:
            yield f"n{n}-{dbw}dBW", 0, {"n_state": n, "p_max_dbw": dbw}, None
    # a stable plant (h < 0) in loop 0 on tight budgets: its cost stays
    # finite at zero power, where the optimum often puts it
    for seed in (0, 3):
        for entropy0 in ({"h": -1000.0}, {"h": -100.0}, {"h": -30.0, "n": 4}):
            for dbw in (0.0, 5.0, 10.0):
                label = "stable-" + "-".join(f"{key}{value}" for key, value in entropy0.items())
                yield f"{label}-seed{seed}-{dbw}dBW", seed, {"k_loops": 4, "p_max_dbw": dbw}, entropy0
    # the same with one state dimension: loop 0's curvature underflows at
    # every power while the others' does not
    for dbw in (0.0, 10.0):
        yield f"stable-n1-{dbw}dBW", 0, {"k_loops": 4, "p_max_dbw": dbw}, {"h": -1000.0, "n": 1}


CASES = list(_cases())


@pytest.mark.parametrize("seed, overrides, entropy0", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_newton_matches_spg_reference(seed, overrides, entropy0):
    scenario = _scenario(seed, overrides, entropy0)
    got = _outcome(power_only_closed_loop, scenario)
    ref = _outcome(reference_power_only, scenario)
    assert (got is None) == (ref is None)
    if got is None:
        return
    assert got.sum_lqr <= ref.sum_lqr * (1.0 + 1e-12)
    assert got.sum_lqr >= ref.sum_lqr * (1.0 - 1e-9)
    p_max = scenario.budgets.p_max_w
    assert sum(la.p_w for la in got.loops) == pytest.approx(p_max, rel=1e-13)
    assert min(la.p_w for la in got.loops) >= 0.0
    assert _prox_residual(scenario, got) <= SolverConfig().inner_tol


def test_cases_cover_both_outcomes():
    """The comparison above covers both outcomes of feasible_power_init,
    and every scenario shape beyond the budget grid is solved."""
    infeasible = {
        label
        for label, seed, overrides, entropy0 in CASES
        if _outcome(power_only_closed_loop, _scenario(seed, overrides, entropy0)) is None
    }
    assert infeasible and len(infeasible) < len(CASES)
    assert all(label.startswith("seed") for label in infeasible)


def test_stable_loop_reaches_zero_power():
    """On the stable-plant cases Newton puts loop 0 at exactly zero power
    where SPG's projection does, including a cell where the start gives it
    power, so the bound is reached by steps rather than kept from the
    start."""
    zero_got, zero_ref, from_positive = set(), set(), set()
    for label, seed, overrides, entropy0 in CASES:
        if not label.startswith("stable"):
            continue
        scenario = _scenario(seed, overrides, entropy0)
        if power_only_closed_loop(scenario).loops[0].p_w == 0.0:
            zero_got.add(label)
            data = LoopData(scenario)
            if feasible_power_init(data, _equal_split(data)[2], "start")[0] > 0.0:
                from_positive.add(label)
        if reference_power_only(scenario).loops[0].p_w == 0.0:
            zero_ref.add(label)
    assert zero_got == zero_ref
    assert from_positive


def test_step_cap_raises_no_convergence():
    """The baseline fails only when its step budget runs out."""
    with pytest.raises(NoConvergence, match="exceeded 1 steps"):
        power_only_closed_loop(generate_scenario(0), SolverConfig(inner_max_iters=1))


def test_newton_calls_no_projection(monkeypatch):
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return record

    monkeypatch.setattr(sc3opt.baselines, "project_budget_simplex", forbidden("project_budget_simplex"))
    for seed in range(4):
        power_only_closed_loop(generate_scenario(seed))
    assert calls == []
