"""Comparison schemes and a shared allocation evaluator.

``power_only_closed_loop`` keeps the equal compute/backhaul split and only
optimizes transmit power for the sum cost.  ``communication_oriented``
ignores control altogether: it splits compute to minimize total computation
time and water-fills power for throughput, so at low power budgets distant
loops routinely end up unstabilizable.
"""

from __future__ import annotations

import math

import numpy as np

# classify_region, min_compute_time and optimal_split are not called here any
# more; they stay attributes of this module because bench/tracer.py wraps them
# by module and name
from .compute import classify_region, min_compute_time, min_compute_time_grad, optimal_split  # noqa: F401
from .control import LN2
from .errors import NoConvergence
from .solver import (
    Allocation,
    LoopData,
    Scenario,
    SolverConfig,
    feasible_power_init,
    project_budget_simplex,
    spg,
)


def water_filling(gains: np.ndarray, p_total: float) -> np.ndarray:
    """Throughput-maximizing power split over parallel channels.

    Exact active-set solution of max sum log(1 + g_k p_k): active channels
    share a common water level mu with p_k = mu - 1/g_k.
    """
    gains = np.asarray(gains, dtype=float)
    if np.any(gains <= 0.0) or p_total <= 0.0:
        raise ValueError("gains and the power budget must be positive")
    inv = 1.0 / gains
    order = np.argsort(inv)
    inv_sorted = inv[order]
    k = gains.size
    active = k
    while active > 0:
        mu = (p_total + inv_sorted[:active].sum()) / active
        if mu > inv_sorted[active - 1]:
            break
        active -= 1
    p = np.zeros(k)
    p[order[:active]] = mu - inv_sorted[:active]
    return p


def _power_objective(data: LoopData, t_commu: np.ndarray):
    """Reduced objective in normalized power only, windows held fixed, as
    the (value, gradient function) pair ``spg`` takes."""
    b = data.scenario.budgets
    bw_t = data.bandwidth * t_commu
    inf_grad = np.zeros(data.k)
    inf_gradient = lambda: inf_grad  # noqa: E731

    def fun(x):
        snr = data.gamma * (x * b.p_max_w)
        e = bw_t * data.spectral(snr)
        if not (e > data.h).all():
            return math.inf, inf_gradient
        l, dl = data.lqr_terms(e)
        return float(l.sum()), lambda: dl() * (bw_t * data.gamma / ((1.0 + snr) * LN2)) * b.p_max_w

    return fun


def power_only_closed_loop(scenario: Scenario, config: SolverConfig | None = None) -> Allocation:
    """Equal compute/backhaul split; power alone optimized for the sum cost."""
    cfg = config or SolverConfig()
    data = LoopData(scenario)
    k = data.k
    b = scenario.budgets
    f = np.full(k, b.f_max_cycles / k)
    r = np.full(k, b.r_max_bits / k)
    t_commu = data.t_cycle - data.true_min_times(f, r)
    p0 = feasible_power_init(data, t_commu, "power-only baseline")
    fun = _power_objective(data, t_commu)
    project = lambda x: project_budget_simplex(x, 1.0)  # noqa: E731
    x = spg(fun, project, p0 / b.p_max_w, cfg.inner_tol, cfg.inner_max_iters, "power-only baseline")[0]
    return data.allocation(x * b.p_max_w, f, r, t_commu)


def _sum_time_objective(data: LoopData, r_eq: float):
    """Total true computation time as a function of normalized compute, as
    the (value, gradient function) pair ``spg`` takes."""
    params = data.scenario.compute
    f_max = data.scenario.budgets.f_max_cycles

    def fun(x):
        t, dt_df, _ = min_compute_time_grad(x * f_max, r_eq, data.d_bits, params)
        # cumsum adds in loop order, sum() pairwise
        return float(t.cumsum()[-1]), lambda: dt_df * f_max

    return fun


def communication_oriented(scenario: Scenario, config: SolverConfig | None = None) -> Allocation:
    """Equal backhaul split, compute minimizing total computation time,
    power water-filled for throughput; loop costs evaluated afterwards.

    Loops whose delivered entropy falls at or below their intrinsic rate
    come out with an infinite cost rather than an error.
    """
    cfg = config or SolverConfig()
    data = LoopData(scenario)
    k = data.k
    b = scenario.budgets
    r_eq = b.r_max_bits / k
    fun = _sum_time_objective(data, r_eq)
    project = lambda x: project_budget_simplex(x, 1.0)  # noqa: E731
    x0 = np.full(k, 1.0 / k)
    try:
        x = spg(fun, project, x0, cfg.inner_tol, cfg.inner_max_iters, "compute split")[0]
    except NoConvergence:
        x = x0  # the equal split is a valid, if unpolished, fallback
    p = water_filling(data.gamma, b.p_max_w)
    return data.allocation(p, x * b.f_max_cycles, np.full(k, r_eq))


def evaluate_allocation(scenario: Scenario, alloc: Allocation) -> float:
    """Sum LQR cost of an allocation recomputed from first principles.

    Ignores any stored costs and windows: takes the true minimal computation
    time at each loop's (f, r), gives the loop the full cycle remainder to
    communicate, and inverts the entropy curve.  Infinite when any loop
    cannot be stabilized.  On a solver or baseline output it reproduces
    ``sum_lqr`` bit for bit.
    """
    p = np.array([max(la.p_w, 0.0) for la in alloc.loops])
    f = np.array([la.f_cycles for la in alloc.loops])
    r = np.array([la.r_bits for la in alloc.loops])
    return LoopData(scenario).true_objective(p, f, r)
