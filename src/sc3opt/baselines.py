"""Comparison schemes and a shared allocation evaluator.

``power_only_closed_loop`` keeps the equal compute/backhaul split and only
optimizes transmit power for the sum cost, by damped Newton on the KKT
system of its one budget constraint.  ``communication_oriented`` ignores
control altogether: it splits compute to minimize total computation time
and water-fills power for throughput, so at low power budgets distant
loops routinely end up unstabilizable.
"""

from __future__ import annotations

import math

import numpy as np

# classify_region, min_compute_time and optimal_split are not called here any
# more; they stay attributes of this module because bench/tracer.py wraps them
# by module and name
from .compute import classify_region, min_compute_time, min_compute_time_grad, optimal_split  # noqa: F401
from .errors import NoConvergence
from .optim import newton_descent, newton_kkt_step, project_budget_simplex, spg
from .solver import Allocation, LoopData, Scenario, SolverConfig, feasible_power_init


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


def _power_terms(data: LoopData, t_commu: np.ndarray):
    """Sum cost in the powers, windows held fixed: ``fun(p)`` returns the
    value and a function that builds each loop's gradient and curvature
    from that evaluation's intermediates.  Outside the domain (a loop's
    entropy at or below its intrinsic rate) the value is inf; float
    warnings must be silenced around it.  The Newton steps never take a
    power below zero, so the domain check is on the entropy alone."""

    def fun(p):
        e, e_derivatives = data.entropy_terms(p, t_commu)
        if not (e > data.h).all():
            return math.inf, None
        l, dl, d2l = data.lqr_terms(e)

        def newton_terms():
            de, d2e = e_derivatives()
            dl_e = dl()
            # the cost falls and is convex in e, and e is concave in p, so
            # both curvature terms are nonnegative
            return dl_e * de, d2l() * de * de + dl_e * d2e

        return float(l.sum()), newton_terms

    return fun


def power_only_closed_loop(scenario: Scenario, config: SolverConfig | None = None) -> Allocation:
    """Equal compute/backhaul split; power alone optimized for the sum cost.

    With the windows fixed, min sum_k l_k(e_k(p_k)) subject to
    sum(p) = p_max and p >= 0 is smooth, convex and separable by loop; the
    budget is tight because every loop's cost falls in its power.
    ``newton_descent`` solves its KKT system from ``feasible_power_init``,
    which raises Infeasible when no power split stabilizes every loop.
    Every loop's curvature H_k is positive, so each step is closed form:
    dp_k = max(-(g_k + mu) / H_k, -p_k), the multiplier mu making the step
    restore sum(p) = p_max (``newton_kkt_step`` with one budget row).  At
    the optimum the bound p_k >= 0 can bind only for a loop with a
    negative intrinsic rate, whose cost stays finite at zero power.

    Stops at a decrement of 16 eps |sum|, the rule ``spg`` applies to its
    steps: the last full step then moves the sum only by rounding but
    squares the KKT residual, so the relative prox residual ``spg`` would
    measure ends far below ``inner_tol``.  Reads only
    ``config.inner_max_iters``: that many steps without stopping raise
    NoConvergence.
    """
    cfg = config or SolverConfig()
    data = LoopData(scenario)
    k = data.k
    b = scenario.budgets
    f = np.full(k, b.f_max_cycles / k)
    r = np.full(k, b.r_max_bits / k)
    t_commu = data.t_cycle - data.true_min_times(f, r)
    p0 = feasible_power_init(data, t_commu, "power-only baseline")

    def step(p, newton_terms):
        g, curv = newton_terms()
        dp, kkt, _ = newton_kkt_step(p[:, None], g[:, None], curv[:, None, None], np.array([b.p_max_w - p.sum()]))
        return dp[:, 0], kkt[:, 0], g, None

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, *_, stop = newton_descent(
            _power_terms(data, t_commu), step, p0, 16.0 * np.finfo(float).eps,
            cfg.inner_max_iters, "power-only baseline",
        )
        if stop == "cap":
            raise NoConvergence(f"power-only baseline: Newton exceeded {cfg.inner_max_iters} steps")
        return data.allocation(p, f, r, t_commu)


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
    ``sum_lqr`` bit for bit.  Raises ValueError when the allocation has more
    or fewer loops than the scenario.
    """
    loops = tuple(alloc.loops)
    if len(loops) != scenario.k:
        raise ValueError(f"allocation has {len(loops)} loops, the scenario {scenario.k}")
    p = np.array([max(la.p_w, 0.0) for la in loops])
    f = np.array([la.f_cycles for la in loops])
    r = np.array([la.r_bits for la in loops])
    return LoopData(scenario).true_objective(p, f, r)
