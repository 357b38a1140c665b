"""Comparison schemes and a shared allocation evaluator.

``power_only_closed_loop`` keeps the equal compute/backhaul split and only
optimizes transmit power for the sum cost, by damped Newton on the KKT
system of its one budget constraint.  ``communication_oriented`` ignores
control altogether: it splits compute to minimize total computation time,
by projected-gradient steps in the same ``newton_descent`` loop, and
water-fills power for throughput, so at low power budgets distant loops
routinely end up unstabilizable.
"""

from __future__ import annotations

import math

import numpy as np

# classify_region, min_compute_time and optimal_split are not called here any
# more; they stay attributes of this module because bench/tracer.py wraps them
# by module and name
from .compute import classify_region, min_compute_time, min_compute_time_grad, optimal_split  # noqa: F401
from .errors import NoConvergence
from .optim import newton_descent, newton_kkt_step, project_budget_simplex
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

    Stops at a decrement of 16 eps |sum|: the last full step then moves
    the sum only by rounding but squares the KKT residual, so the relative
    prox residual, max |x - project_budget_simplex(x - g / |sum|, 1)| in
    normalized power x, ends far below 1e-7.  Reads only
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


def _projected_gradient_step():
    """A ``newton_descent`` step on {x >= 0, sum(x) <= 1}: the spectral
    projected-gradient move project_budget_simplex(x - s g, 1) - x, with
    the gradient g as its KKT residual, so the Newton decrement is the
    Armijo slope -g . dx.  Its terms are a zero-argument function that
    builds g from its evaluation's intermediates; the step calls it, so
    only at the start point and at accepted points.  The Barzilai-Borwein scale s starts
    at 1 and is set from the last accepted move, s.s / s.y (doubled when
    s.y is not positive), within [1e-9, 1e10]; the closure keeps it between
    steps, so each descent takes a fresh step function."""
    scale, last = 1.0, None

    def step(x, gradient):
        nonlocal scale, last
        g = gradient()
        if last is not None:
            s_vec, y_vec = x - last[0], g - last[1]
            sy = float(s_vec @ y_vec)
            scale = min(float(s_vec @ s_vec) / sy if sy > 1e-300 else scale * 2.0, 1e10)
            scale = max(scale, 1e-9)  # below this the move is rounding noise
        last = x, g
        dx = project_budget_simplex(x - scale * g, 1.0) - x
        # in exact arithmetic the move descends unless it is zero, so one that does not is rounding
        return (dx if g @ dx < 0.0 else np.zeros_like(x)), g, g, None

    return step


def communication_oriented(scenario: Scenario, config: SolverConfig | None = None) -> Allocation:
    """Equal backhaul split, compute minimizing total computation time,
    power water-filled for throughput; loop costs evaluated afterwards.

    The split, not convex, descends from the equal split by
    ``newton_descent`` with ``_projected_gradient_step`` at a decrement of
    16 eps |total|, as the power-only baseline stops, and takes the point
    the descent returns however it stops; generated loops, carrying equal
    data, keep the equal split.  Reads only ``config.inner_max_iters``.
    Loops whose delivered entropy falls at or below their intrinsic rate
    come out with an infinite cost rather than an error.
    """
    cfg = config or SolverConfig()
    data = LoopData(scenario)
    k = data.k
    b = scenario.budgets
    r = np.full(k, b.r_max_bits / k)

    def total_time(x):
        f = x * b.f_max_cycles
        gradient = lambda: min_compute_time_grad(f, r, data.d_bits, scenario.compute)[1] * b.f_max_cycles  # noqa: E731
        return float(data.true_min_times(f, r).sum()), gradient

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = newton_descent(
            total_time, _projected_gradient_step(), np.full(k, 1.0 / k), 16.0 * np.finfo(float).eps,
            cfg.inner_max_iters, "compute split",
        )[0]
    p = water_filling(data.gamma, b.p_max_w)
    return data.allocation(p, x * b.f_max_cycles, r)


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
