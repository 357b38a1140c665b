"""Independent validators: global grid search, closed-loop Monte Carlo,
and a numerical convexity probe.

The grid search exhausts small instances of the full allocation problem
without touching the solver machinery.  The Monte Carlo simulator runs an
actual quantized control loop; its uniform quantizer is far from an optimal
code, so it validates the direction and floor of the entropy-cost curve,
not its tightness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .compute import min_compute_time_batch, optimal_split
from .control import LN2, LoopControlSpec, riccati_diagonal
from .errors import Infeasible, UnsupportedStructure
from .solver import Allocation, LoopAllocation, LoopData, Scenario

# power rows per block of the grid oracle's streamed (p, (f, r)) costs
GRID_POWER_BLOCK = 8


def grid_search_global(scenario: Scenario, grid_n: int = 60) -> tuple[Allocation, float]:
    """Exhaustive minimum of the allocation problem for one or two loops.

    Grids loop 1's (p, f, r) over the budgets; with two loops the remainder
    of each budget goes to loop 2, since every loop's cost is non-increasing
    in every resource.  Costs use the true minimal computation time.  The
    latency does not depend on the power, so each loop's communication
    window is evaluated once per (f, r) grid point; the costs then stream
    over the power axis ``GRID_POWER_BLOCK`` rows at a time, keeping the
    first minimum in (p, (f, r)) order, p varying slowest.  The result is
    the argmin over the whole outer product, held in O(grid_n**2) memory.
    grid_n must be an integer from 1 to 100.  Raises Infeasible when no
    grid point stabilizes every loop.
    """
    if scenario.k > 2:
        raise ValueError("the grid oracle only handles one or two loops")
    if not (isinstance(grid_n, numbers.Integral) and 1 <= grid_n <= 100):
        raise ValueError("grid_n must be an integer from 1 to 100")
    data = LoopData(scenario)
    b = scenario.budgets
    axis = np.linspace(0.0, 1.0, grid_n + 1)
    fg, rg = (m.ravel() for m in np.meshgrid(axis, axis, indexing="ij"))
    # each loop's power, compute and rate shares of the budgets
    shares = [(axis, fg, rg), (1.0 - axis, 1.0 - fg, 1.0 - rg)][: scenario.k]

    def window(i: int, f, r):
        """Loop i's communication window over the (f, r) points."""
        with np.errstate(all="ignore"):
            return data.t_cycle[i] - min_compute_time_batch(
                f, r, float(data.d_bits[i]), scenario.compute
            )

    def loop_costs(i: int, p, t_commu):
        """Loop i's cost over (p, (f, r)), one row per power."""
        with np.errstate(all="ignore"):
            e = data.bandwidth * t_commu * np.log1p(data.gamma[i] * p)[:, None] / LN2
            good = (t_commu > 0.0) & (e > data.h[i])
            cost = np.full(e.shape, np.inf)
            if good.any():
                w = 2.0 * (e[good] - data.h[i]) / data.n[i]
                cost[good] = data.l_min[i] + data.c[i] / np.expm1(w * LN2)
        return cost

    windows = [
        window(i, sf * b.f_max_cycles, sr * b.r_max_bits) for i, (_, sf, sr) in enumerate(shares)
    ]
    best, objective = 0, math.inf  # stays inf while no point stabilizes every loop
    for start in range(0, axis.size, GRID_POWER_BLOCK):
        rows = slice(start, start + GRID_POWER_BLOCK)
        total = loop_costs(0, axis[rows] * b.p_max_w, windows[0])
        if scenario.k == 2:
            total = total + loop_costs(1, (1.0 - axis[rows]) * b.p_max_w, windows[1])
        j = int(np.argmin(total))
        if total.flat[j] < objective:
            best, objective = start * fg.size + j, float(total.flat[j])
    if objective == math.inf:
        raise Infeasible(f"grid search: no point of the {grid_n}-step grid stabilizes every loop")
    i_p, i_fr = divmod(best, fg.size)
    loops = []
    for i, (sp, sf, sr) in enumerate(shares):
        p_i, f_i, r_i = sp[i_p] * b.p_max_w, sf[i_fr] * b.f_max_cycles, sr[i_fr] * b.r_max_bits
        t_commu = window(i, np.array([f_i]), np.array([r_i]))
        split = None
        if f_i > 0.0 or r_i > 0.0:
            split = optimal_split(f_i, r_i, float(data.d_bits[i]), scenario.compute)
        loops.append(
            LoopAllocation(
                p_w=float(p_i),
                f_cycles=float(f_i),
                r_bits=float(r_i),
                t_commu_s=max(float(t_commu[0]), 0.0),
                lqr_cost=float(loop_costs(i, np.array([p_i]), t_commu)[0, 0]),
                split=split,
            )
        )
    return Allocation(loops=tuple(loops), sum_lqr=objective), objective


@dataclass(frozen=True)
class McResult:
    empirical_cost: float
    diverged: bool
    cycles: int


def monte_carlo_loop(
    loop: LoopControlSpec,
    bits_per_cycle: float,
    n_cycles: int,
    seed: int,
) -> McResult:
    """Empirical LQR cost of a quantized certainty-equivalent control loop.

    Per cycle the noisy state reading is quantized by a uniform mid-rise
    quantizer over an adaptive range [-L, L] and the control is -gain
    times the reconstruction.  The range follows a worst-case containment
    recursion, L <- |a| L / levels + 4 sigma_v, re-inflating whenever a
    reading escapes it; fractional bit budgets time-share neighboring
    power-of-two level counts.  The plant runs one scalar loop per
    dimension with the bit budget split proportionally to each dimension's
    entropy rate, and the cost is the mean squared state summed over the
    dimensions (Q = I, R = 0).  Divergence (state beyond the overflow
    bound) is reported in the result, not raised, and ends the run.

    Results are reproducible from ``seed``: one generator feeds the
    dimensions in order, each taking one block of 1 + per * n_cycles
    standard normals (per = 2 with sensing noise, 1 without).  A block is
    consumed as the initial state, then per cycle the reading noise (when
    sigma_w > 0) followed by the process noise, each scaled by its standard
    deviation, exactly the draws ``rng.normal(0.0, sigma)`` would give one
    at a time.
    """
    if not (math.isfinite(bits_per_cycle) and bits_per_cycle > 0.0):
        raise ValueError("the bit budget must be positive and finite")
    if n_cycles < 1:
        raise ValueError("the run needs at least one cycle")
    n = loop.n
    a_diag, b_diag = loop.a, loop.b
    if np.any(b_diag == 0.0):
        raise UnsupportedStructure("the simulator needs nonzero input gains")

    s = riccati_diagonal(a_diag, b_diag, np.ones(n), 0.0)
    gains = a_diag * b_diag * s / (b_diag * b_diag * s)
    h_dims = np.abs(np.log2(np.abs(a_diag)))
    weights = h_dims / h_dims.sum() if h_dims.sum() > 0 else np.full(n, 1.0 / n)
    rng = np.random.default_rng(seed)
    sigma_v = math.sqrt(loop.sigma_v2)
    sigma_w = math.sqrt(loop.sigma_w2)
    per = 2 if sigma_w > 0.0 else 1
    warmup = max(n_cycles // 10, 1)

    cost_sum = 0.0
    diverged = False
    ran = n_cycles
    overflow = 1e8 * max(sigma_v, 1e-9)

    for dim in range(n):
        a, b = float(a_diag[dim]), float(b_diag[dim])
        abs_a = abs(a)
        gain = float(gains[dim])
        bits = bits_per_cycle * float(weights[dim])
        slack = 4.0 * (sigma_v + abs_a * sigma_w)  # noise allowance per cycle
        span = max(slack, 1e-12)
        z = rng.standard_normal(1 + per * n_cycles)
        x = float(0.0 + sigma_v * z[0])
        process = (0.0 + sigma_v * z[per::per]).tolist()
        reading = (0.0 + sigma_w * z[1::2]).tolist() if per == 2 else None
        credit = 0.0
        dim_cost = 0.0
        dim_cycles = 0
        for t in range(n_cycles):
            credit += bits
            used = math.floor(credit)  # whole bits spent this cycle
            if used > 30:
                used = 30
            credit -= used
            levels = 1 << used
            y = x if reading is None else x + reading[t]
            abs_y = abs(y)
            if abs_y > span:
                span = 1.1 * abs_y  # reading escaped, re-capture it
            if used:
                half = levels >> 1
                delta = 2.0 * span / levels
                idx = math.floor(y / delta)
                if idx < -half:
                    idx = -half
                elif idx >= half:
                    idx = half - 1
                x_hat = (idx + 0.5) * delta
            else:
                x_hat = 0.0
            u = -gain * x_hat
            if t >= warmup:
                dim_cost += x * x
                dim_cycles += 1
            x = a * x + b * u + process[t]
            span = abs_a * span / levels + slack
            if not -overflow <= x <= overflow:
                diverged = True
                ran = min(ran, t + 1)
                break
        if dim_cycles > 0:
            cost_sum += dim_cost / dim_cycles
        if diverged:
            break

    cost = math.inf if diverged else cost_sum
    return McResult(empirical_cost=cost, diverged=diverged, cycles=ran)


@dataclass(frozen=True)
class ProbeReport:
    passed: bool
    violations: int
    samples: int
    max_violation: float


def convexity_probe(fn, box, n_samples: int = 500, seed: int = 0) -> ProbeReport:
    """Random midpoint convexity test of fn over an axis-aligned box.

    Draws point pairs (a, b), checks fn((a+b)/2) <= (fn(a)+fn(b))/2 up to
    1e-9 of the values' scale, and reports violation counts.  Pairs where
    fn is not finite are skipped.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a meaningful probe")
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    rng = np.random.default_rng(seed)
    violations = 0
    tested = 0
    worst = 0.0
    for _ in range(50 * n_samples):  # draw cap for mostly-infeasible boxes
        if tested >= n_samples:
            break
        a = lo + (hi - lo) * rng.random(lo.size)
        c = lo + (hi - lo) * rng.random(lo.size)
        fa, fc = fn(a), fn(c)
        fm = fn(0.5 * (a + c))
        if not all(map(math.isfinite, (fa, fc, fm))):
            continue
        tested += 1
        scale = max(1.0, abs(fa), abs(fc))
        gap = fm - 0.5 * (fa + fc)
        if gap > 1e-9 * scale:
            violations += 1
            worst = max(worst, gap / scale)
    return ProbeReport(
        passed=violations == 0, violations=violations, samples=tested, max_violation=worst
    )
