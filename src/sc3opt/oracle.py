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

# Monte-Carlo plants with at least this many modes step them in numpy
# lockstep, the rest one mode at a time in Python floats
_LOCKSTEP_MODES = 24
# cycles per block of the lockstep's precomputed bit schedule and noise
_LOCKSTEP_BLOCK = 128


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
    if not (isinstance(grid_n, numbers.Integral) and not isinstance(grid_n, bool) and 1 <= grid_n <= 100):
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
    power-of-two level counts.  Each plant mode is its own scalar loop with
    the bit budget split proportionally to each mode's entropy rate, and
    the cost is the mean squared state summed over the modes (Q = I,
    R = 0).  Divergence (state beyond the overflow bound) is reported in
    the result, not raised, and ends the run; the cycle count it reports
    is that of the lowest-index mode that diverges at all.

    Plants with fewer than ``_LOCKSTEP_MODES`` modes step one mode at a
    time in Python floats.  Larger plants step all modes together, one
    numpy row per cycle, in blocks of ``_LOCKSTEP_BLOCK`` cycles.  Both
    steppings do the same float operations per mode and give the same
    result bit for bit.

    Results are reproducible from ``seed``: one generator feeds the modes
    in order, each taking one block of 1 + per * n_cycles standard normals
    (per = 2 with sensing noise, 1 without).  A block is consumed as the
    initial state, then per cycle the reading noise (when sigma_w > 0)
    followed by the process noise, each scaled by its standard deviation,
    exactly the draws ``rng.normal(0.0, sigma)`` would give one at a time.
    """
    if not (math.isfinite(bits_per_cycle) and bits_per_cycle > 0.0):
        raise ValueError("the bit budget must be positive and finite")
    if not (isinstance(n_cycles, numbers.Integral) and not isinstance(n_cycles, bool) and n_cycles >= 1):
        raise ValueError("the run needs an integer number of cycles, at least one")
    n = loop.n
    a_diag, b_diag = loop.a, loop.b
    if np.any(b_diag == 0.0):
        raise UnsupportedStructure("the simulator needs nonzero input gains")
    if np.any(a_diag == 0.0):
        raise ValueError("the simulator splits bits by log2|a|, so every mode needs a != 0")

    s = riccati_diagonal(a_diag, b_diag, np.ones(n), 0.0)
    gains = a_diag * b_diag * s / (b_diag * b_diag * s)
    h_dims = np.abs(np.log2(np.abs(a_diag)))
    weights = h_dims / h_dims.sum() if h_dims.sum() > 0 else np.full(n, 1.0 / n)
    bits = bits_per_cycle * weights
    rng = np.random.default_rng(seed)
    sigma_v = math.sqrt(loop.sigma_v2)
    sigma_w = math.sqrt(loop.sigma_w2)
    slack = 4.0 * (sigma_v + np.abs(a_diag) * sigma_w)  # noise allowance per cycle
    per = 2 if sigma_w > 0.0 else 1
    warmup = max(n_cycles // 10, 1)
    overflow = 1e8 * max(sigma_v, 1e-9)
    if n >= _LOCKSTEP_MODES:
        noise = rng.standard_normal((n, 1 + per * n_cycles))
        return _lockstep(
            a_diag, b_diag, gains, bits, slack, noise, sigma_v, sigma_w, n_cycles, warmup, overflow
        )

    cost_sum = 0.0
    diverged = False
    ran = n_cycles

    for dim in range(n):
        a, b = float(a_diag[dim]), float(b_diag[dim])
        abs_a = abs(a)
        gain = float(gains[dim])
        dim_bits = float(bits[dim])
        dim_slack = float(slack[dim])
        span = max(dim_slack, 1e-12)
        z = rng.standard_normal(1 + per * n_cycles)
        x = float(0.0 + sigma_v * z[0])
        process = (0.0 + sigma_v * z[per::per]).tolist()
        reading = (0.0 + sigma_w * z[1::2]).tolist() if per == 2 else None
        credit = 0.0
        dim_cost = 0.0
        dim_cycles = 0
        for t in range(n_cycles):
            credit += dim_bits
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
            span = abs_a * span / levels + dim_slack
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


def _lockstep(a, b, gains, bits, slack, noise, sigma_v, sigma_w, n_cycles, warmup, overflow) -> McResult:
    """``monte_carlo_loop``'s modes stepped together, one row per cycle.

    ``noise`` holds each mode's standard normals as one row.  Every block
    of cycles first runs the bit credit forward and builds its power-of-two
    factors with ``ldexp``: span times 2 / levels and span times
    |a| / levels round exactly as the scalar loop's 2 span / levels and
    |a| span / levels, short of overflow or underflow.  A cycle that spends
    no bit clamps floor(y / delta) to -1/2, so the reconstruction
    (index + 1/2) delta is 0 as in the scalar loop.  The squared states are
    summed over time by ``cumsum``, in the scalar loop's order.  After each
    block the lowest-index mode that diverged in it sets the cycle count
    and is dropped with every mode after it; the modes before it run on,
    since one of them may still diverge later and then sets the count.
    """
    per = 2 if sigma_w > 0.0 else 1
    neg_gain, abs_a = -gains, np.abs(a)
    x = 0.0 + sigma_v * noise[:, 0]
    span = np.maximum(slack, 1e-12)
    credit = np.zeros(x.size)
    cost = np.zeros(x.size)  # each mode's sum of x * x from the warm-up on
    ran = 0  # cycle count of the lowest-index mode diverged so far

    def scaled(first, sigma, size):
        """Rows of size cycles, each holding every mode's noise sample
        from columns first, first + per, ...; C-ordered for the steps."""
        out = np.empty((size, x.size))
        np.multiply(noise[:, first : first + per * size : per].T, sigma, out)
        out += 0.0
        return out

    with np.errstate(all="ignore"):  # diverging modes overflow
        for t0 in range(0, n_cycles, _LOCKSTEP_BLOCK):
            size, m = min(_LOCKSTEP_BLOCK, n_cycles - t0), x.size
            # constants as rows: a Python float argument makes each ufunc
            # call about a third slower
            most, half, recapture = np.full(m, 30.0), np.full(m, 0.5), np.full(m, 1.1)
            used = np.empty((size, m))
            for row in used:
                np.add(credit, bits, credit)
                np.floor(credit, row)
                np.minimum(row, most, out=row)
                np.subtract(credit, row, credit)
            e = used.astype(np.intp)
            two_over_levels = np.ldexp(2.0, -e)
            a_over_levels = np.ldexp(abs_a, -e)
            hi = np.ldexp(0.5, e)  # half the levels; 1/2 when no bit is spent
            lo = -hi
            hi -= 1.0
            process = scaled(per * (t0 + 1), sigma_v, size)
            reading = scaled(1 + 2 * t0, sigma_w, size) if per == 2 else [None] * size
            states = np.empty((size + 1, m))
            states[0] = x
            y, ay, delta, q = (np.empty(m) for _ in range(4))
            escaped = np.empty(m, dtype=bool)
            for x_t, x_next, v, w, two, shrink, lo_t, hi_t in zip(
                states[:-1], states[1:], process, reading, two_over_levels, a_over_levels, lo, hi
            ):
                if w is None:
                    y = x_t
                else:
                    np.add(x_t, w, y)
                np.abs(y, ay)
                np.greater(ay, span, escaped)
                np.multiply(ay, recapture, span, where=escaped)
                np.multiply(span, two, delta)
                np.divide(y, delta, q)
                np.floor(q, q)
                np.maximum(q, lo_t, out=q)
                np.minimum(q, hi_t, out=q)
                np.add(q, half, q)
                np.multiply(q, delta, q)  # x_hat
                np.multiply(q, neg_gain, q)  # u
                np.multiply(q, b, q)
                np.multiply(x_t, a, x_next)
                np.add(x_next, q, x_next)
                np.add(x_next, v, x_next)
                np.multiply(span, shrink, span)
                np.add(span, slack, span)
            counted = states[max(warmup - t0, 0) : size]
            if counted.size:
                squares = np.square(counted)
                squares[0] += cost
                cost = np.cumsum(squares, axis=0)[-1]
            beyond = ~(np.abs(states[1:]) <= overflow)  # NaN counts as beyond
            hit = beyond.any(axis=0)
            x = states[size].copy()
            if hit.any():
                k = int(hit.argmax())
                ran = t0 + int(beyond[:, k].argmax()) + 1
                if k == 0:
                    break
                a, b, abs_a, neg_gain, bits, slack, noise = (
                    v[:k] for v in (a, b, abs_a, neg_gain, bits, slack, noise)
                )
                x, span, credit, cost = x[:k].copy(), span[:k].copy(), credit[:k].copy(), cost[:k]
    if ran:
        return McResult(empirical_cost=math.inf, diverged=True, cycles=ran)
    cost_sum = 0.0
    counted_cycles = n_cycles - warmup
    if counted_cycles > 0:
        for mode_cost in cost.tolist():
            cost_sum += mode_cost / counted_cycles
    return McResult(empirical_cost=cost_sum, diverged=False, cycles=n_cycles)


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
