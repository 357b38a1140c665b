"""Independent validators: global grid search, closed-loop Monte Carlo,
and a numerical convexity probe.

The grid search exhausts small instances of the full allocation problem.
It scores and assembles allocations through ``LoopData``, the solver's
evaluator, but shares none of the solver's optimizer.  The Monte Carlo
simulator runs an actual quantized control loop; its uniform quantizer is
far from an optimal code, so it validates the direction and floor of the
entropy-cost curve, not its tightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .compute import is_int, min_compute_time_batch
from .control import LoopControlSpec
from .errors import Infeasible, UnsupportedStructure
from .solver import Allocation, LoopData, Scenario

# power rows per block of the grid oracle's streamed (p, (f, r)) costs
GRID_POWER_BLOCK = 8

# Monte-Carlo plants with at least this many modes step them in numpy
# lockstep, the rest one mode at a time in Python floats
_LOCKSTEP_MODES = 24
# cycles per block of the lockstep's precomputed bit schedule and noise
_LOCKSTEP_BLOCK = 128


def _check_seed(seed) -> None:
    if not is_int(seed):
        raise ValueError("the seed must be an integer, for reproducible draws")


def grid_search_global(scenario: Scenario, grid_n: int = 60) -> tuple[Allocation, float]:
    """Exhaustive minimum of the allocation problem for one or two loops.

    Grids loop 1's (p, f, r) over the budgets; with two loops the remainder
    of each budget goes to loop 2, since every loop's cost is non-increasing
    in every resource.  Costs use the true minimal computation time.  The
    latency does not depend on the power, so each loop's communication
    window is evaluated once per (f, r) grid point; the costs then stream
    over the power axis ``GRID_POWER_BLOCK`` rows at a time, keeping the
    first minimum in (p, (f, r)) order, p varying slowest.  Each loop is
    scored by ``LoopData.costs`` on a single-loop view, whose (1,)-shaped
    constants broadcast over a block, and the argmin is assembled by
    ``LoopData.allocation``.  The search holds O(grid_n**2) memory.
    grid_n must be an integer from 1 to 100.  Raises Infeasible when no
    grid point stabilizes every loop.
    """
    if scenario.k > 2:
        raise ValueError("the grid oracle only handles one or two loops")
    if not (is_int(grid_n) and 1 <= grid_n <= 100):
        raise ValueError("grid_n must be an integer from 1 to 100")
    b = scenario.budgets
    axis = np.linspace(0.0, 1.0, grid_n + 1)
    fg, rg = (m.ravel() for m in np.meshgrid(axis, axis, indexing="ij"))
    # each loop's power, compute and rate shares of the budgets
    shares = [(axis, fg, rg), (1.0 - axis, 1.0 - fg, 1.0 - rg)][: scenario.k]
    views = [LoopData(replace(scenario, loops=(loop,))) for loop in scenario.loops]
    with np.errstate(all="ignore"):
        windows = [
            view.t_cycle
            - min_compute_time_batch(sf * b.f_max_cycles, sr * b.r_max_bits, float(view.d_bits[0]), scenario.compute)
            for view, (_, sf, sr) in zip(views, shares)
        ]
    best, objective = 0, math.inf  # stays inf while no point stabilizes every loop
    for start in range(0, axis.size, GRID_POWER_BLOCK):
        rows = slice(start, start + GRID_POWER_BLOCK)
        first, *rest = (
            view.costs(sp[rows, None] * b.p_max_w, window)
            for view, (sp, _, _), window in zip(views, shares, windows)
        )
        total = sum(rest, first)  # from 0, sum adds one more block-sized array
        j = int(np.argmin(total))
        if total.flat[j] < objective:
            best, objective = start * fg.size + j, float(total.flat[j])
    if objective == math.inf:
        raise Infeasible(f"grid search: no point of the {grid_n}-step grid stabilizes every loop")
    i_p, i_fr = divmod(best, fg.size)
    data = LoopData(scenario)
    picked = np.array([(sp[i_p], sf[i_fr], sr[i_fr]) for sp, sf, sr in shares]).T
    return data.allocation(*picked * data.budget_col), objective


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
    quantizer over an adaptive range [-L, L] and the control is the
    deadbeat gain -a / b times the reconstruction.  The range follows a
    worst-case containment recursion, L <- |a| L / levels + 4 sigma_v,
    re-inflating whenever a reading escapes it; fractional bit budgets
    time-share neighboring power-of-two level counts, at most 30 bits a
    cycle.  Each plant mode is its own scalar loop with
    the bit budget split proportionally to each mode's entropy rate, and
    the cost is the mean squared state summed over the modes (Q = I,
    R = 0).  Divergence (state beyond the overflow bound) is reported in
    the result, not raised, and ends the run; the cycle count it reports
    is that of the lowest-index mode that diverges at all.

    Plants with fewer than ``_LOCKSTEP_MODES`` modes step one mode at a
    time in Python floats.  Larger plants step all modes together, one
    numpy row per cycle, in blocks of ``_LOCKSTEP_BLOCK`` cycles; but when
    mode 0's share is below its own rate log2|a_0|, which no quantizer can
    hold, mode 0 first steps alone as in the scalar loop, and its
    divergence ends the run before the other modes' noise is drawn.  All
    steppings do the same float operations per mode and give the same
    result bit for bit.

    Results are reproducible from the integer ``seed``: one generator feeds
    the modes in order, each taking one block of 1 + per * n_cycles standard
    normals (per = 2 with sensing noise, 1 without).  A block is consumed as
    the initial state, then per cycle the reading noise (when sigma_w > 0)
    followed by the process noise, each scaled by its standard deviation,
    exactly the draws ``rng.normal(0.0, sigma)`` would give one at a time.
    """
    if not (math.isfinite(bits_per_cycle) and bits_per_cycle > 0.0):
        raise ValueError("the bit budget must be positive and finite")
    if not (is_int(n_cycles) and n_cycles >= 1):
        raise ValueError("the run needs an integer number of cycles, at least one")
    _check_seed(seed)
    n = loop.n
    a_diag, b_diag = loop.a, loop.b
    if np.any(b_diag == 0.0):
        raise UnsupportedStructure("the simulator needs nonzero input gains")
    if np.any(a_diag == 0.0):
        raise ValueError("the simulator splits bits by log2|a|, so every mode needs a != 0")

    gains = a_diag / b_diag
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

    modes = (a_diag, b_diag, gains, bits, slack)
    cost_sum = 0.0
    # modes stepped alone: all of a small plant; of a large one, mode 0 when
    # its share is below its rate, as its divergence then settles the run
    alone = n if n < _LOCKSTEP_MODES else int(bits[0] < math.log2(abs(a_diag[0])))
    for dim in range(alone):
        z = rng.standard_normal(1 + per * n_cycles)
        term, ran = _step_alone(*(float(v[dim]) for v in modes), z, sigma_v, sigma_w, n_cycles, warmup, overflow)
        if ran:
            return McResult(empirical_cost=math.inf, diverged=True, cycles=ran)
        cost_sum += term
    if alone == n:
        return McResult(empirical_cost=cost_sum, diverged=False, cycles=n_cycles)
    noise = rng.standard_normal((n - alone, 1 + per * n_cycles))
    return _lockstep(*(v[alone:] for v in modes), noise, sigma_v, sigma_w, n_cycles, warmup, overflow, cost_sum)


def _step_alone(a, b, gain, bits, slack, z, sigma_v, sigma_w, n_cycles, warmup, overflow) -> tuple[float, int]:
    """One ``monte_carlo_loop`` mode stepped in Python floats on its block
    ``z`` of standard normals.  Returns the mode's mean squared state from
    the warm-up on (0.0 when no cycle counts) and 0, or inf and the cycle
    at which the state left the overflow bound."""
    per = 2 if sigma_w > 0.0 else 1
    abs_a = abs(a)
    span = max(slack, 1e-12)
    x = float(0.0 + sigma_v * z[0])
    process = (0.0 + sigma_v * z[per::per]).tolist()
    reading = (0.0 + sigma_w * z[1::2]).tolist() if per == 2 else None
    credit = 0.0
    cost = 0.0
    counted = 0
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
            cost += x * x
            counted += 1
        x = a * x + b * u + process[t]
        span = abs_a * span / levels + slack
        if not -overflow <= x <= overflow:
            return math.inf, t + 1
    return (cost / counted if counted else 0.0), 0


def _lockstep(a, b, gains, bits, slack, noise, sigma_v, sigma_w, n_cycles, warmup, overflow, cost_sum) -> McResult:
    """``monte_carlo_loop``'s modes stepped together, one row per cycle,
    their mean squared states added to ``cost_sum``.

    ``noise`` holds each mode's standard normals as one row.  Every block
    of cycles first runs the bit credit forward and builds its power-of-two
    factors with ``ldexp``: span times 2 / levels and span times
    |a| / levels round exactly as the scalar loop's 2 span / levels and
    |a| span / levels, short of overflow or underflow.  Shares are clipped
    to 30 bits first: a larger share spends exactly 30 bits every cycle,
    since its credit only grows, and a smaller one never reaches the cap,
    since its credit stays below 1.  A cycle
    that spends no bit clamps floor(y / delta) to -1/2, so the
    reconstruction (index + 1/2) delta is 0 as in the scalar loop.

    The state and the range advance as one stacked (2, modes) row:
    (x, span) times (a, |a| / levels), plus (b u, slack); the process noise
    is then added to the x row, the scalar loop's operations in its order.
    The squared states are summed over time by ``cumsum``, in the
    scalar loop's order.  After each block the lowest-index mode that
    diverged in it sets the cycle count and is dropped with every mode
    after it; the modes before it run on, since one of them may still
    diverge later and then sets the count.
    """
    per = 2 if sigma_w > 0.0 else 1
    neg_gain, abs_a = -gains, np.abs(a)
    bits = np.minimum(bits, 30.0)
    state = np.stack([0.0 + sigma_v * noise[:, 0], np.maximum(slack, 1e-12)])  # rows x, span
    credit = np.zeros(a.size)
    cost = np.zeros(a.size)  # each mode's sum of x * x from the warm-up on
    ran = 0  # cycle count of the lowest-index mode diverged so far

    def scaled(first, sigma, out):
        """Fill out's rows, one per cycle, with every mode's noise sample
        from columns first, first + per, ..., times sigma."""
        np.multiply(noise[:, first : first + per * len(out) : per].T, sigma, out)
        out += 0.0

    with np.errstate(all="ignore"):  # diverging modes overflow
        for t0 in range(0, n_cycles, _LOCKSTEP_BLOCK):
            size, m = min(_LOCKSTEP_BLOCK, n_cycles - t0), a.size
            # constants as rows: a Python float argument makes each ufunc
            # call about a third slower
            half, recapture = np.full(m, 0.5), np.full(m, 1.1)
            used = np.empty((size, m))
            for row in used:
                np.add(credit, bits, credit)
                np.modf(credit, credit, row)  # the credit left, whole bits spent
            e = used.astype(np.intp)
            two_over_levels = np.ldexp(2.0, -e)
            factors = np.empty((size, 2, m))  # rows a, |a| / levels
            factors[:, 0] = a
            np.ldexp(abs_a, -e, out=factors[:, 1])
            hi = np.ldexp(0.5, e)  # half the levels; 1/2 when no bit is spent
            lo = -hi
            hi -= 1.0
            process = np.empty((size, m))
            scaled(per * (t0 + 1), sigma_v, process)
            if per == 2:
                reading = np.empty((size, m))
                scaled(1 + 2 * t0, sigma_w, reading)
            else:
                reading = [None] * size
            pushes = np.empty((2, m))  # rows b u, slack
            pushes[1] = slack
            bu = pushes[0]
            states = np.empty((size + 1, 2, m))
            states[0] = state
            y, ay, delta, q = (np.empty(m) for _ in range(4))
            escaped = np.empty(m, dtype=bool)
            rows = (states[:-1], states[:-1, 0], states[:-1, 1], states[1:], states[1:, 0])
            for st, x_t, span, nxt, x_next, w, v, two, factor, lo_t, hi_t in zip(
                *rows, reading, process, two_over_levels, factors, lo, hi
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
                np.multiply(q, b, bu)
                np.multiply(st, factor, nxt)
                np.add(nxt, pushes, nxt)
                np.add(x_next, v, x_next)
            xs = states[:, 0]
            counted = xs[max(warmup - t0, 0) : size]
            if counted.size:
                squares = np.square(counted)
                squares[0] += cost
                cost = np.cumsum(squares, axis=0)[-1]
            beyond = ~(np.abs(xs[1:]) <= overflow)  # NaN counts as beyond
            hit = beyond.any(axis=0)
            state = states[size]
            if hit.any():
                k = int(hit.argmax())
                ran = t0 + int(beyond[:, k].argmax()) + 1
                if k == 0:
                    break
                a, b, abs_a, neg_gain, bits, slack, noise = (
                    v[:k] for v in (a, b, abs_a, neg_gain, bits, slack, noise)
                )
                state, credit, cost = state[:, :k], credit[:k].copy(), cost[:k]
    if ran:
        return McResult(empirical_cost=math.inf, diverged=True, cycles=ran)
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

    ``box`` is a (dim, 2) array of finite (lo, hi) bounds, lo <= hi.  The
    probe draws point pairs (a, b) uniformly from it, checks
    fn((a+b)/2) <= (fn(a)+fn(b))/2 up to 1e-9 of the values' scale, and
    reports violation counts.  Pairs where fn is not finite are skipped; the
    probe stops after ``n_samples`` (an integer, at least 100) tested pairs
    or 50 * n_samples drawn ones, and fails when it tested none.  Pairs are
    drawn in blocks by ``rng.random((size, 2, dim))``, the same stream as
    one ``rng.random(dim)`` per point, so results are reproducible from the
    integer ``seed``.
    """
    if not (is_int(n_samples) and n_samples >= 100):
        raise ValueError("need an integer of at least 100 samples for a meaningful probe")
    _check_seed(seed)
    try:
        box = np.asarray(box, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("the box must be a (dim, 2) array of bounds") from exc
    if not (box.ndim == 2 and box.shape[0] >= 1 and box.shape[1] == 2):
        raise ValueError("the box must be a (dim, 2) array of bounds")
    lo, hi = box[:, 0], box[:, 1]
    if not (np.isfinite(box).all() and (lo <= hi).all()):
        raise ValueError("the box bounds must be finite, with lo <= hi")
    width = hi - lo
    rng = np.random.default_rng(seed)
    isfinite = math.isfinite
    violations = tested = drawn = 0
    worst = 0.0
    cap = 50 * n_samples  # draw cap for mostly-infeasible boxes
    while tested < n_samples and drawn < cap:
        # a block never tests more pairs than the probe still needs
        size = min(n_samples - tested, cap - drawn)
        drawn += size
        ends = lo + width * rng.random((size, 2, lo.size))
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        for a, c, mid in zip(ends[:, 0], ends[:, 1], mids):
            fa, fc = fn(a), fn(c)
            fm = fn(mid)
            if not (isfinite(fa) and isfinite(fc) and isfinite(fm)):
                continue
            tested += 1
            scale = max(1.0, abs(fa), abs(fc))
            gap = fm - 0.5 * (fa + fc)
            if gap > 1e-9 * scale:
                violations += 1
                worst = max(worst, gap / scale)
    return ProbeReport(
        passed=tested > 0 and violations == 0, violations=violations, samples=tested, max_violation=worst
    )
