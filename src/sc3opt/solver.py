"""Joint power / compute / backhaul allocation minimizing the sum LQR cost.

The full problem couples K loops only through three budget constraints, but
is non-convex through the minimal-computation-time surface.  Each outer
iteration replaces that surface with its convex majorant anchored at the
previous solution and solves the resulting convex problem.  Two variables
are eliminated first because their constraints are tight at any optimum:
the communication window equals the cycle time minus the (surrogate)
computation time, and each loop's cost is the best cost its delivered
entropy allows.  What remains is a convex objective over the product of
three capped simplexes, separable by loop: each loop's (p, f, r) enters
only its own cost, so its curvature is one 3 x 3 block per loop and the
loops meet only in the three budget rows.  Damped Newton solves its KKT
system (``newton_kkt_step``), with the majorant's S1/S2 kink held as a
per-loop active-set equality.  The outer objective never increases
because each majorant touches the true latency at its anchor.  After each
such majorize-minimize (MM) step the outer loop extrapolates along it,
keeping a longer step only while the true objective keeps falling; the
stop rule still judges the plain MM step.

Decision variables are normalized by their budgets before optimization;
resources here span ten orders of magnitude and raw gradients would be
hopelessly ill-conditioned.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .channel import LinkParams, channel_gain, delivered_entropy, required_power
from .compute import ComputeParams, RegionLabel, is_int, min_compute_time, optimal_split, realized_latency
from .control import LN2, EntropyParams, LoopControlSpec, cost_curve
from .errors import Infeasible, InfeasibleSubproblem, NoFeasibleFlow
from .optim import kink_step, newton_descent, project_budget_simplex
from .surrogate import MajorantCoefficients, surrogate_batch

# anchors with a dead component are pushed up to this fraction of the budget
ANCHOR_FLOOR = 1e-6

# steps after which a newton_descent run (inner solves, both baselines) stops: "cap"
INNER_MAX_STEPS = 100_000
# extrapolation trials per outer round, at 1, 2, 4, ... MM steps beyond the MM point
_EXTRAPOLATION_TRIALS = 8
# MM points spend a budget only to within rounding: a normalized block sum
# this far above 1 still counts as inside
BUDGET_SLACK = 1e-9


def within_budget(values, k: int, budget: float, what: str) -> np.ndarray:
    """values as an array of k finite, nonnegative entries summing to at
    most budget, up to BUDGET_SLACK of it; anything else raises ValueError
    naming what."""
    v = np.asarray(values, dtype=float)
    if v.shape != (k,):
        raise ValueError(f"{what} needs {k} entries, one per loop")
    if not (np.isfinite(v).all() and v.min() >= 0.0):
        raise ValueError(f"{what} entries must be finite and nonnegative")
    if v.sum() > budget * (1.0 + BUDGET_SLACK):
        raise ValueError(f"{what} exceeds its budget")
    return v


@dataclass(frozen=True)
class Budgets:
    """Shared resource totals: transmit power (W), hub compute (cycles/s),
    satellite backhaul (bits/s)."""

    p_max_w: float
    f_max_cycles: float
    r_max_bits: float

    def __post_init__(self):
        values = (self.p_max_w, self.f_max_cycles, self.r_max_bits)
        if not all(map(math.isfinite, values)):
            raise ValueError("budgets must be finite")
        if min(values) <= 0.0:
            raise ValueError("all budgets must be positive")


@dataclass(frozen=True)
class Loop:
    """One sensing-computing-communication-control loop."""

    entropy: EntropyParams
    data_bits: float
    cycle_seconds: float
    distance_m: float
    control: LoopControlSpec | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.data_bits, self.cycle_seconds, self.distance_m))):
            raise ValueError("loop sizes, cycle time and distance must be finite")
        if self.data_bits <= 0.0 or self.cycle_seconds <= 0.0 or self.distance_m <= 0.0:
            raise ValueError("loop sizes, cycle time and distance must be positive")
        if self.control is not None and self.control.n != self.entropy.n:
            raise ValueError(
                f"control plant has {self.control.n} modes, entropy constants are for {self.entropy.n}"
            )


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: loops, shared model constants and budgets."""

    loops: tuple[Loop, ...]
    compute: ComputeParams
    link: LinkParams
    budgets: Budgets

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        if len(self.loops) < 1:
            raise ValueError("a scenario needs at least one loop")

    @property
    def k(self) -> int:
        return len(self.loops)


@dataclass(frozen=True)
class SolverConfig:
    """epsilon stops ``sca_solve``'s outer loop on relative objective
    decrease, max_outer_iters caps its rounds.  No solve reads the constant
    inner_tol: the residual above which an inner solve counts as stalled."""

    epsilon: float = 5e-5
    max_outer_iters: int = 30
    inner_tol: ClassVar[float] = 1e-7

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be finite and positive")
        if not (is_int(self.max_outer_iters) and self.max_outer_iters >= 1):
            raise ValueError("the round budget must be a positive integer")


@dataclass(frozen=True)
class LoopAllocation:
    p_w: float
    f_cycles: float
    r_bits: float
    t_commu_s: float
    lqr_cost: float


@dataclass(frozen=True)
class Allocation:
    # a tuple of LoopAllocation, or a LoopTable that reads as one
    loops: tuple[LoopAllocation, ...]
    sum_lqr: float


class LoopTable(Sequence):
    """The loops of a computed allocation, stored as columns.

    Reads as the tuple of ``LoopAllocation`` it stands for (indexing,
    iteration, slicing to a tuple, comparison, ``repr``), building each
    loop when asked for.  A loop held as objects takes about 240 bytes,
    five Python floats and an instance; as a column entry it takes 40.
    Iterate once where a loop is read more than once.
    """

    __slots__ = ("_cols",)

    def __init__(self, p, f, r, t_commu, lqr):
        self._cols = np.stack([p, f, r, t_commu, lqr])

    def __len__(self) -> int:
        return self._cols.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return LoopAllocation(*self._cols[:, i].tolist())

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, LoopTable) else other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, slots=True)
class IterationRecord:
    objective: float
    # each loop's anchor (f0, r0) as float64 pairs, packed: a trace holds
    # one set per round, and Python floats in tuples take five times the
    # room (``anchors`` unpacks them)
    anchor_bits: bytes
    # Newton steps of the round's inner solve (0: no inner solve)
    inner_iterations: int
    # relative prox residual of the inner problem at the round's MM point,
    # max |x - project_budget_simplex(x - g / |value|, 1)| over the
    # normalized blocks (nan: no inner solve)
    inner_residual: float
    # accepted multiple of the round's majorize-minimize step (1.0: the MM point, 0.0: the init kept)
    step_scale: float = 1.0
    # surrogate_batch calls in the round's inner solve (0: no inner solve)
    inner_evaluations: int = 0
    # why the inner solve stopped, as ``newton_descent`` reports it: "kkt",
    # "stall" or "cap" (INNER_MAX_STEPS steps); None: no inner solve
    inner_stop: str | None = None

    @property
    def anchors(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, np.frombuffer(self.anchor_bits).reshape(-1, 2).tolist()))


@dataclass(frozen=True)
class SolveTrace:
    iterations: tuple[IterationRecord, ...]
    converged: bool
    epsilon: float

    @property
    def objectives(self) -> list[float]:
        return [rec.objective for rec in self.iterations]


@dataclass(frozen=True)
class AllocationReport:
    """Constraint slacks of an allocation, all normalized; negative beyond
    -1e-6 counts as a violation (the entropy slack holds it: below zero)."""

    ok: bool
    violations: tuple[str, ...]
    slacks: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# per-scenario arrays


class LoopData:
    """Scenario constants flattened into per-loop numpy arrays."""

    def __init__(self, scenario: Scenario):
        loops = scenario.loops
        link = scenario.link
        self.scenario = scenario
        self.k = len(loops)
        self.bandwidth = link.bandwidth_hz
        self.gamma = np.array(
            [channel_gain(lp.distance_m, link) / link.noise_power_w for lp in loops]
        )
        self.h = np.array([lp.entropy.h for lp in loops])
        self.n = np.array([float(lp.entropy.n) for lp in loops])
        self.c = np.array([lp.entropy.c for lp in loops])
        self.l_min = np.array([lp.entropy.l_min for lp in loops])
        self.d_bits = np.array([lp.data_bits for lp in loops])
        self.t_cycle = np.array([lp.cycle_seconds for lp in loops])
        b = scenario.budgets
        # x.reshape(3, k) * budget_col turns normalized x into rows p, f, r
        self.budget_col = np.array([[b.p_max_w], [b.f_max_cycles], [b.r_max_bits]])

    def lqr_terms(self, e: np.ndarray):
        """Per-loop ``cost_curve`` at delivered entropy e (> h)."""
        return cost_curve(e, self.h, self.n, self.l_min, self.c)

    def entropy_terms(self, p: np.ndarray, t_commu: np.ndarray):
        """Per-loop ``delivered_entropy`` at power p in window t_commu."""
        return delivered_entropy(p, self.gamma, self.bandwidth * t_commu)

    def true_min_times(self, f: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Per-loop ``min_compute_time``; infinite for a loop with neither
        compute nor backhaul, as ``min_compute_time_batch`` gives there."""
        compute = self.scenario.compute
        return np.array(
            [
                math.inf if fi == 0.0 and ri == 0.0 else min_compute_time(fi, ri, di, compute)
                for fi, ri, di in zip(f.tolist(), r.tolist(), self.d_bits.tolist())
            ]
        )

    def costs(self, p: np.ndarray, t_commu: np.ndarray) -> np.ndarray:
        """Per-loop cost at power p and communication window t_commu;
        infinite for a loop whose entropy does not exceed its intrinsic rate."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = self.entropy_terms(p, t_commu)[0]
            l = self.lqr_terms(e)[0]
        return np.where((t_commu > 0.0) & (e > self.h), l, math.inf)

    def true_objective(self, p: np.ndarray, f: np.ndarray, r: np.ndarray) -> float:
        """Sum cost with every window tight against the true minimal
        computation time; ``allocation`` reports the same sum bit for bit."""
        return float(self.costs(p, self.t_cycle - self.true_min_times(f, r)).sum())

    def allocation(self, p, f, r, t_commu: np.ndarray | None = None) -> Allocation:
        """Allocation of (p, f, r) with windows t_commu, by default tight
        against the true minimal computation time."""
        if t_commu is None:
            t_commu = self.t_cycle - self.true_min_times(f, r)
        l = self.costs(p, t_commu)
        loops = LoopTable(p, f, r, np.maximum(t_commu, 0.0), l)
        return Allocation(loops=loops, sum_lqr=float(l.sum()))


def _pack(p, f, r, b: Budgets) -> np.ndarray:
    return np.concatenate([p / b.p_max_w, f / b.f_max_cycles, r / b.r_max_bits])


# ---------------------------------------------------------------------------
# the inner problem


def _round_objective(data: LoopData, majorant: MajorantCoefficients):
    """Majorized cost over normalized z of shape (K, 3), each window tight
    against the majorant.  ``fun(z)`` returns the value and a function that
    builds, from that evaluation's intermediates, ``(blocks, gap, normal,
    psi)``: ``blocks(weight)`` gives the gradient (K, 3), the curvature
    blocks (K, 3, 3) and each loop's flat direction (K, 3), with each loop
    anchored in S1 or S2 weighting its S1 branch by ``weight``; ``gap`` is
    t_S1 - t_smooth, ``normal`` its gradient and ``psi`` the cost's
    derivative in the latency, gap and normal exactly zero on the other
    loops.  Outside the domain the value is inf; float warnings must be
    silenced around it."""
    budget = data.budget_col[:, 0]
    scale2 = budget[:, None] * budget[None, :]
    k = data.k
    s12 = majorant.s12
    # directions of zero curvature and zero gradient: an S4 loop's latency
    # ignores r, and the S1 latency sees (f, r) only through its row's
    # denominator c_f f + c_r r
    s4_flat = np.where((majorant.cr[0] == 0.0)[:, None], [0.0, 0.0, 1.0], 0.0)
    c_f, c_r = data.scenario.compute.rows[RegionLabel.S1][:2]
    s1_dir = np.array([0.0, c_r * budget[2], -c_f * budget[1]])
    s1_dir /= np.sqrt(s1_dir @ s1_dir)

    def fun(z):
        p, f, r = (z * budget).T
        tbar, partials = surrogate_batch(f, r, majorant)
        u = data.t_cycle - tbar
        if not (u > 0.0).all():
            return math.inf, None
        e, e_derivatives = data.entropy_terms(p, u)
        if not (e > data.h).all():
            return math.inf, None
        l, l_derivatives = data.lqr_terms(e)

        def terms():
            de_p, d2e_p = e_derivatives()
            dl1, dl2 = l_derivatives()
            e_u = e / u  # -de/dt: the entropy falls as the latency grows
            ep_u = de_p / u
            rows = partials()
            one, smooth = [a[-1] for a in rows], [a[0] for a in rows]

            def blocks(weight):
                th = np.where(s12, weight, 0.0)
                tf, tr, tff, tfr, trr = (th * a + (1.0 - th) * b for a, b in zip(one[1:], smooth[1:]))
                flat = np.where((th == 1.0)[:, None], s1_dir, s4_flat)
                de = np.empty((k, 3))
                de[:, 0], de[:, 1], de[:, 2] = de_p, -e_u * tf, -e_u * tr
                d2e = np.empty((k, 3, 3))
                d2e[:, 0, 0] = d2e_p
                d2e[:, 0, 1] = d2e[:, 1, 0] = -ep_u * tf
                d2e[:, 0, 2] = d2e[:, 2, 0] = -ep_u * tr
                d2e[:, 1, 1] = -e_u * tff
                d2e[:, 1, 2] = d2e[:, 2, 1] = -e_u * tfr
                d2e[:, 2, 2] = -e_u * trr
                d2e *= dl1[:, None, None]
                d2e += dl2[:, None, None] * de[:, :, None] * de[:, None, :]
                return (dl1[:, None] * de) * budget, d2e * scale2, flat

            normal = np.zeros((k, 3))
            normal[:, 1] = (one[1] - smooth[1]) * budget[1]
            normal[:, 2] = (one[2] - smooth[2]) * budget[2]
            return blocks, one[0] - smooth[0], normal, -dl1 * e_u

        return float(l.sum()), terms

    return fun


# ---------------------------------------------------------------------------
# feasibility and initialization


def _stabilizing_power(data: LoopData, t_commu: np.ndarray, margin_bits: float) -> np.ndarray:
    return np.maximum(required_power(data.h + margin_bits, data.gamma, data.bandwidth * t_commu), 0.0)


def feasible_power_init(data: LoopData, t_commu: np.ndarray, what: str) -> np.ndarray:
    """Power start that stabilizes every loop with a common entropy margin.

    Newton's method on log sum_k p_k(m) = log p_max finds the margin m, then
    the powers are scaled to spend the budget.  A step out of the bracket
    [1e-6, 2^24] or a zero sum (h_k < 0 loops draw power only past -h_k)
    bisects it.  Raises Infeasible with a per-loop report when none works.
    """
    p_max = data.scenario.budgets.p_max_w
    dead = t_commu <= 0.0
    if dead.any():
        report = [
            {"loop": int(i), "t_commu_s": float(t_commu[i]), "reason": "no communication window"}
            for i in np.nonzero(dead)[0]
        ]
        raise Infeasible(f"{what}: computation consumes the whole cycle", report=report)
    margin = 1e-6
    p = _stabilizing_power(data, t_commu, margin)
    total = float(p.sum())
    if total > p_max:
        e_max = data.entropy_terms(p_max, t_commu)[0]
        report = [
            {
                "loop": int(i),
                "max_entropy_bits": float(e_max[i]),
                "intrinsic_rate_bits": float(data.h[i]),
            }
            for i in range(data.k)
            if e_max[i] <= data.h[i] + margin
        ]
        raise Infeasible(f"{what}: power budget cannot stabilize every loop", report=report)
    lo, hi = margin, 2.0**24
    rate = LN2 / (data.bandwidth * t_commu)  # dp_k/dm = rate_k (p_k + 1/gamma_k) where p_k > 0
    with np.errstate(over="ignore"):  # a midpoint far past the root sums to inf
        for _ in range(200):
            lo, hi = (margin, hi) if total <= p_max else (lo, margin)
            slope = float(rate @ np.where(p > 0.0, p + 1.0 / data.gamma, 0.0))
            step = math.log(p_max / total) * total / slope if 0.0 < total < math.inf else math.nan
            nxt = margin + step if lo < margin + step < hi else 0.5 * (lo + hi)
            if abs(step) <= 1e-14 * margin or nxt in (lo, hi):  # rounding noise, or a closed bracket
                break
            margin = nxt
            p = _stabilizing_power(data, t_commu, margin)
            total = float(p.sum())
    if total <= 0.0:
        return np.full(data.k, p_max / data.k)
    return p * (p_max / total)


def make_anchors(scenario: Scenario, f: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each loop's anchor at (f, r), as the arrays (f0, r0), with dead
    components floored to ``ANCHOR_FLOOR`` of their budget."""
    b = scenario.budgets
    return np.maximum(f, ANCHOR_FLOOR * b.f_max_cycles), np.maximum(r, ANCHOR_FLOOR * b.r_max_bits)


# ---------------------------------------------------------------------------
# public operations


# a Newton decrement below this fraction of the objective ends the inner
# solve with one last full step: the majorant's cancelling terms leave the
# objective's rounding near 1e-14 of it, so a line search can no longer
# see the step's gain, while the step still squares the KKT residual
_FINAL_DECREMENT = 1e-12


def _inner_solve(data: LoopData, majorant: MajorantCoefficients, x0: np.ndarray):
    """``newton_descent`` on the round's convex problem from x0 (normalized,
    flat (p, f, r) blocks), each step a ``kink_step``.  Returns (x, value,
    steps, residual, evaluations, stop): the residual is the relative prox
    residual at x, max |x - project_budget_simplex(x - g / |value|, 1)|,
    each loop on the kink taking the subgradient its branch weight gives,
    and evaluations count ``surrogate_batch`` calls.
    """
    k = data.k
    kink, theta = np.zeros(k, dtype=bool), np.zeros(k)

    def step(z, terms):
        nonlocal kink, theta
        dz, kkt, g, kink, theta, correct = kink_step(z, terms(), majorant.s12, kink, theta)
        return dz, kkt, g, correct

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z, val, terms, steps, evals, stop = newton_descent(
            _round_objective(data, majorant), step, x0.reshape(3, k).T.copy(), _FINAL_DECREMENT,
            INNER_MAX_STEPS, "inner problem",
        )
        blocks, gap, _, _ = terms()
        grad = blocks(np.where(kink, np.minimum(np.maximum(theta, 0.0), 1.0), gap >= 0.0))[0].T
        prox = project_budget_simplex(z.T - grad / max(abs(val), 1e-300), 1.0)
        resid = float(np.abs(z.T - prox).max())
    return z.T.reshape(-1), val, steps, resid, evals, stop


def _extrapolate(data: LoopData, x_prev: np.ndarray, x_mm: np.ndarray, obj_mm: float):
    """Best point on the ray from x_prev through the MM point x_mm.

    Tries x_mm + t (x_mm - x_prev) for t = 1, 2, 4, ... and stops at the
    first trial that leaves the interior or does not lower the true
    objective below the best so far.  Trials are never projected: one
    outside the interior ends the search.  Returns (x, objective,
    step_scale), step_scale being the multiple of the MM step from x_prev
    (1.0 when every trial is rejected).
    """
    k = data.k
    step = x_mm - x_prev
    best = (x_mm, obj_mm, 1.0)
    t = 1.0
    for _ in range(_EXTRAPOLATION_TRIALS):
        x = x_mm + t * step
        # above twice the anchor floor the next majorant is anchored at the
        # trial itself, so the trial is a feasible warm start for it
        if x.min() < 2.0 * ANCHOR_FLOOR or x.reshape(3, k).sum(1).max() > 1.0 + BUDGET_SLACK:
            break
        obj = data.true_objective(*x.reshape(3, k) * data.budget_col)
        if not obj < best[1]:
            break
        best = (x, obj, 1.0 + t)
        t *= 2.0
    return best


def solve_inner(scenario: Scenario, anchors) -> Allocation:
    """Solve the convex subproblem at fixed anchors, the arrays (f0, r0)
    ``make_anchors`` returns, from the anchors with ``feasible_power_init``'s
    power (InfeasibleSubproblem when it has none).

    Returns a feasible allocation whose communication windows are tight
    against the surrogate latency, hence feasible under the true one.
    """
    data = LoopData(scenario)
    f, r = anchors
    majorant = MajorantCoefficients.at(f, r, data.d_bits, scenario.compute)
    tbar, _ = surrogate_batch(f, r, majorant)
    try:
        p = feasible_power_init(data, data.t_cycle - tbar, "inner problem")
    except Infeasible as exc:
        raise InfeasibleSubproblem(str(exc), report=exc.report) from None
    x = _inner_solve(data, majorant, _pack(p, f, r, scenario.budgets))[0]
    p, f, r = x.reshape(3, data.k) * data.budget_col
    return data.allocation(p, f, r, data.t_cycle - surrogate_batch(f, r, majorant)[0])


def sca_solve(
    scenario: Scenario,
    config: SolverConfig | None = None,
    init: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[Allocation, SolveTrace]:
    """Alternate convex majorization and re-anchoring until the sum cost
    settles.

    Starts from an equal split of compute and backhaul with power chosen to
    give every loop the same entropy margin.  Each round solves the convex
    subproblem anchored at the previous point, starting from it (the MM
    step), then tries 1, 2, 4, ... further MM steps along the same direction
    and keeps the trial with the lowest true objective; a trial that leaves
    the interior of the budget simplexes ends the search.  The accepted
    point anchors and warm-starts the next round, so the true objective
    sequence never increases.  The loop stops when the MM step's relative
    decrease falls below epsilon, returning that round's MM point as is.
    Raises Infeasible (with a per-loop report) when the initial split cannot
    stabilize every loop.  An explicit ``init`` (p, f, r) must hold three
    arrays each ``within_budget`` of its budget; anything else raises
    ValueError.  An init with a zero compute share, where the majorant is
    infinite, starts the first inner solve from its shares floored as
    anchors and scaled into f_max; the init stands if that MM point is worse.
    """
    cfg = config or SolverConfig()
    data = LoopData(scenario)
    k = data.k
    b = scenario.budgets
    if init is None:
        f = np.full(k, b.f_max_cycles / k)
        r = np.full(k, b.r_max_bits / k)
        p = feasible_power_init(data, data.t_cycle - data.true_min_times(f, r), "initialization")
    else:
        p, f, r = init
        p = within_budget(p, k, b.p_max_w, "init power")
        f = within_budget(f, k, b.f_max_cycles, "init compute")
        r = within_budget(r, k, b.r_max_bits, "init rate")
    x = _pack(p, f, r, b)
    obj = data.true_objective(p, f, r)
    if not math.isfinite(obj):
        raise Infeasible("initial allocation does not stabilize every loop")
    records = [
        IterationRecord(
            objective=obj,
            anchor_bits=np.stack([f, r], axis=1).tobytes(),
            inner_iterations=0,
            inner_residual=math.nan,
        )
    ]
    converged = False
    for _ in range(cfg.max_outer_iters):
        f0, r0 = make_anchors(scenario, f, r)
        majorant = MajorantCoefficients.at(f0, r0, data.d_bits, scenario.compute)
        # every smooth majorant is +inf at f = 0, a share only an init holds
        start = x if f.all() else _pack(p, f0 * min(1.0, b.f_max_cycles / f0.sum()), r, b)
        x_mm, _, iters, resid, evals, stop = _inner_solve(data, majorant, start)
        mm_obj = data.true_objective(*x_mm.reshape(3, k) * data.budget_col)
        # the stop rule judges the plain MM step; its point is returned as is,
        # unless it came from a moved start and lost to the init
        converged = (obj - mm_obj) / obj < cfg.epsilon
        if converged and start is not x and mm_obj > obj:
            scale = 0.0
        else:
            x, obj, scale = (x_mm, mm_obj, 1.0) if converged else _extrapolate(data, x, x_mm, mm_obj)
            p, f, r = x.reshape(3, k) * data.budget_col
        records.append(
            IterationRecord(
                objective=obj,
                anchor_bits=np.stack([f0, r0], axis=1).tobytes(),
                inner_iterations=iters,
                inner_residual=resid,
                step_scale=scale,
                inner_evaluations=evals,
                inner_stop=stop,
            )
        )
        if converged:
            break
    alloc = data.allocation(p, f, r)
    trace = SolveTrace(iterations=tuple(records), converged=converged, epsilon=cfg.epsilon)
    return alloc, trace


def check_allocation(scenario: Scenario, alloc: Allocation) -> AllocationReport:
    """Verify every constraint of the full problem against the true
    piecewise latency; reports normalized slacks instead of raising.  Every
    comparison is written so that a NaN slack counts as a violation, and an
    allocation with more or fewer loops than the scenario is one too; the
    per-loop checks then cover the loops both have.  Each loop's split is
    derived here, by ``optimal_split`` from its (f, r) shares, and the time
    slack takes that split's own makespan (``realized_latency``); a share
    that is NaN, infinite or negative, or f = r = 0, is a violation with
    time slack -inf and split gap NaN.  The entropy and the cost come from
    the kernels the solver evaluates, ``delivered_entropy`` and
    ``cost_curve``, through ``LoopData`` on the loops both have, one call
    each.  The entropy slack is (l - L) / l, l the claimed cost and L the
    cost the delivered entropy, raised by 1e-6 of itself, affords: L is
    inf where the power or window is non-finite or negative or the raised
    entropy is at most h, and ``min_entropy(l)`` has no correct digits once
    l is within about 1e-12 of l_min."""
    tol = -1e-6
    b = scenario.budgets
    violations: list[str] = []
    slacks: dict = {}
    if len(alloc.loops) != scenario.k:
        violations.append(f"allocation has {len(alloc.loops)} loops, the scenario {scenario.k}")

    loops = tuple(alloc.loops)
    p_sum = sum(la.p_w for la in loops)
    f_sum = sum(la.f_cycles for la in loops)
    r_sum = sum(la.r_bits for la in loops)
    slacks["power"] = (b.p_max_w - p_sum) / b.p_max_w
    slacks["compute"] = (b.f_max_cycles - f_sum) / b.f_max_cycles
    slacks["rate"] = (b.r_max_bits - r_sum) / b.r_max_bits
    for name in ("power", "compute", "rate"):
        if not slacks[name] >= tol:
            violations.append(f"{name} budget exceeded (slack {slacks[name]:.3e})")

    m = min(len(loops), scenario.k)
    afforded = []
    if m:
        data = LoopData(replace(scenario, loops=scenario.loops[:m]))
        p, t = np.array([(la.p_w, la.t_commu_s) for la in loops[:m]], dtype=float).T
        with np.errstate(all="ignore"):
            e = data.entropy_terms(p, t)[0]
            e = e - tol * np.maximum(np.abs(e), 1.0)
            usable = np.isfinite(p) & (p >= 0.0) & np.isfinite(t) & (t >= 0.0) & (e > data.h)
            afforded = np.where(usable, data.lqr_terms(e)[0], math.inf).tolist()

    time_slack, entropy_slack, split_gap = [], [], []
    for i, (loop, la, l_have) in enumerate(zip(scenario.loops, loops, afforded)):
        try:
            sp = optimal_split(la.f_cycles, la.r_bits, loop.data_bits, scenario.compute)
        except (ValueError, NoFeasibleFlow) as exc:  # a non-finite or negative share; f = r = 0
            sp, ts = None, -math.inf
            violations.append(f"loop {i}: bad shares f={la.f_cycles!r}, r={la.r_bits!r} ({exc})")
        else:
            ts = (loop.cycle_seconds - realized_latency(sp, scenario.compute) - la.t_commu_s) / loop.cycle_seconds
            if not ts >= tol:
                violations.append(f"loop {i}: cycle time exceeded (slack {ts:.3e})")
        time_slack.append(ts)
        if not math.isfinite(la.lqr_cost) or la.lqr_cost < loop.entropy.l_min:
            entropy_slack.append(-math.inf)
            violations.append(f"loop {i}: cost unachievable (lqr {la.lqr_cost})")
        else:
            es = (la.lqr_cost - l_have) / (la.lqr_cost if la.lqr_cost > 0.0 else 1.0)
            entropy_slack.append(es)
            if not es >= 0.0:
                violations.append(f"loop {i}: entropy shortfall (slack {es:.3e})")
        if sp is not None:
            gap = abs(sp.d1 + sp.d2 + sp.d3 - loop.data_bits) / loop.data_bits
            split_gap.append(gap)
            if not gap <= -tol:
                violations.append(f"loop {i}: split does not cover the data (gap {gap:.3e})")
            if not sp.f1 + sp.f2 <= la.f_cycles * (1.0 - tol) + (-tol) * b.f_max_cycles:
                violations.append(f"loop {i}: split compute exceeds the loop share")
            if not sp.r2 + sp.r3 <= la.r_bits * (1.0 - tol) + (-tol) * b.r_max_bits:
                violations.append(f"loop {i}: split rate exceeds the loop share")
        else:
            split_gap.append(math.nan)
    slacks["time"] = time_slack
    slacks["entropy"] = entropy_slack
    slacks["split_gap"] = split_gap
    return AllocationReport(ok=not violations, violations=tuple(violations), slacks=slacks)
