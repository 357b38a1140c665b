"""Joint power / compute / backhaul allocation minimizing the sum LQR cost.

The full problem couples K loops only through three budget constraints, but
is non-convex through the minimal-computation-time surface.  Each outer
iteration replaces that surface with its convex majorant anchored at the
previous solution and solves the resulting convex problem.  Two variables
are eliminated first because their constraints are tight at any optimum:
the communication window equals the cycle time minus the (surrogate)
computation time, and each loop's cost is the best cost its delivered
entropy allows.  What remains is a smooth convex objective over the product
of three capped simplexes, solved by spectral projected gradient.  The
outer objective never increases because each majorant touches the true
latency at its anchor.  After each such majorize-minimize (MM) step the
outer loop extrapolates along it, keeping a longer step only while the true
objective keeps falling; the stop rule still judges the plain MM step.

Decision variables are normalized by their budgets before optimization;
resources here span ten orders of magnitude and raw gradients would be
hopelessly ill-conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkParams, channel_gain, entropy_per_cycle
from .compute import ComputeParams, SplitPlan, min_compute_time, optimal_split
from .control import LN2, EntropyParams, LoopControlSpec, lqr_from_entropy, min_entropy
from .errors import Infeasible, InfeasibleSubproblem, NoConvergence, Unstabilizable
from .surrogate import MajorantCoefficients, SurrogateAnchor, surrogate_batch

# anchors with a dead component are pushed up to this fraction of the budget
ANCHOR_FLOOR = 1e-6

# extrapolation trials per outer round, at 1, 2, 4, ... MM steps beyond the MM point
_EXTRAPOLATION_TRIALS = 8
# MM points spend a budget only to within rounding: a normalized block sum
# this far above 1 still counts as inside
_BUDGET_SLACK = 1e-9


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
    """Tolerances: epsilon stops the outer loop on relative objective
    decrease; inner_tol bounds the projected-gradient stationarity residual
    of the convex subproblem."""

    epsilon: float = 5e-5
    max_outer_iters: int = 30
    inner_tol: float = 1e-7
    inner_max_iters: int = 100_000

    def __post_init__(self):
        values = (self.epsilon, self.inner_tol, self.max_outer_iters, self.inner_max_iters)
        if not all(map(math.isfinite, values)):
            raise ValueError("tolerances and iteration budgets must be finite")
        if min(self.epsilon, self.inner_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_outer_iters < 1 or self.inner_max_iters < 1:
            raise ValueError("iteration budgets must be positive")


@dataclass(frozen=True)
class LoopAllocation:
    p_w: float
    f_cycles: float
    r_bits: float
    t_commu_s: float
    lqr_cost: float
    split: SplitPlan | None


@dataclass(frozen=True)
class Allocation:
    loops: tuple[LoopAllocation, ...]
    sum_lqr: float


@dataclass(frozen=True)
class IterationRecord:
    objective: float
    anchors: tuple[tuple[float, float], ...]
    inner_iterations: int
    inner_residual: float
    # accepted multiple of the round's majorize-minimize step (1.0: the MM point)
    step_scale: float = 1.0


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
    -1e-6 counts as a violation."""

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

    def lqr_terms(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-loop cost and its derivative in delivered entropy (e > h)."""
        w = 2.0 * (e - self.h) / self.n
        zinv = np.exp2(-w)
        denom = -np.expm1(-w * LN2)  # 1 - 2^-w, accurate for small w
        l = self.l_min + self.c * zinv / denom
        dl = -(2.0 * LN2 / self.n) * self.c * zinv / (denom * denom)
        return l, dl

    def spectral(self, p: np.ndarray) -> np.ndarray:
        return np.log1p(self.gamma * p) / LN2

    def true_min_times(self, f: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.array(
            [
                min_compute_time(float(f[i]), float(r[i]), float(self.d_bits[i]), self.scenario.compute)
                for i in range(self.k)
            ]
        )

    def costs(self, p: np.ndarray, t_commu: np.ndarray) -> np.ndarray:
        """Per-loop cost at power p and communication window t_commu;
        infinite for a loop whose entropy does not exceed its intrinsic rate."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = self.bandwidth * t_commu * self.spectral(p)
            l, _ = self.lqr_terms(e)
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
        loops = tuple(
            LoopAllocation(
                p_w=float(p[i]),
                f_cycles=float(f[i]),
                r_bits=float(r[i]),
                t_commu_s=max(float(t_commu[i]), 0.0),
                lqr_cost=float(l[i]),
                split=optimal_split(float(f[i]), float(r[i]), float(self.d_bits[i]), self.scenario.compute),
            )
            for i in range(self.k)
        )
        return Allocation(loops=loops, sum_lqr=float(l.sum()))


def _pack(p, f, r, b: Budgets) -> np.ndarray:
    return np.concatenate([p / b.p_max_w, f / b.f_max_cycles, r / b.r_max_bits])


def _unpack(x: np.ndarray, b: Budgets, k: int):
    return x[:k] * b.p_max_w, x[k : 2 * k] * b.f_max_cycles, x[2 * k :] * b.r_max_bits


# ---------------------------------------------------------------------------
# projections and the projected-gradient core


def project_budget_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= total}, of a vector or
    of each row of a 2-D array.

    Sort-based (Duchi et al., ICML 2008): the threshold comes from the last
    sorted position whose entry stays above it.  A row of a 2-D array gets
    exactly the bits the 1-D call gives for that row.
    """
    w = np.maximum(v, 0.0)
    inside = w.sum(-1) <= total
    # truth-testing a scalar or a list costs far less than a numpy reduction
    if inside if v.ndim == 1 else all(inside.tolist()):
        return w
    n = v.shape[-1]
    u = np.sort(v)[..., ::-1]
    css = u.cumsum(-1) - total
    ratio = css / np.arange(1, n + 1)
    last = n - 1 - (u > ratio)[..., ::-1].argmax(-1)
    if v.ndim == 1:
        theta = ratio[last]
    else:
        theta = ratio[np.arange(v.shape[0]), last]
        theta[inside] = 0.0  # max(v - 0, 0) is the clipped row itself
        theta = theta[:, None]
    return np.maximum(v - theta, 0.0)


_SPG_STEP_FLOOR = 1e-9  # below this the projected direction is rounding noise
_SPG_STALL_LIMIT = 100


def spg(value_grad, project, x0: np.ndarray, tol: float, max_iters: int, what: str):
    """Monotone spectral projected gradient on a convex set.

    Searches along the projected-arc direction with Armijo backtracking and
    a Barzilai-Borwein trial step.  Stops when the prox residual of the
    relative-scaled gradient drops below tol, or when the objective stops
    improving at float64 resolution (the measured residual then sits at its
    numerical floor; it is still returned for inspection).  Returns
    (x, value, gradient, iterations, residual).
    """
    x = project(np.array(x0, dtype=float))
    val, grad = value_grad(x)
    if not math.isfinite(val):
        raise InfeasibleSubproblem(f"{what}: start point is infeasible")
    val_floor = 8.0 * np.finfo(float).eps
    step = 1.0
    stall = 0
    resid = math.inf
    for it in range(max_iters):
        scale = max(abs(val), 1e-300)
        resid = float(np.max(np.abs(x - project(x - grad / scale))))
        if resid <= tol or stall >= _SPG_STALL_LIMIT:
            return x, val, grad, it, resid
        d = project(x - step * grad) - x
        slope = float(grad @ d)
        if slope >= 0.0 or not np.any(d):
            step = max(step * 0.25, _SPG_STEP_FLOOR)
            stall += 1
            continue
        lam, moved = 1.0, False
        while lam >= 1e-20:
            x_try = x + lam * d
            val_try, grad_try = value_grad(x_try)
            if val_try <= val + 1e-4 * lam * slope + 4e-16 * abs(val):
                moved = True
                break
            lam *= 0.5
        if not moved:
            step = max(step * 0.25, _SPG_STEP_FLOOR)
            stall += 1
            continue
        stall = stall + 1 if val - val_try <= val_floor * abs(val) else 0
        s_vec = x_try - x
        y_vec = grad_try - grad
        sy = float(s_vec @ y_vec)
        step = min(float(s_vec @ s_vec) / sy, 1e10) if sy > 1e-300 else min(step * 2.0, 1e10)
        step = max(step, _SPG_STEP_FLOOR)
        x, val, grad = x_try, val_try, grad_try
    raise NoConvergence(f"{what}: projected gradient exceeded {max_iters} iterations")


# ---------------------------------------------------------------------------
# objectives


def _joint_objective(data: LoopData, majorant: MajorantCoefficients):
    """Surrogate-tight reduced objective over normalized (p, f, r)."""
    b = data.scenario.budgets
    k = data.k
    bw = data.bandwidth
    inf_grad = np.zeros(3 * k)

    def value_grad(x):
        p, f, r = _unpack(x, b, k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tbar, dtf, dtr = surrogate_batch(f, r, majorant)
            t_commu = data.t_cycle - tbar
            if not np.all(t_commu > 0.0):
                return math.inf, inf_grad
            se = data.spectral(p)
            e = bw * t_commu * se
            if not np.all(e > data.h):
                return math.inf, inf_grad
            l, dl = data.lqr_terms(e)
            de_dp = bw * t_commu * data.gamma / ((1.0 + data.gamma * p) * LN2)
            de_df = -bw * se * dtf
            de_dr = -bw * se * dtr
            grad = np.concatenate(
                [
                    dl * de_dp * b.p_max_w,
                    dl * de_df * b.f_max_cycles,
                    dl * de_dr * b.r_max_bits,
                ]
            )
        return float(l.sum()), grad

    return value_grad


# ---------------------------------------------------------------------------
# feasibility and initialization


def _stabilizing_power(data: LoopData, t_commu: np.ndarray, margin_bits: float) -> np.ndarray:
    se_req = (data.h + margin_bits) / (data.bandwidth * t_commu)
    return np.maximum(np.expm1(se_req * LN2) / data.gamma, 0.0)


def feasible_power_init(data: LoopData, t_commu: np.ndarray, what: str) -> np.ndarray:
    """Power start that stabilizes every loop with a common entropy margin.

    Bisects the margin to the largest value the power budget affords, then
    scales the result to spend the whole budget.  Raises Infeasible with a
    per-loop report when no margin works.
    """
    p_max = data.scenario.budgets.p_max_w
    dead = t_commu <= 0.0
    if dead.any():
        report = [
            {"loop": int(i), "t_commu_s": float(t_commu[i]), "reason": "no communication window"}
            for i in np.nonzero(dead)[0]
        ]
        raise Infeasible(f"{what}: computation consumes the whole cycle", report=report)
    lo = 1e-6
    if float(_stabilizing_power(data, t_commu, lo).sum()) > p_max:
        e_max = data.bandwidth * t_commu * np.log1p(data.gamma * p_max) / LN2
        report = [
            {
                "loop": int(i),
                "max_entropy_bits": float(e_max[i]),
                "intrinsic_rate_bits": float(data.h[i]),
            }
            for i in range(data.k)
            if e_max[i] <= data.h[i] + lo
        ]
        raise Infeasible(f"{what}: power budget cannot stabilize every loop", report=report)
    hi = 1.0
    while hi < 1e7 and float(_stabilizing_power(data, t_commu, hi).sum()) <= p_max:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(_stabilizing_power(data, t_commu, mid).sum()) <= p_max:
            lo = mid
        else:
            hi = mid
    p = _stabilizing_power(data, t_commu, lo)
    total = float(p.sum())
    if total <= 0.0:
        return np.full(data.k, p_max / data.k)
    return p * (p_max / total)


def make_anchors(scenario: Scenario, f: np.ndarray, r: np.ndarray) -> list[SurrogateAnchor]:
    """Anchors at (f, r) with dead components floored to a sliver of budget."""
    b = scenario.budgets
    out = []
    for i, loop in enumerate(scenario.loops):
        f0 = max(float(f[i]), ANCHOR_FLOOR * b.f_max_cycles)
        r0 = max(float(r[i]), ANCHOR_FLOOR * b.r_max_bits)
        out.append(SurrogateAnchor.at(f0, r0, loop.data_bits, scenario.compute))
    return out


# ---------------------------------------------------------------------------
# public operations


def closed_form_lqr(
    p_w: float,
    f_cycles: float,
    r_bits: float,
    loop: Loop,
    compute: ComputeParams,
    link: LinkParams,
    t_commu_s: float | None = None,
) -> float:
    """Best LQR cost of one loop given its resources.

    The cost constraint is tight at any optimum, so the optimal cost is the
    curve value at the delivered entropy.  When t_commu_s is omitted the
    communication window is the cycle remainder after the true minimal
    computation time.  Raises Unstabilizable when the entropy does not
    exceed the loop's intrinsic rate.
    """
    if t_commu_s is None:
        t_commu_s = loop.cycle_seconds - min_compute_time(
            f_cycles, r_bits, loop.data_bits, compute
        )
    if t_commu_s <= 0.0:
        raise Unstabilizable("no communication window remains after computing")
    e = entropy_per_cycle(p_w, t_commu_s, loop.distance_m, link)
    return lqr_from_entropy(e, loop.entropy)


def _inner_solve(data: LoopData, majorant: MajorantCoefficients, cfg: SolverConfig, x0: np.ndarray):
    fun = _joint_objective(data, majorant)
    k = data.k
    # one call projects the power, compute and backhaul blocks together
    project = lambda x: project_budget_simplex(x.reshape(3, k), 1.0).reshape(-1)  # noqa: E731
    return spg(fun, project, x0, cfg.inner_tol, cfg.inner_max_iters, "inner problem")


def _extrapolate(data: LoopData, x_prev: np.ndarray, x_mm: np.ndarray, obj_mm: float):
    """Best point on the ray from x_prev through the MM point x_mm.

    Tries x_mm + t (x_mm - x_prev) for t = 1, 2, 4, ... and stops at the
    first trial that leaves the interior or does not lower the true
    objective below the best so far.  Trials are never projected: one
    outside the interior ends the search.  Returns (x, objective,
    step_scale), step_scale being the multiple of the MM step from x_prev
    (1.0 when every trial is rejected).
    """
    b = data.scenario.budgets
    k = data.k
    step = x_mm - x_prev
    best = (x_mm, obj_mm, 1.0)
    t = 1.0
    for _ in range(_EXTRAPOLATION_TRIALS):
        x = x_mm + t * step
        # above twice the anchor floor the next majorant is anchored at the
        # trial itself, so the trial is a feasible warm start for it
        if x.min() < 2.0 * ANCHOR_FLOOR or x.reshape(3, k).sum(1).max() > 1.0 + _BUDGET_SLACK:
            break
        obj = data.true_objective(*_unpack(x, b, k))
        if not obj < best[1]:
            break
        best = (x, obj, 1.0 + t)
        t *= 2.0
    return best


def solve_inner(
    scenario: Scenario,
    anchors,
    config: SolverConfig | None = None,
    x0: np.ndarray | None = None,
) -> Allocation:
    """Solve the convex subproblem at fixed anchors.

    Returns a feasible allocation whose communication windows are tight
    against the surrogate latency, hence feasible under the true one.
    """
    cfg = config or SolverConfig()
    data = LoopData(scenario)
    majorant = MajorantCoefficients.from_anchors(anchors, data.d_bits, scenario.compute)
    if x0 is None:
        f = majorant.f0
        r = np.array([an.r0 for an in anchors])
        tbar, _, _ = surrogate_batch(f, r, majorant)
        try:
            p = feasible_power_init(data, data.t_cycle - tbar, "inner problem")
        except Infeasible as exc:
            raise InfeasibleSubproblem(str(exc), report=exc.report) from None
        x0 = _pack(p, f, r, scenario.budgets)
    x, _, _, _, _ = _inner_solve(data, majorant, cfg, x0)
    p, f, r = _unpack(x, scenario.budgets, data.k)
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
    stabilize every loop.
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
        p, f, r = (np.asarray(v, dtype=float) for v in init)
    x = _pack(p, f, r, b)
    obj = data.true_objective(p, f, r)
    if not math.isfinite(obj):
        raise Infeasible("initial allocation does not stabilize every loop")
    records = [
        IterationRecord(
            objective=obj,
            anchors=tuple((float(f[i]), float(r[i])) for i in range(k)),
            inner_iterations=0,
            inner_residual=math.nan,
        )
    ]
    converged = False
    for _ in range(cfg.max_outer_iters):
        anchors = make_anchors(scenario, f, r)
        majorant = MajorantCoefficients.from_anchors(anchors, data.d_bits, scenario.compute)
        x_mm, _, _, iters, resid = _inner_solve(data, majorant, cfg, x)
        mm_obj = data.true_objective(*_unpack(x_mm, b, k))
        # the stop rule judges the plain MM step; its point is returned as is
        converged = (obj - mm_obj) / obj < cfg.epsilon
        if converged:
            x, obj, scale = x_mm, mm_obj, 1.0
        else:
            x, obj, scale = _extrapolate(data, x, x_mm, mm_obj)
        p, f, r = _unpack(x, b, k)
        records.append(
            IterationRecord(
                objective=obj,
                anchors=tuple((an.f0, an.r0) for an in anchors),
                inner_iterations=iters,
                inner_residual=resid,
                step_scale=scale,
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
    comparison is written so that a NaN slack counts as a violation."""
    tol = -1e-6
    b = scenario.budgets
    violations: list[str] = []
    slacks: dict = {}

    p_sum = sum(la.p_w for la in alloc.loops)
    f_sum = sum(la.f_cycles for la in alloc.loops)
    r_sum = sum(la.r_bits for la in alloc.loops)
    slacks["power"] = (b.p_max_w - p_sum) / b.p_max_w
    slacks["compute"] = (b.f_max_cycles - f_sum) / b.f_max_cycles
    slacks["rate"] = (b.r_max_bits - r_sum) / b.r_max_bits
    for name in ("power", "compute", "rate"):
        if not slacks[name] >= tol:
            violations.append(f"{name} budget exceeded (slack {slacks[name]:.3e})")

    time_slack, entropy_slack, split_gap = [], [], []
    for i, (loop, la) in enumerate(zip(scenario.loops, alloc.loops)):
        t_comp = min_compute_time(la.f_cycles, la.r_bits, loop.data_bits, scenario.compute)
        ts = (loop.cycle_seconds - t_comp - la.t_commu_s) / loop.cycle_seconds
        time_slack.append(ts)
        if not ts >= tol:
            violations.append(f"loop {i}: cycle time exceeded (slack {ts:.3e})")
        if not math.isfinite(la.lqr_cost) or la.lqr_cost <= loop.entropy.l_min:
            entropy_slack.append(-math.inf)
            violations.append(f"loop {i}: cost unachievable (lqr {la.lqr_cost})")
        else:
            e_have = entropy_per_cycle(la.p_w, la.t_commu_s, loop.distance_m, scenario.link)
            e_need = min_entropy(la.lqr_cost, loop.entropy)
            es = (e_have - e_need) / max(abs(e_need), 1.0)
            entropy_slack.append(es)
            if not es >= tol:
                violations.append(f"loop {i}: entropy shortfall (slack {es:.3e})")
        if la.split is not None:
            sp = la.split
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
