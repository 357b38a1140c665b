"""The projected-gradient and Newton solves of ``newton_descent`` against
the spectral projected gradient (SPG) the package once ran.

``reference_spg``, kept below as the reference, is that SPG with its stall
budget counted in steps.  The communication-oriented compute split now
takes projected-gradient steps in ``newton_descent``: from the same start
it must end no higher than the reference, keep the equal split where the
reference stops at once, and, parked on a kink, stop long before its cap
at the reference's value to float64 resolution.  ``sca_solve``'s rounds
once ran SPG on the reduced objective kept below as the reference; their
Newton solve must reach that objective's values bit for bit, its gradient
to rounding, and each round at least SPG's value from the same start.
"""

import dataclasses
import math

import numpy as np
import pytest

import sc3opt.solver
from sc3opt import (
    InfeasibleSubproblem,
    NoConvergence,
    SolverConfig,
    communication_oriented,
    generate_scenario,
    sca_solve,
)
from sc3opt.baselines import _projected_gradient_step
from sc3opt.compute import min_compute_time_grad
from sc3opt.control import LN2
from sc3opt.optim import newton_descent, project_budget_simplex
from sc3opt.solver import LoopData
from sc3opt.surrogate import surrogate_batch

VAL_FLOOR = 8.0 * np.finfo(float).eps  # the "real decrease" threshold, relative
LINE_SEARCH_EVALS = 67  # halvings from 1 while the step stays >= 1e-20
EPS16 = 16.0 * np.finfo(float).eps  # the compute split's decrement


def reference_spg(value_grad, project, x0, tol, max_iters, what):
    """Monotone spectral projected gradient: Armijo backtracking along the
    projected direction from a Barzilai-Borwein trial step.  Stops at a
    prox residual of the relative-scaled gradient within tol, or after 100
    steps without a decrease beyond float64 resolution.  Returns (x, value,
    gradient, iterations, residual)."""
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
        if resid <= tol or stall >= 100:
            return x, val, grad, it, resid
        d = project(x - step * grad) - x
        slope = float(grad @ d)
        if slope >= 0.0 or not np.any(d):
            step = max(step * 0.25, 1e-9)
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
            step = max(step * 0.25, 1e-9)
            stall += 1
            continue
        stall = stall + 1 if val - val_try <= val_floor * abs(val) else 0
        s_vec = x_try - x
        y_vec = grad_try - grad
        sy = float(s_vec @ y_vec)
        step = min(float(s_vec @ s_vec) / sy, 1e10) if sy > 1e-300 else min(step * 2.0, 1e10)
        step = max(step, 1e-9)
        x, val, grad = x_try, val_try, grad_try
    raise NoConvergence(f"{what}: projected gradient exceeded {max_iters} iterations")


def reference_joint_objective(data, majorant):
    """The reduced objective with one product per gradient block, joined by
    np.concatenate."""
    b = data.scenario.budgets
    k = data.k
    bw = data.bandwidth
    inf_grad = np.zeros(3 * k)

    def value_grad(x):
        p, f, r = x[:k] * b.p_max_w, x[k : 2 * k] * b.f_max_cycles, x[2 * k :] * b.r_max_bits
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tbar, partials = surrogate_batch(f, r, majorant)
            _, dtf, dtr = partials()[:3]
            t_commu = data.t_cycle - tbar
            if not np.all(t_commu > 0.0):
                return math.inf, inf_grad
            se = np.log1p(data.gamma * p) / LN2
            e = bw * t_commu * se
            if not np.all(e > data.h):
                return math.inf, inf_grad
            w = 2.0 * (e - data.h) / data.n
            zinv = np.exp2(-w)
            denom = -np.expm1(-w * LN2)
            l = data.l_min + data.c * zinv / denom
            dl = -(2.0 * LN2 / data.n) * data.c * zinv / (denom * denom)
            de_dp = bw * t_commu * data.gamma / ((1.0 + data.gamma * p) * LN2)
            de_df = -bw * se * dtf
            de_dr = -bw * se * dtr
            grad = np.concatenate(
                [dl * de_dp * b.p_max_w, dl * de_df * b.f_max_cycles, dl * de_dr * b.r_max_bits]
            )
        return float(l.sum()), grad

    return value_grad


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _eager(fun):
    """An objective under ``newton_descent``'s lazy contract as the
    references take it: the value and the gradient array, built at every
    evaluation."""

    def value_grad(x):
        val, gradient = fun(x)
        return val, gradient()

    return value_grad


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_rounds_at_tolerance_match_reference(monkeypatch, seed):
    """Every round of a quick seed ends at the Newton KKT test with SPG's
    prox residual within inner_tol, and no higher than the reference SPG
    run on the reference objective from the same start, which stops short
    of stationarity (at inner_tol, or stalled above it)."""
    outcomes = []
    inner_solve = sc3opt.solver._inner_solve

    def twin(data, majorant, cfg, x0):
        got = inner_solve(data, majorant, cfg, x0)
        k = data.k
        project = lambda x: project_budget_simplex(x.reshape(-1, k), 1.0).reshape(x.shape)  # noqa: E731
        ref = reference_spg(
            reference_joint_objective(data, majorant), project, x0, cfg.inner_tol, cfg.inner_max_iters, "inner"
        )
        outcomes.append((got, ref))
        return got

    monkeypatch.setattr(sc3opt.solver, "_inner_solve", twin)
    _, trace = sca_solve(generate_scenario(seed))
    assert len(outcomes) == len(trace.iterations) - 1  # one inner solve per round
    tol = SolverConfig().inner_tol
    for (_, val, _, resid, _, stop), (_, ref_val, _, _, ref_resid) in outcomes:
        assert stop == "kkt" and resid <= tol
        assert val <= ref_val * (1.0 + 1e-12)
        if ref_resid <= tol:  # so close to stationary that Newton gains little more
            assert val >= ref_val * (1.0 - 1e-9)


def _unequal_data(seed):
    """Generated scenario ``seed`` with each loop's data size scaled by a
    factor drawn log-uniformly within half a decade.  Generated loops all
    carry the same data size, which makes the equal compute split
    stationary; unequal sizes make the split step."""
    scenario = generate_scenario(seed)
    rng = np.random.default_rng(seed)
    loops = tuple(
        dataclasses.replace(lp, data_bits=lp.data_bits * 10.0 ** rng.uniform(-0.5, 0.5))
        for lp in scenario.loops
    )
    return dataclasses.replace(scenario, loops=loops)


def reference_split(scenario):
    """The communication-oriented compute split as SPG solved it, from the
    equal split at the default tolerances: (f, reference's run)."""
    cfg = SolverConfig()
    k = scenario.k
    b = scenario.budgets
    d = np.array([lp.data_bits for lp in scenario.loops])

    def value_grad(x):
        t, dt_df, _ = min_compute_time_grad(x * b.f_max_cycles, b.r_max_bits / k, d, scenario.compute)
        return float(t.cumsum()[-1]), dt_df * b.f_max_cycles

    project = lambda x: project_budget_simplex(x, 1.0)  # noqa: E731
    run = reference_spg(value_grad, project, np.full(k, 1.0 / k), cfg.inner_tol, cfg.inner_max_iters, "compute split")
    return run[0] * b.f_max_cycles, run


def _split_of(scenario):
    """The compute split communication_oriented returns, and its total true
    computation time."""
    alloc = communication_oriented(scenario)
    f = np.array([la.f_cycles for la in alloc.loops])
    r = np.array([la.r_bits for la in alloc.loops])
    return f, float(LoopData(scenario).true_min_times(f, r).sum())


@pytest.mark.parametrize("seed", range(10))
def test_baseline_runs_at_tolerance_match_reference(seed):
    """On generated loops the equal compute split is stationary: the
    reference stops there at tolerance before its first step, and the
    compute split keeps it bit for bit."""
    sc = generate_scenario(seed)
    ref_f, (_, _, _, iters, resid) = reference_split(sc)
    assert iters == 0 and resid <= SolverConfig().inner_tol
    f, _ = _split_of(sc)
    assert _bits(f) == _bits(ref_f)
    assert _bits(f) == _bits(np.full(sc.k, 1.0 / sc.k) * sc.budgets.f_max_cycles)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 8, 42, 54])
def test_compute_split_steps_match_reference(seed):
    """On drawn data sizes the split steps off the equal split and ends with
    a total computation time no higher than the reference's from the same
    start.  The split is not convex: on seeds 8, 42 and 54 Newton steps on
    it settled in a worse basin than SPG's."""
    sc = _unequal_data(seed)
    ref_f, run = reference_split(sc)
    assert run[3] > 0  # iterations
    r = np.full(sc.k, sc.budgets.r_max_bits / sc.k)
    ref_total = float(LoopData(sc).true_min_times(ref_f, r).sum())
    f, total = _split_of(sc)
    assert not (f == f[0]).all()
    assert total <= ref_total * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [0, 3, 10])
def test_joint_objective_matches_reference(monkeypatch, seed):
    """The round objective Newton minimizes is the reduced objective SPG
    minimized: at every point a solve evaluates, the same value bit for
    bit, and, on the branch the max takes, the same gradient to rounding.
    Seeds 3 and 10 hold loops on the majorant's kink, so their solves also
    evaluate points where the S1 branch of the max is active."""
    evaluated = []
    round_objective = sc3opt.solver._round_objective

    def checked(data, majorant):
        fun = round_objective(data, majorant)
        ref = reference_joint_objective(data, majorant)

        def value_terms(z):
            val, terms = fun(z)
            ref_val, ref_grad = ref(z.T.reshape(-1))
            assert _bits(val) == _bits(ref_val)
            if math.isfinite(val):
                blocks, gap, _, _ = terms()
                grad = blocks(None if gap is None else gap >= 0.0)[0]
                np.testing.assert_allclose(grad.T.reshape(-1), ref_grad, rtol=1e-12, atol=0.0)
            evaluated.append(math.isfinite(val))
            return val, terms

        return value_terms

    monkeypatch.setattr(sc3opt.solver, "_round_objective", checked)
    sca_solve(generate_scenario(seed))
    assert sum(evaluated) > 10


def _kink_problem():
    """1 + max(|x - c1|^2, |x - c2|^2) over {x >= 0, sum(x) <= 1}.

    The centers are mirror images about m = (0.1, 0.2, 0.3), so the
    minimizer m lies on the kink where both pieces are equal, inside the
    simplex.  Each evaluation returns the active piece's gradient and is
    logged.
    """
    m = np.array([0.1, 0.2, 0.3])
    e = 0.05 * np.array([1.0, -2.0, 0.5])
    c1, c2 = m + e, m - e
    log = []

    def value_grad(x):
        q1 = float((x - c1) @ (x - c1))
        q2 = float((x - c2) @ (x - c2))
        val, grad = (1.0 + q1, 2.0 * (x - c1)) if q1 >= q2 else (1.0 + q2, 2.0 * (x - c2))
        log.append(val)
        return val, lambda: grad

    return value_grad, log


def _evals_after_last_decrease(log):
    """Evaluations after the last one that undercut every earlier value by
    more than float64 resolution."""
    last, best = 0, log[0]
    for i, v in enumerate(log[1:], start=1):
        if v < best - VAL_FLOOR * abs(best):
            last = i
        best = min(best, v)
    return len(log) - 1 - last


def test_kink_stall_exit_is_counted_in_evaluations():
    """Parked on a kink, the projected-gradient descent stops at its first
    line search without a decrease beyond float64 resolution, long before
    its cap, where the reference spends its whole budget of 100 fruitless
    steps; both end at the same value to float64 resolution.  Its
    evaluation count is every call of the objective."""
    project = lambda x: project_budget_simplex(x, 1.0)  # noqa: E731
    x0 = np.array([0.5, 0.1, 0.05])
    max_iters = 100_000

    fun, log = _kink_problem()
    _, val, _, steps, evals, stop = newton_descent(fun, _projected_gradient_step(), x0, EPS16, max_iters, "kink")
    ref_fun, ref_log = _kink_problem()
    ref_val = reference_spg(_eager(ref_fun), project, x0, 1e-7, max_iters, "kink")[1]

    assert evals == len(log)
    assert stop == "stall" and steps < max_iters
    assert _evals_after_last_decrease(log) <= LINE_SEARCH_EVALS
    assert _evals_after_last_decrease(ref_log) > 100 + LINE_SEARCH_EVALS
    assert abs(val - ref_val) <= VAL_FLOOR * abs(ref_val)


def test_gradient_built_only_at_start_and_accepted_steps():
    """On an ill-conditioned quadratic over the simplex some Armijo trials
    are rejected.  The projected-gradient descent builds the gradient once
    at the start point and once per accepted step, each time for the
    evaluation just made, and never at its last full step's trial."""
    center = np.array([0.6, 0.5, -0.2, 0.3])
    weights = np.array([1.0, 10.0, 100.0, 0.5])
    log = []

    def fun(x):
        z = x - center
        log.append(("value", x.copy()))

        def gradient():
            log.append(("gradient", x.copy()))
            return 2.0 * weights * z

        return 1.0 + float(z @ (weights * z)), gradient

    x, val, _, steps, evals, stop = newton_descent(
        fun, _projected_gradient_step(), np.full(4, 0.25), EPS16, 10_000, "quadratic"
    )

    kinds = [kind for kind, _ in log]
    grad = 2.0 * weights * (x - center)
    assert stop == "kkt"
    assert np.abs(x - project_budget_simplex(x - grad / val, 1.0)).max() <= 1e-10
    assert kinds.count("value") == evals
    assert kinds.count("gradient") == steps + 1
    # the start, the accepted steps and the last full step's trial leave
    # the rest of the evaluations to rejected trials, without a gradient
    assert evals > steps + 2
    for i, (kind, at) in enumerate(log):
        if kind == "gradient":
            assert log[i - 1][0] == "value" and _bits(log[i - 1][1]) == _bits(at)
    assert log[-1][0] == "value" and _bits(log[-1][1]) == _bits(x)
