"""Property tests of the paper's invariants on bounded random inputs.

The majorant kernel ``surrogate_batch`` is checked against the true minimal
computation time on up to three loops at a time, with random offload
constants, anchors and query points drawn over the ranges the example
tests use, and its first and second partials against central differences.
The closed-form latency is checked against the grid oracle and against the
split ``optimal_split`` recovers, and for never growing with compute or
rate.  The entropy/cost curve is checked as the power-only baseline's
Newton solve uses it: ``min_entropy`` and ``lqr_from_entropy`` invert each
other, and ``LoopData``'s derivatives of the cost in entropy and of the
entropy in power match central differences.  ``sca_solve`` is checked for
answering a permutation of the loops with the same permutation of its
allocation.  Examples are derandomized and
kept few, so the suite's time stays flat and every run checks the same
cases.
"""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sc3opt import (  # noqa: E402
    Budgets,
    ComputeParams,
    EntropyParams,
    LinkParams,
    Loop,
    RegionLabel,
    Scenario,
    brute_force_min_time,
    generate_scenario,
    lqr_from_entropy,
    min_compute_time,
    min_entropy,
    optimal_split,
    realized_latency,
    region_time,
    sca_solve,
)
from sc3opt.control import LN2  # noqa: E402
from sc3opt.solver import LoopData  # noqa: E402
from sc3opt.surrogate import (  # noqa: E402
    MajorantCoefficients,
    SurrogateAnchor,
    convex_time_s2,
    surrogate_batch,
)

ROUNDING = 1e-12  # relative; the kernel and the closed form differ by a few ulps
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def compute_params(draw):
    alpha = draw(st.floats(20.0, 200.0))
    return ComputeParams(
        alpha=alpha,
        beta=alpha * draw(st.floats(0.1, 0.8)),
        rho=draw(st.floats(0.05, 1.0)),
        tau=draw(st.floats(1e-3, 1e-2)),
    )


@st.composite
def majorant_cases(draw):
    """Offload constants, K <= 3 loops with their data sizes and anchors,
    and one query point (f, r) per loop."""
    params = draw(compute_params())
    k = draw(st.integers(1, 3))
    d = np.array([draw(_log_uniform(5.0, 7.0)) for _ in range(k)])
    anchors = [
        SurrogateAnchor.at(draw(_log_uniform(6.0, 10.0)), draw(_log_uniform(4.0, 8.0)), float(d[i]), params)
        for i in range(k)
    ]
    f = np.array([draw(_log_uniform(6.0, 10.0)) for _ in range(k)])
    r = np.array([draw(_log_uniform(4.0, 8.0)) for _ in range(k)])
    return params, d, anchors, f, r


def _majorant(params, d, anchors):
    f0 = np.array([an.f0 for an in anchors])
    r0 = np.array([an.r0 for an in anchors])
    return MajorantCoefficients.at(f0, r0, d, params)


@PROPERTY
@given(majorant_cases())
def test_majorant_dominates_true_latency(case):
    params, d, anchors, f, r = case
    val, _ = surrogate_batch(f, r, _majorant(params, d, anchors))
    for i in range(len(anchors)):
        true = min_compute_time(float(f[i]), float(r[i]), float(d[i]), params)
        assert val[i] >= true * (1.0 - ROUNDING)


@PROPERTY
@given(majorant_cases())
def test_majorant_touches_true_latency_at_anchor(case):
    params, d, anchors, _, _ = case
    f0 = np.array([an.f0 for an in anchors])
    r0 = np.array([an.r0 for an in anchors])
    val, _ = surrogate_batch(f0, r0, _majorant(params, d, anchors))
    for i in range(len(anchors)):
        true = min_compute_time(float(f0[i]), float(r0[i]), float(d[i]), params)
        assert val[i] == pytest.approx(true, rel=ROUNDING)


def _branch(f, r, anchor, d, params):
    """Which piece of max(S1 latency, S2 majorant) an S1/S2 anchor's
    majorant takes at (f, r); None for the other regimes, which are smooth."""
    if anchor.region not in (RegionLabel.S1, RegionLabel.S2):
        return None
    t1 = region_time(RegionLabel.S1, f, r, d, params)
    t2 = convex_time_s2(f, r, anchor, d, params)
    return "tie" if abs(t1 - t2) <= ROUNDING * t1 else t1 > t2


@PROPERTY
@given(majorant_cases())
def test_majorant_partials_match_central_differences(case):
    params, d, anchors, f, r = case
    coef = _majorant(params, d, anchors)
    val, partials = surrogate_batch(f, r, coef)
    _, dfv, drv = partials()[:3]
    hf, hr = 1e-6 * f, 1e-6 * r
    stencil = [(f + hf, r), (f - hf, r), (f, r + hr), (f, r - hr)]
    for i, anchor in enumerate(anchors):
        # the max of two pieces has no derivative where they cross; a
        # stencil that straddles or touches that kink measures neither side
        here = _branch(f[i], r[i], anchor, d[i], params)
        assume(here != "tie")
        assume(all(_branch(fs[i], rs[i], anchor, d[i], params) == here for fs, rs in stencil))
    up_f, down_f, up_r, down_r = (surrogate_batch(fs, rs, coef)[0] for fs, rs in stencil)
    num_df = (up_f - down_f) / (2.0 * hf)
    num_dr = (up_r - down_r) / (2.0 * hr)
    for i in range(len(anchors)):
        # central differences carry a rounding error of about eps * val / h
        assert dfv[i] == pytest.approx(num_df[i], rel=1e-4, abs=1e-8 * val[i] / f[i])
        assert drv[i] == pytest.approx(num_dr[i], rel=1e-4, abs=1e-8 * val[i] / r[i])


@PROPERTY
@given(majorant_cases())
def test_majorant_second_partials_match_central_differences(case):
    """The second partials ``partials()`` returns match central differences
    of its first partials, on the branch the max takes, wherever the
    stencil stays off the S1/S2 kink; the branch value is the value."""
    params, d, anchors, f, r = case
    coef = _majorant(params, d, anchors)
    val, partials = surrogate_batch(f, r, coef)
    t, dfv, drv, dff, dfr, drr = partials()
    assert np.array_equal(t, val)
    hf, hr = 1e-6 * f, 1e-6 * r
    stencil = [(f + hf, r), (f - hf, r), (f, r + hr), (f, r - hr)]
    for i, anchor in enumerate(anchors):
        here = _branch(f[i], r[i], anchor, d[i], params)
        assume(here != "tie")
        assume(all(_branch(fs[i], rs[i], anchor, d[i], params) == here for fs, rs in stencil))
    up_f, down_f, up_r, down_r = (surrogate_batch(fs, rs, coef)[1]()[1:3] for fs, rs in stencil)
    d_df = [(up_f[j] - down_f[j]) / (2.0 * hf) for j in range(2)]  # d/df of (d/df, d/dr)
    d_dr = [(up_r[j] - down_r[j]) / (2.0 * hr) for j in range(2)]  # d/dr of (d/df, d/dr)
    for i in range(len(anchors)):
        # the first partials round to about eps * val / f (or / r), and the
        # differences divide that by h
        tol_f = 1e-8 * val[i] / (f[i] * f[i])
        tol_r = 1e-8 * val[i] / (r[i] * r[i])
        tol_fr = 1e-8 * val[i] / (f[i] * r[i])
        assert dff[i] == pytest.approx(d_df[0][i], rel=1e-4, abs=tol_f)
        assert drr[i] == pytest.approx(d_dr[1][i], rel=1e-4, abs=tol_r)
        assert dfr[i] == pytest.approx(d_dr[0][i], rel=1e-4, abs=tol_fr)
        assert dfr[i] == pytest.approx(d_df[1][i], rel=1e-4, abs=tol_fr)


@st.composite
def flows(draw):
    """Offload constants and one flow (f, r, d) over criterion 1's ranges."""
    return draw(compute_params()), draw(_log_uniform(6.0, 10.0)), draw(_log_uniform(4.0, 8.0)), draw(_log_uniform(5.0, 7.0))


@PROPERTY
@given(flows())
def test_closed_form_matches_brute_force(flow):
    """The grid oracle never beats the closed form beyond rounding, and
    trails it by at most criterion 1's 1%."""
    params, f, r, d = flow
    closed = min_compute_time(f, r, d, params)
    brute = brute_force_min_time(f, r, d, params, grid_n=200)
    assert brute >= closed * (1.0 - ROUNDING)
    assert brute <= closed * 1.01


@PROPERTY
@given(flows())
def test_optimal_split_reproduces_min_compute_time(flow):
    """The recovered split carries all the data within the loop's compute
    and rate, and its makespan is the closed-form latency."""
    params, f, r, d = flow
    plan = optimal_split(f, r, d, params)
    assert min(plan.d1, plan.d2, plan.d3, plan.f1, plan.f2, plan.r2, plan.r3) >= 0.0
    assert plan.d1 + plan.d2 + plan.d3 == pytest.approx(d, rel=1e-9)
    assert plan.f1 + plan.f2 <= f * (1.0 + 1e-9)
    assert plan.r2 + plan.r3 <= r * (1.0 + 1e-9)
    assert realized_latency(plan, params) == pytest.approx(min_compute_time(f, r, d, params), rel=1e-9)


@PROPERTY
@given(flows(), _log_uniform(6.0, 10.0), _log_uniform(4.0, 8.0))
def test_min_compute_time_non_increasing_in_compute_and_rate(flow, f_other, r_other):
    """More compute or more backhaul rate never lengthens the latency,
    across regime boundaries too."""
    params, f, r, d = flow
    f_lo, f_hi = sorted((f, f_other))
    r_lo, r_hi = sorted((r, r_other))
    assert min_compute_time(f_hi, r, d, params) <= min_compute_time(f_lo, r, d, params) * (1.0 + ROUNDING)
    assert min_compute_time(f, r_hi, d, params) <= min_compute_time(f, r_lo, d, params) * (1.0 + ROUNDING)


# ---------------------------------------------------------------------------
# the entropy / cost curve

EPS = np.finfo(float).eps


@st.composite
def entropy_params(draw):
    return EntropyParams(
        n=draw(st.integers(1, 100)),
        h=draw(st.floats(0.0, 300.0)),
        l_min=draw(st.floats(0.0, 10.0)),
        c=draw(_log_uniform(-2.0, 2.0)),
    )


def _excess_bits(draw, n):
    """Entropy above the intrinsic rate, drawn as w = 2 (e - h) / n
    log-uniform from 1e-6 to 30: at 30 the cost excess c / (2^w - 1) is
    about 1e-9 c, short of where it drops below the floor's rounding and
    the cost is l_min itself."""
    return 0.5 * n * draw(_log_uniform(-6.0, math.log10(30.0)))


def _cost_slope(l, params):
    """|dl/de| at cost l: with u = (l - l_min) / c the curve has
    dl/de = -(2 ln2 / n) c u (1 + u)."""
    u = (l - params.l_min) / params.c
    return 2.0 * LN2 / params.n * params.c * u * (1.0 + u)


@PROPERTY
@given(entropy_params(), st.data())
def test_min_entropy_inverts_lqr_from_entropy(params, data):
    e = params.h + _excess_bits(data.draw, params.n)
    l = lqr_from_entropy(e, params)
    # exact to the curve's conditioning: a few ulps of e, plus the ulps of
    # l carried back through the slope
    assert abs(min_entropy(l, params) - e) <= 8.0 * EPS * (e + l / _cost_slope(l, params))


@PROPERTY
@given(entropy_params(), _log_uniform(-9.0, 9.0))
def test_lqr_from_entropy_inverts_min_entropy(params, u):
    l = params.l_min + params.c * u
    e = min_entropy(l, params)
    assert abs(lqr_from_entropy(e, params) - l) <= 8.0 * EPS * (l + _cost_slope(l, params) * e)


LINK = LinkParams(bandwidth_hz=5000.0, gamma0=1e-6, noise_power_w=1e-14, uav_height_m=100.0)


@st.composite
def curve_cases(draw):
    """LoopData of K <= 3 loops with random curve constants and distances."""
    k = draw(st.integers(1, 3))
    loops = tuple(
        Loop(
            entropy=draw(entropy_params()),
            data_bits=1e6,
            cycle_seconds=0.07,
            distance_m=draw(st.floats(100.0, 5000.0)),
        )
        for _ in range(k)
    )
    scenario = Scenario(
        loops=loops,
        compute=ComputeParams(alpha=100.0, beta=50.0, rho=0.25, tau=5e-3),
        link=LINK,
        budgets=Budgets(p_max_w=10.0, f_max_cycles=5e9, r_max_bits=5e7),
    )
    return LoopData(scenario)


def _differences(fun, x, step):
    """Central first and second differences of fun at x, over the stencil
    x - step, x, x + step as rounded; the spacings are exact differences of
    the rounded points, so the rounding of the stencil itself cancels."""
    up, down = x + step, x - step
    dx_up, dx_down = up - x, x - down
    f0, f_up, f_down = fun(x), fun(up), fun(down)
    first = (f_up - f_down) / (up - down)
    second = 2.0 * ((f_up - f0) / dx_up - (f0 - f_down) / dx_down) / (up - down)
    return first, second


def _assert_close(got, want, rtol, atol):
    """Elementwise |got - want| <= rtol |want| + atol, atol per loop."""
    assert (np.abs(got - want) <= rtol * np.abs(want) + atol).all(), (got, want)


@PROPERTY
@given(curve_cases(), st.data())
def test_cost_derivatives_match_central_differences(data, draw_data):
    excess = np.array([_excess_bits(draw_data.draw, n) for n in data.n])
    e = data.h + excess
    l, dl, d2l = data.lqr_terms(e)
    # the curve varies on the scale of the excess, or of n / (2 ln2) bits
    # once the cost nears its floor
    step = 1e-4 * np.minimum(excess, data.n / (2.0 * LN2))
    first, second = _differences(lambda v: data.lqr_terms(v)[0], e, step)
    # central differences carry a rounding error of about eps l / step
    # (first) and eps l / step^2 (second)
    _assert_close(dl(), first, 1e-6, 64.0 * EPS * l / step)
    _assert_close(d2l(), second, 1e-5, 64.0 * EPS * l / step**2)


@PROPERTY
@given(curve_cases(), st.data())
def test_entropy_derivatives_match_central_differences(data, draw_data):
    k = data.k
    p = np.array([draw_data.draw(_log_uniform(-3.0, 2.0)) for _ in range(k)])
    t_commu = np.array([draw_data.draw(st.floats(1e-3, 0.07)) for _ in range(k)])
    e, derivatives = data.entropy_terms(p, t_commu)
    de, d2e = derivatives()
    # e(p) bends on the scale p + 1/gamma, never below p
    step = 1e-4 * p
    first, second = _differences(lambda v: data.entropy_terms(v, t_commu)[0], p, step)
    _assert_close(de, first, 1e-6, 64.0 * EPS * e / step)
    _assert_close(d2e, second, 1e-5, 64.0 * EPS * e / step**2)


# ---------------------------------------------------------------------------
# the solver


@st.composite
def permuted_scenarios(draw):
    """A generated scenario of two or three loops and an order of its loops."""
    k = draw(st.integers(2, 3))
    overrides = {"k_loops": k, "p_max_dbw": draw(st.floats(0.0, 20.0))}
    scenario = generate_scenario(draw(st.integers(0, 2**16)), overrides)
    return scenario, draw(st.permutations(range(k)))


@PROPERTY
@given(permuted_scenarios())
def test_permuting_the_loops_permutes_the_allocation(case):
    scenario, order = case
    want, _ = sca_solve(scenario)
    got, _ = sca_solve(dataclasses.replace(scenario, loops=tuple(scenario.loops[i] for i in order)))
    b = scenario.budgets
    assert got.sum_lqr == pytest.approx(want.sum_lqr, rel=ROUNDING, abs=0.0)
    for j, i in enumerate(order):
        # resources relative to their budgets, since a loop's share may be 0
        g, w = got.loops[j], want.loops[i]
        assert abs(g.p_w - w.p_w) <= ROUNDING * b.p_max_w
        assert abs(g.f_cycles - w.f_cycles) <= ROUNDING * b.f_max_cycles
        assert abs(g.r_bits - w.r_bits) <= ROUNDING * b.r_max_bits
        assert g.lqr_cost == pytest.approx(w.lqr_cost, rel=ROUNDING, abs=0.0)
