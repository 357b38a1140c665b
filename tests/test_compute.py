import math

import numpy as np
import pytest

from sc3opt import (
    ComputeParams,
    NoFeasibleFlow,
    RegionLabel,
    SplitPlan,
    ZeroResourceForPositiveData,
    brute_force_min_time,
    classify_region,
    component_times,
    min_compute_time,
    min_compute_time_batch,
    min_compute_time_grad,
    optimal_split,
    realized_latency,
    region_time,
)
from sc3opt.compute import region_index
from conftest import random_compute_params, random_flow, reference_classify_region


def test_params_validation():
    with pytest.raises(ValueError):
        ComputeParams(alpha=0.0, beta=50.0, rho=0.5, tau=1e-3)
    with pytest.raises(ValueError):
        ComputeParams(alpha=100.0, beta=50.0, rho=1.5, tau=1e-3)
    with pytest.raises(ValueError):
        ComputeParams(alpha=100.0, beta=50.0, rho=0.5, tau=0.0)
    with pytest.raises(ValueError):
        ComputeParams(alpha=50.0, beta=50.0, rho=0.5, tau=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "rho", "tau"])
def test_params_reject_non_finite(field, bad):
    values = {"alpha": 100.0, "beta": 50.0, "rho": 0.5, "tau": 1e-3}
    with pytest.raises(ValueError):
        ComputeParams(**{**values, field: bad})


def test_component_times_local_only(params):
    plan = SplitPlan(d1=1e6, d2=0, d3=0, f1=1e9, f2=0, r2=0, r3=0, region=RegionLabel.S4)
    t1, t2, t3 = component_times(plan, params)
    assert t1 == pytest.approx(100.0 * 1e6 / 1e9)
    assert t2 == 0.0 and t3 == 0.0


def test_component_times_part2(params):
    plan = SplitPlan(d1=0, d2=8e5, d3=0, f1=0, f2=1e8, r2=5e5, r3=0, region=RegionLabel.S1)
    _, t2, _ = component_times(plan, params)
    # both legs of part 2 take 0.4 s, plus the relay delay
    assert t2 == pytest.approx(0.42)


def test_component_times_part3(params):
    plan = SplitPlan(d1=0, d2=0, d3=2e5, f1=0, f2=0, r2=0, r3=5e5, region=RegionLabel.S1)
    _, _, t3 = component_times(plan, params)
    assert t3 == pytest.approx(0.42)


def test_component_times_zero_resource_errors(params):
    bad = SplitPlan(d1=1.0, d2=0, d3=0, f1=0, f2=0, r2=0, r3=0, region=RegionLabel.S4)
    with pytest.raises(ZeroResourceForPositiveData):
        component_times(bad, params)
    bad2 = SplitPlan(d1=0, d2=1.0, d3=0, f1=0, f2=1e6, r2=0, r3=0, region=RegionLabel.S1)
    with pytest.raises(ZeroResourceForPositiveData):
        component_times(bad2, params)


def test_classify_examples(params):
    d = 1e6
    assert classify_region(6e9, 123.0, d, params) is RegionLabel.S4
    assert classify_region(1e8, 1e6, d, params) is RegionLabel.S1
    assert classify_region(1e9, 1e6, d, params) is RegionLabel.S2
    assert classify_region(4e9, 1e6, d, params) is RegionLabel.S3


def test_classify_boundaries_tiebreak(params):
    d = 1e6
    # compute edge between pre-processing and no-pre-processing regimes
    edge = (params.preproc_gain * d - 4 * params.beta * params.tau * 1e6) / (
        4 * (1 - params.rho) * params.tau
    )
    assert classify_region(edge, 1e6, d, params) is RegionLabel.S3
    assert classify_region(params.beta * 1e6 / params.rho, 1e6, d, params) is RegionLabel.S2
    assert classify_region(params.alpha * d / (4 * params.tau), 1e6, d, params) is RegionLabel.S4


def test_classify_no_preprocessing_regime():
    # compression too weak for pre-processing to ever pay off
    p = ComputeParams(alpha=100.0, beta=60.0, rho=0.9, tau=5e-3)
    assert p.preproc_gain < 0
    for f in (1e6, 1e8, 1e9):
        assert classify_region(f, 1e7, 1e6, p) in (RegionLabel.S3, RegionLabel.S4)


def test_classify_zero_rate(params):
    assert classify_region(1e9, 0.0, 1e6, params) is RegionLabel.S3
    assert classify_region(6e9, 0.0, 1e6, params) is RegionLabel.S4


def test_region_index_is_the_reference_rule():
    """``region_index`` equals the four-branch chain on floats, numpy
    scalars and arrays: random flows, flows with f exactly on each regime
    edge, r = 0, NaN, and constants whose pre-processing never pays
    (``preproc_gain`` < 0, = 0 and rho = 1)."""
    rng = np.random.default_rng(43)
    cases = [random_compute_params(rng) for _ in range(30)] + [
        ComputeParams(alpha=100.0, beta=60.0, rho=0.9, tau=5e-3),
        ComputeParams(alpha=100.0, beta=50.0, rho=0.5, tau=5e-3),
        ComputeParams(alpha=100.0, beta=50.0, rho=1.0, tau=5e-3),
    ]
    labels = list(RegionLabel)
    seen = set()
    for p in cases:
        n = 600
        f, r, d = 10.0 ** rng.uniform(6, 10, n), 10.0 ** rng.uniform(4, 8, n), 10.0 ** rng.uniform(5, 7, n)
        r[::5] = 0.0
        f[1::5] = p.alpha * d[1::5] / p.relay_delay
        f[2::5] = p.beta * r[2::5] / p.rho
        if p.preproc_gain > 0.0:
            band = slice(3, None, 5)
            edge = (p.preproc_gain * d[band] - 4 * p.beta * p.tau * r[band]) / (4 * (1.0 - p.rho) * p.tau)
            f[band] = np.maximum(edge, 0.0)
        f[4::50], r[9::50], d[14::50] = math.nan, math.nan, math.nan
        flows = list(zip(f.tolist(), r.tolist(), d.tolist()))
        want = [reference_classify_region(*flow, p) for flow in flows]
        assert [labels[i] for i in region_index(f, r, d, p).tolist()] == want
        assert [labels[region_index(*flow, p)] for flow in flows] == want
        assert [labels[region_index(*flow, p)] for flow in zip(f, r, d)] == want  # numpy scalars
        if p.preproc_gain > 0.0:
            assert (region_index(f[4::50], r[4::50], d[4::50], p) == 0).all()  # NaN compute falls to S1
        seen |= set(want)
    assert seen == set(RegionLabel)


@pytest.mark.parametrize(
    "flow",
    [
        (math.nan, 1e6, 1e6),
        (1e9, math.nan, 1e6),
        (1e9, 1e6, math.nan),
        (math.inf, 1e6, 1e6),
        (1e9, math.inf, 1e6),
        (1e9, 1e6, math.inf),
        (-1.0, 1e6, 1e6),
        (1e9, 1e6, 0.0),
    ],
    ids=["nan_compute", "nan_rate", "nan_data", "inf_compute", "inf_rate", "inf_data", "negative_compute", "no_data"],
)
def test_classify_rejects_nan_and_out_of_range(params, flow):
    with pytest.raises(ValueError):
        classify_region(*flow, params)


def test_min_time_examples(params):
    d = 1e6
    assert min_compute_time(1e8, 1e6, d, params) == pytest.approx(0.42, rel=1e-12)
    assert min_compute_time(1e9, 1e6, d, params) == pytest.approx(0.09, rel=1e-12)
    assert min_compute_time(4e9, 1e6, d, params) == pytest.approx(2e7 / 4.1e9 + 0.02, rel=1e-12)
    assert min_compute_time(6e9, 1e6, d, params) == pytest.approx(1e8 / 6e9, rel=1e-12)


def test_min_time_zero_rate_is_local_only(params):
    assert min_compute_time(1e9, 0.0, 1e6, params) == pytest.approx(0.1)
    plan = optimal_split(1e9, 0.0, 1e6, params)
    assert plan.d3 == 0.0 and plan.d1 == pytest.approx(1e6)


def test_min_time_requires_some_resource(params):
    with pytest.raises(NoFeasibleFlow):
        min_compute_time(0.0, 0.0, 1e6, params)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_flow_rejects_non_finite(params, position, bad):
    flow = [1e9, 1e6, 1e6]
    flow[position] = bad
    with pytest.raises(ValueError):
        min_compute_time(*flow, params)
    with pytest.raises(ValueError):
        brute_force_min_time(*flow, params)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_batch_rejects_non_finite(params, position, bad):
    flow = [np.array([1e9, 1e9]), np.array([1e6, 1e6]), 1e6]
    if position == 2:
        flow[2] = bad
    else:
        flow[position][0] = bad
    with pytest.raises(ValueError):
        min_compute_time_batch(*flow, params)


@pytest.mark.parametrize("flow", [(-1e9, 1e6, 1e6), (1e9, -1e6, 1e6), (1e9, 1e6, -1e6), (1e9, 1e6, 0.0)])
def test_batch_refuses_what_the_scalar_refuses(params, flow):
    """A negative share or a non-positive data size is a ValueError on
    every path, whether d is a scalar or an array."""
    f, r, d = flow
    with pytest.raises(ValueError):
        min_compute_time(f, r, d, params)
    for kernel in (min_compute_time_batch, min_compute_time_grad):
        for ds in (d, np.array([1e6, d])):
            with pytest.raises(ValueError):
                kernel(np.array([1e9, f]), np.array([1e6, r]), ds, params)


def test_batch_without_compute_and_backhaul_is_infinite(params):
    t = min_compute_time_batch(np.array([0.0, 1e9]), np.array([0.0, 1e6]), 1e6, params)
    assert t[0] == math.inf and t[1] == min_compute_time(1e9, 1e6, 1e6, params)


def test_min_time_agrees_with_brute_force_on_examples(params):
    for f, r in ((1e8, 1e6), (1e9, 1e6), (4e9, 1e6)):
        closed = min_compute_time(f, r, 1e6, params)
        brute = brute_force_min_time(f, r, 1e6, params, grid_n=200)
        assert brute == pytest.approx(closed, rel=0.01)


def test_brute_force_exact_in_local_regime(params):
    # the all-local corner is a grid point, so agreement is exact
    assert brute_force_min_time(6e9, 1e6, 1e6, params) == pytest.approx(1e8 / 6e9, rel=1e-12)


def test_brute_force_grid_validation(params):
    for grid_n in (50, 99, 0, -1, 150.5, 200.0, True):
        with pytest.raises(ValueError, match="grid_n"):
            brute_force_min_time(1e9, 1e6, 1e6, params, grid_n=grid_n)


def reference_brute_force(f, r, d, params, grid_n=200):
    """The split-grid oracle evaluated on the whole d1 x d2 square, the
    points off the simplex set to inf, kept as the reference for the
    simplex-only version."""
    a, b, rho = params.alpha, params.beta, params.rho
    delay = params.relay_delay
    axis = np.linspace(0.0, d, grid_n + 1)
    d1, d2 = np.meshgrid(axis, axis, indexing="ij")
    d3 = d - d1 - d2
    valid = d3 >= -1e-9 * d
    d3 = np.clip(d3, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        quad_b = delay * f + a * d1 + b * d2
        disc = quad_b * quad_b - 4.0 * delay * f * a * d1
        t_hub = np.where(
            d2 > 0.0,
            np.where(
                d1 > 0.0,
                (quad_b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * f),
                delay + b * d2 / f,
            ),
            np.where(d1 > 0.0, a * d1 / f, 0.0),
        )
        relay_bits = rho * d2 + d3
        t_relay = np.where(relay_bits > 0.0, delay + relay_bits / r, 0.0)
        total = np.where(valid, np.maximum(t_hub, t_relay), np.inf)
    return float(np.nanmin(total))


def test_brute_force_matches_full_square_reference(params):
    rng = np.random.default_rng(2024)  # criterion 1's flows
    for _ in range(200):
        p = random_compute_params(rng)
        f, r, d = random_flow(rng)
        for flow in ((f, r, d), (0.0, r, d), (f, 0.0, d)):
            assert brute_force_min_time(*flow, p) == reference_brute_force(*flow, p)
    for grid_n in (100, 157):
        assert brute_force_min_time(1e9, 1e6, 1e6, params, grid_n) == reference_brute_force(
            1e9, 1e6, 1e6, params, grid_n
        )


def test_brute_force_never_beats_closed_form(params):
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = random_compute_params(rng)
        f, r, d = random_flow(rng)
        closed = min_compute_time(f, r, d, p)
        brute = brute_force_min_time(f, r, d, p, grid_n=120)
        assert brute >= closed - 1e-12 * closed


def test_optimal_split_s1_example(params):
    plan = optimal_split(1e8, 1e6, 1e6, params)
    assert plan.region is RegionLabel.S1
    assert plan.d1 == 0.0
    assert plan.d2 == pytest.approx(8e5, rel=1e-9)
    assert plan.d3 == pytest.approx(2e5, rel=1e-9)
    assert plan.f2 == pytest.approx(1e8)
    assert plan.r2 == pytest.approx(5e5)
    assert plan.r3 == pytest.approx(5e5)
    assert plan.d1 + plan.d2 + plan.d3 == pytest.approx(1e6, rel=1e-9)


def test_optimal_split_s3_example(params):
    plan = optimal_split(4e9, 1e6, 1e6, params)
    t = min_compute_time(4e9, 1e6, 1e6, params)
    assert plan.d1 == pytest.approx(4e9 * t / 100.0, rel=1e-9)
    assert plan.d2 == 0.0
    assert plan.d1 + plan.d3 == pytest.approx(1e6, rel=1e-6)


def test_optimal_split_s4_is_all_local(params):
    plan = optimal_split(6e9, 1e6, 1e6, params)
    assert plan.d1 == 1e6 and plan.d2 == 0.0 and plan.d3 == 0.0
    assert plan.r2 == 0.0 and plan.r3 == 0.0


def test_split_feasibility_and_realized_latency_random(params):
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = random_compute_params(rng)
        f, r, d = random_flow(rng)
        plan = optimal_split(f, r, d, p)
        t = min_compute_time(f, r, d, p)
        assert plan.d1 + plan.d2 + plan.d3 == pytest.approx(d, rel=1e-9)
        assert plan.f1 + plan.f2 == pytest.approx(f, rel=1e-9)
        if plan.region not in (RegionLabel.S4,) and r > 0:
            assert plan.r2 + plan.r3 == pytest.approx(r, rel=1e-9)
        assert realized_latency(plan, p) == pytest.approx(t, rel=1e-9)
        assert min(plan.d1, plan.d2, plan.d3, plan.f1, plan.f2, plan.r2, plan.r3) >= 0.0


def test_split_equalizes_active_parts(params):
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = random_compute_params(rng)
        f, r, d = random_flow(rng)
        plan = optimal_split(f, r, d, p)
        t = min_compute_time(f, r, d, p)
        t1, t2, t3 = component_times(plan, p)
        for size, ti in ((plan.d1, t1), (plan.d2, t2), (plan.d3, t3)):
            if size > 1e-9 * d:
                assert ti == pytest.approx(t, rel=1e-9)
        if plan.d2 > 0:
            # pre-processing and its uplink finish together
            assert p.beta * plan.d2 / plan.f2 == pytest.approx(
                p.rho * plan.d2 / plan.r2, rel=1e-9
            )


def test_min_time_monotone_in_resources(params):
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = random_compute_params(rng)
        _, r, d = random_flow(rng)
        fs = np.sort(10.0 ** rng.uniform(6, 10, size=20))
        times = [min_compute_time(f, r, d, p) for f in fs]
        assert all(b <= a + 1e-12 * a for a, b in zip(times, times[1:]))
        f = 10.0 ** rng.uniform(6, 10)
        rs = np.sort(10.0 ** rng.uniform(4, 8, size=20))
        times = [min_compute_time(f, rr, d, p) for rr in rs]
        assert all(b <= a + 1e-12 * a for a, b in zip(times, times[1:]))


def test_continuity_across_boundaries(params):
    rng = np.random.default_rng(19)
    for _ in range(50):
        p = random_compute_params(rng)
        d = 10.0 ** rng.uniform(5, 7)
        r = 10.0 ** rng.uniform(4, 8)
        pairs = []
        if p.preproc_gain > 0:
            edge = (p.preproc_gain * d - 4 * p.beta * p.tau * r) / (4 * (1 - p.rho) * p.tau)
            if edge > 0:
                pairs.append((edge, RegionLabel.S2, RegionLabel.S3))
            split_edge = p.beta * r / p.rho
            if 0 < split_edge < edge:
                pairs.append((split_edge, RegionLabel.S1, RegionLabel.S2))
        pairs.append((p.alpha * d / (4 * p.tau), RegionLabel.S3, RegionLabel.S4))
        for f_edge, lo, hi in pairs:
            a = region_time(lo, f_edge, r, d, p)
            b = region_time(hi, f_edge, r, d, p)
            assert b == pytest.approx(a, rel=1e-9)


def test_batch_matches_scalar(params):
    rng = np.random.default_rng(23)
    # random pairs, one pair inside each regime (S1 to S4) and a zero rate
    fs = np.append(10.0 ** rng.uniform(6, 10, size=64), [1e8, 1e9, 3e9, 8e9, 1e9])
    rs = np.append(10.0 ** rng.uniform(4, 8, size=64), [1e6, 1e6, 1e6, 1e6, 0.0])
    ds = 10.0 ** rng.uniform(5, 7, size=fs.size)
    assert {classify_region(f, r, 1e6, params) for f, r in zip(fs, rs)} == set(RegionLabel)
    batch = min_compute_time_batch(fs, rs, 1e6, params)
    per_loop = min_compute_time_batch(fs, rs, ds, params)
    t, _, _ = min_compute_time_grad(fs, rs, ds, params)
    for i in range(fs.size):
        assert batch[i] == min_compute_time(fs[i], rs[i], 1e6, params)
        assert per_loop[i] == t[i] == min_compute_time(fs[i], rs[i], ds[i], params)


def test_latency_partials_match_finite_differences():
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(400):
        p = random_compute_params(rng)
        d = 10.0 ** rng.uniform(5, 7)
        f, r = 10.0 ** rng.uniform(6, 10), 10.0 ** rng.uniform(4, 8)
        hf, hr = 1e-4 * f, 1e-4 * r
        region = classify_region(f, r, d, p)
        around = [(f + hf, r), (f - hf, r), (f, r + hr), (f, r - hr)]
        if any(classify_region(x, y, d, p) is not region for x, y in around):
            continue  # a central difference across a boundary measures no partial
        seen.add(region)
        t = [min_compute_time(x, y, d, p) for x, y in around]
        t0, dt_df, dt_dr = min_compute_time_grad(f, r, d, p)
        # absolute floors sit far above the differences' rounding error
        assert dt_df == pytest.approx((t[0] - t[1]) / (2.0 * hf), rel=1e-5, abs=1e-9 * t0 / f)
        assert dt_dr == pytest.approx((t[2] - t[3]) / (2.0 * hr), rel=1e-5, abs=1e-9 * t0 / r)
    assert seen == set(RegionLabel)


def reference_region_time(region, f, r, d, p):
    """Each regime's closed form, written out per regime."""
    a, b, rho = p.alpha, p.beta, p.rho
    delay = p.relay_delay
    if region is RegionLabel.S1:
        return b * d / (b * r + (1.0 - rho) * f) + delay
    if region is RegionLabel.S2:
        return (rho * a * d - rho * delay * f + b * delay * r) / (rho * f + (a - b) * r) + delay
    if region is RegionLabel.S3:
        return (a * d - delay * f) / (f + a * r) + delay
    return a * d / f


def reference_region_partials(region, f, r, d, p):
    """(dt/df, dt/dr) of ``reference_region_time``, differentiated by hand."""
    a, b, rho = p.alpha, p.beta, p.rho
    delay = p.relay_delay
    if region is RegionLabel.S1:
        den = b * r + (1.0 - rho) * f
        return -(1.0 - rho) * b * d / (den * den), -b * b * d / (den * den)
    if region is RegionLabel.S2:
        den = rho * f + (a - b) * r
        num = rho * a * d - rho * delay * f + b * delay * r
        return (-rho * delay * den - rho * num) / (den * den), (b * delay * den - (a - b) * num) / (den * den)
    if region is RegionLabel.S3:
        den = f + a * r
        num = a * d - delay * f
        return (-delay * den - num) / (den * den), -a * num / (den * den)
    return -a * d / (f * f), 0.0 * f


def _random_flows(rng, n, p):
    """n flows in criterion 1's ranges, every seventh at r = 0, and every
    eleventh on the S4 edge or, at r > 0, the S1/S2 edge (ties resolve
    upward)."""
    f, r, d = 10.0 ** rng.uniform(6, 10, n), 10.0 ** rng.uniform(4, 8, n), 10.0 ** rng.uniform(5, 7, n)
    r[::7] = 0.0
    f[::22] = p.alpha * d[::22] / p.relay_delay
    edge = slice(11, None, 22)
    f[edge] = np.where(r[edge] > 0.0, p.beta * r[edge] / p.rho, f[edge])
    return f, r, d


def test_region_rows_reproduce_the_closed_forms_bit_for_bit():
    """Every regime's row gives its closed form's bits at every point, in
    or out of the regime: 100,000 flows as arrays and 2,000 as floats."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_compute_params(rng)
        f, r, d = _random_flows(rng, 5000, p)
        for region in RegionLabel:
            got, want = region_time(region, f, r, d, p), reference_region_time(region, f, r, d, p)
            assert got.tobytes() == want.tobytes()
            for flow in zip(f[:100].tolist(), r[:100].tolist(), d[:100].tolist()):
                assert region_time(region, *flow, p) == reference_region_time(region, *flow, p)


def test_batch_is_the_regime_then_its_row():
    rng = np.random.default_rng(37)
    for _ in range(20):
        p = random_compute_params(rng)
        f, r, d = _random_flows(rng, 500, p)
        want = [region_time(classify_region(*flow, p), *flow, p) for flow in zip(f.tolist(), r.tolist(), d.tolist())]
        assert min_compute_time_batch(f, r, d, p).tobytes() == np.array(want).tobytes()


def test_gradient_is_each_regimes_partials():
    """Within 1e-15 relative of the hand-differentiated closed forms, on
    20,000 flows covering every regime."""
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(20):
        p = random_compute_params(rng)
        f, r, d = _random_flows(rng, 1000, p)
        _, dt_df, dt_dr = min_compute_time_grad(f, r, d, p)
        regions = [classify_region(*flow, p) for flow in zip(f, r, d)]
        for region in set(regions):
            on = np.array([rg is region for rg in regions])
            want_df, want_dr = reference_region_partials(region, f[on], r[on], d[on], p)
            np.testing.assert_allclose(dt_df[on], want_df, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(dt_dr[on], want_dr, rtol=1e-15, atol=0.0)
        seen |= set(regions)
    assert seen == set(RegionLabel)
