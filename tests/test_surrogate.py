import numpy as np
import pytest

from sc3opt import RegionLabel, min_compute_time, region_time
from sc3opt.surrogate import (
    MajorantCoefficients,
    SurrogateAnchor,
    convex_compute_time,
    convex_time_s2,
    convex_time_s3,
    inverse_product_bound,
    surrogate_batch,
)
from conftest import random_compute_params, random_flow


def test_inverse_product_bound_examples():
    assert inverse_product_bound(2.0, 2.0, 1.0, 1.0) == pytest.approx(-1.0)
    assert inverse_product_bound(3.0, 4.0, 3.0, 4.0) == pytest.approx(1.0 / 12.0)
    with pytest.raises(ValueError):
        inverse_product_bound(0.0, 1.0, 1.0, 1.0)


def test_inverse_product_bound_property():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        x, y, x0, y0 = 10.0 ** rng.uniform(-3, 3, size=4)
        assert inverse_product_bound(x, y, x0, y0) <= 1.0 / (x * y) + 1e-12


def test_convex_time_s2_tangent_and_majorizing(params):
    d = 1e6
    anchor = SurrogateAnchor.at(1e9, 1e6, d, params)
    at_anchor = convex_time_s2(1e9, 1e6, anchor, d, params)
    assert at_anchor == pytest.approx(region_time(RegionLabel.S2, 1e9, 1e6, d, params), rel=1e-9)
    far_anchor = SurrogateAnchor.at(5e8, 5e5, d, params)
    assert convex_time_s2(1e9, 1e6, far_anchor, d, params) >= 0.09 - 1e-12


def test_convex_time_s3_tangent(params):
    d = 1e6
    anchor = SurrogateAnchor.at(4e9, 1e6, d, params)
    assert convex_time_s3(4e9, 1e6, anchor, d, params) == pytest.approx(
        2e7 / 4.1e9 + 0.02, rel=1e-9
    )


def test_majorant_tangent_in_every_regime(params):
    d = 1e6
    for f0, r0 in ((1e8, 1e6), (1e9, 1e6), (4e9, 1e6), (6e9, 1e6)):
        anchor = SurrogateAnchor.at(f0, r0, d, params)
        val = float(convex_compute_time(f0, r0, anchor, d, params))
        assert val == pytest.approx(min_compute_time(f0, r0, d, params), rel=1e-9)


def test_majorant_dominates_true_latency_example(params):
    d = 1e6
    anchor = SurrogateAnchor.at(1e8, 1e6, d, params)  # compute-starved anchor
    assert anchor.region is RegionLabel.S1
    assert float(convex_compute_time(1e9, 1e6, anchor, d, params)) >= 0.09 - 1e-12


def test_majorization_random(params):
    rng = np.random.default_rng(37)
    for _ in range(500):
        p = random_compute_params(rng)
        f0, r0, d = random_flow(rng)
        f, r, _ = random_flow(rng)
        anchor = SurrogateAnchor.at(f0, r0, d, p)
        upper = float(convex_compute_time(f, r, anchor, d, p))
        true = min_compute_time(f, r, d, p)
        assert upper >= true - 1e-9 * max(1.0, true)


def test_branch_midpoint_convexity(params):
    d = 1e6
    rng = np.random.default_rng(41)
    anchors = [SurrogateAnchor.at(1e8, 1e6, d, params), SurrogateAnchor.at(4e9, 1e6, d, params)]
    fns = [
        lambda f, r: float(convex_time_s2(f, r, anchors[0], d, params)),
        lambda f, r: float(convex_time_s3(f, r, anchors[1], d, params)),
        lambda f, r: float(convex_compute_time(f, r, anchors[0], d, params)),
        lambda f, r: float(convex_compute_time(f, r, anchors[1], d, params)),
    ]
    for fn in fns:
        for _ in range(200):
            f1, r1 = 10.0 ** rng.uniform(6, 10), 10.0 ** rng.uniform(4, 8)
            f2, r2 = 10.0 ** rng.uniform(6, 10), 10.0 ** rng.uniform(4, 8)
            fa, fb = fn(f1, r1), fn(f2, r2)
            fm = fn(0.5 * (f1 + f2), 0.5 * (r1 + r2))
            assert fm <= 0.5 * (fa + fb) + 1e-9 * max(1.0, abs(fa), abs(fb))


def test_anchor_validation(params):
    with pytest.raises(ValueError):
        SurrogateAnchor(f0=0.0, r0=1e6, region=RegionLabel.S1)
    with pytest.raises(ValueError):
        SurrogateAnchor(f0=1e9, r0=-1.0, region=RegionLabel.S2)


def _assert_batch_matches_scalar(anchors, f, r, d, params):
    """The vector regime rule puts each anchor where ``classify_region``
    does; batch values equal the scalar majorant; partials match finite
    differences of it."""
    f0 = np.array([an.f0 for an in anchors])
    r0 = np.array([an.r0 for an in anchors])
    coef = MajorantCoefficients.at(f0, r0, d, params)
    regions = [an.region for an in anchors]
    assert coef.s12.tolist() == [rg in (RegionLabel.S1, RegionLabel.S2) for rg in regions]
    assert (coef.cr == params.alpha).tolist() == [rg is RegionLabel.S3 for rg in regions]
    assert (coef.cr == 0.0).tolist() == [rg is RegionLabel.S4 for rg in regions]
    vals, partials = surrogate_batch(f, r, coef)
    _, dfs, drs = partials()[:3]
    for i, anchor in enumerate(anchors):
        di = float(d[i])
        assert vals[i] == pytest.approx(
            float(convex_compute_time(f[i], r[i], anchor, di, params)), rel=1e-12
        )
        # finite differences confirm the analytic partials
        hf = f[i] * 1e-6
        num_df = (
            float(convex_compute_time(f[i] + hf, r[i], anchor, di, params))
            - float(convex_compute_time(f[i] - hf, r[i], anchor, di, params))
        ) / (2 * hf)
        assert dfs[i] == pytest.approx(num_df, rel=1e-4, abs=1e-18)
        hr = r[i] * 1e-6
        num_dr = (
            float(convex_compute_time(f[i], r[i] + hr, anchor, di, params))
            - float(convex_compute_time(f[i], r[i] - hr, anchor, di, params))
        ) / (2 * hr)
        assert drs[i] == pytest.approx(num_dr, rel=1e-4, abs=1e-18)


def test_surrogate_batch_matches_scalar(params):
    d = 1e6
    rng = np.random.default_rng(43)
    anchors = [
        SurrogateAnchor.at(1e8, 1e6, d, params),
        SurrogateAnchor.at(1e9, 1e6, d, params),
        SurrogateAnchor.at(4e9, 1e6, d, params),
        SurrogateAnchor.at(6e9, 1e6, d, params),
    ]
    f = 10.0 ** rng.uniform(7, 10, size=4)
    r = 10.0 ** rng.uniform(5, 7, size=4)
    _assert_batch_matches_scalar(anchors, f, r, np.full(4, d), params)


def test_surrogate_batch_mixed_regimes(params):
    # one vector interleaving all four anchor regimes, each more than once
    d = 1e6
    rng = np.random.default_rng(47)
    corners = [(1e8, 1e6), (1e9, 1e6), (4e9, 1e6), (6e9, 1e6)]
    order = rng.permutation(np.repeat(np.arange(4), 3))
    anchors = [SurrogateAnchor.at(*corners[j], d, params) for j in order]
    assert {an.region for an in anchors} == set(RegionLabel)
    f = 10.0 ** rng.uniform(7, 10, size=order.size)
    r = 10.0 ** rng.uniform(5, 7, size=order.size)
    _assert_batch_matches_scalar(anchors, f, r, np.full(order.size, d), params)


def test_surrogate_batch_random_anchors_k50():
    rng = np.random.default_rng(53)
    p = random_compute_params(rng)
    flows = [random_flow(rng) for _ in range(50)]
    d = np.array([fl[2] for fl in flows])
    anchors = [SurrogateAnchor.at(f0, r0, di, p) for (f0, r0, _), di in zip(flows, d)]
    f = np.array([random_flow(rng)[0] for _ in range(50)])
    r = np.array([random_flow(rng)[1] for _ in range(50)])
    _assert_batch_matches_scalar(anchors, f, r, d, p)
