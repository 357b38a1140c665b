import math

import numpy as np
import pytest

from sc3opt import ComputeParams, RegionLabel, min_compute_time, region_time
from sc3opt.surrogate import MajorantCoefficients, SurrogateAnchor, convex_compute_time, surrogate_batch
from conftest import (
    convex_time_s2,
    convex_time_s3,
    max_branch,
    random_compute_params,
    random_flow,
    reference_classify_region,
)


def inverse_product_bound(x: float, y: float, x0: float, y0: float) -> float:
    """First-order lower bound on 1/(x*y) at (x0, y0), the bound the
    majorants are built on.

    Returns (3 - x/x0 - y/y0) / (x0*y0), which never exceeds 1/(x*y) on the
    positive orthant and matches it exactly at the expansion point.
    """
    if min(x, y, x0, y0) <= 0.0:
        raise ValueError("all arguments must be positive")
    return (3.0 - x / x0 - y / y0) / (x0 * y0)


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
    for f0, r0 in ((math.nan, 1e6), (1e9, math.nan), (math.inf, 1e6), (1e9, math.inf)):
        with pytest.raises(ValueError):
            SurrogateAnchor(f0=f0, r0=r0, region=RegionLabel.S1)
    for flow in ((math.inf, 1e6, 1e6), (1e9, math.inf, 1e6), (1e9, 1e6, math.inf)):
        with pytest.raises(ValueError):
            SurrogateAnchor.at(*flow, params)


def test_majorant_rows_are_taken_by_the_regime_rule():
    """``MajorantCoefficients.at`` gives each anchor its regime's majorant
    row, the S2 row for S1 and S2 anchors, and on those a second row, the
    exact S1 row; regimes from the four-branch reference, rho = 1 included."""
    rng = np.random.default_rng(47)
    for i in range(30):
        p = random_compute_params(rng)
        if i % 5 == 0:
            p = ComputeParams(alpha=p.alpha, beta=p.beta, rho=1.0, tau=p.tau)
        n = 200
        f0, r0, d = 10.0 ** rng.uniform(6, 10, n), 10.0 ** rng.uniform(4, 8, n), 10.0 ** rng.uniform(5, 7, n)
        coef = MajorantCoefficients.at(f0, r0, d, p)
        regions = [reference_classify_region(*flow, p) for flow in zip(f0.tolist(), r0.tolist(), d.tolist())]
        s12 = [rg in (RegionLabel.S1, RegionLabel.S2) for rg in regions]
        rows = p.majorant_rows
        smooth = [rows[RegionLabel.S2] if on else rows[rg] for on, rg in zip(s12, regions)]
        exact = [rows[RegionLabel.S1] if on else row for on, row in zip(s12, smooth)]
        assert coef.s12.tolist() == s12
        assert coef.cf.shape[0] == (2 if any(s12) else 1)
        for got, column in zip((coef.cf, coef.cr, coef.const), (0, 1, 3)):
            assert got[0].tolist() == [row[column] for row in smooth]
            assert got[-1].tolist() == [row[column] for row in (exact if any(s12) else smooth)]


def _assert_batch_matches_scalar(anchors, f, r, d, params):
    """The vector regime rule puts each anchor where ``classify_region``
    does; batch values equal the scalar majorant; partials match finite
    differences of it."""
    f0 = np.array([an.f0 for an in anchors])
    r0 = np.array([an.r0 for an in anchors])
    coef = MajorantCoefficients.at(f0, r0, d, params)
    regions = [an.region for an in anchors]
    assert coef.s12.tolist() == [rg in (RegionLabel.S1, RegionLabel.S2) for rg in regions]
    assert (coef.cr[0] == params.alpha).tolist() == [rg is RegionLabel.S3 for rg in regions]
    assert (coef.cr[0] == 0.0).tolist() == [rg is RegionLabel.S4 for rg in regions]
    vals, partials = surrogate_batch(f, r, coef)
    _, dfs, drs = max_branch(partials())[:3]
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


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_s1_row_is_the_exact_s1_latency():
    """On every loop anchored in S1 or S2 the last row of ``partials()`` is
    ``region_time`` of S1 and its partials -(1 - rho) beta d / w^2 and
    -beta^2 d / w^2 bit for bit, with the second partials
    2 beta d c c^T / w^3 of c = (1 - rho, beta); on every other loop it
    repeats row 0 bit for bit."""
    rng = np.random.default_rng(59)
    on_seam = 0
    for _ in range(100):
        p = random_compute_params(rng)
        f0, r0, d = (np.array(c) for c in zip(*(random_flow(rng) for _ in range(8))))
        f, r, _ = (np.array(c) for c in zip(*(random_flow(rng) for _ in range(8))))
        coef = MajorantCoefficients.at(f0, r0, d, p)
        rows = surrogate_batch(f, r, coef)[1]()
        s12 = coef.s12
        assert all(a.shape == (1 + s12.any(), 8) for a in rows)
        for a in rows:
            assert _same_bits(a[-1][~s12], a[0][~s12])
        t, df, dr, dff, dfr, drr = (a[-1][s12] for a in rows)
        fs, rs, ds = f[s12], r[s12], d[s12]
        assert _same_bits(t, region_time(RegionLabel.S1, fs, rs, ds, p))
        w = (1.0 - p.rho) * fs + p.beta * rs
        assert _same_bits(df, -(1.0 - p.rho) * p.beta * ds / (w * w))
        assert _same_bits(dr, -p.beta * p.beta * ds / (w * w))
        scale = 2.0 * p.beta * ds / w**3
        np.testing.assert_allclose(dff, scale * (1.0 - p.rho) ** 2, rtol=1e-14)
        np.testing.assert_allclose(dfr, scale * (1.0 - p.rho) * p.beta, rtol=1e-14)
        np.testing.assert_allclose(drr, scale * p.beta**2, rtol=1e-14)
        on_seam += int(s12.sum())
    assert on_seam >= 100


def _reference_rows(f0, r0, d, p, region):
    """A loop's smooth row and, for S1 and S2 anchors, its S1 row, each as
    (c_f, c_r, A, C, K, -c_f*A, -c_r*A), written from alpha, beta, rho and
    the relay delay in the operation order of ``convex_time_s2``,
    ``convex_time_s3`` and ``region_time``."""
    a, b, rho, delay = p.alpha, p.beta, p.rho, p.relay_delay
    if region is RegionLabel.S3:
        return [(1.0, a, a * d, delay, delay * f0 / (f0 + a * r0), -a * d, -a * a * d)]
    if region is RegionLabel.S4:
        return [(1.0, 0.0, a * d, 0.0, 0.0, -a * d, 0.0)]
    slope = rho * a * delay / (a - b) * f0 / (rho * f0 + (a - b) * r0)
    return [
        (rho, a - b, rho * a * d, a * delay / (a - b), slope, -rho * rho * a * d, -(a - b) * rho * a * d),
        (1.0 - rho, b, b * d, delay, 0.0, -(1.0 - rho) * b * d, -b * b * d),
    ]


def test_majorant_rows_match_the_references_bit_for_bit():
    """``MajorantCoefficients.at`` reads its constants off
    ``ComputeParams.majorant_rows``; every field equals the constants the
    reference majorants are written with, and the rows' values and
    ``convex_compute_time`` equal ``convex_time_s2``, ``convex_time_s3`` and
    ``region_time`` bit for bit, on anchors in all four regimes."""
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(100):
        p = random_compute_params(rng)
        f0, r0, d = (np.array(c) for c in zip(*(random_flow(rng) for _ in range(8))))
        f, r, _ = (np.array(c) for c in zip(*(random_flow(rng) for _ in range(8))))
        coef = MajorantCoefficients.at(f0, r0, d, p)
        fields = (coef.cf, coef.cr, coef.num, coef.const, coef.slope, coef.gf, coef.gr, coef.w0, coef.cf_w0, coef.hr)
        t = surrogate_batch(f, r, coef)[1]()[0]
        for i in range(8):
            fi, ri, di = float(f[i]), float(r[i]), float(d[i])
            anchor = SurrogateAnchor.at(float(f0[i]), float(r0[i]), di, p)
            seen.add(anchor.region)
            rows = _reference_rows(anchor.f0, anchor.r0, di, p, anchor.region)
            rows += rows[:1] * (len(coef.cf) - len(rows))  # row 0 again where no S1 row applies
            for j, (c_f, c_r, num, const, slope, g_f, g_r) in enumerate(rows):
                w0 = c_f * anchor.f0 + c_r * anchor.r0
                expected = [c_f, c_r, num, const, slope, g_f, g_r, w0, c_f / w0, slope * c_r / w0]
                assert [x[j, i] for x in fields] == expected
            if anchor.region is RegionLabel.S3:
                expected = smooth = convex_time_s3(fi, ri, anchor, di, p)
            elif anchor.region is RegionLabel.S4:
                expected = smooth = region_time(RegionLabel.S4, fi, ri, di, p)
            else:
                smooth = convex_time_s2(fi, ri, anchor, di, p)
                exact = region_time(RegionLabel.S1, fi, ri, di, p)
                assert t[-1, i] == exact
                expected = max(smooth, exact)
            assert t[0, i] == smooth
            assert convex_compute_time(fi, ri, anchor, di, p) == expected
    assert seen == set(RegionLabel)
