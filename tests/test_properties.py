"""Property tests of the paper's invariants on bounded random inputs.

The majorant kernel ``surrogate_batch`` is checked against the true minimal
computation time on up to three loops at a time, with random offload
constants, anchors and query points drawn over the ranges the example
tests use.  Examples are derandomized and kept few, so the suite's time
stays flat and every run checks the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sc3opt import ComputeParams, RegionLabel, min_compute_time, region_time  # noqa: E402
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
    return MajorantCoefficients.from_anchors(anchors, d, params)


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
    dfv, drv = partials()
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
