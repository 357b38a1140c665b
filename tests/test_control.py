import math

import numpy as np
import pytest

from sc3opt import (
    CostBelowFloor,
    EntropyParams,
    LoopControlSpec,
    SingularStateMatrix,
    UnsupportedStructure,
    Unstabilizable,
    build_entropy_params,
    intrinsic_entropy,
    lqr_from_entropy,
    min_entropy,
    riccati_diagonal,
)


def scalar_spec(a=2.0, sigma_v2=0.01, sigma_w2=0.0):
    return LoopControlSpec(
        a=np.array([[a]]),
        b_in=np.eye(1),
        c_obs=np.eye(1),
        q_w=np.eye(1),
        r_w=np.zeros((1, 1)),
        sigma_v2=sigma_v2,
        sigma_w2=sigma_w2,
    )


def test_intrinsic_entropy_examples():
    assert intrinsic_entropy([[2.0]]) == pytest.approx(1.0)
    assert intrinsic_entropy(np.diag([2.0, -4.0])) == pytest.approx(3.0)
    assert intrinsic_entropy(np.diag([10.0] * 50)) == pytest.approx(50 * math.log2(10))


def test_intrinsic_entropy_singular():
    with pytest.raises(SingularStateMatrix):
        intrinsic_entropy(np.diag([1.0, 0.0]))


def test_builder_scalar_case():
    # perfect sensing: the cost matrix collapses to the state weight and
    # the floor is just the process noise hitting it
    ep = build_entropy_params(scalar_spec())
    assert ep.n == 1
    assert ep.h == pytest.approx(1.0)
    assert ep.l_min == pytest.approx(0.01)
    assert ep.c == pytest.approx(0.01)


def test_builder_diagonal_entropy_positive():
    rng = np.random.default_rng(3)
    mags = rng.uniform(1.5, 9.0, size=8)
    spec = LoopControlSpec(
        a=np.diag(mags * np.where(rng.random(8) < 0.5, -1, 1)),
        b_in=np.eye(8),
        c_obs=np.eye(8),
        q_w=np.eye(8),
        r_w=np.zeros((8, 8)),
        sigma_v2=0.01,
        sigma_w2=0.001,
    )
    ep = build_entropy_params(spec)
    assert ep.h == pytest.approx(float(np.log2(mags).sum()))
    assert ep.h > 0 and ep.l_min > 0 and ep.c > 0


def test_builder_noisy_sensing_raises_floor():
    clean = build_entropy_params(scalar_spec(sigma_w2=0.0))
    noisy = build_entropy_params(scalar_spec(sigma_w2=0.001))
    assert noisy.l_min > clean.l_min


def test_builder_rejects_unsupported_structure():
    spec = scalar_spec()
    full = LoopControlSpec(
        a=np.array([[2.0, 0.1], [0.0, 3.0]]),
        b_in=np.eye(2),
        c_obs=np.eye(2),
        q_w=np.eye(2),
        r_w=np.zeros((2, 2)),
        sigma_v2=0.01,
        sigma_w2=0.0,
    )
    with pytest.raises(UnsupportedStructure):
        build_entropy_params(full)
    weighted = LoopControlSpec(
        a=spec.a, b_in=spec.b_in, c_obs=spec.c_obs, q_w=spec.q_w,
        r_w=np.eye(1), sigma_v2=0.01, sigma_w2=0.0,
    )
    with pytest.raises(UnsupportedStructure):
        build_entropy_params(weighted)


def test_min_entropy_examples():
    ep = EntropyParams(n=1, h=1.0, l_min=0.5, c=1.0)
    assert min_entropy(1.5, ep) == pytest.approx(1.5)
    ep2 = EntropyParams(n=2, h=3.0, l_min=1.0, c=4.0)
    assert min_entropy(2.0, ep2) == pytest.approx(3.0 + math.log2(5.0))
    # large costs approach the intrinsic rate from above
    assert min_entropy(1e12, ep) == pytest.approx(ep.h, abs=1e-9)


def test_min_entropy_floor_error():
    ep = EntropyParams(n=1, h=1.0, l_min=0.5, c=1.0)
    with pytest.raises(CostBelowFloor):
        min_entropy(0.5, ep)


def test_lqr_from_entropy_examples():
    ep = EntropyParams(n=1, h=1.0, l_min=0.5, c=1.0)
    assert lqr_from_entropy(1.5, ep) == pytest.approx(1.5)
    assert lqr_from_entropy(200.0, ep) == pytest.approx(ep.l_min, abs=1e-12)
    # near the intrinsic rate the cost blows up like the series 1/(2 eps ln2)
    eps = 1e-6
    series = 1.0 / (2.0 * eps * math.log(2.0))
    assert lqr_from_entropy(1.0 + eps, ep) - ep.l_min == pytest.approx(series, rel=1e-3)


def test_lqr_from_entropy_unstabilizable():
    ep = EntropyParams(n=1, h=1.0, l_min=0.5, c=1.0)
    with pytest.raises(Unstabilizable):
        lqr_from_entropy(1.0, ep)
    with pytest.raises(Unstabilizable):
        lqr_from_entropy(0.2, ep)


def test_roundtrip_and_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ep = EntropyParams(
            n=int(rng.integers(1, 60)),
            h=rng.uniform(-5.0, 150.0),
            l_min=rng.uniform(0.0, 10.0),
            c=rng.uniform(0.01, 10.0),
        )
        es = np.sort(ep.h + 10.0 ** rng.uniform(-6, 2, size=25))
        ls = [lqr_from_entropy(float(e), ep) for e in es]
        for e, l in zip(es, ls):
            assert min_entropy(l, ep) == pytest.approx(float(e), rel=1e-9)
            assert l > ep.l_min
        # cost strictly decreasing in entropy
        assert all(b < a for a, b in zip(ls, ls[1:]))


def test_entropy_kernel_midpoint_convexity():
    # the per-second entropy demand as a function of (cost, window) never
    # dips below its chords
    ep = EntropyParams(n=4, h=2.0, l_min=1.0, c=3.0)
    rng = np.random.default_rng(9)
    for _ in range(300):
        l1, l2 = ep.l_min + 10.0 ** rng.uniform(-3, 2, size=2)
        t1, t2 = 10.0 ** rng.uniform(-3, 1, size=2)
        fa = min_entropy(l1, ep) / t1
        fb = min_entropy(l2, ep) / t2
        fm = min_entropy(0.5 * (l1 + l2), ep) / (0.5 * (t1 + t2))
        assert fm <= 0.5 * (fa + fb) + 1e-9 * max(1.0, abs(fa), abs(fb))


def test_entropy_params_validation():
    with pytest.raises(ValueError):
        EntropyParams(n=0, h=1.0, l_min=0.0, c=1.0)
    with pytest.raises(ValueError):
        EntropyParams(n=1, h=1.0, l_min=-1.0, c=1.0)
    with pytest.raises(ValueError):
        EntropyParams(n=1, h=1.0, l_min=0.0, c=0.0)
    with pytest.raises(ValueError):
        EntropyParams(n=1, h=math.inf, l_min=0.0, c=1.0)


def test_riccati_diagonal_solves_the_scalar_equation():
    a = np.array([2.0, -0.5, 3.0, 1.5])
    b = np.array([1.0, 2.0, 0.5, -1.0])
    q = np.array([1.0, 2.0, 0.5, 1.0])
    r = np.array([0.0, 0.1, 1.0, 2.0])
    s = riccati_diagonal(a, b, q, r)
    assert s[0] == q[0]  # with no control weight the recursion settles at q
    # positive root of b^2 s^2 + (r (1 - a^2) - q b^2) s - q r = 0
    lin = r * (1.0 - a * a) - q * b * b
    exact = (-lin + np.sqrt(lin * lin + 4.0 * b * b * q * r)) / (2.0 * b * b)
    assert np.allclose(s, exact, rtol=1e-9, atol=0.0)
