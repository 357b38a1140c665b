import dataclasses
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
    generate_scenario,
    intrinsic_entropy,
    lqr_from_entropy,
    min_entropy,
)
from sc3opt.control import kalman_diagonal


def scalar_spec(a=2.0, sigma_v2=0.01, sigma_w2=0.0):
    return LoopControlSpec(a=[a], b=[1.0], sigma_v2=sigma_v2, sigma_w2=sigma_w2)


def test_intrinsic_entropy_examples():
    assert intrinsic_entropy([[2.0]]) == pytest.approx(1.0)
    assert intrinsic_entropy(np.diag([2.0, -4.0])) == pytest.approx(3.0)
    assert intrinsic_entropy(np.diag([10.0] * 50)) == pytest.approx(50 * math.log2(10))


def test_intrinsic_entropy_singular():
    with pytest.raises(SingularStateMatrix):
        intrinsic_entropy(np.diag([1.0, 0.0]))


def test_intrinsic_entropy_rejects_non_finite_entries():
    for a in ([math.nan], np.diag([2.0, math.inf])):
        with pytest.raises(ValueError):
            intrinsic_entropy(a)


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
        a=mags * np.where(rng.random(8) < 0.5, -1, 1),
        b=np.ones(8),
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


def test_builder_constants_do_not_depend_on_the_input_gains():
    """At R = 0 the controller cancels b (its gain is a / b), so a plant
    with nonzero input gains of any size and sign has exactly the
    constants of the same plant with unit gains."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
        b = 10.0 ** rng.uniform(-2.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
        unit = LoopControlSpec(a=a, b=np.ones(n), sigma_v2=0.01, sigma_w2=float(rng.choice([0.0, 0.001])))
        assert build_entropy_params(dataclasses.replace(unit, b=b)) == build_entropy_params(unit)


def test_builder_rejects_unsupported_structure():
    # a zero input gain leaves its mode uncontrollable; non-diagonal and
    # weighted plants cannot be written as a spec at all
    uncontrolled = LoopControlSpec(a=[2.0, 3.0], b=[1.0, 0.0], sigma_v2=0.01, sigma_w2=0.0)
    with pytest.raises(UnsupportedStructure):
        build_entropy_params(uncontrolled)


@pytest.mark.parametrize(
    "a, b",
    [(np.diag([2.0, 3.0]), np.ones(2)), ([2.0, 3.0], np.eye(2)), ([2.0, 3.0], [1.0]), ([], []), (2.0, 1.0)],
    ids=["2d_a", "2d_b", "mismatched_lengths", "empty", "scalars"],
)
def test_spec_takes_one_diagonal_per_matrix(a, b):
    with pytest.raises(ValueError):
        LoopControlSpec(a=a, b=b, sigma_v2=0.01, sigma_w2=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("a", [2.0, math.inf]),
        ("a", [math.nan, 3.0]),
        ("b", [1.0, math.nan]),
        ("sigma_v2", math.nan),
        ("sigma_v2", math.inf),
        ("sigma_w2", math.nan),
        ("sigma_w2", math.inf),
    ],
    ids=["inf_a", "nan_a", "nan_b", "nan_sigma_v2", "inf_sigma_v2", "nan_sigma_w2", "inf_sigma_w2"],
)
def test_spec_rejects_non_finite_values(field, value):
    values = {"a": [2.0, 3.0], "b": [1.0, 1.0], "sigma_v2": 0.01, "sigma_w2": 0.001}
    values[field] = value
    with pytest.raises(ValueError):
        LoopControlSpec(**values)


def test_generated_spec_holds_only_diagonals():
    # n = 50 dense matrices would hold 2500 floats each
    n = 50
    for loop in generate_scenario(0, {"k_loops": 5, "n_state": n}).loops:
        arrays = [getattr(loop.control, f.name) for f in dataclasses.fields(loop.control)]
        floats = sum(np.size(x) for x in arrays if isinstance(x, np.ndarray))
        assert floats <= 2 * n
        assert all(x.base is None for x in arrays if isinstance(x, np.ndarray))


def test_intrinsic_entropy_of_a_diagonal_matches_its_matrix():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 50):
        v = rng.uniform(1.0, 10.0, n) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
        assert intrinsic_entropy(v) == intrinsic_entropy(np.diag(v))


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


def test_cost_curve_rejects_nan_and_keeps_its_infinite_limits():
    ep = EntropyParams(n=2, h=3.0, l_min=1.0, c=4.0)
    with pytest.raises(ValueError):
        min_entropy(math.nan, ep)
    with pytest.raises(ValueError):
        lqr_from_entropy(math.nan, ep)
    assert min_entropy(math.inf, ep) == ep.h
    assert lqr_from_entropy(math.inf, ep) == ep.l_min


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
    for n in (2.5, math.inf, math.nan):  # a state dimension is a whole number
        with pytest.raises(ValueError):
            EntropyParams(n=n, h=1.0, l_min=0.0, c=1.0)
    assert EntropyParams(n=2.0, h=1.0, l_min=0.0, c=1.0).n == 2


@pytest.mark.parametrize(
    "field, value",
    [("h", math.nan), ("l_min", math.nan), ("l_min", math.inf), ("c", math.nan), ("c", math.inf)],
    ids=["nan_h", "nan_l_min", "inf_l_min", "nan_c", "inf_c"],
)
def test_entropy_params_rejects_non_finite_values(field, value):
    values = {"n": 1, "h": 1.0, "l_min": 0.5, "c": 1.0}
    values[field] = value
    with pytest.raises(ValueError):
        EntropyParams(**values)


def test_builder_filtering_error_solves_its_steady_state_equation():
    """The builder's filtering error sigma is a fixed point of the Kalman
    recursion sigma <- p w / (p + w), p = a^2 sigma + v, to rounding, on
    every mode of the plants of default seeds 0-15 and at both signs of the
    quadratic's linear coefficient v + w - a^2 w; with w = 0 it is zero."""
    for seed in range(16):
        for loop in generate_scenario(seed).loops:
            a, v, w = loop.control.a, loop.control.sigma_v2, loop.control.sigma_w2
            sigma = kalman_diagonal(a, v, w)
            pred = a * a * sigma + v
            assert (np.abs(pred * w / (pred + w) - sigma) <= 1e-15 * sigma).all()
    a = np.array([0.5, 2.0, 3.0])
    assert (kalman_diagonal(a, 0.01, 0.001) > 0.0).all()
    assert (kalman_diagonal(a, 0.01, 0.0) == 0.0).all()
