import numpy as np
import pytest

from sc3opt import (
    LoopControlSpec,
    build_entropy_params,
    convexity_probe,
    generate_scenario,
    grid_search_global,
    min_entropy,
    monte_carlo_loop,
    sca_solve,
)
from sc3opt import EntropyParams, UnsupportedStructure
from conftest import symmetric_two_loop_scenario, tight_single_loop_scenario


def scalar_plant(a=2.0, sigma_v2=0.01, sigma_w2=0.0):
    return LoopControlSpec(
        a=np.array([[a]]),
        b_in=np.eye(1),
        c_obs=np.eye(1),
        q_w=np.eye(1),
        r_w=np.zeros((1, 1)),
        sigma_v2=sigma_v2,
        sigma_w2=sigma_w2,
    )


def test_grid_matches_solver_single_loop():
    sc = tight_single_loop_scenario()
    alloc, _ = sca_solve(sc)
    _, grid_obj = grid_search_global(sc, grid_n=60)
    assert alloc.sum_lqr <= grid_obj * (1 + 1e-9)
    assert abs(alloc.sum_lqr - grid_obj) / grid_obj < 0.02


def test_grid_symmetric_two_loops_splits_equally():
    sc = symmetric_two_loop_scenario()
    galloc, _ = grid_search_global(sc, grid_n=60)
    a, b = galloc.loops
    # the backhaul is idle in this regime, so only p and f are determined
    assert a.p_w == pytest.approx(b.p_w, rel=1e-9)
    assert a.f_cycles == pytest.approx(b.f_cycles, rel=1e-9)


def test_grid_rejects_large_instances():
    sc = generate_scenario(0)
    with pytest.raises(ValueError):
        grid_search_global(sc)


def test_convexity_probe_negative_control():
    cubic = lambda z: float(z[0] ** 3)  # noqa: E731
    rep = convexity_probe(cubic, [(-1.0, 1.0)], 500, seed=1)
    assert not rep.passed and rep.violations > 0


def test_convexity_probe_positive_control():
    quad = lambda z: float(z[0] ** 2 + z[1] ** 2)  # noqa: E731
    rep = convexity_probe(quad, [(-5.0, 5.0), (-5.0, 5.0)], 500, seed=1)
    assert rep.passed


def test_convexity_probe_entropy_kernel():
    ep = EntropyParams(n=3, h=0.0, l_min=1.0, c=1.0)
    kernel = lambda z: min_entropy(z[0], ep) / z[1]  # noqa: E731
    rep = convexity_probe(kernel, [(1.0001, 100.0), (0.01, 10.0)], 500, seed=2)
    assert rep.passed


def test_convexity_probe_sample_floor():
    with pytest.raises(ValueError):
        convexity_probe(lambda z: 0.0, [(0.0, 1.0)], 10)


def test_monte_carlo_deterministic():
    plant = scalar_plant()
    r1 = monte_carlo_loop(plant, 2.0, 2000, seed=9)
    r2 = monte_carlo_loop(plant, 2.0, 2000, seed=9)
    assert r1 == r2


def test_monte_carlo_sub_entropy_diverges():
    plant = scalar_plant()
    diverged = sum(monte_carlo_loop(plant, 0.9, 4000, seed).diverged for seed in range(5))
    assert diverged == 5


def test_monte_carlo_above_entropy_tracks_floor():
    plant = scalar_plant()
    floor = build_entropy_params(plant).l_min
    costs = []
    for bits in (1.1, 2.0, 10.0):
        runs = [monte_carlo_loop(plant, bits, 5000, seed) for seed in range(5)]
        assert not any(r.diverged for r in runs)
        costs.append(float(np.mean([r.empirical_cost for r in runs])))
        # a finite-sample average can dip a hair below the asymptotic floor
        assert costs[-1] >= floor * 0.98
    assert costs[0] >= costs[1] >= costs[2]
    assert costs[-1] <= 3.0 * floor


def test_monte_carlo_rejects_bad_budget():
    with pytest.raises(ValueError):
        monte_carlo_loop(scalar_plant(), 0.0, 1000, 0)


def test_monte_carlo_rejects_zero_input_gain():
    plant = LoopControlSpec(
        a=np.array([[2.0]]), b_in=np.zeros((1, 1)), c_obs=np.eye(1), q_w=np.eye(1),
        r_w=np.eye(1), sigma_v2=0.01, sigma_w2=0.0,
    )
    with pytest.raises(UnsupportedStructure):
        monte_carlo_loop(plant, 4.0, 100, 0)
