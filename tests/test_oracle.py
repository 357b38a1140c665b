import math
import tracemalloc

import numpy as np
import pytest

from sc3opt import (
    Allocation,
    LoopAllocation,
    LoopControlSpec,
    build_entropy_params,
    convexity_probe,
    generate_scenario,
    grid_search_global,
    intrinsic_entropy,
    min_compute_time_batch,
    min_entropy,
    monte_carlo_loop,
    optimal_split,
    riccati_diagonal,
    sca_solve,
)
from sc3opt import EntropyParams, Infeasible, McResult, UnsupportedStructure
from sc3opt.control import LN2
from sc3opt.oracle import _LOCKSTEP_BLOCK, _LOCKSTEP_MODES, GRID_POWER_BLOCK
from sc3opt.solver import LoopData
from conftest import symmetric_two_loop_scenario, tight_single_loop_scenario


def scalar_plant(a=2.0, sigma_v2=0.01, sigma_w2=0.0):
    return LoopControlSpec(a=[a], b=[1.0], sigma_v2=sigma_v2, sigma_w2=sigma_w2)


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
    two = generate_scenario(0, {"k_loops": 2})
    for grid_n in (0, -1, 101, 60.5, 60.0, True):  # True is an Integral equal to 1
        with pytest.raises(ValueError, match="grid_n"):
            grid_search_global(two, grid_n=grid_n)


def test_grid_raises_infeasible_when_no_point_stabilizes():
    sc = generate_scenario(0, {"k_loops": 2, "p_max_dbw": -60.0})
    with pytest.raises(Infeasible, match="grid search"):
        grid_search_global(sc, grid_n=20)


def test_grid_search_memory_is_bounded():
    # the (p, (f, r)) outer product at grid_n = 100 alone would take 8 MB
    sc = generate_scenario(0, {"k_loops": 2})
    tracemalloc.start()
    try:
        grid_search_global(sc, grid_n=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


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


@pytest.mark.parametrize(
    "bits, n_cycles",
    [(0.0, 1000), (math.inf, 1000), (math.nan, 1000), (2.0, 0), (2.0, -5), (2.0, 2.5), (2.0, 100.0), (2.0, True)],
    ids=[
        "zero_bits",
        "inf_bits",
        "nan_bits",
        "no_cycles",
        "negative_cycles",
        "fractional_cycles",
        "float_cycles",
        "bool_cycles",
    ],
)
def test_monte_carlo_rejects_bad_budget(bits, n_cycles):
    with pytest.raises(ValueError):
        monte_carlo_loop(scalar_plant(), bits, n_cycles, 0)


def test_monte_carlo_rejects_zero_input_gain():
    plant = LoopControlSpec(a=[2.0], b=[0.0], sigma_v2=0.01, sigma_w2=0.0)
    with pytest.raises(UnsupportedStructure):
        monte_carlo_loop(plant, 4.0, 100, 0)


@pytest.mark.parametrize("n", [2, _LOCKSTEP_MODES + 1], ids=["scalar", "lockstep"])
def test_monte_carlo_rejects_zero_pole(n):
    # log2|0| would make the bit split NaN
    plant = LoopControlSpec(a=[0.0] + [2.0] * (n - 1), b=np.ones(n), sigma_v2=0.01, sigma_w2=0.0)
    with pytest.raises(ValueError, match="a != 0"):
        monte_carlo_loop(plant, 4.0, 100, 0)


def reference_grid_search(scenario, grid_n):
    """The grid oracle evaluated on the full 3-D (p, f, r) meshgrid, latency
    included at every point, kept as the reference for the version that
    evaluates the latency once per (f, r) point and streams the powers."""
    data = LoopData(scenario)
    b = scenario.budgets
    axis = np.linspace(0.0, 1.0, grid_n + 1)
    pg, fg, rg = (m.ravel() for m in np.meshgrid(axis, axis, axis, indexing="ij"))

    def loop_costs(i, p, f, r):
        with np.errstate(all="ignore"):
            t_commu = data.t_cycle[i] - min_compute_time_batch(
                f, r, float(data.d_bits[i]), scenario.compute
            )
            e = data.bandwidth * t_commu * np.log1p(data.gamma[i] * p) / LN2
            good = (t_commu > 0.0) & (e > data.h[i])
            cost = np.full(e.shape, np.inf)
            if good.any():
                w = 2.0 * (e[good] - data.h[i]) / data.n[i]
                cost[good] = data.l_min[i] + data.c[i] / np.expm1(w * LN2)
        return cost

    total = loop_costs(0, pg * b.p_max_w, fg * b.f_max_cycles, rg * b.r_max_bits)
    if scenario.k == 2:
        total = total + loop_costs(
            1, (1.0 - pg) * b.p_max_w, (1.0 - fg) * b.f_max_cycles, (1.0 - rg) * b.r_max_bits
        )
    best = int(np.argmin(total))
    objective = float(total[best])
    shares = [(pg[best], fg[best], rg[best])]
    if scenario.k == 2:
        shares.append((1.0 - pg[best], 1.0 - fg[best], 1.0 - rg[best]))
    loops = []
    for i, (sp, sf, sr) in enumerate(shares):
        p_i, f_i, r_i = sp * b.p_max_w, sf * b.f_max_cycles, sr * b.r_max_bits
        t_comp = float(
            min_compute_time_batch(np.array([f_i]), np.array([r_i]), float(data.d_bits[i]), scenario.compute)[0]
        )
        t_commu = float(data.t_cycle[i]) - t_comp
        cost = float(loop_costs(i, np.array([p_i]), np.array([f_i]), np.array([r_i]))[0])
        split = None
        if f_i > 0.0 or r_i > 0.0:
            split = optimal_split(f_i, r_i, float(data.d_bits[i]), scenario.compute)
        loops.append(
            LoopAllocation(
                p_w=float(p_i),
                f_cycles=float(f_i),
                r_bits=float(r_i),
                t_commu_s=max(t_commu, 0.0),
                lqr_cost=cost,
                split=split,
            )
        )
    return Allocation(loops=tuple(loops), sum_lqr=objective), objective


@pytest.mark.parametrize(
    "overrides",
    [{"k_loops": 1}, {"k_loops": 2}, {"k_loops": 2, "p_max_dbw": -5.0}],
    ids=["k1", "k2", "k2_low_power"],
)
def test_grid_search_matches_full_meshgrid_reference(overrides):
    # 13 and 61 power rows end in a partial block, 16 rows fill whole blocks
    for grid_n, seeds in ((12, range(4)), (15, range(2)), (60, range(2))):
        for seed in seeds:
            sc = generate_scenario(seed, overrides)
            assert grid_search_global(sc, grid_n=grid_n) == reference_grid_search(sc, grid_n)


@pytest.mark.parametrize(
    "seed, overrides",
    [(0, {"k_loops": 1}), (33, {"k_loops": 2, "p_max_dbw": -5.0})],
    ids=["k1_full_power", "k2_seed33"],
)
def test_grid_search_minimum_in_last_partial_block(seed, overrides):
    grid_n = 20  # 21 power rows: the last block holds rows 16-20 only
    assert (grid_n + 1) % GRID_POWER_BLOCK != 0
    sc = generate_scenario(seed, overrides)
    got = grid_search_global(sc, grid_n=grid_n)
    row = round(got[0].loops[0].p_w / sc.budgets.p_max_w * grid_n)
    assert row // GRID_POWER_BLOCK == grid_n // GRID_POWER_BLOCK
    assert got == reference_grid_search(sc, grid_n)


def reference_monte_carlo(loop, bits_per_cycle, n_cycles, seed):
    """The Monte-Carlo loop drawing each noise sample with its own
    ``rng.normal`` call, kept as the reference for the block-drawn one."""
    n = loop.n
    a_diag, b_diag = loop.a, loop.b
    q_diag, r_diag = np.ones(n), np.zeros(n)  # Q = I, R = 0
    s = riccati_diagonal(a_diag, b_diag, q_diag, r_diag)
    gains = a_diag * b_diag * s / (r_diag + b_diag * b_diag * s)
    h_dims = np.abs(np.log2(np.abs(a_diag)))
    weights = h_dims / h_dims.sum() if h_dims.sum() > 0 else np.full(n, 1.0 / n)
    rng = np.random.default_rng(seed)
    sigma_v = math.sqrt(loop.sigma_v2)
    sigma_w = math.sqrt(loop.sigma_w2)
    warmup = max(n_cycles // 10, 1)
    cost_sum = 0.0
    diverged = False
    ran = n_cycles
    overflow = 1e8 * max(sigma_v, 1e-9)
    for dim in range(n):
        a, b = float(a_diag[dim]), float(b_diag[dim])
        gain = float(gains[dim])
        bits = bits_per_cycle * float(weights[dim])
        slack = 4.0 * (sigma_v + abs(a) * sigma_w)
        span = max(slack, 1e-12)
        x = rng.normal(0.0, sigma_v)
        credit = 0.0
        dim_cost = 0.0
        dim_cycles = 0
        for t in range(n_cycles):
            credit += bits
            used = min(math.floor(credit), 30)
            credit -= used
            levels = 2 ** int(used)
            y = x + rng.normal(0.0, sigma_w) if sigma_w > 0.0 else x
            if abs(y) > span:
                span = 1.1 * abs(y)
            if levels >= 2:
                delta = 2.0 * span / levels
                idx = min(max(math.floor(y / delta), -levels // 2), levels // 2 - 1)
                x_hat = (idx + 0.5) * delta
            else:
                x_hat = 0.0
            u = -gain * x_hat
            if t >= warmup:
                dim_cost += q_diag[dim] * x * x + r_diag[dim] * u * u
                dim_cycles += 1
            x = a * x + b * u + rng.normal(0.0, sigma_v)
            span = abs(a) * span / max(levels, 1) + slack
            if not math.isfinite(x) or abs(x) > overflow:
                diverged = True
                ran = min(ran, t + 1)
                break
        if dim_cycles > 0:
            cost_sum += dim_cost / dim_cycles
        if diverged:
            break
    cost = math.inf if diverged else cost_sum
    return McResult(empirical_cost=cost, diverged=diverged, cycles=ran)


def _second_mode_unstable():
    # mode 0 is stable and never diverges; mode 1 gets too few bits
    return LoopControlSpec(a=[0.5, -6.0], b=[1.0, 0.5], sigma_v2=0.01, sigma_w2=0.001)


def _lockstep_plant(a):
    return LoopControlSpec(a=a, b=np.ones(len(a)), sigma_v2=0.01, sigma_w2=0.001)


def _low_mode_diverges_later():
    # at 0.9 h mode N diverges near cycle 20, in the first block, and mode 1
    # near cycle 185, in the next one; the run reports mode 1's cycle
    a = [0.98] * (_LOCKSTEP_MODES + 1)
    a[1], a[-1] = 1.2, -6.0
    return _lockstep_plant(a)


def _last_mode_unstable():
    # at 0.1 h the last mode's state overflows within its block, which
    # raises the float warnings the lockstep must silence
    return _lockstep_plant([0.98] * _LOCKSTEP_MODES + [-100.0])


def _generated(n_state):
    return generate_scenario(3, {"n_state": n_state}).loops[0].control


# one cycle, part of one lockstep block, and a length off the block grid
LOCKSTEP_RUNS = (1, _LOCKSTEP_BLOCK - 1, 2 * _LOCKSTEP_BLOCK + 37)


@pytest.mark.parametrize(
    "plant, h_mults, cycle_counts",
    [
        (scalar_plant(), (0.9, 1.1, 2.0, 10.0), (500,)),
        (scalar_plant(sigma_w2=0.002), (0.9, 1.1, 2.0, 10.0), (500,)),
        (_second_mode_unstable(), (0.9, 2.0), (400,)),
        (_generated(6), (0.9, 2.0), (300,)),
        (_generated(_LOCKSTEP_MODES - 1), (0.9, 2.0), LOCKSTEP_RUNS),
        (_generated(_LOCKSTEP_MODES), (0.9, 2.0), LOCKSTEP_RUNS),
        (_generated(50), (0.9, 2.0), LOCKSTEP_RUNS),
        (_low_mode_diverges_later(), (0.9, 1.5), (600,)),
        (_last_mode_unstable(), (0.1, 0.9, 2.0), (400,)),
    ],
    ids=[
        "scalar_quiet",
        "scalar_noisy",
        "second_mode_diverges",
        "generated_n6",
        "generated_below_lockstep",
        "generated_lockstep",
        "generated_n50",
        "low_mode_diverges_later",
        "last_mode_diverges",
    ],
)
def test_monte_carlo_matches_per_draw_reference(plant, h_mults, cycle_counts):
    h = intrinsic_entropy(plant.a)
    for mult in h_mults:
        for n_cycles in cycle_counts:
            for seed in range(3):
                got = monte_carlo_loop(plant, mult * h, n_cycles, seed)
                assert got == reference_monte_carlo(plant, mult * h, n_cycles, seed)


def test_lockstep_reports_the_lowest_diverging_mode():
    # mode N diverges in the first block, mode 1 later; mode 1 sets the count
    plant = _low_mode_diverges_later()
    res = monte_carlo_loop(plant, 0.9 * intrinsic_entropy(plant.a), 600, 0)
    assert res.diverged and res.cycles > _LOCKSTEP_BLOCK
    plant = _last_mode_unstable()
    res = monte_carlo_loop(plant, 0.9 * intrinsic_entropy(plant.a), 400, 0)
    assert res.diverged and res.cycles < 400


def test_second_mode_divergence_ends_the_run():
    # mode 0 is stable, so the divergence and its cycle count come from mode 1
    plant = _second_mode_unstable()
    res = monte_carlo_loop(plant, 0.9 * intrinsic_entropy(plant.a), 400, 0)
    assert res.diverged and res.cycles < 400
