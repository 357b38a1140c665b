import dataclasses
import math

import numpy as np
import pytest

from sc3opt import (
    Allocation,
    LoopAllocation,
    communication_oriented,
    evaluate_allocation,
    generate_scenario,
    min_compute_time,
    power_only_closed_loop,
    sca_solve,
    water_filling,
)
from conftest import symmetric_two_loop_scenario, tight_single_loop_scenario


def test_water_filling_equal_gains():
    p = water_filling(np.array([2.0, 2.0, 2.0]), 6.0)
    assert np.allclose(p, 2.0)


def test_water_filling_two_channel_example():
    # strong channel 1/g = 0.1, weak 1/g = 1.0, budget 1.1:
    # level mu = (1.1 + 1.1) / 2 = 1.1 -> powers 1.0 and 0.1
    p = water_filling(np.array([10.0, 1.0]), 1.1)
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.1)
    assert p.sum() == pytest.approx(1.1)


def test_water_filling_drops_weak_channel():
    p = water_filling(np.array([100.0, 0.01]), 0.5)
    assert p[1] == 0.0 and p[0] == pytest.approx(0.5)


def test_water_filling_kkt_level():
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = 10.0 ** rng.uniform(-2, 4, size=6)
        total = 10.0 ** rng.uniform(-1, 1.5)
        p = water_filling(g, total)
        assert p.min() >= 0.0 and p.sum() == pytest.approx(total, rel=1e-9)
        active = p > 0
        levels = 1.0 / g[active] + p[active]
        assert np.ptp(levels) <= 1e-6 * levels.mean()
        # inactive channels sit above the water level
        if (~active).any():
            assert (1.0 / g[~active]).min() >= levels.mean() * (1 - 1e-9)


def test_power_only_equals_sca_for_single_loop():
    sc = tight_single_loop_scenario()
    a_sca, _ = sca_solve(sc)
    a_po = power_only_closed_loop(sc)
    assert a_po.sum_lqr == pytest.approx(a_sca.sum_lqr, rel=1e-6)
    assert a_po.loops[0].p_w == pytest.approx(a_sca.loops[0].p_w, rel=1e-6)


def test_power_only_symmetric_split():
    sc = symmetric_two_loop_scenario()
    alloc = power_only_closed_loop(sc)
    a, b = alloc.loops
    assert a.p_w == pytest.approx(b.p_w, rel=1e-3)


def test_scheme_ordering_default_scenarios():
    for seed in range(3):
        sc = generate_scenario(seed)
        v_sca = evaluate_allocation(sc, sca_solve(sc)[0])
        v_po = evaluate_allocation(sc, power_only_closed_loop(sc))
        v_co = evaluate_allocation(sc, communication_oriented(sc))
        assert v_sca <= v_po * (1 + 1e-6)
        assert v_po <= v_co * (1 + 1e-6)


def test_comm_oriented_low_power_goes_unstable():
    sc = generate_scenario(500, {"p_max_dbw": 8})
    v_co = evaluate_allocation(sc, communication_oriented(sc))
    assert math.isinf(v_co)
    v_sca = evaluate_allocation(sc, sca_solve(sc)[0])
    assert math.isfinite(v_sca)


def test_evaluate_consistent_with_trace():
    sc = generate_scenario(0)
    alloc, trace = sca_solve(sc)
    assert evaluate_allocation(sc, alloc) == pytest.approx(trace.objectives[-1], rel=1e-6)


def test_evaluate_zero_power_is_infinite():
    sc = generate_scenario(0)
    alloc, _ = sca_solve(sc)
    dead = Allocation(
        loops=tuple(
            LoopAllocation(
                p_w=0.0,
                f_cycles=la.f_cycles,
                r_bits=la.r_bits,
                t_commu_s=la.t_commu_s,
                lqr_cost=la.lqr_cost,
                split=la.split,
            )
            for la in alloc.loops
        ),
        sum_lqr=0.0,
    )
    assert math.isinf(evaluate_allocation(sc, dead))


def test_evaluate_ignores_split_and_stored_costs():
    sc = generate_scenario(0)
    alloc, _ = sca_solve(sc)
    stripped = Allocation(
        loops=tuple(
            LoopAllocation(
                p_w=la.p_w,
                f_cycles=la.f_cycles,
                r_bits=la.r_bits,
                t_commu_s=0.0,
                lqr_cost=math.nan,
                split=None,
            )
            for la in alloc.loops
        ),
        sum_lqr=math.nan,
    )
    assert evaluate_allocation(sc, stripped) == pytest.approx(
        evaluate_allocation(sc, alloc), rel=1e-12
    )


def test_evaluate_reproduces_baseline_costs():
    for p_max_dbw in (5.0, 10.0):  # comm_oriented leaves a loop unstable at 5 dBW
        sc = generate_scenario(3, {"p_max_dbw": p_max_dbw})
        for alloc in (power_only_closed_loop(sc), communication_oriented(sc)):
            assert evaluate_allocation(sc, alloc) == alloc.sum_lqr


def test_comm_oriented_split_moves_off_equal_start():
    # unequal data sizes make the equal compute split non-stationary, so the
    # compute split has to take steps
    sc = generate_scenario(0)
    sizes = (2e5, 5e5, 1e6, 2e6, 4e6)
    sc = dataclasses.replace(
        sc, loops=tuple(dataclasses.replace(lp, data_bits=d) for lp, d in zip(sc.loops, sizes))
    )
    b = sc.budgets
    alloc = communication_oriented(sc)
    f = [la.f_cycles for la in alloc.loops]
    assert sum(f) == pytest.approx(b.f_max_cycles, rel=1e-9)

    def sum_time(f_cycles):
        return sum(
            min_compute_time(f_k, la.r_bits, d, sc.compute)
            for f_k, la, d in zip(f_cycles, alloc.loops, sizes)
        )

    assert sum_time(f) < 0.95 * sum_time([b.f_max_cycles / sc.k] * sc.k)
