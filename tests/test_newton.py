"""The Newton-KKT kernel and the Newton inner solve of ``sca_solve``.

``newton_kkt_step`` takes per-loop gradients and curvature blocks and
couples the loops only through the budget rows.  With one row it must be the
power-only baseline's former step, kept below as the reference, bit for
bit.  With three rows it is checked on separable quadratics, where Newton
from any start must reach the minimizer SPG finds to high accuracy, against
the saddle-point system of blocks given a Levenberg shift, and on the rounds
of generated solves where the solver meets a flat S1 direction and a zero
bound.  ``newton_descent``, the damped-Newton loop around it, is
checked on the water-filling problem, whose minimizer is known exactly.
"""

import math

import numpy as np
import pytest

import sc3opt.baselines
import sc3opt.optim
import sc3opt.solver
from sc3opt import InfeasibleSubproblem, SolverConfig, generate_scenario, power_only_closed_loop, sca_solve
from sc3opt.baselines import water_filling
from sc3opt.optim import newton_descent, newton_kkt_step, project_budget_simplex
from sc3opt.surrogate import surrogate_batch
from test_spg import reference_joint_objective, reference_spg

FLAT = np.finfo(float).tiny / np.finfo(float).eps


def reference_newton_step(p, g, curv, residual):
    """The power-only baseline's scalar Newton step before the kernel; its
    caller ran it with float errors ignored."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _reference_newton_step(p, g, curv, residual)


def _reference_newton_step(p, g, curv, residual):
    inv = 1.0 / curv
    flat = ~(curv >= FLAT)
    fixed = np.zeros(p.size, dtype=bool)
    while True:
        free = ~fixed
        absorb = flat & free
        if absorb.any():
            mu = 0.0
            dp = np.where(absorb, 0.0, -g * inv)
            dp[fixed] = -p[fixed]
            dp[absorb] = (residual - dp.sum()) / np.count_nonzero(absorb)
        else:
            mu = -(residual + p[fixed].sum() + g[free] @ inv[free]) / inv[free].sum()
            dp = -(g + mu) * inv
            dp[fixed] = -p[fixed]
        low = free & (dp < -p)
        if not low.any():
            return dp, g + mu
        fixed |= low


def _scalar_case(rng, k):
    p = rng.uniform(0.0, 1.0, k)
    p[rng.random(k) < 0.2] = 0.0
    g = -(10.0 ** rng.uniform(-3.0, 1.0, k))
    g[rng.random(k) < 0.2] *= -1.0  # a stable loop: its cost rises in power
    curv = 10.0 ** rng.uniform(-3.0, 3.0, k)
    curv[rng.random(k) < 0.15] = rng.choice([0.0, 1e-300])  # underflowed curvature
    return p, g, curv, float(rng.uniform(-0.5, 0.5) * p.sum())


@pytest.mark.parametrize("k", [1, 2, 5, 50])
def test_scalar_kernel_matches_reference_step(k):
    rng = np.random.default_rng(k)
    for _ in range(200):
        p, g, curv, residual = _scalar_case(rng, k)
        dz, kkt, nu = newton_kkt_step(p[:, None], g[:, None], curv[:, None, None], np.array([residual]))
        ref_dp, ref_kkt = reference_newton_step(p, g, curv, residual)
        assert dz.shape == kkt.shape == (k, 1) and not nu.any()
        assert dz[:, 0].tobytes() == ref_dp.tobytes()
        assert kkt[:, 0].tobytes() == np.asarray(ref_kkt, dtype=float).tobytes()


def test_power_only_reproduces_reference_results(monkeypatch):
    def run():
        return [
            repr(power_only_closed_loop(generate_scenario(seed, {"k_loops": k, "p_max_dbw": dbw})))
            for seed in range(4)
            for k in (3, 5)
            for dbw in (10.0, 15.0, 20.0)
        ]

    got = run()

    def reference(z, g, hess, residual):
        dp, kkt = reference_newton_step(z[:, 0], g[:, 0], hess[:, 0, 0], float(residual[0]))
        return dp[:, None], kkt[:, None], np.zeros(z.shape[0])

    monkeypatch.setattr(sc3opt.baselines, "newton_kkt_step", reference)
    assert got == run()


# ---------------------------------------------------------------------------
# three budget rows on separable quadratics


def _quadratic(centers, blocks):
    """sum_k (z_k - c_k)^T A_k (z_k - c_k) / 2 with its gradient and blocks."""

    def gradient(z):
        return (blocks @ (z - centers)[:, :, None])[:, :, 0]

    def value(z):
        d = z - centers
        return 0.5 * float((d * (blocks @ d[:, :, None])[:, :, 0]).sum())

    return value, gradient


def _newton(z, gradient, blocks, steps=20):
    """Full kernel steps on a quadratic until they stop moving."""
    for _ in range(steps):
        dz, kkt, _ = newton_kkt_step(z, gradient(z), blocks, 1.0 - z.sum(0))
        z = z + dz
        if np.abs(dz).max() <= 1e-15:
            break
    return z, kkt


def _spg_minimizer(value, gradient, z0):
    k = z0.shape[0]

    def value_grad(x):
        z = x.reshape(3, k).T
        return value(z), gradient(z).T.reshape(-1)

    project = lambda x: project_budget_simplex(x.reshape(-1, k), 1.0).reshape(x.shape)  # noqa: E731
    x = reference_spg(value_grad, project, z0.T.reshape(-1), 1e-13, 100_000, "quadratic")[0]
    return x.reshape(3, k).T


def _spd_blocks(rng, k):
    a = rng.normal(size=(k, 3, 3))
    return a @ a.transpose(0, 2, 1) + 0.5 * np.eye(3)


@pytest.mark.parametrize("seed", range(5))
def test_blocks_reach_the_quadratic_minimizer(seed):
    """A loop driven to zero backhaul holds there as a fixed coordinate."""
    rng = np.random.default_rng(seed)
    k = 4
    blocks = _spd_blocks(rng, k)
    centers = rng.uniform(0.1, 0.6, size=(k, 3))
    centers[0, 2] = -0.3  # loop 0 would rather give back backhaul
    value, gradient = _quadratic(centers, blocks)
    z0 = np.full((k, 3), 0.2)
    z, kkt = _newton(z0, gradient, blocks)
    ref = _spg_minimizer(value, gradient, z0)
    assert value(z) <= value(ref) + 1e-12
    np.testing.assert_allclose(z, ref, atol=1e-8)
    assert (z >= 0.0).all() and (z.sum(0) <= 1.0 + 1e-12).all()
    assert z[0, 2] == 0.0 and kkt[0, 2] >= 0.0  # the bound's multiplier


def test_budget_with_no_free_coordinate_is_slack():
    """Every loop sits at zero backhaul and would go lower: each r is fixed,
    so no loop can move the r row, which drops out with a zero multiplier
    instead of making the multiplier system singular."""
    rng = np.random.default_rng(7)
    k = 3
    blocks = _spd_blocks(rng, k)
    blocks[:, 2, :2] = blocks[:, :2, 2] = 0.0  # r decoupled from p and f
    centers = rng.uniform(0.2, 0.6, size=(k, 3))
    centers[:, 2] = -0.5
    value, gradient = _quadratic(centers, blocks)
    z = np.full((k, 3), 0.25)
    z[:, 2] = 0.0
    dz, kkt, _ = newton_kkt_step(z, gradient(z), blocks, 1.0 - z.sum(0))
    assert (dz[:, 2] == 0.0).all()
    np.testing.assert_array_equal(kkt[:, 2], gradient(z)[:, 2])  # mu_r = 0
    np.testing.assert_allclose((z + dz)[:, :2].sum(0), 1.0, rtol=1e-14)
    ref = _spg_minimizer(value, gradient, z)
    np.testing.assert_allclose(z + dz, ref, atol=1e-8)


def test_budget_with_negative_multiplier_is_slack():
    """When the loops together want less compute than the budget holds, the
    compute row is let go and each loop reaches its own optimum."""
    rng = np.random.default_rng(3)
    k = 3
    blocks = _spd_blocks(rng, k)
    centers = rng.uniform(0.3, 0.6, size=(k, 3))
    centers[:, 1] = 0.1  # sum 0.3 < 1
    value, gradient = _quadratic(centers, blocks)
    z, kkt = _newton(np.full((k, 3), 0.2), gradient, blocks)
    assert z[:, 1].sum() < 1.0
    np.testing.assert_allclose(kkt[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(z, _spg_minimizer(value, gradient, np.full((k, 3), 0.2)), atol=1e-8)


def test_shared_flat_direction_is_split_least_norm():
    """Two loops flat along the same (f, r) direction, as loops on the S1
    branch are: the multipliers make that direction free of cost, and the
    two share equally what the others leave of the residual.  Without the
    direction, their singular blocks would get a Levenberg shift."""
    rng = np.random.default_rng(5)
    k = 3
    blocks = _spd_blocks(rng, k)
    u = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)
    for i in (0, 1):
        q = np.eye(3) - np.outer(u, u)
        blocks[i] = q @ blocks[i] @ q  # singular along u
    centers = rng.uniform(0.4, 0.6, size=(k, 3))  # every budget binds
    value, gradient = _quadratic(centers, blocks)
    z = np.full((k, 3), 0.3)
    flat = np.zeros((k, 3))
    flat[:2] = u
    dz, kkt, _ = newton_kkt_step(z, gradient(z), blocks, 1.0 - z.sum(0), flat=flat)
    np.testing.assert_allclose((z + dz).sum(0), 1.0, rtol=1e-13)
    assert abs(kkt[0] @ u) <= 1e-12 and abs(kkt[1] @ u) <= 1e-12
    np.testing.assert_allclose(dz[0] @ u, dz[1] @ u, rtol=1e-9)
    assert value(z + dz) <= value(_spg_minimizer(value, gradient, z)) + 1e-10


def test_equality_holds_after_the_step():
    rng = np.random.default_rng(11)
    k = 4
    blocks = _spd_blocks(rng, k)
    centers = rng.uniform(0.1, 0.5, size=(k, 3))
    _, gradient = _quadratic(centers, blocks)
    z = np.full((k, 3), 0.2)
    normal = rng.normal(size=(k, 3))
    normal[:, 0] = 0.0
    rhs = rng.normal(scale=1e-3, size=k)
    on = np.array([True, False, True, False])
    dz, kkt, nu = newton_kkt_step(z, gradient(z), blocks, 1.0 - z.sum(0), (normal, rhs, on))
    np.testing.assert_allclose((normal * dz).sum(1)[on], rhs[on], rtol=1e-10, atol=1e-15)
    assert (nu[~on] == 0.0).all()
    # stationarity of each loop's model: H dz + g + mu + nu normal = 0
    stat = (blocks @ dz[:, :, None])[:, :, 0] + kkt
    np.testing.assert_allclose(stat, 0.0, atol=1e-12)


def test_released_budget_that_the_step_overspends_is_held_again():
    """One loop, so each budget row holds one coordinate.  At the full
    budget the f and r rows both get negative multipliers and are let go
    together, but f and r are coupled and the joint step then takes r past
    its budget (to 1.1), so the r row is held again: the step lands on the
    box's KKT point (1, 0.59, 1), with the r row's multiplier positive."""
    blocks = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.9], [0.0, 0.9, 1.0]]])
    centers = np.array([[2.0, 0.5, 1.1]])
    value, gradient = _quadratic(centers, blocks)
    z = np.full((1, 3), 0.2)
    g = gradient(z)
    dz, kkt, _ = newton_kkt_step(z, g, blocks, 1.0 - z.sum(0))
    np.testing.assert_allclose(z + dz, [[1.0, 0.59, 1.0]], rtol=1e-14)
    mu = (kkt - g)[0]
    assert mu[1] == 0.0 and mu[0] == pytest.approx(1.0) and mu[2] == pytest.approx(0.019)
    np.testing.assert_allclose(z + dz, _spg_minimizer(value, gradient, z), atol=1e-8)


def test_equality_without_a_free_direction_is_dropped():
    """Loop 0 holds an equality in (f, r), but both sit at zero and the step
    would take them lower: once they are fixed no free direction is left to
    meet it, so it drops out and the step is the one without it."""
    rng = np.random.default_rng(11)
    blocks = _spd_blocks(rng, 2)
    blocks[:, 0, 1:] = blocks[:, 1:, 0] = 0.0
    centers = np.array([[0.3, -0.5, -0.5], [0.4, 0.4, 0.4]])
    _, gradient = _quadratic(centers, blocks)
    z = np.array([[0.2, 0.0, 0.0], [0.2, 0.2, 0.2]])
    equality = (np.array([[0.0, 1.0, -2.0], [0.0, 0.5, 0.5]]), np.array([1e-3, 0.0]), np.array([True, False]))
    dz, kkt, nu = newton_kkt_step(z, gradient(z), blocks, 1.0 - z.sum(0), equality)
    free_dz, free_kkt, _ = newton_kkt_step(z, gradient(z), blocks, 1.0 - z.sum(0))
    assert (z + dz)[0, 1] == (z + dz)[0, 2] == 0.0
    assert (nu == 0.0).all()
    np.testing.assert_array_equal(dz, free_dz)
    np.testing.assert_array_equal(kkt, free_kkt)


U_FR = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)  # an (f, r) trade, as the S1 branch's flat direction


def _block(rng, eigenvalues, last=None):
    """A symmetric block with these eigenvalues in random directions, the
    last one along ``last`` when given."""
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if last is not None:
        q = np.linalg.qr(np.column_stack([last, rng.normal(size=(3, 2))]))[0][:, [1, 2, 0]]
    return (q * eigenvalues) @ q.T


def _levenberg(block):
    """The block shifted as ``newton_kkt_step`` documents: its smallest
    eigenvalue lifted to its magnitude, and at least to the floor times the
    block's norm."""
    low = np.linalg.eigvalsh(block)[0]
    floor = sc3opt.optim._SHIFT_FLOOR * np.sqrt((block * block).sum())
    return block + (max(abs(low), floor) - low) * np.eye(3)


def _saddle_point_step(blocks, g, residual):
    """dz and mu from the whole KKT system H_k dz_k + mu = -g_k, sum_k dz_k =
    residual, solved at once."""
    k = len(blocks)
    a = np.zeros((3 * k + 3, 3 * k + 3))
    for i, block in enumerate(blocks):
        a[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = block
        a[3 * i : 3 * i + 3, 3 * k :] = a[3 * k :, 3 * i : 3 * i + 3] = np.eye(3)
    x = np.linalg.solve(a, np.concatenate([-g.reshape(-1), residual]))
    return x[: 3 * k].reshape(k, 3), x[3 * k :]


@pytest.mark.parametrize("case", ["indefinite", "nearly_singular"])
def test_levenberg_shift_matches_the_shifted_saddle_point(case):
    """Loop 0's block gets the shift, and the step is the saddle-point
    solution with that block shifted and the others as given.  Indefinite:
    eigenvalues 1, 1, -0.5 become 2, 2, 0.5.  Nearly singular: an
    eigenvalue of 1e-12 is lifted to the floor, 1e-10 of the norm, while
    loop 1's 1e-9 along the same direction is kept; the two split the
    residual along it by those weights, so a missing lift shows."""
    rng = np.random.default_rng(1)
    spd = [_block(rng, np.array([3.0, 2.0, 1.0])) for _ in range(2)]
    g = -0.5 + 0.05 * rng.normal(size=(3, 3))
    if case == "indefinite":
        hess = np.stack([_block(rng, np.array([1.0, 1.0, -0.5])), *spd])
    else:
        weak = [_block(rng, np.array([2.0, 1.0, low]), U_FR) for low in (1e-12, 1e-9)]
        hess = np.stack([*weak, spd[0]])
        g[1] += (g[0] - g[1]) @ U_FR * U_FR  # no gradient gap along the weak direction
    residual = 0.1 * math.sqrt(2.0) * U_FR  # what the weak loops share
    z = np.full((3, 3), 5.0)  # no bound within reach
    dz, kkt, nu = newton_kkt_step(z, g, hess, residual)
    ref_dz, ref_mu = _saddle_point_step([_levenberg(hess[0]), *hess[1:]], g, residual)
    unshifted_dz, _ = _saddle_point_step(hess, g, residual)
    scale = np.abs(ref_dz).max()
    assert (ref_mu > 0.0).all() and not nu.any()  # every budget binds
    # the weak loops' weights reach 1e10: a few parts in 1e6 are rounding
    np.testing.assert_allclose(dz, ref_dz, rtol=0.0, atol=1e-4 * scale)
    np.testing.assert_allclose(kkt, g + ref_mu, rtol=0.0, atol=1e-4 * np.abs(ref_mu).max())
    assert np.abs(unshifted_dz - ref_dz).max() > 0.01 * scale


# ---------------------------------------------------------------------------
# the damped-Newton loop

EPS16 = 16.0 * np.finfo(float).eps  # the power-only baseline's decrement
GAINS = np.array([0.5, 2.0, 8.0, 0.05, 30.0])


def _throughput_problem(gains):
    """min -sum_k log(1 + g_k p_k) over the unit power simplex, the problem
    ``water_filling`` solves exactly, as ``newton_descent`` takes it."""

    def fun(p):
        snr = 1.0 + gains * p
        if not (snr > 0.0).all():
            return math.inf, None
        return -float(np.log(snr).sum()), lambda: (-gains / snr, (gains / snr) ** 2)

    def step(p, terms):
        g, curv = terms()
        dp, kkt, _ = newton_kkt_step(p[:, None], g[:, None], curv[:, None, None], np.array([1.0 - p.sum()]))
        return dp[:, 0], kkt[:, 0], g, None

    return fun, step


def test_descent_reaches_kkt_at_the_water_filling_split():
    """Channels 0 and 3 lie below the water level: Newton shuts them off
    exactly and stops at the decrement test."""
    fun, step = _throughput_problem(GAINS)
    p, val, _, steps, evals, stop = newton_descent(fun, step, np.full(5, 0.2), EPS16, 100, "throughput")
    assert stop == "kkt" and 1 <= steps < evals
    np.testing.assert_allclose(p, water_filling(GAINS, 1.0), rtol=1e-12, atol=1e-15)
    assert p[0] == p[3] == 0.0
    assert val == fun(p)[0]


def test_descent_stops_at_the_cap():
    fun, step = _throughput_problem(GAINS)
    p0 = np.full(5, 0.2)
    p, val, _, steps, _, stop = newton_descent(fun, step, p0, EPS16, 1, "throughput")
    assert (stop, steps) == ("cap", 1)
    assert val < fun(p0)[0]
    assert not np.array_equal(p, water_filling(GAINS, 1.0))


def test_descent_stops_at_a_zero_step_without_evaluating_it():
    fun, _ = _throughput_problem(GAINS)
    zero = lambda p, terms: (np.zeros(5), terms()[0], terms()[0], None)  # noqa: E731
    p0 = np.full(5, 0.2)
    p, val, _, steps, evals, stop = newton_descent(fun, zero, p0, EPS16, 10, "throughput")
    assert (stop, steps, evals) == ("kkt", 0, 1)
    assert p is p0 and val == fun(p0)[0]


def test_descent_rejects_an_infeasible_start():
    fun, step = _throughput_problem(np.array([1.0, 2.0]))
    with pytest.raises(InfeasibleSubproblem, match="throughput: start point is infeasible"):
        newton_descent(fun, step, np.array([-2.0, 0.5]), EPS16, 10, "throughput")


# ---------------------------------------------------------------------------
# the inner solve on generated scenarios


def _rounds(monkeypatch, seed, overrides=None):
    """sca_solve with each round's (data, majorant, x0, result) recorded."""
    rounds = []
    inner_solve = sc3opt.solver._inner_solve

    def recorded(data, majorant, cfg, x0):
        got = inner_solve(data, majorant, cfg, x0)
        rounds.append((data, majorant, x0, got))
        return got

    monkeypatch.setattr(sc3opt.solver, "_inner_solve", recorded)
    sca_solve(generate_scenario(seed, overrides or {}))
    return rounds


def _spg_value(data, majorant, x0):
    k = data.k
    project = lambda x: project_budget_simplex(x.reshape(-1, k), 1.0).reshape(x.shape)  # noqa: E731
    cfg = SolverConfig()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return reference_spg(reference_joint_objective(data, majorant), project, x0, cfg.inner_tol, 100_000, "inner")[1]


def _s1_gap(data, majorant, x):
    """t_S1 - t_smooth per loop at normalized x; positive strictly in S1."""
    _, f, r = x.reshape(3, data.k) * data.budget_col
    _, partials = surrogate_batch(f, r, majorant)
    return partials(np.ones(data.k, dtype=bool))[0] - partials(np.zeros(data.k, dtype=bool))[0]


def test_seed4_rounds_with_flat_s1_loops_and_a_zero_bound(monkeypatch):
    """Seed 4 meets both: rounds whose optimum keeps two S1-anchored loops
    strictly inside S1, where the S1 latency is flat along one (f, r)
    direction, and rounds that drive a backhaul share to exactly zero.
    Every round ends at the KKT test within inner_tol and no higher than
    SPG from the same start."""
    rounds = _rounds(monkeypatch, 4)
    tol = SolverConfig().inner_tol
    flat_s1 = zero_bound = 0
    for data, majorant, x0, (x, val, _, resid, _, stop) in rounds:
        assert stop == "kkt" and resid <= tol
        assert val <= _spg_value(data, majorant, x0) * (1.0 + 1e-12)
        inside_s1 = majorant.s12 & (_s1_gap(data, majorant, x) > 0.0)
        flat_s1 += int(inside_s1.sum() >= 2)
        zero_bound += int((x.reshape(3, -1)[2] == 0.0).any())
    assert flat_s1 and zero_bound
