import numpy as np
import pytest

from sc3opt import (
    Budgets,
    ComputeParams,
    EntropyParams,
    LinkParams,
    Loop,
    RegionLabel,
    Scenario,
)

# first ten integer seeds whose optimum needs no cross-loop specialization;
# on those the solver settles in <= 5 outer rounds and every extrapolation
# trial is rejected, so each round ends at its plain MM point.  The other
# default seeds migrate loops between offload regimes: the majorants are
# conservative far from their anchors, so plain MM steps crawl there, and
# extrapolating along them settles those seeds in 7-13 rounds.
QUICK_SEEDS = (0, 1, 2, 6, 7, 9, 11, 12, 18, 19)


@pytest.fixture
def params():
    """Reference offload constants used across the numeric examples."""
    return ComputeParams(alpha=100.0, beta=50.0, rho=0.25, tau=5e-3)


@pytest.fixture
def link():
    return LinkParams(bandwidth_hz=5000.0, gamma0=1e-6, noise_power_w=1e-14, uav_height_m=100.0)


def make_loop(h=112.0, n=50, l_min=2.4, c=2.0, distance_m=4000.0, data_bits=1e6, cycle_s=0.07):
    return Loop(
        entropy=EntropyParams(n=n, h=h, l_min=l_min, c=c),
        data_bits=data_bits,
        cycle_seconds=cycle_s,
        distance_m=distance_m,
    )


def tight_single_loop_scenario():
    """One loop with budgets small enough that the entropy constraint bites,
    so the optimum sits strictly at the budget corner."""
    return Scenario(
        loops=(make_loop(),),
        compute=ComputeParams(alpha=100.0, beta=50.0, rho=0.25, tau=5e-3),
        link=LinkParams(bandwidth_hz=5000.0, gamma0=1e-6, noise_power_w=1e-14, uav_height_m=100.0),
        budgets=Budgets(p_max_w=0.2, f_max_cycles=2e9, r_max_bits=1e7),
    )


def symmetric_two_loop_scenario():
    # compute-rich budgets keep both loops in the all-local regime, where the
    # cost is strictly convex in power and compute and the symmetric split is
    # the unique global optimum; at scarce budgets the non-convex latency
    # surface genuinely favors asymmetric specialization
    return Scenario(
        loops=(make_loop(distance_m=3000.0), make_loop(distance_m=3000.0)),
        compute=ComputeParams(alpha=100.0, beta=50.0, rho=0.25, tau=5e-3),
        link=LinkParams(bandwidth_hz=5000.0, gamma0=1e-6, noise_power_w=1e-14, uav_height_m=100.0),
        budgets=Budgets(p_max_w=1.0, f_max_cycles=12e9, r_max_bits=3e7),
    )


def random_compute_params(rng: np.random.Generator) -> ComputeParams:
    alpha = rng.uniform(20.0, 200.0)
    beta = alpha * rng.uniform(0.1, 0.8)
    rho = rng.uniform(0.05, 1.0)
    tau = rng.uniform(1e-3, 1e-2)
    return ComputeParams(alpha=alpha, beta=beta, rho=rho, tau=tau)


def random_flow(rng: np.random.Generator):
    d = 10.0 ** rng.uniform(5.0, 7.0)
    f = 10.0 ** rng.uniform(6.0, 10.0)
    r = 10.0 ** rng.uniform(4.0, 8.0)
    return f, r, d


def max_branch(rows):
    """The row of each of ``surrogate_batch``'s ``partials()`` that its max
    takes, per loop: the S1 branch where it is at least the smooth one."""
    take = rows[0][-1] >= rows[0][0]
    return tuple(np.where(take, a[-1], a[0]) for a in rows)


def convex_time_s2(f, r, anchor, d, params):
    """Reference S2 majorant, tangent at the anchor (a ``SurrogateAnchor``),
    written from the offload constants: the closed form that
    ``ComputeParams.majorant_rows`` must reproduce bit for bit."""
    a, b, rho = params.alpha, params.beta, params.rho
    delay = params.relay_delay
    w = rho * f + (a - b) * r
    w0 = rho * anchor.f0 + (a - b) * anchor.r0
    k = rho * a * delay / (a - b) * anchor.f0 / w0
    return rho * a * d / w + a * delay / (a - b) - k * (3.0 - anchor.f0 / f - w / w0)


def convex_time_s3(f, r, anchor, d, params):
    """Reference S3 majorant, tangent at the anchor, as ``convex_time_s2``."""
    a = params.alpha
    delay = params.relay_delay
    v = f + a * r
    v0 = anchor.f0 + a * anchor.r0
    k = delay * anchor.f0 / v0
    return a * d / v + delay - k * (3.0 - anchor.f0 / f - v / v0)


def reference_classify_region(f, r, d, params):
    """The regime rule as a four-branch chain on floats, kept as the
    reference for ``compute.region_index``: S4 > S3 > S2 > S1, r = 0 and a
    non-positive pre-processing gain give S3 below S4."""
    if f >= params.alpha * d / params.relay_delay:
        return RegionLabel.S4
    if r <= 0.0 or params.preproc_gain <= 0.0:
        return RegionLabel.S3
    band_edge = (params.preproc_gain * d - 4 * params.beta * params.tau * r) / (
        4 * (1.0 - params.rho) * params.tau
    )
    if f >= band_edge:
        return RegionLabel.S3
    if f >= params.beta * r / params.rho:
        return RegionLabel.S2
    return RegionLabel.S1
