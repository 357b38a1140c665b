"""Three-way data-split latency model for an edge hub with a satellite backhaul.

The sensor data of one loop (D bits per cycle) can be split into a part
processed on the hub (part 1), a part pre-processed on the hub and relayed
compressed to the cloud (part 2), and a part relayed raw (part 3).  The
three parts run in parallel, relayed parts pay four one-way satellite hops
of propagation delay, and the cycle's computation time is the makespan of
the three flows.

Given the loop's compute budget f (cycles/s) and backhaul rate R (bits/s),
the minimal makespan over all splits is piecewise closed-form with four
regimes:

  S1  compute-starved: every local cycle goes to pre-processing, d1 = 0
  S2  backhaul-starved: pre-processing capped by the uplink, d3 = 0
  S3  pre-processing does not pay: local/raw-relay split, d2 = 0
  S4  compute-rich: everything local, the backhaul stays idle

``min_compute_time`` evaluates the closed form, ``optimal_split`` recovers
a split achieving it, and ``brute_force_min_time`` is an independent grid
oracle used for validation.  Units are bits, cycles/s, bits/s and seconds
throughout; unit conversions belong to the config layer.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoFeasibleFlow, ZeroResourceForPositiveData

# one relayed part crosses the ground-satellite gap four times per cycle
PROPAGATION_HOPS = 4


class RegionLabel(Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"


@dataclass(frozen=True)
class ComputeParams:
    """Constants of the offload latency model.

    alpha: CPU cycles per bit for full processing
    beta:  CPU cycles per bit for pre-processing (cheaper than alpha)
    rho:   compression ratio of pre-processing, in (0, 1]
    tau:   one-way ground-to-satellite propagation delay, seconds
    """

    alpha: float
    beta: float
    rho: float
    tau: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.rho, self.tau))):
            raise ValueError("alpha, beta, rho and tau must be finite")
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("alpha and beta must be positive")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.alpha <= self.beta:
            raise ValueError("pre-processing must be cheaper than full processing")

    @property
    def relay_delay(self) -> float:
        """Propagation delay paid by any relayed part, seconds."""
        return PROPAGATION_HOPS * self.tau

    @property
    def preproc_gain(self) -> float:
        """Net cycles saved per bit by pre-processing, alpha - alpha*rho - beta.

        When this is <= 0 pre-processing never pays off and the S1/S2
        regimes are empty.
        """
        return self.alpha - self.alpha * self.rho - self.beta


@dataclass(frozen=True)
class SplitPlan:
    """A concrete three-way split with its resource sub-allocations.

    d1, d2, d3: part sizes in bits (sum to the loop's data size)
    f1, f2:     hub compute assigned to parts 1 and 2, cycles/s
    r2, r3:     backhaul rate assigned to parts 2 and 3, bits/s
    """

    d1: float
    d2: float
    d3: float
    f1: float
    f2: float
    r2: float
    r3: float
    region: RegionLabel


def component_times(plan: SplitPlan, params: ComputeParams) -> tuple[float, float, float]:
    """Latency of each part of a split; zero-size parts take zero time.

    Raises ZeroResourceForPositiveData if a part has bits but no resource.
    """
    delay = params.relay_delay
    if plan.d1 > 0.0:
        if plan.f1 <= 0.0:
            raise ZeroResourceForPositiveData("part 1 has bits but no compute")
        t1 = params.alpha * plan.d1 / plan.f1
    else:
        t1 = 0.0
    if plan.d2 > 0.0:
        if plan.f2 <= 0.0 or plan.r2 <= 0.0:
            raise ZeroResourceForPositiveData("part 2 has bits but no compute or rate")
        t2 = max(params.beta * plan.d2 / plan.f2, params.rho * plan.d2 / plan.r2) + delay
    else:
        t2 = 0.0
    if plan.d3 > 0.0:
        if plan.r3 <= 0.0:
            raise ZeroResourceForPositiveData("part 3 has bits but no rate")
        t3 = plan.d3 / plan.r3 + delay
    else:
        t3 = 0.0
    return t1, t2, t3


def realized_latency(plan: SplitPlan, params: ComputeParams) -> float:
    """Makespan of a split, the max of its three component latencies."""
    return max(component_times(plan, params))


def _pre_band_edge(r: float, d: float, params: ComputeParams) -> float:
    # compute level above which shrinking part 2 shortens the makespan;
    # only meaningful when preproc_gain > 0, which forces rho < 1
    return (params.preproc_gain * d - PROPAGATION_HOPS * params.beta * params.tau * r) / (
        PROPAGATION_HOPS * (1.0 - params.rho) * params.tau
    )


def classify_region(f: float, r: float, d: float, params: ComputeParams) -> RegionLabel:
    """Regime of the minimal-latency split at compute f and backhaul rate r.

    Total on the nonnegative quadrant.  Points satisfying several regime
    conditions resolve to the higher label (S4 > S3 > S2 > S1); the branch
    values coincide there, so the returned latency is unaffected.  A zero
    backhaul rate is classified S3 with the raw-relay part forced empty.
    """
    if f < 0.0 or r < 0.0 or d <= 0.0:
        raise ValueError("need f >= 0, r >= 0 and d > 0")
    if f >= params.alpha * d / params.relay_delay:
        return RegionLabel.S4
    if r <= 0.0 or params.preproc_gain <= 0.0:
        return RegionLabel.S3
    if f >= _pre_band_edge(r, d, params):
        return RegionLabel.S3
    if f >= params.beta * r / params.rho:
        return RegionLabel.S2
    return RegionLabel.S1


def region_time(region: RegionLabel, f, r, d: float, params: ComputeParams):
    """Closed-form latency of one regime, evaluated without membership checks.

    Accepts scalars or numpy arrays for f, r and d.
    """
    a, b, rho = params.alpha, params.beta, params.rho
    delay = params.relay_delay
    if region is RegionLabel.S1:
        return b * d / (b * r + (1.0 - rho) * f) + delay
    if region is RegionLabel.S2:
        return (rho * a * d - rho * delay * f + b * delay * r) / (rho * f + (a - b) * r) + delay
    if region is RegionLabel.S3:
        return (a * d - delay * f) / (f + a * r) + delay
    return a * d / f


def region_partials(region: RegionLabel, f, r, d: float, params: ComputeParams):
    """Partial derivatives (dt/df, dt/dr) of ``region_time`` for one regime.

    Accepts scalars or numpy arrays for f, r and d.
    """
    a, b, rho = params.alpha, params.beta, params.rho
    delay = params.relay_delay
    if region is RegionLabel.S1:
        den = b * r + (1.0 - rho) * f
        den2 = den * den
        return -(1.0 - rho) * b * d / den2, -b * b * d / den2
    if region is RegionLabel.S2:
        den = rho * f + (a - b) * r
        num = rho * a * d - rho * delay * f + b * delay * r
        den2 = den * den
        return (-rho * delay * den - rho * num) / den2, (b * delay * den - (a - b) * num) / den2
    if region is RegionLabel.S3:
        den = f + a * r
        num = a * d - delay * f
        den2 = den * den
        return (-delay * den - num) / den2, -a * num / den2
    return -a * d / (f * f), 0.0


def _check_flow(f: float, r: float, d: float) -> None:
    if not (math.isfinite(f) and math.isfinite(r) and math.isfinite(d)):
        raise ValueError("compute, rate and data size must be finite")
    if d <= 0.0:
        raise ValueError("data size must be positive")
    if f < 0.0 or r < 0.0:
        raise ValueError("resources must be nonnegative")
    if f == 0.0 and r == 0.0:
        raise NoFeasibleFlow("no compute and no backhaul rate for positive data")


def min_compute_time(f: float, r: float, d: float, params: ComputeParams) -> float:
    """Minimal computation latency over all three-way splits of d bits.

    Non-increasing in f and r, continuous across regime boundaries, and at
    least the relay delay whenever any data must leave the hub (outside S4).
    """
    _check_flow(f, r, d)
    return float(region_time(classify_region(f, r, d, params), f, r, d, params))


def region_masks(f, r, d, params: ComputeParams):
    """``classify_region`` over arrays: one boolean mask per regime, S1 to S4.
    With rho = 1 the band edge divides by zero: silence float warnings."""
    s4 = f >= params.alpha * d / params.relay_delay
    s3 = ~s4 & ((r <= 0.0) | (params.preproc_gain <= 0.0) | (f >= _pre_band_edge(r, d, params)))
    s2 = ~(s4 | s3) & (f >= params.beta * r / params.rho)
    return ~(s4 | s3 | s2), s2, s3, s4


def _piecewise(pieces, n: int, f, r, d, params: ComputeParams) -> tuple[np.ndarray, ...]:
    """Merge the n arrays ``pieces(region, f, r, d, params)`` returns, regime
    by regime: each (f, r) pair takes the values of the regime it falls in."""
    f = np.asarray(f, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (np.isfinite(f).all() and np.isfinite(r).all() and np.isfinite(d).all()):
        raise ValueError("compute, rate and data size must be finite")
    out = (np.zeros(np.broadcast(f, r, d).shape),) * n
    with np.errstate(divide="ignore", invalid="ignore"):
        for region, mask in zip(RegionLabel, region_masks(f, r, d, params)):
            if mask.any():
                out = tuple(np.where(mask, v, o) for v, o in zip(pieces(region, f, r, d, params), out))
    return out


def min_compute_time_batch(f, r, d, params: ComputeParams) -> np.ndarray:
    """Vectorized ``min_compute_time`` over arrays of (f, r) pairs, bit for
    bit; d is a scalar or an array broadcasting against them."""
    return _piecewise(lambda *args: (region_time(*args),), 1, f, r, d, params)[0]


def min_compute_time_grad(f, r, d, params: ComputeParams):
    """``min_compute_time_batch`` with its partial derivatives in f and r,
    as (t, dt/df, dt/dr); each pair takes the partials of its own regime."""
    pieces = lambda *args: (region_time(*args), *region_partials(*args))  # noqa: E731
    return _piecewise(pieces, 3, f, r, d, params)


def optimal_split(f: float, r: float, d: float, params: ComputeParams) -> SplitPlan:
    """Recover a split whose makespan equals ``min_compute_time(f, r, d)``.

    Part sizes follow from equalizing the active component latencies: a part
    served at rate x for time t carries x*t bits of work.  The full compute
    budget is always consumed; the backhaul is consumed except in S4.
    """
    t = min_compute_time(f, r, d, params)
    region = classify_region(f, r, d, params)
    lag = t - params.relay_delay
    if region is RegionLabel.S4:
        return SplitPlan(d1=d, d2=0.0, d3=0.0, f1=f, f2=0.0, r2=0.0, r3=0.0, region=region)
    if region is RegionLabel.S3:
        return SplitPlan(
            d1=f * t / params.alpha,
            d2=0.0,
            d3=r * lag,
            f1=f,
            f2=0.0,
            r2=0.0,
            r3=r,
            region=region,
        )
    if region is RegionLabel.S2:
        f2 = params.beta * r / params.rho
        f1 = f - f2
        return SplitPlan(
            d1=f1 * t / params.alpha,
            d2=f2 * lag / params.beta,
            d3=0.0,
            f1=f1,
            f2=f2,
            r2=r,
            r3=0.0,
            region=region,
        )
    r2 = params.rho * f / params.beta
    return SplitPlan(
        d1=0.0,
        d2=f * lag / params.beta,
        d3=(r - r2) * lag,
        f1=0.0,
        f2=f,
        r2=r2,
        r3=r - r2,
        region=region,
    )


def brute_force_min_time(
    f: float, r: float, d: float, params: ComputeParams, grid_n: int = 200
) -> float:
    """Independent grid oracle for the minimal computation latency.

    Exhausts part sizes (d1, d2) on a grid_n x grid_n simplex grid with
    d3 = d - d1 - d2.  For each candidate split the inner resource division
    is solved exactly: the hub serves part 1 at rate alpha*d1/t and part 2
    pre-processing at beta*d2/(t - delay) (the two deadlines give a
    quadratic in t), while the backhaul must move rho*d2 + d3 bits within
    t - delay.  The split's makespan is the larger of the two bottlenecks;
    the oracle returns the grid minimum.  Only the points of the square
    grid that lie on the simplex, d1 + d2 <= d up to 1e-9 of d, are
    evaluated.  grid_n must be an integer of at least 100.
    """
    if not (isinstance(grid_n, numbers.Integral) and not isinstance(grid_n, bool) and grid_n >= 100):
        raise ValueError("grid_n must be an integer of at least 100")
    _check_flow(f, r, d)
    a, b, rho = params.alpha, params.beta, params.rho
    delay = params.relay_delay
    axis = np.linspace(0.0, d, grid_n + 1)
    d1, d2 = np.meshgrid(axis, axis, indexing="ij")
    d3 = d - d1 - d2
    valid = d3 >= -1e-9 * d
    d1, d2, d3 = d1[valid], d2[valid], np.clip(d3[valid], 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        quad_b = delay * f + a * d1 + b * d2
        disc = quad_b * quad_b - 4.0 * delay * f * a * d1
        t_hub = np.where(
            d2 > 0.0,
            np.where(
                d1 > 0.0,
                (quad_b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * f),
                delay + b * d2 / f,
            ),
            np.where(d1 > 0.0, a * d1 / f, 0.0),
        )
        relay_bits = rho * d2 + d3
        t_relay = np.where(relay_bits > 0.0, delay + relay_bits / r, 0.0)
        return float(np.nanmin(np.maximum(t_hub, t_relay)))
