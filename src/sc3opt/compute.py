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

Each regime's closed form is one row (c_f, c_r, a, B_f, B_r, C) of
t = (a*d + B_f*f + B_r*r) / (c_f*f + c_r*r) + C, held on
``ComputeParams.rows``, and its convex majorant one row of
``ComputeParams.majorant_rows``.  ``region_index`` is the one rule that puts
an (f, R) pair in its regime, on floats and arrays alike; every evaluator
takes its row by that index.  ``min_compute_time`` evaluates the closed
form (``min_compute_time_batch`` over arrays), ``optimal_split`` recovers a
split achieving it, and ``brute_force_min_time`` is an independent grid
oracle used for validation.  Units are bits, cycles/s, bits/s and seconds
throughout; unit conversions belong to the config layer.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
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


_REGIONS = tuple(RegionLabel)  # by ``region_index``


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
    # each regime's row, S1 to S4, giving its closed form bit for bit, and its
    # majorant's row; set on construction, as a value cached later in
    # __dict__ slows attribute reads
    rows: dict[RegionLabel, tuple[float, ...]] = field(init=False, repr=False, compare=False)
    majorant_rows: dict[RegionLabel, tuple[float, ...]] = field(init=False, repr=False, compare=False)

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
        a, b, rho, delay = self.alpha, self.beta, self.rho, self.relay_delay
        rows = {
            RegionLabel.S1: (1.0 - rho, b, b, 0.0, 0.0, delay),
            RegionLabel.S2: (rho, a - b, rho * a, -rho * delay, b * delay, delay),
            RegionLabel.S3: (1.0, a, a, -delay, 0.0, delay),
            RegionLabel.S4: (1.0, 0.0, a, 0.0, 0.0, 0.0),
        }
        # each regime's majorant row (c_f, c_r, a, C, kappa, -c_f*a, -c_r*a) of
        # a*d/w + C - kappa*(f0/w0)*(3 - f0/f - w/w0), w = c_f*f + c_r*r, which
        # touches its latency at the anchor (f0, r0); S1 and S4 are exact
        c_f, c_r, a1, _, _, c = rows[RegionLabel.S1]
        kappa = rho * a * delay / (a - b)
        majorant_rows = {
            RegionLabel.S1: (c_f, c_r, a1, c, 0.0, -c_f * a1, -c_r * a1),
            RegionLabel.S2: (rho, a - b, rho * a, a * delay / (a - b), kappa, -rho * rho * a, -(a - b) * rho * a),
            RegionLabel.S3: (1.0, a, a, delay, delay, -a, -a * a),
            RegionLabel.S4: (1.0, 0.0, a, 0.0, 0.0, -a, 0.0),
        }
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "majorant_rows", majorant_rows)

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


def region_index(f, r, d, params: ComputeParams):
    """Regime of the minimal-latency split at compute f and backhaul rate r,
    0 to 3 for S1 to S4: the one regime rule, for floats, numpy scalars and
    arrays alike, and unvalidated (a NaN compares false).

    Points satisfying several regime conditions resolve to the higher
    regime (S4 > S3 > S2 > S1); the branch values coincide there, so the
    latency is unaffected.  A zero backhaul rate gives S3 with the raw-relay
    part forced empty, and so does any point below S4 when pre-processing
    never pays (``preproc_gain <= 0``, as rho = 1 forces).
    """
    delay = params.relay_delay
    s4 = f >= params.alpha * d / delay
    gain = params.preproc_gain
    if gain <= 0.0:
        return 2 + s4
    # above the band edge shrinking part 2 shortens the makespan; a positive
    # gain forces rho < 1, so the edge is finite
    s3 = (r <= 0.0) | (f >= (gain * d - params.beta * delay * r) / ((1.0 - params.rho) * delay))
    s2 = f >= params.beta * r / params.rho
    index = s2 + (2 - s2) * s3
    return index + (3 - index) * s4


def classify_region(f: float, r: float, d: float, params: ComputeParams) -> RegionLabel:
    """``region_index`` of one finite flow with f >= 0, r >= 0 and d > 0,
    as its label."""
    if not (0.0 <= f < math.inf and 0.0 <= r < math.inf and 0.0 < d < math.inf):  # refuses NaN too
        raise ValueError("need finite f >= 0, r >= 0 and d > 0")
    return _REGIONS[region_index(f, r, d, params)]


def _row_latency(row, f, r, d):
    """Latency t of one row of ``ComputeParams.rows`` with its numerator
    a*d + B_f*f + B_r*r and denominator w = c_f*f + c_r*r, as (t, num, w)."""
    c_f, c_r, a, b_f, b_r, c = row
    num = a * d + b_f * f + b_r * r
    w = c_f * f + c_r * r
    return num / w + c, num, w


def region_time(region: RegionLabel, f, r, d: float, params: ComputeParams):
    """Closed-form latency of one regime from its row, without membership
    checks; f, r and d may be scalars or numpy arrays."""
    return _row_latency(params.rows[region], f, r, d)[0]


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
    return float(region_time(_REGIONS[region_index(f, r, d, params)], f, r, d, params))


def _pair_rows(f, r, d, params: ComputeParams):
    """Each (f, r) pair's row by ``region_index``, as six arrays; refuses what
    ``min_compute_time`` refuses but f = r = 0, whose latency is inf."""
    if not (np.isfinite(f).all() and np.isfinite(r).all() and np.isfinite(d).all()):
        raise ValueError("compute, rate and data size must be finite")
    if not np.greater(d, 0.0).all():
        raise ValueError("data size must be positive")
    if (f < 0.0).any() or (r < 0.0).any():
        raise ValueError("resources must be nonnegative")
    return np.array(list(params.rows.values())).T.take(region_index(f, r, d, params), axis=1)


def min_compute_time_batch(f, r, d, params: ComputeParams) -> np.ndarray:
    """Vectorized ``min_compute_time`` over arrays of (f, r) pairs, bit for
    bit, and inf at f = r = 0; d is a scalar or an array broadcasting."""
    f, r = np.asarray(f, dtype=float), np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _row_latency(_pair_rows(f, r, d, params), f, r, d)[0]


def min_compute_time_grad(f, r, d, params: ComputeParams):
    """``min_compute_time_batch`` with its partial derivatives in f and r,
    as (t, dt/df, dt/dr), each pair in its own regime: (B_f*w - c_f*num) /
    w^2 and (B_r*w - c_r*num) / w^2."""
    f, r = np.asarray(f, dtype=float), np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        row = _pair_rows(f, r, d, params)
        t, num, w = _row_latency(row, f, r, d)
        c_f, c_r, _, b_f, b_r, _ = row
        ww = w * w
        return t, (b_f * w - c_f * num) / ww, (b_r * w - c_r * num) / ww


def optimal_split(f: float, r: float, d: float, params: ComputeParams) -> SplitPlan:
    """Recover a split whose makespan equals ``min_compute_time(f, r, d)``.

    Part sizes follow from equalizing the active component latencies: a part
    served at rate x for time t carries x*t bits of work.  The full compute
    budget is always consumed; the backhaul is consumed except in S4.
    """
    t = min_compute_time(f, r, d, params)
    region = _REGIONS[region_index(f, r, d, params)]
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


def is_int(value) -> bool:
    """Whether value is an integer, bool excluded."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    the oracle returns the grid minimum.  Only the grid points (i, j) with
    i + j <= grid_n, those of the square grid with d1 + d2 <= d, are
    evaluated, row by row.  d1 > 0 exactly when i > 0 and d2 > 0 exactly
    when j > 0, so the hub's time is set per row and column, not chosen
    point by point.  grid_n must be an integer of at least 100.
    """
    if not (is_int(grid_n) and grid_n >= 100):
        raise ValueError("grid_n must be an integer of at least 100")
    _check_flow(f, r, d)
    a, b, rho = params.alpha, params.beta, params.rho
    delay = params.relay_delay
    axis = np.linspace(0.0, d, grid_n + 1)
    lengths = np.arange(grid_n + 1, 0, -1)  # row i holds j = 0 .. grid_n - i
    starts = np.cumsum(lengths) - lengths  # each row's j = 0 point
    d1 = np.repeat(axis, lengths)
    d2 = axis[np.arange(d1.size) - np.repeat(starts, lengths)]
    d3 = np.clip(d - d1 - d2, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        quad_b = delay * f + a * d1 + b * d2
        disc = quad_b * quad_b - 4.0 * delay * f * a * d1
        t_hub = (quad_b + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * f)  # parts 1 and 2
        t_hub[starts] = a * axis / f  # d2 = 0: part 1 only
        t_hub[1 : grid_n + 1] = delay + b * axis[1:] / f  # d1 = 0: part 2 only
        t_hub[0] = 0.0
        relay_bits = rho * d2 + d3
        t_relay = np.where(relay_bits > 0.0, delay + relay_bits / r, 0.0)
        return float(np.nanmin(np.maximum(t_hub, t_relay)))
