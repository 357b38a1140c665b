"""Free-space line-of-sight downlink from the hub to its robots.

Orthogonal per-loop channels, no interference, no fading.  The core works
in linear watts and dimensionless gains; dB conversions happen once at
config parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LN2 = math.log(2.0)


@dataclass(frozen=True)
class LinkParams:
    """Downlink constants: per-channel bandwidth, reference gain at 1 m,
    noise power and hub altitude."""

    bandwidth_hz: float
    gamma0: float
    noise_power_w: float
    uav_height_m: float

    def __post_init__(self):
        for name in ("bandwidth_hz", "gamma0", "noise_power_w", "uav_height_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def channel_gain(d: float, params: LinkParams) -> float:
    """Inverse-square path gain gamma0 / d^2 at distance d meters."""
    _require_finite(distance=d)
    if d <= 0.0:
        raise ValueError("distance must be positive")
    return params.gamma0 / (d * d)


def spectral_efficiency(p: float, g: float, params: LinkParams) -> float:
    """log2(1 + g p / sigma^2) bits/s/Hz; concave and increasing in p."""
    _require_finite(power=p, gain=g)
    if p < 0.0:
        raise ValueError("power must be nonnegative")
    return math.log1p(g * p / params.noise_power_w) / LN2


def entropy_per_cycle(p: float, t_commu: float, d: float, params: LinkParams) -> float:
    """Bits deliverable in one cycle's communication window of t_commu seconds."""
    _require_finite(communication_time=t_commu)
    if t_commu < 0.0:
        raise ValueError("communication time must be nonnegative")
    return params.bandwidth_hz * t_commu * spectral_efficiency(p, channel_gain(d, params), params)


def power_for_entropy(e: float, t_commu: float, d: float, params: LinkParams) -> float:
    """Transmit power delivering e bits in t_commu seconds; inverse of
    entropy_per_cycle in p."""
    _require_finite(entropy=e, communication_time=t_commu)
    if e < 0.0:
        raise ValueError("entropy must be nonnegative")
    if t_commu <= 0.0:
        raise ValueError("communication time must be positive")
    g = channel_gain(d, params)
    return params.noise_power_w / g * math.expm1(e / (params.bandwidth_hz * t_commu) * LN2)
