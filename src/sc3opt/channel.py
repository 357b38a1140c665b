"""Free-space line-of-sight downlink from the hub to its robots.

Orthogonal per-loop channels, no interference, no fading.  The core works
in linear watts and dimensionless gains; dB conversions happen once at
config parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def delivered_entropy(p, gamma, bw_t):
    """Bits bw_t log2(1 + gamma p) delivered at power p, elementwise over
    arrays or floats, gamma being the gain over the noise power and bw_t
    the bandwidth times the window (Hz s); and a function that returns
    their first and second derivatives in p."""
    snr = gamma * p
    e = bw_t * (np.log1p(snr) / LN2)

    def derivatives():
        q = gamma / (1.0 + snr)  # d log(1 + snr) / dp
        de = bw_t * q / LN2
        return de, -de * q

    return e, derivatives


def required_power(e, gamma, bw_t):
    """Power delivering e bits, (2^(e / bw_t) - 1) / gamma: the inverse of
    ``delivered_entropy`` in p, elementwise."""
    return np.expm1(e / bw_t * LN2) / gamma


def spectral_efficiency(p: float, g: float, params: LinkParams) -> float:
    """log2(1 + g p / sigma^2) bits/s/Hz; concave and increasing in p."""
    _require_finite(power=p, gain=g)
    if p < 0.0:
        raise ValueError("power must be nonnegative")
    return float(delivered_entropy(p, g / params.noise_power_w, 1.0)[0])


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
    gamma = channel_gain(d, params) / params.noise_power_w
    return float(required_power(e, gamma, params.bandwidth_hz * t_commu))
