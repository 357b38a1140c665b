import math

import numpy as np
import pytest

from sc3opt import (
    LinkParams,
    channel_gain,
    entropy_per_cycle,
    power_for_entropy,
    spectral_efficiency,
)


def test_channel_gain(link):
    assert channel_gain(1.0, link) == pytest.approx(link.gamma0)
    assert channel_gain(100.0, link) == pytest.approx(1e-10)
    assert channel_gain(200.0, link) == pytest.approx(channel_gain(100.0, link) / 4.0)


def test_spectral_efficiency(link):
    assert spectral_efficiency(0.0, 1e-10, link) == 0.0
    assert spectral_efficiency(10.0, 1e-10, link) == pytest.approx(math.log2(1 + 1e5))
    # unit SNR gives exactly one bit per symbol
    g = link.noise_power_w
    assert spectral_efficiency(1.0, g, link) == pytest.approx(1.0)


def test_entropy_per_cycle(link):
    assert entropy_per_cycle(10.0, 0.0, 100.0, link) == 0.0
    e = entropy_per_cycle(10.0, 0.05, 100.0, link)
    assert e == pytest.approx(5000.0 * 0.05 * math.log2(1 + 1e5))
    double_b = LinkParams(
        bandwidth_hz=2 * link.bandwidth_hz,
        gamma0=link.gamma0,
        noise_power_w=link.noise_power_w,
        uav_height_m=link.uav_height_m,
    )
    assert entropy_per_cycle(10.0, 0.05, 100.0, double_b) == pytest.approx(2 * e)


def test_power_roundtrip(link):
    assert power_for_entropy(0.0, 0.05, 100.0, link) == 0.0
    e = entropy_per_cycle(10.0, 0.05, 100.0, link)
    assert power_for_entropy(e, 0.05, 100.0, link) == pytest.approx(10.0, rel=1e-9)
    # one bit per symbol needs unit SNR
    e_unit = link.bandwidth_hz * 0.05
    g = channel_gain(100.0, link)
    assert power_for_entropy(e_unit, 0.05, 100.0, link) == pytest.approx(
        link.noise_power_w / g, rel=1e-12
    )


def test_roundtrip_random(link):
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = 10.0 ** rng.uniform(-3, 2)
        t = 10.0 ** rng.uniform(-3, 0)
        d = rng.uniform(50.0, 6000.0)
        e = entropy_per_cycle(p, t, d, link)
        assert power_for_entropy(e, t, d, link) == pytest.approx(p, rel=1e-9)


def test_spectral_efficiency_concave_and_monotone(link):
    g = 1e-10
    rng = np.random.default_rng(2)
    for _ in range(200):
        p1, p2 = 10.0 ** rng.uniform(-3, 3, size=2)
        fa = spectral_efficiency(p1, g, link)
        fb = spectral_efficiency(p2, g, link)
        fm = spectral_efficiency(0.5 * (p1 + p2), g, link)
        assert fm >= 0.5 * (fa + fb) - 1e-12 * max(1.0, fa, fb)
    ps = np.sort(10.0 ** rng.uniform(-3, 3, size=30))
    ses = [spectral_efficiency(float(p), g, link) for p in ps]
    assert all(b > a for a, b in zip(ses, ses[1:]))


def test_entropy_monotone_in_window_and_gain(link):
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = 10.0 ** rng.uniform(-2, 2)
        d = rng.uniform(100.0, 5000.0)
        t1, t2 = np.sort(10.0 ** rng.uniform(-3, 0, size=2))
        assert entropy_per_cycle(p, t2, d, link) >= entropy_per_cycle(p, t1, d, link)
        g1, g2 = np.sort(10.0 ** rng.uniform(-14, -8, size=2))
        assert spectral_efficiency(p, g2, link) >= spectral_efficiency(p, g1, link)


def test_validation(link):
    with pytest.raises(ValueError):
        channel_gain(0.0, link)
    with pytest.raises(ValueError):
        spectral_efficiency(-1.0, 1e-10, link)
    with pytest.raises(ValueError):
        power_for_entropy(1.0, 0.0, 100.0, link)
    with pytest.raises(ValueError):
        LinkParams(bandwidth_hz=0.0, gamma0=1e-6, noise_power_w=1e-14, uav_height_m=100.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["bandwidth_hz", "gamma0", "noise_power_w", "uav_height_m"])
def test_link_params_reject_non_finite(field, bad):
    values = {"bandwidth_hz": 5000.0, "gamma0": 1e-6, "noise_power_w": 1e-14, "uav_height_m": 100.0}
    with pytest.raises(ValueError):
        LinkParams(**{**values, field: bad})



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call, good",
    [
        (channel_gain, (100.0,)),
        (spectral_efficiency, (10.0, 1e-10)),
        (entropy_per_cycle, (10.0, 0.05, 100.0)),
        (power_for_entropy, (10.0, 0.05, 100.0)),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_channel_functions_reject_non_finite(link, call, good, bad):
    call(*good, link)
    for position in range(len(good)):
        args = list(good)
        args[position] = bad
        with pytest.raises(ValueError):
            call(*args, link)
