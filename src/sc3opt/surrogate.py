"""Anchor-dependent convex upper bounds on the minimal computation time.

The minimal computation time is non-convex in (f, R) because its S2 and S3
branches carry a term of the form f / (linear in f, R).  Bounding that term
through the first-order lower bound on 1/(x*y) at a positive anchor yields,
per regime, a convex function that majorizes the true latency everywhere
and touches it at the anchor.  These majorants define the convex inner
problem of the alternating solver; re-anchoring at each solution drives the
outer objective monotonically down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compute import ComputeParams, RegionLabel, classify_region, region_time

_REGION_CODE = {RegionLabel.S1: 1, RegionLabel.S2: 2, RegionLabel.S3: 3, RegionLabel.S4: 4}


@dataclass(frozen=True)
class SurrogateAnchor:
    """A strictly positive expansion point with its latency regime."""

    f0: float
    r0: float
    region: RegionLabel

    def __post_init__(self):
        if self.f0 <= 0.0 or self.r0 <= 0.0:
            raise ValueError("anchors must have strictly positive components")

    @classmethod
    def at(cls, f0: float, r0: float, d: float, params: ComputeParams) -> "SurrogateAnchor":
        return cls(f0=f0, r0=r0, region=classify_region(f0, r0, d, params))


def inverse_product_bound(x: float, y: float, x0: float, y0: float) -> float:
    """First-order lower bound on 1/(x*y) at (x0, y0).

    Returns (3 - x/x0 - y/y0) / (x0*y0), which never exceeds 1/(x*y) on the
    positive orthant and matches it exactly at the expansion point.
    """
    if min(x, y, x0, y0) <= 0.0:
        raise ValueError("all arguments must be positive")
    return (3.0 - x / x0 - y / y0) / (x0 * y0)


def convex_time_s2(f, r, anchor: SurrogateAnchor, d: float, params: ComputeParams):
    """Convex majorant of the S2-regime latency, tangent at the anchor."""
    a, b, rho = params.alpha, params.beta, params.rho
    delay = params.relay_delay
    w = rho * f + (a - b) * r
    w0 = rho * anchor.f0 + (a - b) * anchor.r0
    k = rho * a * delay / (a - b) * anchor.f0 / w0
    return rho * a * d / w + a * delay / (a - b) - k * (3.0 - anchor.f0 / f - w / w0)


def convex_time_s3(f, r, anchor: SurrogateAnchor, d: float, params: ComputeParams):
    """Convex majorant of the S3-regime latency, tangent at the anchor."""
    a = params.alpha
    delay = params.relay_delay
    v = f + a * r
    v0 = anchor.f0 + a * anchor.r0
    k = delay * anchor.f0 / v0
    return a * d / v + delay - k * (3.0 - anchor.f0 / f - v / v0)


def convex_compute_time(f, r, anchor: SurrogateAnchor, d: float, params: ComputeParams):
    """Convex upper bound on min_compute_time, equal to it at the anchor.

    The branch is picked by the anchor's regime, not the query point: S1 and
    S2 anchors use max(S1 latency, S2 majorant), S3 anchors the S3 majorant,
    S4 anchors the exact S4 latency (already convex).
    """
    if anchor.region in (RegionLabel.S1, RegionLabel.S2):
        t1 = region_time(RegionLabel.S1, f, r, d, params)
        return np.maximum(t1, convex_time_s2(f, r, anchor, d, params))
    if anchor.region is RegionLabel.S3:
        return convex_time_s3(f, r, anchor, d, params)
    return region_time(RegionLabel.S4, f, r, d, params)


@dataclass(frozen=True)
class MajorantCoefficients:
    """Per-loop constants of the majorant at one set of anchors.

    Every regime's majorant takes the form

        A / w + C - K * (3 - f0/f - w/w0),   w = c_f * f + c_r * r,

    maxed with the exact S1 latency where the anchor lies in S1 or S2.  S2
    is c_f = rho, c_r = alpha - beta; S3 is c_f = 1, c_r = alpha; S4 is
    c_f = 1, c_r = 0, C = K = 0, which leaves the exact alpha*d/f.  The
    constants are built once per anchor set with the same operation order
    as the per-regime formulas (``convex_time_s2``/``convex_time_s3``), so
    ``surrogate_batch`` reproduces them bit for bit.
    """

    f0: np.ndarray
    w0: np.ndarray
    cf: np.ndarray  # c_f
    cr: np.ndarray  # c_r
    num: np.ndarray  # A
    const: np.ndarray  # C
    slope: np.ndarray  # K
    cf_w0: np.ndarray  # c_f / w0
    gf: np.ndarray  # -c_f * A: d(A/w)/df = gf / w^2
    gr: np.ndarray  # -c_r * A: d(A/w)/dr = gr / w^2
    hr: np.ndarray  # K * c_r / w0
    s12: np.ndarray  # anchors in S1 or S2: the max with the S1 latency applies
    any_s12: bool
    s1_num: np.ndarray  # beta * d
    s1_gf: np.ndarray  # -(1 - rho) * beta * d
    s1_gr: np.ndarray  # -beta * beta * d
    beta: float
    one_minus_rho: float
    delay: float

    @classmethod
    def from_anchors(cls, anchors, d, params: ComputeParams) -> "MajorantCoefficients":
        """Constants for a sequence of anchors; the array ``d`` holds each
        loop's data size."""
        a, b, rho = params.alpha, params.beta, params.rho
        delay = params.relay_delay
        f0 = np.array([an.f0 for an in anchors])
        r0 = np.array([an.r0 for an in anchors])
        codes = np.array([_REGION_CODE[an.region] for an in anchors])
        s12 = codes <= 2
        s3 = codes == 3
        regimes = [s12, s3]
        cf = np.where(s12, rho, 1.0)
        cr = np.select(regimes, [a - b, a], 0.0)
        w0 = cf * f0 + cr * r0
        slope = np.select(regimes, [rho * a * delay / (a - b) * f0 / w0, delay * f0 / w0], 0.0)
        return cls(
            f0=f0,
            w0=w0,
            cf=cf,
            cr=cr,
            num=np.where(s12, rho * a * d, a * d),
            const=np.select(regimes, [a * delay / (a - b), delay], 0.0),
            slope=slope,
            cf_w0=cf / w0,
            gf=np.where(s12, -rho * rho * a * d, -a * d),
            gr=np.select(regimes, [-(a - b) * rho * a * d, -a * a * d], 0.0),
            hr=slope * cr / w0,
            s12=s12,
            any_s12=bool(s12.any()),
            s1_num=b * d,
            s1_gf=-(1.0 - rho) * b * d,
            s1_gr=-b * b * d,
            beta=b,
            one_minus_rho=1.0 - rho,
            delay=delay,
        )


def surrogate_batch(f: np.ndarray, r: np.ndarray, coef: MajorantCoefficients):
    """Value of the majorant for a vector of loops, and a function that
    returns one branch's value and partials at the same points.

    One kernel for every regime, on constants built once per anchor set
    (see ``MajorantCoefficients``).  ``partials(s1=None)`` returns
    ``(t, d/df, d/dr, d2/df2, d2/dfdr, d2/dr2)`` of the branch ``s1`` picks
    per loop: the exact S1 latency where ``s1`` is true and the anchor lies
    in S1 or S2, the smooth majorant elsewhere.  By default it picks the
    branch the max takes, so ``t`` is the value itself.  The second partials
    are 2A c c^T / w^3 + diag(2K f0 / f^3, 0) on the smooth branch, with
    c = (c_f, c_r), and 2 beta d c1 c1^T / den^3 on the S1 branch, with
    c1 = (1 - rho, beta).  They are formed from this call's intermediates
    only when asked for, so a caller that needs only the value (a rejected
    line-search trial) never pays for them.  Every f must be positive.
    """
    w = coef.cf * f + coef.cr * r
    val = coef.num / w + coef.const - coef.slope * (3.0 - coef.f0 / f - w / coef.w0)
    smooth = val
    if coef.any_s12:
        den = coef.beta * r + coef.one_minus_rho * f
        t1 = coef.s1_num / den + coef.delay
        use1 = coef.s12 & (t1 >= val)
        val = np.where(use1, t1, val)

    def partials(s1=None):
        ww = w * w
        dfv = coef.gf / ww - coef.slope * (coef.f0 / (f * f) - coef.cf_w0)
        drv = coef.gr / ww + coef.hr
        # gf = -A c_f and gr = -A c_r, so 2 A c c^T / w^3 has entries
        # -2 g c / w^3 (and likewise on the S1 branch below)
        cw = -2.0 / (ww * w)
        dff = cw * coef.gf * coef.cf + 2.0 * coef.slope * coef.f0 / (f * f * f)
        terms = (smooth, dfv, drv, dff, cw * coef.gf * coef.cr, cw * coef.gr * coef.cr)
        if not coef.any_s12:
            return terms
        pick = use1 if s1 is None else coef.s12 & s1
        dd = den * den
        cd = -2.0 / (dd * den)
        s1_terms = (
            t1,
            coef.s1_gf / dd,
            coef.s1_gr / dd,
            cd * coef.s1_gf * coef.one_minus_rho,
            cd * coef.s1_gf * coef.beta,
            cd * coef.s1_gr * coef.beta,
        )
        return tuple(np.where(pick, a, b) for a, b in zip(s1_terms, terms))

    return val, partials
