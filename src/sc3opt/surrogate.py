"""Anchor-dependent convex upper bounds on the minimal computation time.

The minimal computation time is non-convex in (f, R) because its S2 and S3
branches carry a term of the form f / (linear in f, R).  Bounding that term
through the first-order lower bound on 1/(x*y) at a positive anchor yields,
per regime, a convex function that majorizes the true latency everywhere
and touches it at the anchor.  Each regime's majorant is one row of
``ComputeParams.majorant_rows``; ``MajorantCoefficients`` and
``surrogate_batch`` evaluate the rows over arrays of loops, and
``convex_compute_time`` evaluates them at one anchor, bit for bit alike.
These majorants define the convex inner problem of the alternating solver;
re-anchoring at each solution drives the outer objective monotonically down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compute import ComputeParams, RegionLabel, classify_region, region_masks


@dataclass(frozen=True)
class SurrogateAnchor:
    """A strictly positive expansion point with its latency regime, the
    anchor of ``convex_compute_time`` (the solver anchors
    ``MajorantCoefficients`` at arrays instead)."""

    f0: float
    r0: float
    region: RegionLabel

    def __post_init__(self):
        if not (self.f0 > 0.0 and self.r0 > 0.0):  # refuses NaN too
            raise ValueError("anchors must have strictly positive components")

    @classmethod
    def at(cls, f0: float, r0: float, d: float, params: ComputeParams) -> "SurrogateAnchor":
        return cls(f0=f0, r0=r0, region=classify_region(f0, r0, d, params))


def _row_majorant(row, f, r, anchor: SurrogateAnchor, d):
    """One row of ``ComputeParams.majorant_rows`` at the anchor, in the
    operation order of ``MajorantCoefficients.at`` and ``surrogate_batch``."""
    c_f, c_r, a, c, kappa, _, _ = row
    w = c_f * f + c_r * r
    w0 = c_f * anchor.f0 + c_r * anchor.r0
    return a * d / w + c - kappa * anchor.f0 / w0 * (3.0 - anchor.f0 / f - w / w0)


def convex_compute_time(f, r, anchor: SurrogateAnchor, d: float, params: ComputeParams):
    """Convex upper bound on min_compute_time, equal to it at the anchor.

    The branch is picked by the anchor's regime, not the query point: S1 and
    S2 anchors use max(S1 latency, S2 majorant), S3 anchors the S3 majorant,
    S4 anchors the exact S4 latency (already convex).
    """
    rows = params.majorant_rows
    if anchor.region in (RegionLabel.S1, RegionLabel.S2):
        t1 = _row_majorant(rows[RegionLabel.S1], f, r, anchor, d)
        return np.maximum(t1, _row_majorant(rows[RegionLabel.S2], f, r, anchor, d))
    return _row_majorant(rows[anchor.region], f, r, anchor, d)


@dataclass(frozen=True)
class MajorantCoefficients:
    """Constants of the majorant at one set of anchors, one row per branch.

    Every branch of every loop takes the form

        A / w + C - K * (3 - f0/f - w/w0),   w = c_f * f + c_r * r,

    from a row (c_f, c_r, a, C, kappa, g_f, g_r) of
    ``ComputeParams.majorant_rows``, with A = a*d and K = kappa*f0/w0.
    Row 0 is the smooth majorant: anchors in S1 or S2 take the S2 row, the
    others their own regime's row.  When some anchor lies in S1 or S2 a
    second row holds, on those loops, the exact S1 latency (the S1 row,
    kappa = 0), and row 0 again on every other loop; the majorant is the
    max of the rows.  Each array is (rows, K), except the anchor's f0 (K,).
    ``at`` builds the constants once per anchor set in the operation order
    of ``convex_compute_time``, so ``surrogate_batch`` reproduces it bit for
    bit.
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

    @classmethod
    def at(cls, f0: np.ndarray, r0: np.ndarray, d: np.ndarray, params: ComputeParams) -> "MajorantCoefficients":
        """Constants of the majorant anchored at each loop's (f0, r0), a
        strictly positive pair, with data size d (arrays of one length);
        ``region_masks`` gives each anchor's regime and so its row."""
        with np.errstate(divide="ignore", invalid="ignore"):
            s1, s2, s3, s4 = region_masks(f0, r0, d, params)
        s12 = s1 | s2
        smooth = 3 * s4 + 2 * s3 + s12  # the S2 row for S1 and S2 anchors
        index = np.stack([smooth, np.where(s12, 0, smooth)]) if s12.any() else smooth[None]
        table = np.array(list(params.majorant_rows.values())).T
        cf, cr, a, const, kappa, g_f, g_r = table.take(index, axis=1)
        w0 = cf * f0 + cr * r0
        slope = kappa * f0 / w0
        return cls(
            f0=f0,
            w0=w0,
            cf=cf,
            cr=cr,
            num=a * d,
            const=const,
            slope=slope,
            cf_w0=cf / w0,
            gf=g_f * d,
            gr=g_r * d,
            hr=slope * cr / w0,
            s12=s12,
        )


def surrogate_batch(f: np.ndarray, r: np.ndarray, coef: MajorantCoefficients):
    """Value of the majorant for a vector of loops, and a function that
    returns every branch's value and partials at the same points.

    One kernel for every regime and branch, on constants built once per
    anchor set (see ``MajorantCoefficients``); the value is the max over
    the rows.  ``partials()`` returns ``(t, d/df, d/dr, d2/df2, d2/dfdr,
    d2/dr2)``, each of shape (rows, K): row 0 the smooth majorant and the
    last row the S1 branch where the anchor lies in S1 or S2 (row 0 again
    elsewhere, so the two differ only on that seam).  The second partials
    are 2A c c^T / w^3 + diag(2K f0 / f^3, 0), with c = (c_f, c_r).  They
    are formed from this call's intermediates only when asked for, so a
    caller that needs only the value (a rejected line-search trial) never
    pays for them.  Every f must be positive.
    """
    w = coef.cf * f + coef.cr * r
    t = coef.num / w + coef.const - coef.slope * (3.0 - coef.f0 / f - w / coef.w0)
    val = np.where(t[-1] >= t[0], t[-1], t[0])

    def partials():
        ww = w * w
        dfv = coef.gf / ww - coef.slope * (coef.f0 / (f * f) - coef.cf_w0)
        drv = coef.gr / ww + coef.hr
        # gf = -A c_f and gr = -A c_r, so 2 A c c^T / w^3 has entries -2 g c / w^3
        cw = -2.0 / (ww * w)
        dff = cw * coef.gf * coef.cf + 2.0 * coef.slope * coef.f0 / (f * f * f)
        return t, dfv, drv, dff, cw * coef.gf * coef.cr, cw * coef.gr * coef.cr

    return val, partials
