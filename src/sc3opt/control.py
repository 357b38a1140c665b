"""Loop dynamics constants and the entropy / LQR-cost tradeoff.

The information a controller must receive per cycle grows without bound as
the target LQR cost approaches its noise floor, and falls toward the
plant's intrinsic entropy rate log2|det A| as the target is relaxed.
``EntropyParams`` holds the four constants of that curve; they can be given
directly in a scenario file or derived from a diagonal plant description by
``build_entropy_params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CostBelowFloor,
    NoConvergence,
    SingularStateMatrix,
    UnsupportedStructure,
    Unstabilizable,
)

LN2 = math.log(2.0)

_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_MAX_ITERS = 100_000


@dataclass(frozen=True)
class EntropyParams:
    """Constants of a loop's entropy-cost curve.

    n:     state dimension
    h:     intrinsic entropy rate, bits per cycle (log2|det A|)
    l_min: floor of the achievable LQR cost
    c:     numerator constant of the curve, n * |det(N M)|^(1/n)
    """

    n: int
    h: float
    l_min: float
    c: float

    def __post_init__(self):
        if not (self.n >= 1 and float(self.n).is_integer()):
            raise ValueError("state dimension must be an integer of at least 1")
        if not all(map(math.isfinite, (self.h, self.l_min, self.c))):
            raise ValueError("h, l_min and c must be finite")
        if self.l_min < 0.0:
            raise ValueError("l_min must be nonnegative")
        if self.c <= 0.0:
            raise ValueError("c must be positive")


@dataclass(frozen=True, eq=False)
class LoopControlSpec:
    """Diagonal linear plant and sensing model of one loop.

    Mode i evolves as x_i' = a_i x_i + b_i u_i + v_i and is read as
    y_i = x_i + w_i, where v and w are zero-mean Gaussian with variances
    sigma_v2 and sigma_w2.  The LQR cost weights every mode's state by one
    and the control by zero (C = I, Q = I, R = 0).  ``a`` and ``b`` are the
    diagonals of A and B, 1-D arrays of one length, the state dimension.
    """

    a: np.ndarray
    b: np.ndarray
    sigma_v2: float
    sigma_w2: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.ndim != 1 or a.size < 1 or b.shape != a.shape:
            raise ValueError("a and b must be 1-D arrays of one length, at least 1")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("a and b must be finite")
        if not (math.isfinite(self.sigma_v2) and self.sigma_v2 > 0.0):
            raise ValueError("sigma_v2 must be positive and finite")
        if not (math.isfinite(self.sigma_w2) and self.sigma_w2 >= 0.0):
            raise ValueError("sigma_w2 must be nonnegative and finite")

    @property
    def n(self) -> int:
        return self.a.size


def intrinsic_entropy(a) -> float:
    """Intrinsic entropy rate of a plant, log2|det A| in bits per cycle.

    A 1-D ``a`` holds the diagonal of A.
    """
    a = np.asarray(a, dtype=float)
    a = np.diag(a) if a.ndim == 1 else np.atleast_2d(a)
    sign, logabsdet = np.linalg.slogdet(a)
    if sign == 0.0:
        raise SingularStateMatrix("state matrix has zero determinant")
    return float(logabsdet / LN2)


def _fixed_point(step, x0: np.ndarray, what: str) -> np.ndarray:
    x = x0
    for _ in range(_FIXED_POINT_MAX_ITERS):
        x_new = step(x)
        if np.max(np.abs(x_new - x)) < _FIXED_POINT_TOL:
            return x_new
        x = x_new
    raise NoConvergence(f"{what} fixed point did not converge")


def riccati_diagonal(a, b, q, r) -> np.ndarray:
    """Steady-state LQR cost of each dimension of a diagonal plant.

    Iterates the scalar Riccati recursion s <- q + a^2 s - (a b s)^2 / (r + b^2 s)
    from s = q, elementwise over arrays of diagonal entries a, b, q and r.
    """
    step = lambda s: q + a * a * s - (a * b * s) ** 2 / (r + b * b * s)  # noqa: E731
    return _fixed_point(step, np.array(q, dtype=float), "Riccati")


def build_entropy_params(plant: LoopControlSpec) -> EntropyParams:
    """Derive EntropyParams from a diagonal plant description.

    The plant decouples per state dimension; every input gain b must be
    nonzero.  Per dimension the cost matrix s comes from the Riccati
    recursion s <- q + a^2 s - (a b s)^2 / (r + b^2 s) with q = 1 and r = 0,
    the steady filtering error sigma from the scalar Kalman recursion, and
    the curve constants are

        l_min = sum(sigma_v2 * s + sigma * a^2 * m)
        c     = n * geometric_mean(p * m),  p = a^2 sigma + sigma_v2

    with m = s b (b^2 s)^-1 b s the estimation-penalty weight and p the
    one-step prediction error covariance.  Other plants must supply
    EntropyParams directly.
    """
    n = plant.n
    a, b = plant.a, plant.b
    if np.any(b == 0.0):
        raise UnsupportedStructure("builder requires nonzero input gains")
    h = intrinsic_entropy(a)

    s = riccati_diagonal(a, b, np.ones(n), 0.0)
    m = s * b / (b * b * s) * b * s

    def kalman_step(sig):
        pred = a * a * sig + plant.sigma_v2
        return pred * plant.sigma_w2 / (pred + plant.sigma_w2)

    sigma = _fixed_point(kalman_step, np.zeros(n), "Kalman") if plant.sigma_w2 > 0.0 else np.zeros(n)
    pred = a * a * sigma + plant.sigma_v2

    l_min = float(np.sum(plant.sigma_v2 * s + sigma * a * a * m))
    c = n * float(np.exp(np.mean(np.log(pred * m))))
    return EntropyParams(n=n, h=h, l_min=l_min, c=c)


def min_entropy(l: float, params: EntropyParams) -> float:
    """Bits per cycle needed to achieve LQR cost l; diverges as l -> l_min."""
    if l <= params.l_min:
        raise CostBelowFloor(f"cost {l} is at or below the floor {params.l_min}")
    return params.h + 0.5 * params.n * math.log1p(params.c / (l - params.l_min)) / LN2


def lqr_from_entropy(e: float, params: EntropyParams) -> float:
    """Best achievable LQR cost at e bits per cycle; exact inverse of min_entropy."""
    if e <= params.h:
        raise Unstabilizable(
            f"entropy {e} bits does not exceed the intrinsic rate {params.h}"
        )
    x = 2.0 * (e - params.h) / params.n * LN2
    if x > 700.0:  # the excess term underflows; the cost sits at its floor
        return params.l_min
    return params.l_min + params.c / math.expm1(x)
