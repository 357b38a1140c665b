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

from .errors import CostBelowFloor, SingularStateMatrix, UnsupportedStructure, Unstabilizable

LN2 = math.log(2.0)


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


def _positive_root(c2, c1, c0) -> np.ndarray:
    """Root x >= 0 of c2 x^2 + c1 x + c0 = 0 (c2 >= 0, c0 <= 0), elementwise,
    written without cancellation for either sign of c1."""
    root = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    with np.errstate(divide="ignore", invalid="ignore"):  # in the branch np.where drops
        return np.where(c1 < 0.0, (root - c1) / (2.0 * c2), -2.0 * c0 / (c1 + root))


def riccati_diagonal(a, b, q, r) -> np.ndarray:
    """Steady-state LQR cost of each dimension of a diagonal plant.

    Elementwise over diagonal entries a, b != 0, q > 0 and r >= 0: the fixed
    point of s <- q + a^2 s - (a b s)^2 / (r + b^2 s), the positive root of
    b^2 s^2 + (r (1 - a^2) - q b^2) s - q r = 0 (Anderson & Moore, Optimal
    Filtering, 1979, ch. 4) divided by b^2; exactly q when r = 0.
    """
    if np.any(np.asarray(b) == 0.0):
        raise UnsupportedStructure("the Riccati solution needs nonzero input gains")
    rb = r / (b * b)
    return _positive_root(1.0, rb * (1.0 - a * a) - q, -q * rb)


def kalman_diagonal(a, sigma_v2: float, sigma_w2: float) -> np.ndarray:
    """Steady-state filtering error of each dimension of a diagonal plant,
    the fixed point of sigma <- p w / (p + w), p = a^2 sigma + v (v, w the
    noise variances): the root sigma >= 0 of
    a^2 sigma^2 + (v + w - a^2 w) sigma - v w = 0."""
    return _positive_root(a * a, sigma_v2 + sigma_w2 - a * a * sigma_w2, -sigma_v2 * sigma_w2)


def build_entropy_params(plant: LoopControlSpec) -> EntropyParams:
    """Derive EntropyParams from a diagonal plant description.

    The plant decouples per state dimension; every input gain b must be
    nonzero.  Per dimension the cost s is the steady state of the Riccati
    recursion with q = 1 and r = 0 (``riccati_diagonal``), sigma the steady
    filtering error (``kalman_diagonal``), both in closed form, and the
    curve constants are

        l_min = sum(sigma_v2 * s + sigma * a^2 * m)
        c     = n * geometric_mean(p * m),  p = a^2 sigma + sigma_v2

    with m = s b (b^2 s)^-1 b s the estimation-penalty weight and p the
    one-step prediction error covariance.  Other plants must supply
    EntropyParams directly.
    """
    n = plant.n
    a, b = plant.a, plant.b
    s = riccati_diagonal(a, b, np.ones(n), 0.0)  # raises UnsupportedStructure on b = 0
    h = intrinsic_entropy(a)
    m = s * b / (b * b * s) * b * s
    sigma = kalman_diagonal(a, plant.sigma_v2, plant.sigma_w2)
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
