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
        if self.n < 1:
            raise ValueError("state dimension must be at least 1")
        if self.l_min < 0.0:
            raise ValueError("l_min must be nonnegative")
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if not math.isfinite(self.h):
            raise ValueError("h must be finite")


@dataclass(frozen=True, eq=False)
class LoopControlSpec:
    """Linear plant, sensing model and LQR weights of one loop.

    State evolves as x' = A x + B u + v with sensing y = C x + w, where v
    and w are zero-mean Gaussian with covariances sigma_v2 * I and
    sigma_w2 * I.  Q_w and R_w weight state deviation and control energy.
    """

    a: np.ndarray
    b_in: np.ndarray
    c_obs: np.ndarray
    q_w: np.ndarray
    r_w: np.ndarray
    sigma_v2: float
    sigma_w2: float

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        n = a.shape[0]
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b_in", np.atleast_2d(np.asarray(self.b_in, dtype=float)))
        object.__setattr__(self, "c_obs", np.atleast_2d(np.asarray(self.c_obs, dtype=float)))
        object.__setattr__(self, "q_w", np.atleast_2d(np.asarray(self.q_w, dtype=float)))
        object.__setattr__(self, "r_w", np.atleast_2d(np.asarray(self.r_w, dtype=float)))
        if a.shape[0] != a.shape[1]:
            raise ValueError("state matrix must be square")
        if self.b_in.shape[0] != n or self.c_obs.shape[1] != n or self.q_w.shape != (n, n):
            raise ValueError("inconsistent model dimensions")
        if self.sigma_v2 <= 0.0:
            raise ValueError("sigma_v2 must be positive")
        if self.sigma_w2 < 0.0:
            raise ValueError("sigma_w2 must be nonnegative")

    @property
    def n(self) -> int:
        return self.a.shape[0]


def intrinsic_entropy(a) -> float:
    """Intrinsic entropy rate of a plant, log2|det A| in bits per cycle."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    sign, logabsdet = np.linalg.slogdet(a)
    if sign == 0.0:
        raise SingularStateMatrix("state matrix has zero determinant")
    return float(logabsdet / LN2)


def _is_diagonal(m: np.ndarray) -> bool:
    return np.count_nonzero(m - np.diag(np.diagonal(m))) == 0


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

    Supported structure: diagonal A with nonzero diagonal B, C = I,
    Q_w = I and R_w = 0 (everything then decouples per state dimension).
    Per dimension the cost matrix s comes from the Riccati recursion
    s <- q + a^2 s - (a b s)^2 / (r + b^2 s), the steady filtering error
    sigma from the scalar Kalman recursion, and the curve constants are

        l_min = sum(sigma_v2 * s + sigma * a^2 * m)
        c     = n * geometric_mean(p * m),  p = a^2 sigma + sigma_v2

    with m = s b (r + b^2 s)^-1 b s the estimation-penalty weight and p
    the one-step prediction error covariance.  Plants outside this
    structure must supply EntropyParams directly.
    """
    n = plant.n
    if not _is_diagonal(plant.a):
        raise UnsupportedStructure("builder requires a diagonal state matrix")
    if plant.b_in.shape != (n, n) or not _is_diagonal(plant.b_in):
        raise UnsupportedStructure("builder requires a diagonal input matrix")
    if not np.array_equal(plant.c_obs, np.eye(n)):
        raise UnsupportedStructure("builder requires identity observation")
    if not np.array_equal(plant.q_w, np.eye(n)):
        raise UnsupportedStructure("builder requires identity state weight")
    if np.any(plant.r_w != 0.0):
        raise UnsupportedStructure("builder requires zero control weight")

    a = np.diagonal(plant.a).astype(float)
    b = np.diagonal(plant.b_in).astype(float)
    if np.any(b == 0.0):
        raise UnsupportedStructure("builder requires nonzero input gains")
    h = intrinsic_entropy(plant.a)

    s = riccati_diagonal(a, b, np.ones(n), 0.0)
    m = s * b / (b * b * s) * b * s  # r_w = 0 throughout

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
