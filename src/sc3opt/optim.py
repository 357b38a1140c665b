"""Solvers on the product of budget simplexes.

``newton_kkt_step`` is one Newton step on the KKT system of a sum of
per-loop costs coupled only by budget rows, from per-loop gradients and
curvature blocks; the power-only baseline takes it with one row and
``sca_solve``'s inner problem with three, where ``kink_step`` adds the
majorant's S1/S2 kink as a per-loop active set.  The 3 x 3 blocks are
inverted by cofactors; ``numpy.linalg`` gives a shifted block's eigenvalues
and the multipliers' least-squares solve.  ``newton_descent`` is the one
descent loop: both run those steps in it, and the communication-oriented
compute split, which is not convex, runs projected-gradient steps over
``project_budget_simplex`` in it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleSubproblem

# ---------------------------------------------------------------------------
# the budget-simplex projection


def project_budget_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= total}, of a vector or
    of each row of a 2-D array.

    Sort-based (Duchi et al., ICML 2008): the threshold comes from the last
    sorted position whose entry stays above it.  A row of a 2-D array gets
    exactly the bits the 1-D call gives for that row.
    """
    w = np.maximum(v, 0.0)
    inside = w.sum(-1) <= total
    # truth-testing a scalar or a list costs far less than a numpy reduction
    if inside if v.ndim == 1 else all(inside.tolist()):
        return w
    n = v.shape[-1]
    u = np.sort(v)[..., ::-1]
    css = u.cumsum(-1) - total
    ratio = css / np.arange(1, n + 1)
    last = n - 1 - (u > ratio)[..., ::-1].argmax(-1)
    if v.ndim == 1:
        theta = ratio[last]
    else:
        theta = ratio[np.arange(v.shape[0]), last]
        theta[inside] = 0.0  # max(v - 0, 0) is the clipped row itself
        theta = theta[:, None]
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# the Newton-KKT kernel

# below this a curvature is subnormal or nearly so: float64 no longer
# resolves its Newton weight 1/H
_FLAT_CURVATURE = np.finfo(float).tiny / np.finfo(float).eps
# a block whose smallest eigenvalue is below about this fraction of its norm
# (or negative) gets a Levenberg shift: rounding, not curvature, sets so
# small a mode, and a negative one only slows descent
_SHIFT_FLOOR = 1e-10


def newton_kkt_step(z, g, hess, residual, equality=None, flat=None, rigid=None):
    """Newton step for min sum_k phi_k(z_k) s.t. sum_k z_k <= b, z >= 0.

    Each of K loops holds an m-vector z_k (m = 1 or 3) with gradient g_k
    and curvature block H_k (arrays (K, m), (K, m) and (K, m, m)); the loops
    are coupled only by the m budget rows, whose residual b - sum_k z_k is
    ``residual`` (shape (m,)).  ``equality``, when given, is
    ``(normal, rhs, on)``: each loop in the mask ``on`` also keeps
    normal_k . dz_k = rhs_k.  Float warnings must be silenced around it.

    Per loop, with M_k the inverse of H_k over the directions its bounds
    and equality leave free and c_k the displacement those fix,
    dz_k = -M_k (g_k + mu) + c_k, and the multipliers solve
    (sum_k M_k) mu = sum_k c_k - sum_k M_k g_k - residual.  Returns dz, the
    KKT residual g + mu (plus nu_k normal_k on a loop holding its equality)
    and each loop's equality multiplier nu (zero off ``on``).

    Coordinates the step would take below zero are fixed there and mu is
    solved again.  ``flat`` (K, m), when given, holds each loop's unit
    direction of zero curvature and zero gradient (zero rows where a loop
    has none).  Where it is free to move, the limit H -> 0 applies: its
    weight outgrows every other, so it pins mu . u to zero, and the loops
    sharing one direction split equally what the others leave of the
    residual; in loops the mask ``rigid`` marks it stays still instead.  A
    block not safely positive definite over its free directions gets a
    Levenberg shift that lifts its smallest eigenvalue to its magnitude, at
    least ``_SHIFT_FLOOR`` of its norm; a block without curvature (norm
    below ``_FLAT_CURVATURE``) stays still.  A budget row whose
    multiplier comes out negative, or that no loop can move, is let go as
    slack unless the step would then overspend it.  With m = 1 and no
    equality the blocks are scalars and the step is closed form
    (``_scalar_kkt_step``), where a curvature below ``_FLAT_CURVATURE``
    takes the same limit.
    """
    k, m = z.shape
    if m == 1 and equality is None:
        return _scalar_kkt_step(z[:, 0], g[:, 0], hess[:, 0, 0], float(residual[0]))
    if m != 3:
        raise ValueError("blocks must be 1 x 1 (without an equality) or 3 x 3")
    fixed = np.zeros((k, m), dtype=bool)
    held = np.ones(m, dtype=bool)  # budget rows kept as equalities
    released = np.zeros(m, dtype=bool)
    while True:
        dz, mu, kkt, nu = _kkt_solve(z, g, hess, residual, fixed, held, equality, flat, rigid)
        low = ~fixed & (dz < -z)
        if low.any():
            fixed |= low
            continue
        slack = held & ~released & (mu < 0.0)
        if slack.any():
            held &= ~slack
            released |= slack
            continue
        over = ~held & (dz.sum(0) > residual)
        if over.any():
            held |= over
            continue
        return dz, kkt, nu


def _scalar_kkt_step(z, g, curv, residual):
    """``newton_kkt_step`` for scalar blocks, in closed form: dz_k =
    max(-(g_k + mu) / H_k, -z_k).  A flat loop's weight outgrows every
    other, so mu is its -g_k, zero to float64, and flat loops share equally
    what the others leave of the residual.  The one budget row is taken as
    tight: its multiplier is never negative when every g_k is (a cost
    falling in its resource).  Float errors are ignored: a flat loop's 1/H_k
    is never used, and with every loop held at zero mu is undefined (nan)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / curv
        flat = ~(curv >= _FLAT_CURVATURE)
        fixed = np.zeros(z.size, dtype=bool)
        while True:
            free = ~fixed
            absorb = flat & free
            if absorb.any():
                mu = 0.0
                dz = np.where(absorb, 0.0, -g * inv)
                dz[fixed] = -z[fixed]
                dz[absorb] = (residual - dz.sum()) / np.count_nonzero(absorb)
            else:
                mu = -(residual + z[fixed].sum() + g[free] @ inv[free]) / inv[free].sum()
                dz = -(g + mu) * inv
                dz[fixed] = -z[fixed]
            low = free & (dz < -z)
            if not low.any():
                return dz[:, None], (g + mu)[:, None], np.zeros(z.size)
            fixed |= low


def _inverse3(a):
    """Inverse of each symmetric 3 x 3 block of ``a`` (K, 3, 3) by
    cofactors, and whether the block is safely positive definite: positive
    leading minors, and a determinant above ``_SHIFT_FLOOR`` times the cube
    of the block's norm (its smallest eigenvalue is then at least about
    that fraction of the norm)."""
    a00, a01, a02 = a[:, 0, 0], a[:, 0, 1], a[:, 0, 2]
    a11, a12, a22 = a[:, 1, 1], a[:, 1, 2], a[:, 2, 2]
    c00 = a11 * a22 - a12 * a12
    c01 = a02 * a12 - a01 * a22
    c02 = a01 * a12 - a02 * a11
    c11 = a00 * a22 - a02 * a02
    c12 = a01 * a02 - a00 * a12
    c22 = a00 * a11 - a01 * a01
    det = a00 * c00 + a01 * c01 + a02 * c02
    inv = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=1).reshape(-1, 3, 3)
    norm = np.sqrt((a * a).sum((1, 2)))
    firm = (a00 > 0.0) & (c22 > 0.0) & (det > _SHIFT_FLOOR * norm**3)
    return inv / det[:, None, None], firm


def _kkt_solve(z, g, hess, residual, fixed, held, equality, flat, rigid):
    """One solve of ``newton_kkt_step`` at a fixed active set, for 3 x 3
    blocks: the step, mu, the KKT residual and nu."""
    k, m = z.shape
    eye = np.eye(m)
    on = None
    d_part = np.where(fixed, -z, 0.0)  # meets every loop's constraints
    proj = ~fixed[:, :, None] * eye  # onto each loop's free directions
    if equality is not None:
        normal, rhs, on = equality
        a = np.where(~fixed & on[:, None], normal, 0.0)
        na = (a * a).sum(1)
        on = on & (na > 0.0)
        if on.any():
            na = np.where(on, na, 1.0)
            d_part += a * (np.where(on, rhs - (normal * d_part).sum(1), 0.0) / na)[:, None]
            proj -= a[:, :, None] * a[:, None, :] / na[:, None, None]
        else:
            on = None
    moving = np.zeros(k, dtype=bool)  # loops whose flat direction takes up residual
    if flat is not None:
        # a flat direction counts where the loop is free to move along it
        inside = (np.abs((proj @ flat[:, :, None])[:, :, 0] - flat).max(1) <= 1e-12) & (flat != 0.0).any(1)
        moving = inside if rigid is None else inside & ~rigid
        u = np.where(inside[:, None], flat, 0.0)
        proj -= u[:, :, None] * u[:, None, :]
    # the constrained and flat directions get the block's own scale, so
    # its inverse over the free ones is exact and well conditioned
    rest = eye - proj
    scale = np.sqrt((hess * hess).sum((1, 2)))
    live = scale > _FLAT_CURVATURE  # a loop without curvature stays still
    scale = np.where(live, scale, 1.0)[:, None, None]
    block = proj @ hess @ proj + scale * rest
    # cofactors, as numpy.linalg pays per matrix: 61 us against about 110 us for eigvalsh + inv at K=50
    inv, firm = _inverse3(block)
    if not firm.all():
        # Levenberg: lift the smallest eigenvalue to its magnitude, at least to the floor (negative
        # curvature is rounding or a slightly nonconvex block; Newton then still descends)
        low = np.linalg.eigvalsh(block)[:, 0]
        lift = np.maximum(np.abs(low), _SHIFT_FLOOR * scale[:, 0, 0]) - low
        inv = _inverse3(block + np.where(firm, 0.0, lift)[:, None, None] * proj)[0]
    weight = np.where(live[:, None, None], proj @ inv @ proj, 0.0)
    wg = (weight @ g[:, :, None])[:, :, 0]
    c = d_part - (weight @ (hess @ d_part[:, :, None]))[:, :, 0]
    rhs_mu = (c - wg).sum(0) - residual
    total = weight.sum(0)
    members = {}  # loops by flat direction
    for i in np.flatnonzero(moving).tolist():
        members.setdefault(tuple(flat[i].tolist()), []).append(i)
    groups = [(np.array(d), np.array(idx)) for d, idx in members.items()]
    # a row no loop can move is slack: its multiplier stays zero
    rows = held & (np.diagonal(total) > 0.0)
    for d, _ in groups:
        rows |= held & (d != 0.0)
    n = int(rows.sum())
    system = np.zeros((n + len(groups), n + len(groups)))
    system[:n, :n] = total[rows][:, rows]
    rhs_all = np.zeros(n + len(groups))
    rhs_all[:n] = rhs_mu[rows]
    for i, (d, idx) in enumerate(groups):
        system[:n, n + i] = -d[rows]
        system[n + i, :n] = d[rows]
        rhs_all[n + i] = -float((g[idx] @ d).mean())
    sol = np.linalg.lstsq(system, rhs_all)[0]  # minimum norm: an unknown no equation moves is zero
    mu = np.zeros(m)
    mu[rows] = sol[:n]
    kkt = g + mu
    dz = c - (weight @ kkt[:, :, None])[:, :, 0]
    for i, (d, idx) in enumerate(groups):
        dz[idx] += sol[n + i] / idx.size * d
    dz[fixed] = -z[fixed]  # exactly, whatever rounding left in the blocks
    nu = np.zeros(k)
    if on is not None:
        stat = (hess @ dz[:, :, None])[:, :, 0] + kkt
        nu = np.where(on, -(a * stat).sum(1) / na, 0.0)
        kkt = kkt + nu[:, None] * a
    return dz, mu, kkt, nu


def kink_step(z, point, s12, kink, theta):
    """Newton step of one inner iteration, the S1/S2 kink held as an active
    set.  A loop on the kink keeps t_S1 = t_smooth to first order, and its
    multiplier moves its S1 branch weight theta; it leaves for the smooth
    branch when theta < 0 and for the S1 branch when theta > 1.  A loop off
    the kink whose step would cross it joins it.  Loops leave one at a time,
    the farthest out of [0, 1] first.  A loop that left and would cross
    straight back is sliding along the S1 branch's flat direction, which
    another loop on that branch can take up: it holds still along it.  If
    it still crosses, it rejoins with theta at 0 or 1 and stays for this
    step, so the active set settles.  Returns the step, the KKT residual,
    the gradient it used, the new kink state and, with loops on the kink,
    a function that re-solves the step against the gap in the terms found
    at the full step (None otherwise)."""
    blocks, gap, normal, psi = point
    residual = 1.0 - z.sum(0)
    if gap is None:
        g, hess, flat = blocks(None)
        dz, kkt, _ = newton_kkt_step(z, g, hess, residual, flat=flat)
        return dz, kkt, g, kink, theta, None
    k = z.shape[0]
    branch = np.where(gap >= 0.0, 1.0, 0.0)  # the branch the max takes
    left = np.zeros(k, dtype=bool)
    rigid = np.zeros(k, dtype=bool)
    stuck = np.zeros(k, dtype=bool)
    while True:
        theta = np.clip(theta, 0.0, 1.0)
        g, hess, flat = blocks(np.where(kink, theta, branch))
        eq = (normal, -gap, kink) if kink.any() else None
        dz, kkt, nu = newton_kkt_step(z, g, hess, residual, eq, flat, rigid)
        if eq is not None:
            new_theta = theta + nu / psi
            beyond = np.where(kink & ~stuck, np.maximum(-new_theta, new_theta - 1.0), 0.0)
            if beyond.max() > 0.0:
                # one at a time: loops on the kink can share a flat direction
                out = np.arange(k) == beyond.argmax()
                kink = kink & ~out
                left |= out
                branch = np.where(out, np.where(new_theta > 1.0, 1.0, 0.0), branch)
                theta = np.where(out, branch, theta)
                continue
            theta = np.where(kink, new_theta, theta)
        ahead = gap + (normal * dz).sum(1)  # the gap after the step, to first order
        cross = s12 & ~kink & np.where(branch > 0.0, ahead < 0.0, ahead > 0.0)
        if not cross.any():
            if eq is None:
                return dz, kkt, g, kink, theta, None
            # second-order correction: the same step, aimed at the kink as
            # the full step found it (the gap there is second order)
            correct = lambda there: newton_kkt_step(  # noqa: E731
                z, g, hess, residual, (normal, -gap - there()[1], kink), flat, rigid
            )[0]
            return dz, kkt, g, kink, theta, correct
        hold = cross & left & ~rigid
        if hold.any():
            rigid |= hold
            continue
        stuck |= cross & left
        kink = kink | cross
        theta = np.where(cross, branch, theta)


# ---------------------------------------------------------------------------
# the descent loop


def newton_descent(fun, step, z, decrement, max_iters, what):
    """Damped descent on a KKT system from z, along the steps the caller
    supplies: Newton-KKT steps or projected-gradient moves.

    ``fun(z)`` returns the value (inf outside the domain) and the terms a
    step is built from; ``step(z, terms)`` returns the step dz, its KKT
    residual, the gradient and either None or a function that, given the
    terms at a rejected full step, returns a corrected step aimed by them.
    ``step`` is called only at z and at accepted points.  Step lengths
    halve from 1 until the Armijo condition holds, with a rounding slack of
    4e-16 |value|; a rejected full step first tries its correction.  Stops
    once the decrement -kkt . dz falls to ``decrement`` times |value|,
    taking that last full step unless it raises the value by more than
    that ("kkt"; a zero step is not evaluated); when that last step is
    declined, a line search finds no decrease or an accepted step gains
    nothing beyond float64 resolution ("stall"); or after ``max_iters``
    steps ("cap").  Float warnings must be silenced around it.  Returns
    (z, value, terms, steps, evaluations, stop), evaluations counting every
    call of fun.
    """
    val, terms = fun(z)
    evals = 1
    if not math.isfinite(val):
        raise InfeasibleSubproblem(f"{what}: start point is infeasible")
    val_floor = 8.0 * np.finfo(float).eps
    for it in range(max_iters):
        dz, kkt, g, correct = step(z, terms)
        if float((kkt * dz).sum()) >= -decrement * abs(val):
            if not dz.any():  # a zero step has nothing to take
                return z, val, terms, it, evals, "kkt"
            z_try = z + dz
            val_try, terms_try = fun(z_try)
            # the step may gain or lose only rounding; more means the model
            # has broken down (an active set gone wrong)
            if val_try <= val + decrement * abs(val):
                return z_try, val_try, terms_try, it, evals + 1, "kkt"
            return z, val, terms, it, evals + 1, "stall"
        slope = float((g * dz).sum())
        lam = 1.0
        while lam >= 1e-20:
            z_try = z + lam * dz
            val_try, terms_try = fun(z_try)
            evals += 1
            if val_try <= val + 1e-4 * lam * slope + 4e-16 * abs(val):
                break
            if correct is not None and lam == 1.0 and math.isfinite(val_try):
                # a full step rejected across a kink: its miss there is of
                # second order, and aiming at it restores the full step
                z_soc = z + correct(terms_try)
                if (z_soc >= 0.0).all():
                    val_soc, terms_soc = fun(z_soc)
                    evals += 1
                    if val_soc <= val + 1e-4 * slope + 4e-16 * abs(val):
                        z_try, val_try, terms_try = z_soc, val_soc, terms_soc
                        break
            lam *= 0.5
        else:
            return z, val, terms, it, evals, "stall"
        if val - val_try <= val_floor * abs(val):  # a gain within float64 resolution
            return z_try, val_try, terms_try, it + 1, evals, "stall"
        z, val, terms = z_try, val_try, terms_try
    return z, val, terms, max_iters, evals, "cap"
