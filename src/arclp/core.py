"""Central-path geometry: residuals, arcs, and momentum restarts.

The solvers trace an ellipsoidal approximation of the central path.  A
point with derivatives ``(d1, d2)`` moves along the arc

    w(alpha) = w - d1 * sin(alpha) + d2 * (1 - cos(alpha)),

which matches position and first two derivatives of the path at
``alpha = 0``.  Momentum restarts shift the primal point by a damped
multiple of the last displacement before the derivatives are computed;
the weight formulas bound the shift so the restarted point keeps strictly
positive components and (in the guarded variant) stays inside the
central-path neighborhood ``N(theta)``.
"""

from __future__ import annotations

import numpy as np

from .linalg import matvec, norm, solve_block

__all__ = ["residuals", "duality_measure", "in_neighborhood", "arc_point",
           "momentum_weight_full", "momentum_weight_simple",
           "restart_point", "first_derivatives", "second_derivatives"]

# Below this infinity-norm of the scaled displacement the restart is
# numerically vacuous and the weight collapses to zero (z = x).
_DEGENERATE_SHIFT = 1e-14


def residuals(lp, x, lam, s):
    """Primal and dual residuals ``(A @ x - b, A.T @ lam + s - c)``."""
    rb = matvec(lp.A, x) - lp.b
    rc = matvec(lp.At, lam) + s - lp.c
    return rb, rc


def duality_measure(x, s):
    """Average complementarity ``x @ s / n``."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("empty vectors have no duality measure")
    return float(x @ s) / x.size


def in_neighborhood(x, s, theta):
    """Membership in ``N(theta)``: positivity plus proximity.

    The point must satisfy ``x > 0``, ``s > 0`` and
    ``||x * s - mu|| <= theta * mu`` in the Euclidean norm, with
    ``mu = x @ s / n``.
    """
    x = np.asarray(x)
    s = np.asarray(s)
    if (x <= 0).any() or (s <= 0).any():
        return False
    mu = duality_measure(x, s)
    return bool(norm(x * s - mu) <= theta * mu)


def arc_point(base, d1, d2, alpha):
    """Point on the ellipsoidal arc at angle ``alpha``.

    ``arc_point(w, d1, d2, 0) == w`` and the arc ends at
    ``w - d1 + d2`` when ``alpha = pi/2``.  ``1 - cos(alpha)`` is
    evaluated as ``2 sin(alpha / 2)**2``, which does not cancel at small
    angles.
    """
    return base - d1 * np.sin(alpha) + d2 * (2.0 * np.sin(0.5 * alpha) ** 2)


def momentum_weight_full(x, x_prev, rb, rb_prev, beta):
    """Residual-aware restart weight.

    The weight is the smaller of two caps: ``beta / ||delta / x||_inf``
    (:func:`momentum_weight_simple`) keeps the restarted point within a
    ``beta`` relative box around ``x``, and
    ``min_j |rb_j / (rb_j - rb_prev_j)|`` (over components whose residual
    actually moved) prevents any primal residual component from being
    pushed through zero, which would flip its sign.  An empty index
    set leaves the second cap at ``+inf``.  Returns 0.0 when the
    displacement is numerically vacuous.
    """
    cap = momentum_weight_simple(x, x_prev, beta)
    rb, rb_prev = np.asarray(rb), np.asarray(rb_prev)
    moved = rb != rb_prev
    if moved.any():
        ratios = np.abs(rb[moved] / (rb[moved] - rb_prev[moved]))
        cap = min(cap, float(ratios.min()))
    return cap


def momentum_weight_simple(x, x_prev, beta):
    """Restart weight from the relative-box cap alone."""
    delta = x - x_prev
    scale = np.abs(delta / x).max()
    if scale < _DEGENERATE_SHIFT:
        return 0.0
    return float(beta / scale)


def restart_point(x, weight, delta, mode, s=None, theta=None):
    """Shifted primal point ``z = x + weight * delta``.

    In ``"guarded"`` mode the shift is kept only when the candidate stays
    strictly positive and inside ``N(theta)`` against the current dual
    slack ``s``; otherwise the unshifted ``x`` is returned.  In
    ``"always"`` mode the shift is unconditional.
    """
    z = x + weight * delta
    if mode == "always":
        return z
    if mode != "guarded":
        raise ValueError("mode must be 'guarded' or 'always'")
    if in_neighborhood(z, s, theta):
        return z
    return x


def first_derivatives(fac, z, s, rb, rc):
    """Arc derivatives ``(dz, dlam, ds)`` at the (possibly shifted) point.

    Solves the Newton block system with right-hand sides ``(rb, rc,
    z * s)``, where ``rb = A @ z - b`` and ``rc = A.T @ lam + s - c`` are
    the point's residuals, so that a full step (``alpha = pi/2``) would
    remove them entirely.
    """
    return solve_block(fac, rb, rc, z * s)


def second_derivatives(lp, fac, z, s, dz, ds, sigma=0.0, mu=0.0):
    """Arc curvature ``(ddz, ddlam, dds)`` at the same point.

    The right-hand side is ``(0, 0, sigma * mu - 2 * dz * ds)``; the pure
    curvature used by the guarded method has ``sigma = 0`` and the
    practical method recenters with its adaptive ``sigma * mu`` term.
    """
    r3 = sigma * mu - 2.0 * dz * ds
    return solve_block(fac, np.zeros(lp.m), np.zeros(lp.n), r3)
