"""Interior-point solvers for standard-form LPs.

:func:`solve` runs one iteration loop for four methods that share the
Newton kernel and the arc/momentum primitives.  The loop owns the
starting point, the momentum restart, the stopping test, the limits and
the trace.  It computes each point's residuals once and hands them to
the stopping test and the step rule; a restart that moves the point
needs only ``A @ z - b`` anew.  The methods differ in their step rule,
and ``alg2`` and ``arc`` share one:

``alg1``
    Neighborhood-confined arc search.  The momentum restart is guarded by
    membership in ``N(theta)``.  Each arc step takes the largest angle
    whose whole arc stays inside the doubled neighborhood, in closed form
    as the first root of a degree-8 polynomial in ``tan(alpha / 2)``, and
    a corrector recenters after it.
    Its contraction invariants hold to rounding; breaches are recorded in
    ``SolveResult.invariant_violations``.
``alg2``
    Practical arc search with unconditional momentum restarts and an
    adaptive centering weight chosen from an affine-scaling probe, in the
    style of predictor-corrector codes.
``arc``
    The practical arc step without restarts; the reference arc-search
    method.
``line``
    Classic predictor-corrector line search (affine predictor, centering
    corrector, separate damped primal and dual steps).

All four stop on the same relative criterion (``check_convergence``) and
report the same immature-stop taxonomy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (arc_point, duality_measure, first_derivatives,
                   momentum_weight_full, momentum_weight_simple, residuals,
                   restart_point, second_derivatives)
from .linalg import NumericalError, factor, norm, solve_block

__all__ = ["Status", "SolverConfig", "SolveResult", "solve",
           "initial_point_alg1", "initial_point_mehrotra",
           "max_alpha_positivity", "check_convergence",
           "check_theoretical_stop"]

_THETA_SUP = 1.0 / (2.0 + np.sqrt(2.0))
# A step (angle or line length) below this ends the solve: StepTooSmall.
_STEP_FLOOR = 1e-7
# Clip of the adaptive centering weight sigma = (mu_affine / mu)**3.
_SIGMA_MIN = 1e-6
_SIGMA_MAX = 0.5
# Every component of the wide interior start.
_WIDE_START = 100.0


class Status:
    """Terminal states of a solve."""

    OPTIMAL = "Optimal"
    ITERATION_LIMIT = "IterationLimit"
    STEP_TOO_SMALL = "StepTooSmall"
    NUMERICAL_ERROR = "NumericalError"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    INPUT_ERROR = "InputError"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the four methods.

    ``beta`` scales the momentum restart, whose weight rule each method
    fixes (see :func:`_restart`).  ``theta`` is the neighborhood radius of
    the guarded method and must stay below ``1 / (2 + sqrt(2))``.
    ``gamma`` damps arc and line steps away from the positivity boundary.
    ``time_limit`` bounds a solve's wall time in seconds: ``None`` for no
    bound, else positive (``inf`` included).
    """

    algorithm: str = "alg2"
    beta: float = 0.9
    theta: float = 0.25
    epsilon: float = 1e-7
    max_iter: int = 100
    gamma: float = 0.9
    stop_rule: str = "relative"
    trace: bool = False
    time_limit: float = None

    def validate(self):
        if self.algorithm not in ("alg1", "alg2", "arc", "line"):
            raise ValueError("unknown algorithm %r" % self.algorithm)
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.algorithm == "alg1" and not 0.0 < self.theta < _THETA_SUP:
            raise ValueError("theta must lie in (0, 1/(2+sqrt(2)))")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.stop_rule not in ("relative", "theoretical"):
            raise ValueError("stop_rule must be 'relative' or "
                             "'theoretical'")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be None or positive")
        return self


@dataclass
class SolveResult:
    """Outcome of one solve.

    ``objective`` is ``c @ x + objective_shift`` of the problem that was
    solved.  ``trace`` holds one dict per iteration when tracing is on;
    ``invariant_violations`` collects (iteration, kind, magnitude) tuples
    from the guarded method's runtime checks.
    """

    status: str
    iterations: int
    wall_time: float
    mu: float
    rb_norm: float
    rc_norm: float
    objective: float
    x: np.ndarray = None
    lam: np.ndarray = None
    s: np.ndarray = None
    trace: list = field(default_factory=list)
    invariant_violations: list = field(default_factory=list)
    note: str = ""


def _mu_term(lp, x, lam, mu):
    return mu / max(1.0, abs(float(lp.c @ x)), abs(float(lp.b @ lam)))


def check_convergence(lp, x, lam, s, rb, rc, epsilon, norms=None):
    """Relative optimality test of a point with residuals ``(rb, rc)``.

    True when each of ``||rb|| / max(1, ||b||)``, ``||rc|| / max(1,
    ||c||)`` and ``mu / max(1, |c @ x|, |b @ lam|)`` is below
    ``epsilon``, so a nan term fails the test.
    """
    mu = duality_measure(x, s)
    bn, cn = norms if norms is not None else (norm(lp.b), norm(lp.c))
    return (norm(np.asarray(rb, dtype=float)) / max(1.0, bn) < epsilon
            and norm(np.asarray(rc, dtype=float)) / max(1.0, cn) < epsilon
            and _mu_term(lp, x, lam, mu) < epsilon)


def _mu_fails_stop(lp, x, lam, s, config):
    """True when the duality measure of ``(x, lam, s)`` alone fails the
    stopping test of ``config.stop_rule``, whatever the residuals.

    Under the relative test only a mu term of at least ``epsilon`` is
    decided here.  A nan mu term is left to the full test, which fails it
    too, as :func:`check_convergence` needs every term below ``epsilon``.
    """
    mu = duality_measure(x, s)
    if config.stop_rule == "theoretical":
        return not mu <= config.epsilon
    return _mu_term(lp, x, lam, mu) >= config.epsilon


def check_theoretical_stop(mu, rb_norm, rc_norm, mu0, rb0_norm, rc0_norm,
                           epsilon):
    """Absolute test used by the guarded method's theory.

    True when ``mu <= epsilon`` and each residual norm has fallen below
    its initial value scaled by ``epsilon / mu0``.
    """
    return (mu <= epsilon
            and rb_norm <= rb0_norm / mu0 * epsilon
            and rc_norm <= rc0_norm / mu0 * epsilon)


def initial_point_alg1(lp):
    """Wide interior start ``x = s = 100 * ones``, ``lam = 0``.

    The componentwise-constant products put the point at the exact center
    of ``N(theta)`` for every admissible ``theta``.
    """
    return (np.full(lp.n, _WIDE_START), np.zeros(lp.m),
            np.full(lp.n, _WIDE_START))


def initial_point_mehrotra(lp):
    """Least-squares starting point with positivity shifts.

    ``x`` solves ``min ||x|| : A @ x = b`` and ``(lam, s)`` solve
    ``min ||s|| : A.T @ lam + s = c``; both are then shifted into the
    strict interior, first past the most negative component, then by a
    complementarity-balancing term.  Falls back to the wide start when a
    component remains at or below ``1e-10``.
    """
    ones = np.ones(lp.n)
    try:
        fac = factor(lp, ones, ones)
        y = fac.solve(lp.b)
        x = lp.At @ y
        lam = fac.solve(lp.A @ lp.c)
        s = lp.c - lp.At @ lam
    except NumericalError:
        return initial_point_alg1(lp)

    dx = max(-1.5 * x.min(), 0.0)
    ds = max(-1.5 * s.min(), 0.0)
    x_hat = x + dx
    s_hat = s + ds
    cross = float(x_hat @ s_hat)
    e_s = float(s_hat.sum())
    e_x = float(x_hat.sum())
    x0 = x_hat + (0.5 * cross / e_s if abs(e_s) > 1e-300 else 0.0)
    s0 = s_hat + (0.5 * cross / e_x if abs(e_x) > 1e-300 else 0.0)
    if x0.min() <= 1e-10:
        x0 = np.full(lp.n, _WIDE_START)
    if s0.min() <= 1e-10:
        s0 = np.full(lp.n, _WIDE_START)
    return x0, lam, s0


def max_alpha_positivity(base, d1, d2):
    """Largest angle in ``[0, pi/2]`` keeping ``arc_point(base, d1, d2, .)``
    nonnegative, in closed form (Y. Yang, *Arc-Search Techniques for
    Interior-Point Methods*, CRC Press, 2020), and the arc point there.

    Per component, with ``t = base + d2``, ``R = hypot(d1, d2)`` and
    ``phi = atan2(d1, d2)``, the arc is ``t - R cos(alpha - phi)``: it
    reaches zero only if ``t < R``, first at ``phi - arccos(t / R)``
    (mod 2 pi).  As that difference cancels for small roots, the angle is
    taken as ``2 atan(u)`` for the smallest positive root ``u`` of
    ``(base + 2 d2) u**2 - 2 d1 u + base = 0`` (``u = tan(alpha / 2)``).
    The answer is the least such angle, capped at pi/2.  If rounding leaves
    the arc negative there, the angle shrinks by a relative 1e-12, sixteen
    times more per retry, until it is not.

    Returns ``(alpha, point)``, where ``point`` is
    ``arc_point(base, d1, d2, alpha)``, the point found nonnegative.
    """
    base = np.asarray(base, dtype=float)
    if (base <= 0).any():
        raise ValueError("arc base point must be strictly positive")
    a = base + 2.0 * d2
    disc = d1 * d1 - base * a                    # R**2 - t**2
    hit = disc > 0.0
    dh, ah = d1[hit], a[hit]
    q = dh + np.copysign(np.sqrt(disc[hit]), dh)
    # The smaller positive root has cot(alpha / 2) = q / base if q > 0,
    # else a / q (positive iff a < 0); cot = 1 is the cap alpha = pi/2.
    cot = np.maximum.reduce(np.where(q > 0.0, q / base[hit], ah / q),
                            initial=1.0)
    alpha = 2.0 * np.arctan2(1.0, cot)
    shrink = 1e-12
    point = arc_point(base, d1, d2, alpha)
    while point.min() < 0.0:
        alpha *= 1.0 - shrink
        shrink = min(1.0, 16.0 * shrink)
        point = arc_point(base, d1, d2, alpha)
    return alpha, point


def _linear_ratio_step(w, dw, cap=1.0):
    """Largest step in [0, cap] with ``w - alpha * dw >= 0``."""
    pos = dw > 0
    if not pos.any():
        return cap
    return float(min(cap, (w[pos] / dw[pos]).min()))


def _clip_sigma(sigma):
    """``sigma`` clipped to ``[_SIGMA_MIN, _SIGMA_MAX]``; nan stays nan."""
    return min(max(sigma, _SIGMA_MIN), _SIGMA_MAX)


def _finish(lp, status, k, t0, x, lam, s, rb, rc, trace, violations,
            note=""):
    return SolveResult(
        status=status, iterations=k, wall_time=time.perf_counter() - t0,
        mu=duality_measure(x, s), rb_norm=norm(rb), rc_norm=norm(rc),
        objective=float(lp.c @ x) + lp.objective_shift,
        x=x, lam=lam, s=s, trace=trace, invariant_violations=violations,
        note=note)


def _stop(lp, x, lam, s, rb, rc, config, norms, init=None):
    if config.stop_rule == "theoretical":
        mu0, rb0, rc0 = init
        return check_theoretical_stop(
            duality_measure(x, s), norm(rb), norm(rc), mu0, rb0, rc0,
            config.epsilon)
    return check_convergence(lp, x, lam, s, rb, rc, config.epsilon, norms)


def _deadline_hit(config, t0):
    return (config.time_limit is not None
            and time.perf_counter() - t0 > config.time_limit)


class _Step(NamedTuple):
    """What a step rule did.

    A step to ``point`` carries its trace ``fields``; with a ``status`` as
    well, the solve ends at ``point``, and ``residuals`` may carry the
    point's ``(rb, rc)`` when the rule already computed them.  A rule that
    takes no step returns only a ``status`` and ``note``, and the solve
    ends where it stood.
    """

    point: tuple = None
    fields: dict = None
    status: str = None
    note: str = ""
    residuals: tuple = None


def solve(lp, config=None):
    """Solve ``lp`` with the method named by ``config.algorithm``.

    Each iteration tests for optimality and the limits, restarts the
    iterate with momentum, and takes one step of the method's rule
    (``_STEP_RULES``) from the restarted point.
    """
    config = (config or SolverConfig()).validate()
    if lp.n == 0:
        # Presolve can solve a problem outright; the shift is then the
        # whole objective and there is nothing left to iterate on.
        return SolveResult(status=Status.OPTIMAL, iterations=0,
                           wall_time=0.0, mu=0.0, rb_norm=0.0, rc_norm=0.0,
                           objective=lp.objective_shift, x=np.zeros(0),
                           lam=np.zeros(lp.m), s=np.zeros(0),
                           note="solved during presolve")
    t0 = time.perf_counter()
    if config.algorithm == "alg1":
        x, lam, s = initial_point_alg1(lp)
    else:
        x, lam, s = initial_point_mehrotra(lp)
    norms = (norm(lp.b), norm(lp.c))
    rb, rc = residuals(lp, x, lam, s)
    mu = duality_measure(x, s)
    init = (mu, norm(rb), norm(rc))
    rb0 = rb

    def stop(x, lam, s, rb, rc):
        return _stop(lp, x, lam, s, rb, rc, config, norms, init)

    rule = _STEP_RULES[config.algorithm]
    prev_x = prev_rb = None
    trace, violations = [], []
    k = 0
    while True:
        if stop(x, lam, s, rb, rc):
            return _finish(lp, Status.OPTIMAL, k, t0, x, lam, s, rb, rc,
                           trace, violations)
        if k >= config.max_iter or _deadline_hit(config, t0):
            note = "time limit" if k < config.max_iter else ""
            return _finish(lp, Status.ITERATION_LIMIT, k, t0, x, lam, s, rb,
                           rc, trace, violations, note)

        beta_k, z = _restart(config, x, prev_x, rb, prev_rb, s)
        rb_z = rb if z is x else lp.A @ z - lp.b
        mu_z = duality_measure(z, s)
        try:
            step = rule(lp, config, z, lam, s, mu_z, mu, rb_z, rc, stop)
        except NumericalError as exc:
            step = _Step(status=Status.NUMERICAL_ERROR, note=str(exc))
        if step.point is None:
            return _finish(lp, step.status, k, t0, x, lam, s, rb, rc, trace,
                           violations, step.note)

        if config.trace:
            row = {"iter": k, "mu": mu, "mu_z": mu_z, "beta_k": beta_k,
                   **step.fields, "rb_norm": norm(rb), "rc_norm": norm(rc)}
            if config.algorithm == "alg1":
                row.update(rb=rb.copy(), x=x.copy(), s=s.copy(),
                           z=z.copy())
            trace.append(row)

        x_new, lam_new, s_new = step.point
        rb_new, rc_new = (step.residuals
                          or residuals(lp, x_new, lam_new, s_new))
        if step.status is not None:
            return _finish(lp, step.status, k + 1, t0, x_new, lam_new, s_new,
                           rb_new, rc_new, trace, violations, step.note)
        mu_new = duality_measure(x_new, s_new)
        if config.algorithm == "alg1":
            _alg1_invariants(k, violations, mu, mu_new, rb, rb_new, rc,
                             rc_new, step.fields["sin_alpha"], x_new, s_new,
                             rb0, x, z, beta_k, config)
        prev_x, prev_rb = x, rb
        x, lam, s = x_new, lam_new, s_new
        rb, rc, mu = rb_new, rc_new, mu_new
        k += 1


def _restart(config, x, prev_x, rb, prev_rb, s):
    """Momentum restart ``(beta_k, z)`` of the iterate ``x``.

    ``alg1`` weighs the shift with the residual-aware cap, which its
    contraction guarantees require, and keeps it only inside
    ``N(theta)``; ``alg2`` weighs it with the box cap alone and shifts
    unconditionally; ``arc`` and ``line`` never restart.
    """
    if config.algorithm in ("arc", "line") or prev_x is None:
        return 0.0, x
    delta = x - prev_x
    if config.algorithm == "alg1":
        beta_k = momentum_weight_full(x, prev_x, rb, prev_rb, config.beta)
        z = restart_point(x, beta_k, delta, "guarded", s, config.theta)
    else:
        beta_k = momentum_weight_simple(x, prev_x, config.beta)
        z = restart_point(x, beta_k, delta, "always")
    # A rejected guarded shift returns x itself.  An unconditional one
    # may zero out a component at beta = 1, which the kernel cannot scale
    # by.
    if z is x or z.min() <= 0.0:
        return 0.0, x
    return beta_k, z


def _arc_fields(alpha_z, alpha_s):
    sin_z = float(np.sin(alpha_z))
    return {"alpha": float(alpha_z), "sin_alpha": sin_z,
            "step_primal": sin_z, "step_dual": float(np.sin(alpha_s))}


# ----------------------------------------------------------------------
# Step rules.  Each takes ``(lp, config, z, lam, s, mu_z, mu, rb, rc,
# stop)``: the restarted point ``(z, lam, s)`` with its duality measure
# and its residuals ``(rb, rc)``, the measure of the iterate itself, and
# the stopping test ``stop(x, lam, s, rb, rc)``.
# ----------------------------------------------------------------------

def _alg1_admissible(z, s_vec, dz, ds, ddz, dds, mu_z, theta):
    """Admissibility test for the guarded arc step.

    An angle is admissible when the arc stays strictly positive and
    within the doubled proximity band
    ``||x(a) * s(a) - (1 - sin a) mu_z|| <= 2 theta (1 - sin a) mu_z``.
    ``check(alpha)`` returns the arc points ``(x(alpha), s(alpha))`` of an
    admissible angle, else None.
    """
    def check(alpha):
        sin_a = np.sin(alpha)
        xa = arc_point(z, dz, ddz, alpha)
        sa = arc_point(s_vec, ds, dds, alpha)
        if xa.min() <= 0.0 or sa.min() <= 0.0:
            return None
        target = (1.0 - sin_a) * mu_z
        if norm(xa * sa - target) <= 2.0 * theta * target:
            return xa, sa
        return None
    return check


def _anti_diagonal_sums(size):
    """Matrix mapping the flattened outer product of two coefficient
    vectors of length ``size`` to the coefficients of their product."""
    degree = np.add.outer(np.arange(size), np.arange(size)).ravel()
    return (degree == np.arange(2 * size - 1)[:, None]).astype(float)


# With u = tan(alpha / 2), (1 + u**2) arc_point(w, d1, d2, alpha) is the
# quadratic w - 2 d1 u + (w + 2 d2) u**2, and (1 + u**2)**2 (1 - sin alpha)
# is the quartic _T(u).  Coefficients run lowest first.
_ARC_QUADRATIC = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0],
                           [1.0, 0.0, 2.0]])
# Maps the 9 products of (w, d1, d2) and (v, e1, e2) to the quartic
# coefficients of the product of the two arcs' quadratics.
_ARC_PRODUCT = _anti_diagonal_sums(3) @ np.kron(_ARC_QUADRATIC,
                                                _ARC_QUADRATIC)
_SQUARE_SUM = _anti_diagonal_sums(5)
_T = np.array([1.0, -2.0, 2.0, -2.0, 1.0])
_T_SQUARED = np.convolve(_T, _T)


def _cell_maps(cells, degree=8):
    """Maps from the power coefficients of ``p`` on ``[0, 1]``, cut into
    the cells ``[k, k + 1] / cells``.  ``power[k]`` gives the power
    coefficients of ``t -> p((k + t) / cells)``; ``(p @ bernstein)
    .reshape(degree + 1, cells)`` holds those polynomials' Bernstein
    coefficients on ``[0, 1]``, one cell per column."""
    i = np.arange(degree + 1)
    binom = np.array([[math.comb(r, j) for j in i] for r in i], dtype=float)
    start = np.arange(cells)[:, None, None] / cells
    # power[k, j, r] = C(r, j) start_k**(r - j) / cells**j for r >= j.
    power = (binom.T * start ** np.maximum(i - i[:, None], 0)
             / float(cells) ** i[:, None])
    bernstein = (binom / binom[degree]) @ power
    return power, bernstein.transpose(2, 1, 0).reshape(degree + 1, -1)


_CELLS = 64
_CELL_POWER, _CELL_BERNSTEIN = _cell_maps(_CELLS)
# Nested cells past this depth are 64**-6 wide; the search stops there.
_MAX_DEPTH = 5


def _first_root(p, depth=0):
    """Least ``t`` in ``[0, 1]`` with ``p(t) >= 0``, or None when ``p < 0``
    on all of ``[0, 1]``; ``p`` holds the 9 power coefficients of a
    polynomial of degree 8, lowest first, with ``p(0) < 0``.

    A cell whose Bernstein coefficients are all negative holds no root
    (convex hull property).  In the first other cell, a single sign change
    of those coefficients means a single root, which safeguarded Newton
    finds; more sign changes mean up to as many roots, and the cell is
    searched the same way.  Two roots inside one cell are thus never
    stepped over.
    """
    bern = (p @ _CELL_BERNSTEIN).reshape(-1, _CELLS)
    for k in np.flatnonzero(bern.max(axis=0) >= 0.0):
        up = [b >= 0.0 for b in bern[:, k].tolist()]
        cell = _CELL_POWER[k] @ p
        if up[0] or depth == _MAX_DEPTH:
            t = 0.0
        elif up[-1] and up == sorted(up):        # a single sign change
            t = _bracketed_root(cell.tolist())
        else:
            t = _first_root(cell, depth + 1)
            if t is None:
                continue
        return (k + t) / _CELLS
    return None


def _bracketed_root(p):
    """The only root in ``(0, 1]`` of ``p`` (power coefficients, lowest
    first), given ``p(0) < 0 <= p(1)``, to 1e-13: Newton's method, with a
    bisection step whenever Newton leaves the bracket."""
    lo, hi = 0.0, 1.0
    t = p[0] / (p[0] - sum(p))
    for _ in range(60):
        v = dv = 0.0
        for c in reversed(p):
            dv = dv * t + v
            v = v * t + c
        step = v / dv if dv != 0.0 else math.inf
        if abs(step) <= 1e-13:
            break
        if v < 0.0:
            lo = t
        else:
            hi = t
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    return t


@np.errstate(over="ignore", invalid="ignore")
def _guarded_angle(z, s, dz, ds, ddz, dds, mu_z, theta):
    """Largest angle ``alpha`` in ``[0, pi/2)`` such that every angle in
    ``[0, alpha]`` is admissible (:func:`_alg1_admissible`), in closed form.

    With ``u = tan(alpha / 2)``, ``(1 + u**2) x(alpha)`` is the quadratic
    ``z - 2 dz u + (z + 2 ddz) u**2``, and likewise for ``s``.  Each
    component gives a quartic ``Q_i = X_i S_i / mu_z - T``, and the
    doubled proximity test reads ``g(u) = sum_i Q_i**2 - 4 theta**2 T**2
    <= 0``; the coefficients of ``g`` are anti-diagonal sums of the
    quartics' 5x5 Gram matrix.  ``g(0) < 0`` for ``z`` in ``N(theta)``
    and ``g(1) >= 0``, so the angle is ``2 atan(u*)`` for the first root
    ``u*`` of ``g`` in ``(0, 1]`` (Y. Yang, *Arc-Search Techniques for
    Interior-Point Methods*, CRC Press, 2020).  Up to that angle,
    ``x_i s_i >= (1 - 2 theta)(1 - sin alpha) mu_z > 0``, so no component
    changes sign and positivity needs no test of its own.

    The root is taken 1e-10 short; if rounding still leaves the angle
    inadmissible, it shrinks by a relative 1e-12, sixteen times more per
    retry, until it is not.  Nonfinite coefficients give the angle 0.

    Returns ``(alpha, points)``: ``points`` holds the arc points
    ``(x(alpha), s(alpha))`` that the last admissibility check computed,
    or is None when ``alpha`` fell below ``_STEP_FLOOR`` unchecked.
    """
    products = (np.array((z, dz, ddz))[:, None]
                * np.array((s, ds, dds))).reshape(9, -1)
    quartics = (_ARC_PRODUCT / mu_z) @ products - _T[:, None]
    g = (_SQUARE_SUM @ (quartics @ quartics.T).ravel()
         - 4.0 * theta ** 2 * _T_SQUARED)
    if not np.isfinite(g).all():
        return 0.0, None
    u = _first_root(g)
    alpha = 2.0 * np.arctan((1.0 if u is None else u) * (1.0 - 1e-10))
    admissible = _alg1_admissible(z, s, dz, ds, ddz, dds, mu_z, theta)
    shrink = 1e-12
    while alpha >= _STEP_FLOOR:
        points = admissible(alpha)
        if points is not None:
            return alpha, points
        alpha *= 1.0 - shrink
        shrink = min(1.0, 16.0 * shrink)
    return alpha, None


def _guarded_step(lp, config, z, lam, s, mu_z, mu, rb, rc, stop):
    """Guarded arc step (``alg1``) followed by a corrector.

    The angle is the largest one whose whole arc ``[0, alpha]`` stays in
    the doubled neighborhood, in closed form (:func:`_guarded_angle`),
    which also returns the arc points there that its admissibility check
    computed.  The corrector then recenters toward
    ``(1 - sin(alpha)) * mu``, which preserves the contraction invariants
    that :func:`_alg1_invariants` records: the measure and dual residual
    shrink by exactly ``1 - sin(alpha)``, primal residual components
    shrink at least that fast without changing sign, and the iterate
    stays in ``N(theta)``.
    """
    fac = factor(lp, z, s)
    dz, dlam, ds = first_derivatives(fac, z, s, rb, rc)
    ddz, ddlam, dds = second_derivatives(lp, fac, z, s, dz, ds)
    # Hold one factor at a time: the corrector's is built below.
    del fac

    alpha, points = _guarded_angle(z, s, dz, ds, ddz, dds, mu_z,
                                   config.theta)
    if points is None:
        return _Step(status=Status.STEP_TOO_SMALL)

    sin_a = np.sin(alpha)
    xa, sa = points
    la = arc_point(lam, dlam, ddlam, alpha)
    fac2 = factor(lp, xa, sa)
    ex, el, es = solve_block(fac2, np.zeros(lp.m), np.zeros(lp.n),
                             (1.0 - sin_a) * mu - xa * sa)
    x_new, lam_new, s_new = xa + ex, la + el, sa + es
    if x_new.min() <= 0.0 or s_new.min() <= 0.0:
        return _Step(status=Status.NUMERICAL_ERROR,
                     note="corrector left the interior")
    return _Step((x_new, lam_new, s_new), _arc_fields(alpha, alpha))


def _alg1_invariants(k, violations, mu, mu_new, rb, rb_new, rc, rc_new,
                     sin_a, x_new, s_new, rb0, x, z, beta_k, config):
    """Record breaches of the guarded method's contraction guarantees.

    The corrector recentered toward ``(1 - sin a) * mu``, so the
    contraction identity reads ``mu_new = (1 - sin a) * mu``.
    """
    rb_floor = 1e-12 * (1.0 + np.abs(rb0).max())
    shrink = 1.0 - sin_a
    expected = shrink * mu
    if abs(mu_new - expected) > 1e-8 * max(expected, 1e-300):
        violations.append((k, "mu_contraction",
                           abs(mu_new - expected) / max(expected, 1e-300)))
    rc_err = norm(rc_new - shrink * rc)
    if rc_err > 1e-8 * (1.0 + norm(rc)):
        violations.append((k, "rc_contraction", rc_err))
    live = np.abs(rb) > rb_floor
    bound = np.abs(rb[live]) * shrink * (1.0 + 1e-10) + rb_floor
    excess = np.abs(rb_new[live]) - bound
    if excess.size and excess.max() > 0:
        violations.append((k, "rb_contraction", float(excess.max())))
    flipped = (np.abs(rb_new) > rb_floor) & (np.abs(rb0) > rb_floor) \
        & (np.sign(rb_new) != np.sign(rb0))
    if flipped.any():
        violations.append((k, "rb_sign_flip", int(flipped.sum())))
    dev = norm(x_new * s_new - mu_new)
    if dev > config.theta * mu_new * (1.0 + 1e-8):
        violations.append((k, "neighborhood", float(dev / mu_new)))
    if beta_k > 0.0:
        lo = (1.0 - config.beta) * x - 1e-12 * np.abs(x)
        hi = (1.0 + config.beta) * x + 1e-12 * np.abs(x)
        if (z < lo).any() or (z > hi).any():
            violations.append((k, "restart_box", float(beta_k)))


def _arc_step(lp, config, z, lam, s, mu_z, mu, rb, rc, stop):
    """Practical arc step (``alg2``, and ``arc`` without restarts).

    Centering ``sigma = (mu_affine / mu_z)**3`` comes from an affine
    probe along the first derivatives; primal and dual follow the arc to
    ``gamma`` times their own largest positive angle.  When the undamped
    boundary point already passes the stopping test, the solve ends
    there; its residuals are computed only if its duality measure alone
    does not already fail the test.
    """
    fac = factor(lp, z, s)
    dz, dlam, ds = first_derivatives(fac, z, s, rb, rc)
    alpha_az = _linear_ratio_step(z, dz)
    alpha_as = _linear_ratio_step(s, ds)
    mu_a = duality_measure(z - alpha_az * dz, s - alpha_as * ds)
    sigma = _clip_sigma((mu_a / mu_z) ** 3)
    ddz, ddlam, dds = second_derivatives(lp, fac, z, s, dz, ds, sigma, mu_z)

    alpha_max_z, x_cand = max_alpha_positivity(z, dz, ddz)
    alpha_max_s, s_cand = max_alpha_positivity(s, ds, dds)
    lam_cand = arc_point(lam, dlam, ddlam, alpha_max_s)
    if (x_cand.min() >= 0.0 and s_cand.min() >= 0.0
            and not _mu_fails_stop(lp, x_cand, lam_cand, s_cand, config)):
        res = residuals(lp, x_cand, lam_cand, s_cand)
        if stop(x_cand, lam_cand, s_cand, *res):
            return _Step((x_cand, lam_cand, s_cand),
                         _arc_fields(alpha_max_z, alpha_max_s),
                         Status.OPTIMAL, residuals=res)

    alpha_z = config.gamma * alpha_max_z
    alpha_s = config.gamma * alpha_max_s
    if max(alpha_z, alpha_s) < _STEP_FLOOR:
        return _Step(status=Status.STEP_TOO_SMALL)
    x_new = arc_point(z, dz, ddz, alpha_z)
    lam_new = arc_point(lam, dlam, ddlam, alpha_s)
    s_new = arc_point(s, ds, dds, alpha_s)
    if x_new.min() <= 0.0 or s_new.min() <= 0.0:
        return _Step(status=Status.STEP_TOO_SMALL,
                     note="damped arc step left the interior")
    return _Step((x_new, lam_new, s_new), _arc_fields(alpha_z, alpha_s))


def _line_step(lp, config, z, lam, s, mu_z, mu, rb, rc, stop):
    """Predictor-corrector line step (``line``); ``z`` is the iterate."""
    fac = factor(lp, z, s)
    # Predictor: the affine direction is the negated first derivative.
    px, plam, ps = first_derivatives(fac, z, s, rb, rc)
    alpha_p = _linear_ratio_step(z, px)
    alpha_d = _linear_ratio_step(s, ps)
    mu_aff = duality_measure(z - alpha_p * px, s - alpha_d * ps)
    sigma = _clip_sigma((mu_aff / mu) ** 3)
    # Corrector recenters and cancels the predictor's second-order
    # complementarity error.
    cx, clam, cs = solve_block(fac, np.zeros(lp.m), np.zeros(lp.n),
                               sigma * mu - px * ps)

    dx = -px + cx
    dlam = -plam + clam
    ds = -ps + cs
    alpha_p = min(1.0, config.gamma * _linear_ratio_step(z, -dx, cap=np.inf))
    alpha_d = min(1.0, config.gamma * _linear_ratio_step(s, -ds, cap=np.inf))
    if max(alpha_p, alpha_d) < _STEP_FLOOR:
        return _Step(status=Status.STEP_TOO_SMALL)
    x_new = z + alpha_p * dx
    lam_new = lam + alpha_d * dlam
    s_new = s + alpha_d * ds
    if x_new.min() <= 0.0 or s_new.min() <= 0.0:
        return _Step(status=Status.STEP_TOO_SMALL,
                     note="damped line step left the interior")
    return _Step((x_new, lam_new, s_new),
                 {"alpha": float(alpha_p), "sin_alpha": None,
                  "step_primal": float(alpha_p),
                  "step_dual": float(alpha_d)})


_STEP_RULES = {"alg1": _guarded_step, "alg2": _arc_step, "arc": _arc_step,
               "line": _line_step}
