"""Solver tests: step searches, stopping rules, statuses, traces."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from arclp.core import (arc_point, duality_measure, in_neighborhood,
                        residuals)
from arclp.linalg import NumericalError
from arclp.mps import parse_mps
from arclp.presolve import presolve
import arclp.linalg
import arclp.solvers
from arclp.solvers import (SolverConfig, SolveResult, Status,
                           check_convergence, check_theoretical_stop,
                           initial_point_alg1, initial_point_mehrotra,
                           max_alpha_positivity, solve)
from arclp.standardize import to_standard_form

from conftest import (EDGE_FLOATS, make_standard_lp, outcome,
                      random_feasible_lp)
from test_acceptance import REFERENCE_OBJECTIVES


def load_netlib(netlib_dir, name):
    std = to_standard_form(parse_mps((netlib_dir / (name + ".mps"))
                                     .read_text()))
    reduced, report = presolve(std)
    assert report.verdict is None
    return reduced


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig().validate()
        assert cfg.algorithm == "alg2"
        assert cfg.beta == 0.9
        assert cfg.epsilon == 1e-7
        assert cfg.max_iter == 100
        assert cfg.gamma == 0.9

    @pytest.mark.parametrize("kwargs", [
        dict(algorithm="simplex"),
        dict(beta=0.0),
        dict(beta=1.5),
        dict(algorithm="alg1", theta=0.3),
        dict(algorithm="alg1", theta=0.0),
        dict(epsilon=0.0),
        dict(epsilon=1.0),
        dict(max_iter=0),
        dict(gamma=0.0),
        dict(gamma=1.0),
        dict(stop_rule="always"),
        dict(time_limit=-1.0),
        dict(time_limit=0.0),
        dict(time_limit=float("nan")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()

    def test_theta_below_supremum_accepted(self):
        SolverConfig(algorithm="alg1", theta=0.29).validate()

    @pytest.mark.parametrize("time_limit", [None, 1e-9, 30.0, float("inf")])
    def test_time_limit_none_or_positive_accepted(self, time_limit):
        SolverConfig(time_limit=time_limit).validate()


class TestInitialPoints:
    def test_uniform_start(self, small_lp):
        x, lam, s = initial_point_alg1(small_lp)
        assert_array_equal(x, np.full(small_lp.n, 100.0))
        assert_array_equal(lam, np.zeros(small_lp.m))
        assert_array_equal(s, np.full(small_lp.n, 100.0))
        assert duality_measure(x, s) == 10000.0
        assert in_neighborhood(x, s, 0.25)

    def test_least_squares_start_identity(self):
        lp = make_standard_lp(np.eye(3), np.ones(3), np.ones(3))
        x, lam, s = initial_point_mehrotra(lp)
        assert np.all(x > 0)
        assert np.all(s > 0)

    def test_least_squares_start_positive_on_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(m + 1, 16))
            lp = random_feasible_lp(rng, m, n)
            x, lam, s = initial_point_mehrotra(lp)
            assert np.all(x > 0)
            assert np.all(s > 0)


class TestMaxAlphaPositivity:
    @staticmethod
    def angle(base, d1, d2):
        """The angle, once the point returned with it is checked."""
        alpha, point = max_alpha_positivity(base, d1, d2)
        assert point.tobytes() == arc_point(base, d1, d2, alpha).tobytes()
        assert np.all(point >= 0.0)
        return alpha

    def test_constant_arc(self):
        assert self.angle(np.ones(3), np.zeros(3), np.zeros(3)) == np.pi / 2

    def test_sine_crossing(self):
        a = self.angle(np.array([1.0]), np.array([2.0]), np.array([0.0]))
        assert_allclose(a, np.pi / 6, atol=1e-12)

    def test_cosine_crossing(self):
        a = self.angle(np.array([1.0]), np.array([0.0]), np.array([-3.0]))
        assert_allclose(a, np.arccos(2.0 / 3.0), atol=1e-12)

    def test_min_over_components(self):
        a = self.angle(np.array([1.0, 1.0]), np.array([2.0, 0.0]),
                       np.array([0.0, -3.0]))
        assert_allclose(a, np.pi / 6, atol=1e-12)

    def test_zero_directions_ignored(self):
        # d1 = d2 = 0 leaves a component constant; mixing such components
        # with a crossing one must not divide by zero.
        with np.errstate(all="raise"):
            a = self.angle(np.array([1.0, 1.0, 3.0]),
                           np.array([0.0, 2.0, 0.0]),
                           np.array([0.0, 0.0, 0.0]))
        assert_allclose(a, np.pi / 6, atol=1e-12)

    def test_dip_between_grid_points(self):
        # The arc dips below zero on about (1.02e-4, 4.9e-3) only, which a
        # 64-point grid over [0, pi/2] steps over.  Root from 50-digit
        # arithmetic; rounding in 1 - cos(alpha) near it is about 4e-14,
        # which the safety shrink may step back from.
        base, d1, d2 = np.array([1e-4]), np.array([1.0]), np.array([400.0])
        assert arc_point(base, d1, d2, 0.0025)[0] < 0.0
        a = self.angle(base, d1, d2)
        assert_allclose(a, 1.0208423852660803e-4, rtol=1e-9)
        assert arc_point(base, d1, d2, a)[0] >= 0.0

    def test_tangent_arc(self):
        # t = w + d2 = 2.5 = hypot(d1, d2): the arc touches zero at
        # atan2(2, 1.5) but never goes below it.
        a = self.angle(np.array([1.0]), np.array([2.0]), np.array([1.5]))
        assert a == np.pi / 2

    def test_root_at_quarter_turn(self):
        # 1 - sin/2 - (1 - cos)/2 is positive on [0, pi/2) and zero at pi/2.
        base, d1, d2 = np.array([1.0]), np.array([0.5]), np.array([-0.5])
        a = self.angle(base, d1, d2)
        assert a == np.pi / 2
        assert arc_point(base, d1, d2, a)[0] >= 0.0

    def test_result_keeps_arc_nonnegative(self):
        # Differential check against a dense grid: the answer lies in the
        # grid cell where the arc first turns negative, the arc is
        # nonnegative at the answer and negative just past it.
        rng = np.random.default_rng(22)
        grid = np.linspace(0.0, np.pi / 2, 20001)
        crossings = 0
        for _ in range(200):
            n = int(rng.integers(1, 10))
            base = rng.uniform(0.1, 2.0, n)
            d1 = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1, n)
            d2 = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1, n)
            a = self.angle(base, d1, d2)
            assert 0.0 < a <= np.pi / 2
            assert np.all(arc_point(base, d1, d2, a) >= 0.0)
            worst = arc_point(base[:, None], d1[:, None], d2[:, None],
                              grid).min(axis=0)
            negative = np.nonzero(worst < 0.0)[0]
            if negative.size == 0:
                assert a == np.pi / 2
                continue
            crossings += 1
            k = negative[0]
            assert grid[k - 1] <= a <= grid[k]
            assert np.min(arc_point(base, d1, d2, a * (1.0 + 1e-9))) < 0.0
        assert crossings > 100


class TestStoppingRules:
    @staticmethod
    def converged(lp, x, lam, s):
        return check_convergence(lp, x, lam, s, *residuals(lp, x, lam, s),
                                 1e-7)

    def test_exact_optimum_converges(self):
        lp = make_standard_lp([[1.0, 1.0]], [2.0], [1.0, 2.0])
        x = np.array([2.0, 0.0])
        lam = np.array([1.0])
        s = lp.c - lp.A.T @ lam
        assert self.converged(lp, x, lam, s)

    def test_near_optimum_converges(self):
        lp = make_standard_lp([[1.0, 1.0]], [2.0], [1.0, 2.0])
        x = np.array([2.0 - 1e-9, 1e-9])
        lam = np.array([1.0 - 1e-9])
        s = lp.c - lp.A.T @ lam + 1e-9
        assert self.converged(lp, x, lam, s)

    def test_nan_slack_is_not_converged(self):
        # rb = 0 leaves the residual term at 0, and the rc and mu terms
        # are nan.  A max over the three terms kept the 0 and passed.
        lp = make_standard_lp([[1.0, 1.0]], [2.0], [1.0, 2.0])
        x, lam, s = np.array([2.0, 0.0]), np.ones(1), np.array([0.0, np.nan])
        assert not check_convergence(lp, x, lam, s, np.zeros(1),
                                     np.array([0.0, np.nan]), 1e-7)

    def test_scaled_primal_residual_blocks(self):
        lp = make_standard_lp([[1.0, 0.0]], [10.0], [0.0, 1.0])
        # rb = -1 and |b| = 10: relative term 0.1 is far above epsilon.
        x = np.array([9.0, 1e-12])
        lam = np.zeros(1)
        s = lp.c - lp.A.T @ lam
        assert not self.converged(lp, x, lam, s)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           stop_rule=st.sampled_from(["relative", "theoretical"]),
           nan_mu=st.booleans())
    def test_mu_first_skip_only_where_the_test_fails(self, seed, stop_rule,
                                                     nan_mu):
        # An arc step skips its boundary point's residuals when the mu
        # term alone fails the stopping test; the full test must then fail
        # too.  A nan mu term must not be skipped: the relative test
        # rejects it with the residuals, not with the mu term alone.
        rng = np.random.default_rng(seed)
        lp = make_standard_lp(rng.standard_normal((2, 4)),
                              rng.standard_normal(2), rng.standard_normal(4))
        x = 10.0 ** rng.uniform(-8.0, 1.0, 4)
        s = 10.0 ** rng.uniform(-8.0, 1.0, 4)
        lam = rng.standard_normal(2)
        if nan_mu:
            x[rng.integers(4)] = np.nan
        rb = 10.0 ** rng.uniform(-12.0, 0.0) * rng.standard_normal(2)
        rc = 10.0 ** rng.uniform(-12.0, 0.0) * rng.standard_normal(4)
        config = SolverConfig(stop_rule=stop_rule,
                              epsilon=10.0 ** rng.uniform(-9.0, -1.0))
        if stop_rule == "theoretical":
            passes = check_theoretical_stop(
                duality_measure(x, s), np.linalg.norm(rb),
                np.linalg.norm(rc), 1.0, 1.0, 1.0, config.epsilon)
        else:
            passes = check_convergence(lp, x, lam, s, rb, rc,
                                       config.epsilon)
        skips = arclp.solvers._mu_fails_stop(lp, x, lam, s, config)
        assert not (skips and passes)
        if nan_mu and stop_rule == "relative":
            assert not skips

    def test_theoretical_rule_scalar_cases(self):
        assert check_theoretical_stop(1e-8, 0.0, 0.0, 1e4, 0.0, 0.0, 1e-7)
        assert not check_theoretical_stop(2e-7, 0.0, 0.0, 1e4, 0.0, 0.0,
                                          1e-7)

    def test_theoretical_rule_tracks_proportional_decay(self):
        mu0, rb0, rc0 = 1e4, 50.0, 80.0
        for factor in (1e-3, 1e-9, 1e-12):
            mu = mu0 * factor
            ok = check_theoretical_stop(mu, rb0 * factor, rc0 * factor,
                                        mu0, rb0, rc0, 1e-7)
            assert ok == (mu <= 1e-7)


# The solver evaluates the expressions below per iteration through ndarray
# methods, dot-product norms and Python's min and max, which cost a
# fraction of numpy's wrapper functions on short vectors.  Each reference
# here is the wrapper form; the two must agree to the last bit on every
# input, nan, infinities and signed zeros included.

def wrapper_max_alpha_positivity(base, d1, d2):
    base = np.asarray(base, dtype=float)
    if np.any(base <= 0):
        raise ValueError("arc base point must be strictly positive")
    a = base + 2.0 * d2
    disc = d1 * d1 - base * a
    hit = disc > 0.0
    dh, ah = d1[hit], a[hit]
    q = dh + np.copysign(np.sqrt(disc[hit]), dh)
    cot = np.max(np.where(q > 0.0, q / base[hit], ah / q), initial=1.0)
    alpha = 2.0 * np.arctan2(1.0, cot)
    shrink = 1e-12
    point = arc_point(base, d1, d2, alpha)
    while np.min(point) < 0.0:
        alpha *= 1.0 - shrink
        shrink = min(1.0, 16.0 * shrink)
        point = arc_point(base, d1, d2, alpha)
    return alpha, point


def wrapper_linear_ratio_step(w, dw, cap=1.0):
    pos = dw > 0
    if not np.any(pos):
        return cap
    return float(min(cap, np.min(w[pos] / dw[pos])))


def wrapper_check_convergence(lp, x, lam, s, rb, rc, epsilon):
    mu = duality_measure(x, s)
    crit = max(np.linalg.norm(rb) / max(1.0, np.linalg.norm(lp.b)),
               np.linalg.norm(rc) / max(1.0, np.linalg.norm(lp.c)),
               mu / max(1.0, abs(float(lp.c @ x)), abs(float(lp.b @ lam))))
    return crit < epsilon


POSITIVE = st.one_of(st.sampled_from([np.nan, np.inf]),
                     st.floats(min_value=0.0, exclude_min=True))


@st.composite
def arcs(draw):
    """``(base, d1, d2)`` of one length, up to 6, specials included."""
    n = draw(st.integers(0, 6))
    return (draw(hnp.arrays(float, n, elements=POSITIVE)),
            draw(hnp.arrays(float, n, elements=EDGE_FLOATS)),
            draw(hnp.arrays(float, n, elements=EDGE_FLOATS)))


class TestExactRewrites:
    @settings(max_examples=200, deadline=None)
    @given(arc=arcs())
    # No component can reach zero (an empty hit set), and a component
    # whose a / q is -inf / -inf puts a nan among the cotangents.
    @example(arc=(np.array([1.0, 2.0]), np.zeros(2), np.ones(2)))
    @example(arc=(np.array([1.0, 2.0]), np.array([-1.0, 0.0]),
                  np.array([-np.inf, 0.0])))
    def test_max_alpha_positivity(self, arc):
        assert (outcome(max_alpha_positivity, *arc)
                == outcome(wrapper_max_alpha_positivity, *arc))

    @settings(max_examples=200, deadline=None)
    @given(w=hnp.arrays(float, st.integers(0, 6), elements=EDGE_FLOATS),
           dw=st.data(), cap=st.sampled_from([1.0, np.inf]))
    def test_linear_ratio_step(self, w, dw, cap):
        dw = dw.draw(hnp.arrays(float, w.size, elements=EDGE_FLOATS))
        assert (outcome(arclp.solvers._linear_ratio_step, w, dw, cap)
                == outcome(wrapper_linear_ratio_step, w, dw, cap))

    @settings(max_examples=200, deadline=None)
    @given(sigma=EDGE_FLOATS)
    def test_clip_sigma(self, sigma):
        lo, hi = arclp.solvers._SIGMA_MIN, arclp.solvers._SIGMA_MAX
        assert (outcome(arclp.solvers._clip_sigma, sigma)
                == outcome(lambda v: float(np.clip(v, lo, hi)), sigma))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_check_convergence_on_finite_points(self, seed):
        rng = np.random.default_rng(seed)
        lp = make_standard_lp(rng.standard_normal((2, 4)),
                              rng.standard_normal(2), rng.standard_normal(4))
        # Each of the three terms lands within a decade of epsilon, so
        # the test passes and fails about equally often.
        scale = 10.0 ** rng.uniform(-10.0, -2.0)
        epsilon = scale * 10.0 ** rng.uniform(-0.5, 0.5)
        x = 10.0 ** rng.uniform(-4.0, 1.0, 4)
        s = scale * 10.0 ** rng.uniform(-1.0, 0.5, 4) / x
        lam = rng.standard_normal(2)
        rb = scale * rng.standard_normal(2)
        rc = scale * rng.standard_normal(4)
        expected = wrapper_check_convergence(lp, x, lam, s, rb, rc, epsilon)
        norms = (np.linalg.norm(lp.b), np.linalg.norm(lp.c))
        for given_norms in (None, norms):
            assert check_convergence(lp, x, lam, s, rb, rc, epsilon,
                                     given_norms) == expected


# The angle's polynomial coefficients come from matrix products (BLAS):
# CI checks it on two BLAS threads as well.
@pytest.mark.two_blas_threads
class TestGuardedAngle:
    """``alg1``'s angle is the largest ``alpha`` such that every angle in
    ``[0, alpha]`` is admissible."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), theta=st.sampled_from([0.1, 0.25, 0.29]),
           seed=st.integers(0, 2**32 - 1))
    def test_angle_is_the_largest_admissible_one(self, n, theta, seed):
        rng = np.random.default_rng(seed)
        # z * s = mu (1 + dev) with a centered dev of norm below theta
        # puts (z, s) in N(theta).
        z = 10.0 ** rng.uniform(-3.0, 3.0, n)
        dev = rng.standard_normal(n)
        dev -= dev.mean()
        dev *= rng.uniform(0.0, theta) / max(np.linalg.norm(dev), 1e-300)
        s = 10.0 ** rng.uniform(-4.0, 4.0) * (1.0 + dev) / z
        assert in_neighborhood(z, s, theta)
        scale = 10.0 ** rng.uniform(-2.0, 1.0, 4)
        dz, ddz = z * scale[:2, None] * rng.standard_normal((2, n))
        ds, dds = s * scale[2:, None] * rng.standard_normal((2, n))
        mu_z = duality_measure(z, s)
        derivatives = (dz, ds, ddz, dds)
        alpha, points = arclp.solvers._guarded_angle(z, s, *derivatives,
                                                     mu_z, theta)
        admissible = arclp.solvers._alg1_admissible(z, s, *derivatives,
                                                    mu_z, theta)
        assert 0.0 <= alpha < np.pi / 2.0
        assert all(admissible(a) is not None
                   for a in np.linspace(0.0, alpha, 1001)[1:])
        if alpha < arclp.solvers._STEP_FLOOR:
            assert points is None
            return
        # The points of the last admissibility check are the arc's.
        assert points[0].tobytes() == arc_point(z, dz, ddz, alpha).tobytes()
        assert points[1].tobytes() == arc_point(s, ds, dds, alpha).tobytes()
        beyond = alpha * (1.0 + 1e-6)
        if beyond < np.pi / 2.0:
            assert any(admissible(a) is None for a in
                       np.linspace(alpha, beyond, 51)[1:])

    def test_stops_before_a_short_inadmissible_gap(self):
        # With s fixed, x(alpha) / (1 - sin alpha) leaves the band
        # [1 - 2 theta, 1 + 2 theta] exactly where the quadratic
        # kappa (u - r1) (u - r2) in u = tan(alpha / 2) is positive: on a
        # gap of width 1e-4, after which the arc is admissible again.
        theta, r1, r2 = 0.25, 0.41, 0.4101
        kappa = -theta / (r1 * r2)
        z, s = np.ones(1), np.ones(1)
        dz = np.array([1.0 + 2.0 * theta + kappa * (r1 + r2)])
        ddz = np.array([theta + kappa])
        derivatives = (dz, np.zeros(1), ddz, np.zeros(1))
        admissible = arclp.solvers._alg1_admissible(z, s, *derivatives,
                                                    1.0, theta)
        assert admissible(2.0 * np.arctan(0.5 * (r1 + r2))) is None
        assert admissible(2.0 * np.arctan(0.5)) is not None
        alpha, _ = arclp.solvers._guarded_angle(z, s, *derivatives, 1.0,
                                                theta)
        assert_allclose(alpha, 2.0 * np.arctan(r1), rtol=1e-9)
        assert alpha <= 2.0 * np.arctan(r1)

    def test_nonfinite_derivatives_give_angle_zero(self):
        z = s = np.ones(2)
        dz = np.array([np.inf, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            alpha, points = arclp.solvers._guarded_angle(z, s, dz, dz, dz,
                                                         dz, 1.0, 0.25)
        assert alpha == 0.0 and points is None


class TestGuardedSolver:
    def test_stays_in_neighborhood(self, small_lp):
        cfg = SolverConfig(algorithm="alg1", trace=True)
        res = solve(small_lp, cfg)
        assert res.status == Status.OPTIMAL
        assert res.invariant_violations == []
        for row in res.trace:
            assert in_neighborhood(row["x"], row["s"], cfg.theta)
        assert in_neighborhood(res.x, res.s, cfg.theta)

    def test_zero_iterations_when_start_converged(self):
        # c = 100 e and b = 100 A e make the uniform start exactly
        # feasible; with a loose epsilon the relative gap 1/n suffices.
        A = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 1.0]])
        lp = make_standard_lp(A, 100.0 * A @ np.ones(3), 100.0 * np.ones(3))
        res = solve(lp, SolverConfig(algorithm="alg1", epsilon=0.5))
        assert res.status == Status.OPTIMAL
        assert res.iterations == 0

    def test_mu_contraction_follows_step(self, small_lp):
        cfg = SolverConfig(algorithm="alg1", trace=True)
        res = solve(small_lp, cfg)
        mus = [row["mu"] for row in res.trace]
        sins = [row["sin_alpha"] for row in res.trace]
        for k in range(len(mus) - 1):
            assert_allclose(mus[k + 1], mus[k] * (1.0 - sins[k]),
                            rtol=1e-8)

    def test_theoretical_stop_rule(self, small_lp):
        cfg = SolverConfig(algorithm="alg1", stop_rule="theoretical",
                           epsilon=1e-5)
        res = solve(small_lp, cfg)
        assert res.status == Status.OPTIMAL
        assert res.mu <= 1e-5

    def test_solves_netlib_instance(self, netlib_dir):
        lp = load_netlib(netlib_dir, "afiro")
        res = solve(lp, SolverConfig(algorithm="alg1"))
        assert res.status == Status.OPTIMAL
        assert res.invariant_violations == []
        assert_allclose(res.objective, -4.6475314286e2, rtol=1e-5)

    # alg1's iteration total turns on its angles and factors: CI checks it
    # on two BLAS threads as well.
    @pytest.mark.two_blas_threads
    def test_netlib_set_in_fewer_iterations(self, netlib_dir):
        # The exact guarded angle takes 171 iterations over the set; a
        # 0.8x backtracking search checked at alpha, alpha/2 and alpha/4
        # took 197.
        total = 0
        for name, certified in REFERENCE_OBJECTIVES.items():
            lp = load_netlib(netlib_dir, name)
            res = solve(lp, SolverConfig(algorithm="alg1"))
            assert res.status == Status.OPTIMAL, name
            assert res.invariant_violations == [], name
            assert_allclose(res.objective, certified, rtol=1e-5)
            total += res.iterations
            if name in ("afiro", "kb2"):
                res = solve(lp, SolverConfig(algorithm="alg1",
                                             stop_rule="theoretical"))
                assert res.status == Status.OPTIMAL, name
                assert res.invariant_violations == [], name
        assert total <= 180


# kb2's beta grid has statuses that turn on the last bits of the normal
# matrix: CI checks them on two BLAS threads as well.
@pytest.mark.two_blas_threads
class TestPracticalSolvers:
    @pytest.mark.parametrize("algorithm", ["alg2", "arc", "line"])
    def test_random_lps_reach_optimal(self, algorithm):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(m + 2, 20))
            lp = random_feasible_lp(rng, m, n)
            res = solve(lp, SolverConfig(algorithm=algorithm))
            assert res.status == Status.OPTIMAL
            # The full-step exit may land exactly on the boundary.
            assert np.all(res.x >= 0)
            assert np.all(res.s >= 0)
            assert res.mu < 1e-4

    def test_alg2_solves_afiro(self, netlib_dir):
        lp = load_netlib(netlib_dir, "afiro")
        res = solve(lp)
        assert res.status == Status.OPTIMAL
        assert_allclose(res.objective, -4.6475314286e2, rtol=1e-6)

    @pytest.mark.parametrize(
        "beta", [0.001] + [round(0.05 * k, 2) for k in range(1, 21)])
    def test_kb2_alg2_over_the_beta_grid(self, netlib_dir, beta):
        # kb2's p / q reaches 1e10, which magnifies the rounding of a block
        # solve refined from scratch; refined by increments, every beta on
        # the grid ends optimal.
        lp = load_netlib(netlib_dir, "kb2")
        res = solve(lp, SolverConfig(algorithm="alg2", beta=beta))
        assert res.status == Status.OPTIMAL, res.note
        # The certified optimum, to the acceptance suite's 1e-5.
        assert_allclose(res.objective, -1.7499001299e3, rtol=1e-5)

    def test_kb2_alg2_with_last_bit_changes_in_m(self, netlib_dir,
                                                 monkeypatch):
        # Summing the terms as (A_kj * A_ij) * d_j changes the band of M
        # only in its last bits; the block solves must absorb that.
        real_assemble = arclp.linalg.ProductMap.assemble
        changed = []

        def reassociated(pm, d):
            # Each of T's coefficients A_kj times its entry A_ij first.
            T = pm.T.copy()
            T.data *= pm.val.take(T.indices)
            values = T @ d.take(pm.col)
            changed.append(values.tobytes()
                           != real_assemble(pm, d)[0].tobytes())
            return values, values[pm.diag]

        lp = load_netlib(netlib_dir, "kb2")
        monkeypatch.setattr(arclp.linalg.ProductMap, "assemble",
                            reassociated)
        res = solve(lp, SolverConfig(algorithm="alg2"))
        assert any(changed)
        assert res.status == Status.OPTIMAL, res.note
        assert_allclose(res.objective, -1.7499001299e3, rtol=1e-5)

    def test_iteration_limit_status(self, netlib_dir):
        lp = load_netlib(netlib_dir, "afiro")
        res = solve(lp, SolverConfig(max_iter=2))
        assert res.status == Status.ITERATION_LIMIT
        assert res.iterations == 2

    def test_time_limit_reports_note(self, netlib_dir):
        lp = load_netlib(netlib_dir, "afiro")
        res = solve(lp, SolverConfig(time_limit=1e-9))
        assert res.status == Status.ITERATION_LIMIT
        assert res.iterations == 0
        assert "time" in res.note

    def test_trace_schema(self, small_lp):
        res = solve(small_lp, SolverConfig(trace=True))
        assert res.status == Status.OPTIMAL
        assert len(res.trace) == res.iterations
        for row in res.trace:
            for key in ("iter", "mu", "mu_z", "beta_k", "sin_alpha",
                        "step_primal", "step_dual", "rb_norm", "rc_norm"):
                assert key in row

    def test_deterministic_reruns(self, small_lp):
        a = solve(small_lp, SolverConfig(trace=True))
        b = solve(small_lp, SolverConfig(trace=True))
        assert a.iterations == b.iterations
        assert_array_equal(a.x, b.x)
        for ra, rb_ in zip(a.trace, b.trace):
            assert ra["mu"] == rb_["mu"]

    def test_momentum_off_equals_arc_baseline(self, monkeypatch):
        weights = []

        def zero_weight(*args):
            weights.append(0.0)
            return 0.0

        monkeypatch.setattr(arclp.solvers, "momentum_weight_simple",
                            zero_weight)
        rng = np.random.default_rng(24)
        for _ in range(3):
            lp = random_feasible_lp(rng, 4, 9)
            frozen = solve(lp, SolverConfig(algorithm="alg2", trace=True))
            arc = solve(lp, SolverConfig(algorithm="arc", trace=True))
            # Every iteration after the first restarts, at weight 0.
            assert len(weights) == frozen.iterations - 1
            weights.clear()
            assert frozen.iterations == arc.iterations
            assert_array_equal(frozen.x, arc.x)
            for ra, rb_ in zip(frozen.trace, arc.trace):
                assert ra["mu"] == rb_["mu"]
                assert ra["beta_k"] == 0.0

    @pytest.mark.parametrize("algorithm, status", [
        ("alg1", Status.STEP_TOO_SMALL), ("alg2", Status.NUMERICAL_ERROR),
        ("arc", Status.NUMERICAL_ERROR), ("line", Status.NUMERICAL_ERROR)])
    def test_diverging_iterate_ends_with_a_status(self, algorithm, status):
        # x1 is a free ray of negative cost: the LP is unbounded, and the
        # practical iterates grow until they overflow.
        lp = make_standard_lp([[0.0, 0.8, 0.3, -1.3], [0.0, 0.4, -0.5, 0.6]],
                              [-0.2, 0.5], [-1.0, -0.3, 0.0, -0.5])
        # The overflow is reported as a status, not as numpy warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve(lp, SolverConfig(algorithm=algorithm))
        assert res.status == status

    def test_numerical_error_keeps_its_reason(self, small_lp, monkeypatch):
        calls = []
        real_factor = arclp.solvers.factor

        def failing_factor(*args):
            # The first call builds the starting point; the second is the
            # first iteration's.
            calls.append(None)
            if len(calls) == 2:
                raise NumericalError("block solve residual 2e-08 exceeds "
                                     "tolerance 1e-08")
            return real_factor(*args)

        monkeypatch.setattr(arclp.solvers, "factor", failing_factor)
        res = solve(small_lp, SolverConfig(algorithm="alg2"))
        assert res.status == Status.NUMERICAL_ERROR
        assert res.iterations == 0
        assert res.note == ("block solve residual 2e-08 exceeds "
                            "tolerance 1e-08")

    def test_dual_feasibility_at_optimum(self, small_lp):
        res = solve(small_lp)
        rb = small_lp.A @ res.x - small_lp.b
        rc = small_lp.A.T @ res.lam + res.s - small_lp.c
        assert np.linalg.norm(rb) < 1e-5
        assert np.linalg.norm(rc) < 1e-5


class TestDispatcher:
    def test_routes_by_algorithm(self, small_lp):
        for algorithm in ("alg1", "alg2", "arc", "line"):
            res = solve(small_lp, SolverConfig(algorithm=algorithm))
            assert res.status == Status.OPTIMAL

    def test_default_config(self, small_lp):
        res = solve(small_lp)
        assert res.status == Status.OPTIMAL

    def test_objective_includes_shift(self, small_lp):
        shifted = make_standard_lp(small_lp.A.toarray(), small_lp.b,
                                   small_lp.c, shift=5.0)
        base = solve(small_lp)
        moved = solve(shifted)
        assert_allclose(moved.objective, base.objective + 5.0, rtol=1e-9)

    @pytest.mark.parametrize("algorithm", ["alg2", "arc", "line", "alg1"])
    def test_problem_without_rows(self, algorithm):
        # No constraint rows, so the normal matrix is empty (its band has
        # no columns): minimize x1 + 2 x2 over x >= 0, whose optimum is 0.
        lp = make_standard_lp(np.zeros((0, 3)), np.zeros(0), [1.0, 2.0, 0.0])
        config = SolverConfig(algorithm=algorithm)
        res = solve(lp, config)
        assert res.status == Status.OPTIMAL
        assert res.invariant_violations == []
        # The gap the relative stopping rule allows.
        assert abs(res.objective) <= lp.n * config.epsilon
