"""Iterate-level primitives: residuals, arcs, momentum, restarts."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from arclp.core import (arc_point, duality_measure,
                        first_derivatives, in_neighborhood,
                        momentum_weight_full, momentum_weight_simple,
                        residuals, restart_point, second_derivatives)
from arclp.linalg import factor

from conftest import (EDGE_FLOATS, make_standard_lp, outcome,
                      random_feasible_lp)


class TestResiduals:
    def test_feasible_point_is_clean(self, small_lp):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, small_lp.n)
        lam = rng.standard_normal(small_lp.m)
        s = small_lp.c - small_lp.A.T @ lam
        lp = make_standard_lp(small_lp.A.toarray(), small_lp.A @ x,
                              small_lp.c)
        rb, rc = residuals(lp, x, lam, s)
        assert_allclose(rb, 0.0, atol=1e-12)
        assert_allclose(rc, 0.0, atol=1e-12)

    def test_primal_residual_value(self):
        lp = make_standard_lp([[1.0, 1.0]], [3.0], [0.0, 0.0])
        rb, _ = residuals(lp, np.array([1.0, 1.0]), np.zeros(1),
                          np.zeros(2))
        assert_array_equal(rb, [-1.0])

    def test_dual_residual_value(self):
        lp = make_standard_lp([[1.0, 1.0]], [3.0], [1.0, 1.0])
        _, rc = residuals(lp, np.ones(2), np.zeros(1), np.ones(2))
        assert_array_equal(rc, [0.0, 0.0])


class TestDualityMeasure:
    def test_unit_vectors(self):
        for n in (1, 4, 9):
            assert duality_measure(np.ones(n), np.ones(n)) == 1.0

    def test_orthogonal_pair(self):
        assert duality_measure(np.array([2.0, 0.0]),
                               np.array([0.0, 3.0])) == 0.0

    def test_dot_product(self):
        mu = duality_measure(np.array([1.0, 2.0, 3.0]),
                             np.array([4.0, 5.0, 6.0]))
        assert_allclose(mu, 32.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            duality_measure(np.zeros(0), np.zeros(0))


class TestNeighborhood:
    def test_central_point(self):
        assert in_neighborhood(np.ones(3), np.ones(3), 0.25)

    def test_deviation_too_large(self):
        # mu = 2, products (1, 3) deviate by sqrt(2) > 0.5.
        assert not in_neighborhood(np.array([1.0, 1.0]),
                                   np.array([1.0, 3.0]), 0.25)

    def test_deviation_within_radius(self):
        # mu = 1, deviation norm ~0.1414 <= 0.25.
        assert in_neighborhood(np.array([1.0, 1.0]),
                               np.array([0.9, 1.1]), 0.25)

    def test_nonpositive_component_excluded(self):
        assert not in_neighborhood(np.array([1.0, -1.0]),
                                   np.array([1.0, 1.0]), 0.25)
        assert not in_neighborhood(np.array([1.0, 1.0]),
                                   np.array([0.0, 2.0]), 0.25)


class TestArcPoint:
    def test_alpha_zero_is_base(self):
        base = np.array([1.0, 2.0])
        out = arc_point(base, np.array([0.3, 0.4]), np.array([0.1, 0.2]),
                        0.0)
        assert_array_equal(out, base)

    def test_alpha_right_angle(self):
        base = np.array([1.0, 2.0])
        d1 = np.array([0.3, 0.4])
        d2 = np.array([0.1, 0.2])
        out = arc_point(base, d1, d2, np.pi / 2)
        assert_allclose(out, base - d1 + d2, rtol=1e-15)

    def test_scalar_example(self):
        out = arc_point(np.array([1.0]), np.array([0.5]), np.array([0.2]),
                        np.pi / 6)
        assert_allclose(out, [0.7767949192431123], rtol=1e-15)

    def test_exact_trig_no_approximation(self):
        # Small angles must use true sin/cos, not a series truncation.
        alpha = 1e-4
        out = arc_point(np.array([1.0]), np.array([1.0]), np.array([0.0]),
                        alpha)
        assert_allclose(out, [1.0 - np.sin(alpha)], rtol=0, atol=0)

    def test_curvature_term_without_cancellation(self):
        # 1 - cos(3e-4) = 4.5e-8 loses about 9 digits to cancellation in
        # double precision; the curvature term must keep them.
        alpha, d2 = 3e-4, 1e3
        with mpmath.workdps(50):
            exact = float(d2 * (1 - mpmath.cos(mpmath.mpf(alpha))))
        out = arc_point(np.zeros(1), np.zeros(1), np.array([d2]), alpha)
        assert_allclose(out, [exact], rtol=1e-15)


class TestMomentumWeightFull:
    def test_box_term_dominates(self):
        w = momentum_weight_full(np.array([2.0, 4.0]), np.array([1.0, 2.0]),
                                 np.array([5.0]), np.array([5.0]), 0.5)
        assert w == 1.0

    def test_residual_ratio_dominates(self):
        w = momentum_weight_full(np.array([2.0, 4.0]), np.array([1.0, 2.0]),
                                 np.array([1.0]), np.array([3.0]), 0.5)
        assert_allclose(w, 0.5)

    def test_zero_delta_vacuous(self):
        x = np.array([2.0, 4.0])
        w = momentum_weight_full(x, x.copy(), np.array([1.0]),
                                 np.array([3.0]), 0.9)
        assert w == 0.0

    def test_identical_residuals_excluded_from_min(self):
        # Only moved residual components enter the ratio; with none the
        # box term alone decides.
        w = momentum_weight_full(np.array([2.0]), np.array([1.0]),
                                 np.array([1.0, 7.0]),
                                 np.array([1.0, 7.0]), 0.9)
        assert_allclose(w, 1.8)

    def test_not_capped_at_one(self):
        w = momentum_weight_full(np.array([2.0, 4.0]), np.array([1.0, 2.0]),
                                 np.array([5.0]), np.array([5.0]), 1.0)
        assert_allclose(w, 2.0)


class TestMomentumWeightSimple:
    def test_example(self):
        w = momentum_weight_simple(np.array([2.0, 4.0]),
                                   np.array([1.0, 2.0]), 0.9)
        assert_allclose(w, 1.8)

    def test_half_step(self):
        w = momentum_weight_simple(np.array([1.0, 1.0]),
                                   np.array([0.5, 1.0]), 0.5)
        assert_allclose(w, 1.0)

    def test_zero_delta_vacuous(self):
        x = np.array([3.0, 1.0])
        assert momentum_weight_simple(x, x.copy(), 0.9) == 0.0


# The solver evaluates these per iteration through ndarray methods and a
# dot-product norm, which cost a fraction of numpy's wrapper functions on
# short vectors.  Each reference here is the wrapper form; the two must
# agree to the last bit on every input, nan, infinities and signed zeros
# included.

def wrapper_in_neighborhood(x, s, theta):
    x = np.asarray(x)
    s = np.asarray(s)
    if np.any(x <= 0) or np.any(s <= 0):
        return False
    mu = duality_measure(x, s)
    return bool(np.linalg.norm(x * s - mu) <= theta * mu)


def wrapper_momentum_weight_simple(x, x_prev, beta):
    scale = np.max(np.abs((x - x_prev) / x))
    if scale < 1e-14:
        return 0.0
    return float(beta / scale)


def wrapper_momentum_weight_full(x, x_prev, rb, rb_prev, beta):
    cap = wrapper_momentum_weight_simple(x, x_prev, beta)
    moved = rb != rb_prev
    if np.any(moved):
        ratios = np.abs(rb[moved] / (rb[moved] - rb_prev[moved]))
        cap = min(cap, float(ratios.min()))
    return cap


@st.composite
def vectors(draw, count):
    """``count`` float vectors of one length up to 6, specials included."""
    n = draw(st.integers(0, 6))
    return [draw(hnp.arrays(float, n, elements=EDGE_FLOATS))
            for _ in range(count)]


class TestExactRewrites:
    @settings(max_examples=200, deadline=None)
    @given(xs=vectors(2), theta=st.floats(0.0, 1.0))
    def test_in_neighborhood(self, xs, theta):
        assert (outcome(in_neighborhood, *xs, theta)
                == outcome(wrapper_in_neighborhood, *xs, theta))

    @settings(max_examples=200, deadline=None)
    @given(xs=vectors(2), beta=st.floats(0.0, 1.0, exclude_min=True))
    def test_momentum_weight_simple(self, xs, beta):
        assert (outcome(momentum_weight_simple, *xs, beta)
                == outcome(wrapper_momentum_weight_simple, *xs, beta))

    @settings(max_examples=200, deadline=None)
    @given(xs=vectors(2), rbs=vectors(2),
           beta=st.floats(0.0, 1.0, exclude_min=True))
    def test_momentum_weight_full(self, xs, rbs, beta):
        assert (outcome(momentum_weight_full, *xs, *rbs, beta)
                == outcome(wrapper_momentum_weight_full, *xs, *rbs, beta))


class TestRestartPoint:
    def test_practical_mode_adds_term(self):
        z = restart_point(np.array([1.0, 1.0]), 1.0,
                          np.array([0.5, -0.2]), mode="always")
        assert_allclose(z, [1.5, 0.8])

    def test_guarded_mode_accepts_inside(self):
        x = np.ones(2)
        s = np.ones(2)
        z = restart_point(x, 0.05, np.array([0.1, -0.1]), mode="guarded",
                          s=s, theta=0.25)
        assert_allclose(z, [1.005, 0.995])

    def test_guarded_mode_rejects_outside(self):
        x = np.ones(2)
        s = np.ones(2)
        # A big asymmetric move leaves the neighborhood; fall back to x.
        z = restart_point(x, 1.0, np.array([5.0, -0.9]), mode="guarded",
                          s=s, theta=0.25)
        assert z is x

    def test_box_bound_holds(self):
        # Weight from either formula keeps z within (1 +- beta) x.
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            x_prev = rng.uniform(0.1, 5.0, n)
            x = rng.uniform(0.1, 5.0, n)
            beta = float(rng.uniform(0.05, 1.0))
            delta = x - x_prev
            w = momentum_weight_simple(x, x_prev, beta)
            z = restart_point(x, w, delta, mode="always")
            assert np.all(z >= (1 - beta) * x - 1e-12 * np.abs(x))
            assert np.all(z <= (1 + beta) * x + 1e-12 * np.abs(x))

    def test_product_bound_holds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            x_prev = rng.uniform(0.1, 5.0, n)
            x = rng.uniform(0.1, 5.0, n)
            s = rng.uniform(0.1, 5.0, n)
            beta = float(rng.uniform(0.05, 1.0))
            w = momentum_weight_simple(x, x_prev, beta)
            z = restart_point(x, w, x - x_prev, mode="always")
            assert np.all(z * s >= (1 - beta) * x * s - 1e-12)
            assert np.all(z * s <= (1 + beta) * x * s + 1e-12)


class TestDerivatives:
    def _setup(self, seed=13, m=3, n=6):
        rng = np.random.default_rng(seed)
        lp = random_feasible_lp(rng, m, n)
        x = rng.uniform(0.5, 2.0, n)
        lam = rng.standard_normal(m)
        s = rng.uniform(0.5, 2.0, n)
        return lp, x, lam, s

    def test_first_derivatives_defining_equations(self):
        lp, z, lam, s = self._setup()
        fac = factor(lp, z, s)
        rb, rc = residuals(lp, z, lam, s)
        dz, dlam, ds = first_derivatives(fac, z, s, rb, rc)
        assert_allclose(lp.A @ dz, rb, atol=1e-9)
        assert_allclose(lp.A.T @ dlam + ds, rc, atol=1e-9)
        assert_allclose(s * dz + z * ds, z * s, atol=1e-9)

    def test_second_derivatives_sigma_zero(self):
        lp, z, lam, s = self._setup(seed=14)
        fac = factor(lp, z, s)
        dz, dlam, ds = first_derivatives(fac, z, s,
                                         *residuals(lp, z, lam, s))
        ddz, ddlam, dds = second_derivatives(lp, fac, z, s, dz, ds)
        assert_allclose(lp.A @ ddz, 0.0, atol=1e-9)
        assert_allclose(lp.A.T @ ddlam + dds, 0.0, atol=1e-9)
        assert_allclose(s * ddz + z * dds, -2.0 * dz * ds, atol=1e-9)

    def test_second_derivatives_with_centering(self):
        lp, z, lam, s = self._setup(seed=15)
        fac = factor(lp, z, s)
        dz, dlam, ds = first_derivatives(fac, z, s,
                                         *residuals(lp, z, lam, s))
        mu_z = duality_measure(z, s)
        sigma = 0.3
        ddz, ddlam, dds = second_derivatives(lp, fac, z, s, dz, ds,
                                             sigma=sigma, mu=mu_z)
        target = sigma * mu_z - 2.0 * dz * ds
        assert_allclose(s * ddz + z * dds, target, atol=1e-9)

    def test_scalar_instance_matches_hand_elimination(self):
        lp = make_standard_lp([[2.0]], [2.0], [0.0])
        z = np.array([3.0])
        s = np.array([6.0])
        lam = np.zeros(1)
        # rb = 2*3 - 2 = 4, rc = 6 - 0 = 6, z*s = 18; eliminating as in
        # the scalar kernel oracle gives dz = 2, dlam = 1/3, ds = 16/3.
        fac = factor(lp, z, s)
        dz, dlam, ds = first_derivatives(fac, z, s,
                                         *residuals(lp, z, lam, s))
        assert_allclose(dz, [2.0], rtol=1e-12)
        assert_allclose(6.0 * dz + 3.0 * ds, [18.0], rtol=1e-12)
        assert_allclose(2.0 * dlam + ds, [6.0], rtol=1e-12)

