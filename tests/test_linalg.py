"""Newton-kernel tests: hand oracles, brute-force cross-checks, guards."""
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from arclp.linalg import DENSE_LIMIT, NumericalError, factor, solve_block


def brute_force(A, p, q, r1, r2, r3):
    """Dense solve of the full 3x3 block system for cross-checking."""
    m, n = A.shape
    K = np.zeros((2 * n + m, 2 * n + m))
    K[:m, :n] = A
    K[m:m + n, n:n + m] = A.T
    K[m:m + n, n + m:] = np.eye(n)
    K[m + n:, :n] = np.diag(q)
    K[m + n:, n + m:] = np.diag(p)
    sol = np.linalg.solve(K, np.concatenate([r1, r2, r3]))
    return sol[:n], sol[n:n + m], sol[n + m:]


def residual_norms(A, p, q, r1, r2, r3, dx, dlam, ds):
    return (np.linalg.norm(A @ dx - r1),
            np.linalg.norm(A.T @ dlam + ds - r2),
            np.linalg.norm(q * dx + p * ds - r3))


def test_scalar_normal_matrix():
    A = sp.csr_array(np.array([[2.0]]))
    fac = factor(A, np.array([3.0]), np.array([6.0]))
    assert fac.dense
    assert fac.m == 1
    # M = 2 * (3/6) * 2 = 2, so solving M u = 1 gives u = 0.5.
    assert_allclose(fac.solve(np.array([1.0])), [0.5])


def test_scalar_block_solve():
    A = sp.csr_array(np.array([[2.0]]))
    p, q = np.array([3.0]), np.array([6.0])
    fac = factor(A, p, q)
    dx, dlam, ds = solve_block(fac, A, p, q, np.array([2.0]),
                               np.array([0.0]), np.array([6.0]))
    assert_allclose(dx, [1.0], atol=1e-14)
    assert_allclose(dlam, [0.0], atol=1e-14)
    assert_allclose(ds, [0.0], atol=1e-14)


def test_unit_scaling_gives_gram_matrix():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 6))
    fac = factor(sp.csr_array(A), np.ones(6), np.ones(6))
    rhs = rng.standard_normal(3)
    assert_allclose(fac.solve(rhs), np.linalg.solve(A @ A.T, rhs),
                    rtol=1e-10)


def test_homogeneous_rhs_gives_zero():
    rng = np.random.default_rng(1)
    A = sp.csr_array(rng.standard_normal((3, 5)))
    p = rng.uniform(0.5, 2.0, 5)
    q = rng.uniform(0.5, 2.0, 5)
    fac = factor(A, p, q)
    dx, dlam, ds = solve_block(fac, A, p, q, np.zeros(3), np.zeros(5),
                               np.zeros(5))
    assert_allclose(dx, 0.0, atol=1e-14)
    assert_allclose(dlam, 0.0, atol=1e-14)
    assert_allclose(ds, 0.0, atol=1e-14)


def test_nonpositive_scaling_rejected():
    A = sp.csr_array(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        factor(A, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        factor(A, np.array([1.0, 1.0]), np.array([1.0, -2.0]))


def test_shape_mismatch_rejected():
    A = sp.csr_array(np.ones((2, 3)))
    p = q = np.ones(3)
    fac = factor(A, p, q)
    with pytest.raises(ValueError):
        solve_block(fac, A, p, q, np.zeros(3), np.zeros(3), np.zeros(3))


def test_factor_must_match_scalings():
    A = sp.csr_array(np.array([[1.0, 2.0], [0.0, 1.0]]))
    p = q = np.ones(2)
    fac = factor(A, p, q)
    with pytest.raises(ValueError):
        solve_block(fac, A, 2 * p, q, np.zeros(2), np.zeros(2), np.zeros(2))


def test_random_systems_match_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(m, 15))
        A = rng.standard_normal((m, n))
        if np.linalg.matrix_rank(A) < m:
            continue
        p = 10.0 ** rng.uniform(-2, 2, n)
        q = 10.0 ** rng.uniform(-2, 2, n)
        r1 = rng.standard_normal(m)
        r2 = rng.standard_normal(n)
        r3 = rng.standard_normal(n)
        As = sp.csr_array(A)
        fac = factor(As, p, q)
        dx, dlam, ds = solve_block(fac, As, p, q, r1, r2, r3)
        bx, blam, bs = brute_force(A, p, q, r1, r2, r3)
        assert_allclose(dx, bx, rtol=1e-6, atol=1e-9)
        assert_allclose(dlam, blam, rtol=1e-6, atol=1e-9)
        assert_allclose(ds, bs, rtol=1e-6, atol=1e-9)


def test_residual_bound_holds():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = sp.csr_array(rng.standard_normal((4, 9)))
        p = 10.0 ** rng.uniform(-3, 3, 9)
        q = 10.0 ** rng.uniform(-3, 3, 9)
        r1, r2, r3 = (rng.standard_normal(4), rng.standard_normal(9),
                      rng.standard_normal(9))
        fac = factor(A, p, q)
        dx, dlam, ds = solve_block(fac, A, p, q, r1, r2, r3)
        bound = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([r1, r2, r3])))
        for res in residual_norms(A.toarray(), p, q, r1, r2, r3,
                                  dx, dlam, ds):
            assert res <= bound


def test_common_scaling_leaves_dual_unchanged():
    # p/q enters the normal matrix only through the ratio, so scaling
    # both by the same constant must reproduce the same dual solve.
    rng = np.random.default_rng(4)
    A = sp.csr_array(rng.standard_normal((3, 7)))
    p = rng.uniform(0.5, 2.0, 7)
    q = rng.uniform(0.5, 2.0, 7)
    rhs = rng.standard_normal(3)
    base = factor(A, p, q).solve(rhs)
    scaled = factor(A, 7.5 * p, 7.5 * q).solve(rhs)
    assert_allclose(scaled, base, rtol=1e-12)


def test_sparse_path_above_dense_limit():
    rng = np.random.default_rng(5)
    m = DENSE_LIMIT + 1
    n = m + 40
    # Banded full-rank pattern keeps the factorization cheap.
    diags = [np.full(m, 3.0), rng.uniform(0.5, 1.5, m - 1),
             rng.uniform(0.5, 1.5, m - 1)]
    A = sp.lil_array((m, n))
    for i in range(m):
        A[i, i] = diags[0][i]
        if i + 1 < m:
            A[i, i + 1] = diags[1][i]
            A[i + 1, i + 40] = diags[2][i]
        A[i, m + (i % 40)] = 1.0
    A = sp.csr_array(A.tocsr())
    p = rng.uniform(0.5, 2.0, n)
    q = rng.uniform(0.5, 2.0, n)
    fac = factor(A, p, q)
    assert not fac.dense
    r1 = rng.standard_normal(m)
    r2 = rng.standard_normal(n)
    r3 = rng.standard_normal(n)
    dx, dlam, ds = solve_block(fac, A, p, q, r1, r2, r3)
    bound = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([r1, r2, r3])))
    for res in residual_norms(A.toarray(), p, q, r1, r2, r3, dx, dlam, ds):
        assert res <= bound


def test_inconsistent_system_raises():
    # Duplicated row makes A dx = r1 unsolvable for r1 = (1, 2); the
    # backward check must refuse to return garbage.
    A = sp.csr_array(np.array([[1.0, 0.0], [1.0, 0.0]]))
    p = q = np.ones(2)
    with pytest.raises(NumericalError):
        fac = factor(A, p, q)
        solve_block(fac, A, p, q, np.array([1.0, 2.0]), np.zeros(2),
                    np.zeros(2))


def test_extreme_scaling_still_solves():
    # Ratios spanning 14 orders of magnitude, as near convergence.
    rng = np.random.default_rng(6)
    A = sp.csr_array(rng.standard_normal((5, 12)))
    p = 10.0 ** rng.uniform(-7, 7, 12)
    q = 10.0 ** rng.uniform(-7, 7, 12)
    r1 = rng.standard_normal(5)
    r2 = rng.standard_normal(12)
    r3 = rng.standard_normal(12)
    fac = factor(A, p, q)
    dx, dlam, ds = solve_block(fac, A, p, q, r1, r2, r3)
    bound = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([r1, r2, r3])))
    for res in residual_norms(A.toarray(), p, q, r1, r2, r3, dx, dlam, ds):
        assert res <= bound


@pytest.mark.parametrize("error, solves, converges", [
    (1e-3, 3, True),      # two refinement passes reach the tolerance
    (0.5, 4, False),      # still above it after the last allowed pass
    (1.5, 2, False),      # the first pass makes it worse: stop there
])
def test_refinement_passes(error, solves, converges):
    # A factor whose solves are off by a relative `error` leaves a
    # first-row defect that shrinks by that factor per refinement pass.
    rng = np.random.default_rng(7)
    A = sp.csr_array(rng.standard_normal((4, 9)))
    p = rng.uniform(0.5, 2.0, 9)
    q = rng.uniform(0.5, 2.0, 9)
    r1, r2, r3 = (rng.standard_normal(4), rng.standard_normal(9),
                  rng.standard_normal(9))
    exact = factor(A, p, q)
    calls = []

    def inexact(rhs):
        calls.append(rhs)
        return (1.0 + error) * exact.solve(rhs)

    fac = dataclasses.replace(exact, _solve=inexact)
    if converges:
        for got, want in zip(solve_block(fac, A, p, q, r1, r2, r3),
                             brute_force(A.toarray(), p, q, r1, r2, r3)):
            assert_allclose(got, want, rtol=1e-6, atol=1e-9)
    else:
        with pytest.raises(NumericalError):
            solve_block(fac, A, p, q, r1, r2, r3)
    assert len(calls) == solves
