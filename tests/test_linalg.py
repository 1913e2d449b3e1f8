"""Newton-kernel tests: hand oracles, brute-force cross-checks, guards."""
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import arclp.linalg
import arclp.standardize
from arclp.linalg import DENSE_LIMIT, NumericalError, factor, solve_block
from arclp.mps import parse_mps
from arclp.presolve import presolve
from arclp.solvers import initial_point_mehrotra
from arclp.standardize import to_standard_form

from conftest import FIX1_MPS, NETLIB_DIR, make_standard_lp, staircase_raw


def lp_of(A):
    """A problem that carries only the matrix ``A`` of a kernel test."""
    m, n = np.shape(A)
    return make_standard_lp(A, np.zeros(m), np.zeros(n))


# The bundled netlib problems and the tier-1 staircase LP, by name.
PROBLEMS = [path.stem for path in sorted(NETLIB_DIR.glob("*.mps"))] \
    + ["st5x20x10"]


@pytest.fixture(scope="module")
def presolved():
    """Load a problem of ``PROBLEMS`` through presolve, once per module."""
    cache = {}

    def load(name):
        if name not in cache:
            raw = (staircase_raw() if name == "st5x20x10" else
                   parse_mps((NETLIB_DIR / (name + ".mps")).read_text()))
            cache[name] = presolve(to_standard_form(raw))[0]
        return cache[name]
    return load


@pytest.fixture(params=["dense", "sparse"])
def kernel_path(request, monkeypatch):
    """Run a kernel test on the dense Cholesky path and, with every
    problem above the dense limit, on the sparse LU path."""
    if request.param == "sparse":
        monkeypatch.setattr(arclp.linalg, "DENSE_LIMIT", 0)
    return request.param


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


def _standardized():
    return to_standard_form(parse_mps(FIX1_MPS))


@pytest.mark.parametrize("build", [
    _standardized,
    lambda: presolve(_standardized())[0],
    lambda: make_standard_lp([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]],
                             [1.0, 2.0], [1.0, 1.0, 1.0]),
], ids=["to_standard_form", "presolve", "make_standard_lp"])
def test_problem_prepares_its_matrix_once(build):
    lp = build()
    assert lp.A.format == "csr" and lp.At.format == "csr"
    assert lp.At is lp.At
    assert (lp.At != lp.A.T).nnz == 0
    # The factor shares the problem's arrays and the scalings; no copies.
    p, q = np.full(lp.n, 2.0), np.full(lp.n, 0.5)
    fac = factor(lp, p, q)
    assert fac.A is lp.A and fac.At is lp.At
    assert fac.p is p and fac.q is q


def test_row_order_is_built_once_per_problem(monkeypatch):
    # The row order and the product maps are built on a problem's first
    # factorization and shared by the start point's factor and every
    # iteration's: one dense map, or one row order with its sparse map.
    real_order, real_map = arclp.linalg.order_rows, arclp.linalg.map_products
    real_assemble = arclp.linalg.ProductMap.assemble
    built, maps, used = [], [], []

    def order_rows(A):
        built.append(A)
        return real_order(A)

    def map_products(At, dense):
        maps.append((At, dense))
        return real_map(At, dense)

    def assemble(product_map, d):
        used.append(product_map)
        return real_assemble(product_map, d)

    monkeypatch.setattr(arclp.standardize, "order_rows", order_rows)
    monkeypatch.setattr(arclp.standardize, "map_products", map_products)
    monkeypatch.setattr(arclp.linalg, "map_products", map_products)
    monkeypatch.setattr(arclp.linalg.ProductMap, "assemble", assemble)
    rng = np.random.default_rng(8)

    def start_and_two_iterations(lp):
        initial_point_mehrotra(lp)
        for _ in range(2):
            factor(lp, rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 6))

    dense_lp = lp_of(rng.standard_normal((3, 6)))
    start_and_two_iterations(dense_lp)
    assert built == [] and "row_order" not in vars(dense_lp)
    assert len(maps) == 1 and maps[0][0] is dense_lp.At and maps[0][1] is True
    assert len(used) == 3
    assert all(m is dense_lp.product_map for m in used)

    monkeypatch.setattr(arclp.linalg, "DENSE_LIMIT", 0)
    lp = lp_of(rng.standard_normal((3, 6)))
    used.clear()
    start_and_two_iterations(lp)
    order = lp.row_order
    assert len(built) == 1 and built[0] is lp.A
    assert len(maps) == 2 and maps[1][0] is order.At and maps[1][1] is False
    assert "product_map" not in vars(lp)
    assert len(used) == 3 and all(m is order.product_map for m in used)
    assert (order.A != lp.A[order.perm]).nnz == 0
    assert (order.At != order.A.T).nnz == 0


def test_row_order_keeps_the_minimum_degree_fill():
    # Factoring in the cached order gives the fill of SuperLU's own
    # minimum-degree factorization (its inverse permutation gives more).
    A = sp.random(100, 200, density=0.03, random_state=9, format="csr")
    A = (A + sp.eye(100, 200)).tocsr()
    d = np.random.default_rng(9).uniform(0.5, 2.0, 200)
    options = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    own = spla.splu((A.multiply(d) @ A.T).tocsc(),
                    permc_spec="MMD_AT_PLUS_A", **options)
    order = arclp.linalg.order_rows(sp.csr_array(A))
    ours = spla.splu((order.A.multiply(d) @ order.At).tocsc(),
                     permc_spec="NATURAL", **options)
    assert ours.L.nnz + ours.U.nnz == own.L.nnz + own.U.nnz


def test_scalar_normal_matrix():
    fac = factor(lp_of([[2.0]]), np.array([3.0]), np.array([6.0]))
    assert fac.dense
    # M = 2 * (3/6) * 2 = 2, so solving M u = 1 gives u = 0.5.
    assert_allclose(fac.solve(np.array([1.0])), [0.5])


def test_scalar_block_solve():
    fac = factor(lp_of([[2.0]]), np.array([3.0]), np.array([6.0]))
    dx, dlam, ds = solve_block(fac, np.array([2.0]), np.array([0.0]),
                               np.array([6.0]))
    assert_allclose(dx, [1.0], atol=1e-14)
    assert_allclose(dlam, [0.0], atol=1e-14)
    assert_allclose(ds, [0.0], atol=1e-14)


def test_unit_scaling_gives_gram_matrix():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 6))
    fac = factor(lp_of(A), np.ones(6), np.ones(6))
    rhs = rng.standard_normal(3)
    assert_allclose(fac.solve(rhs), np.linalg.solve(A @ A.T, rhs),
                    rtol=1e-10)


def test_homogeneous_rhs_gives_zero():
    rng = np.random.default_rng(1)
    lp = lp_of(rng.standard_normal((3, 5)))
    p = rng.uniform(0.5, 2.0, 5)
    q = rng.uniform(0.5, 2.0, 5)
    fac = factor(lp, p, q)
    dx, dlam, ds = solve_block(fac, np.zeros(3), np.zeros(5), np.zeros(5))
    assert_allclose(dx, 0.0, atol=1e-14)
    assert_allclose(dlam, 0.0, atol=1e-14)
    assert_allclose(ds, 0.0, atol=1e-14)


def test_nonpositive_scaling_rejected():
    lp = lp_of([[1.0, 2.0]])
    with pytest.raises(ValueError):
        factor(lp, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        factor(lp, np.array([1.0, 1.0]), np.array([1.0, -2.0]))


def test_shape_mismatch_rejected():
    fac = factor(lp_of(np.ones((2, 3))), np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        solve_block(fac, np.zeros(3), np.zeros(3), np.zeros(3))


def test_residual_bound_holds():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((4, 9))
        p = 10.0 ** rng.uniform(-3, 3, 9)
        q = 10.0 ** rng.uniform(-3, 3, 9)
        r1, r2, r3 = (rng.standard_normal(4), rng.standard_normal(9),
                      rng.standard_normal(9))
        fac = factor(lp_of(A), p, q)
        dx, dlam, ds = solve_block(fac, r1, r2, r3)
        bound = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([r1, r2, r3])))
        for res in residual_norms(A, p, q, r1, r2, r3, dx, dlam, ds):
            assert res <= bound


def test_common_scaling_leaves_dual_unchanged():
    # p/q enters the normal matrix only through the ratio, so scaling
    # both by the same constant must reproduce the same dual solve.
    rng = np.random.default_rng(4)
    lp = lp_of(rng.standard_normal((3, 7)))
    p = rng.uniform(0.5, 2.0, 7)
    q = rng.uniform(0.5, 2.0, 7)
    rhs = rng.standard_normal(3)
    base = factor(lp, p, q).solve(rhs)
    scaled = factor(lp, 7.5 * p, 7.5 * q).solve(rhs)
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
    A = A.toarray()
    p = rng.uniform(0.5, 2.0, n)
    q = rng.uniform(0.5, 2.0, n)
    fac = factor(lp_of(A), p, q)
    assert not fac.dense
    r1 = rng.standard_normal(m)
    r2 = rng.standard_normal(n)
    r3 = rng.standard_normal(n)
    dx, dlam, ds = solve_block(fac, r1, r2, r3)
    bound = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([r1, r2, r3])))
    for res in residual_norms(A, p, q, r1, r2, r3, dx, dlam, ds):
        assert res <= bound


class TestOnBothFactorPaths:
    """Kernel oracles run on the dense Cholesky path and on the sparse LU
    path (see ``kernel_path``)."""

    def test_nonfinite_data_is_a_numerical_error(self, kernel_path):
        # An overflowing iterate ends a solve; it is not a misuse, and the
        # kernel reports it without numpy warnings.
        lp = lp_of([[1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError):
                factor(lp, np.array([1.0, np.inf]), np.array([1.0, 1.0]))
            with pytest.raises(NumericalError):
                factor(lp, np.array([1.0, np.nan]), np.array([1.0, 1.0]))
            with pytest.raises(NumericalError):
                factor(lp, np.array([1e300, 1.0]), np.array([1e-300, 1.0]))
            fac = factor(lp, np.ones(2), np.ones(2))
            with pytest.raises(NumericalError):
                solve_block(fac, np.array([1e200]), np.zeros(2), np.zeros(2))
            with pytest.raises(NumericalError):
                solve_block(fac, np.array([np.nan]), np.zeros(2), np.zeros(2))
            # A zero column keeps an infinite ratio out of M, but the block
            # solve's dx overflows; the nan residual of the third block row
            # must be caught although the first two rows are finite.
            lp = lp_of([[0.0, 1.0]])
            fac = factor(lp, np.array([1e300, 1.0]), np.array([1e-300, 1.0]))
            with pytest.raises(NumericalError):
                solve_block(fac, np.zeros(1), np.array([1e10, 0.0]),
                            np.zeros(2))

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_assembly_is_scipys_product_bit_for_bit(self, kernel_path,
                                                    presolved, name):
        # The iterates depend on M's last bits (kb2's alg2 ends
        # NumericalError instead of Optimal when only they change), so the
        # map must round as A.multiply(d) @ A.T does, at any scaling.
        lp = presolved(name)
        sparse = lp.m > arclp.linalg.DENSE_LIMIT
        assert sparse == (kernel_path == "sparse" or lp.m > DENSE_LIMIT)
        system = lp.row_order if sparse else lp
        perm = system.perm if sparse else np.arange(lp.m)
        rng = np.random.default_rng(12)
        for k in (0, 1, 4, 8, 12):
            d = 10.0 ** rng.uniform(-k, k, lp.n)
            want = (lp.A.multiply(d) @ lp.At).toarray()[np.ix_(perm, perm)]
            M, diagonal = system.product_map.assemble(d)
            got = M.toarray() if sparse else M
            assert got.tobytes() == want.tobytes(), k
            assert diagonal.tobytes() == np.diag(want).tobytes(), k

    def test_cancelling_terms_keep_their_slot(self, kernel_path):
        # M_01 = M_10 = 1*2*1 + 1*2*(-1) is exactly zero: scipy's product
        # drops them, the map keeps them, so the pattern stays that of
        # |A| |A|^T at every scaling.
        A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]])
        d = np.array([2.0, 2.0, 1.0])
        lp = lp_of(A)
        assert (lp.A.multiply(d) @ lp.At).nnz == 2
        fac = factor(lp, d, np.ones(3))
        for rhs in np.eye(2):
            assert_allclose(fac.solve(rhs),
                            np.linalg.solve((A * d) @ A.T, rhs), rtol=1e-14)
        if kernel_path == "sparse":
            M, _ = lp.row_order.product_map.assemble(d)
            assert M.nnz == 4 and M[0, 1] == 0.0 and M[1, 0] == 0.0

    def test_random_systems_match_brute_force(self, kernel_path):
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
            fac = factor(lp_of(A), p, q)
            assert fac.dense == (kernel_path == "dense")
            dx, dlam, ds = solve_block(fac, r1, r2, r3)
            bx, blam, bs = brute_force(A, p, q, r1, r2, r3)
            assert_allclose(dx, bx, rtol=1e-6, atol=1e-9)
            assert_allclose(dlam, blam, rtol=1e-6, atol=1e-9)
            assert_allclose(ds, bs, rtol=1e-6, atol=1e-9)

    def test_inconsistent_system_raises(self, kernel_path):
        # Duplicated row makes A dx = r1 unsolvable for r1 = (1, 2); the
        # backward check must refuse to return garbage.
        lp = lp_of([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericalError):
            fac = factor(lp, np.ones(2), np.ones(2))
            solve_block(fac, np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))

    def test_extreme_scaling_still_solves(self, kernel_path):
        # Ratios spanning 14 orders of magnitude, as near convergence.
        rng = np.random.default_rng(6)
        A = rng.standard_normal((5, 12))
        p = 10.0 ** rng.uniform(-7, 7, 12)
        q = 10.0 ** rng.uniform(-7, 7, 12)
        r1 = rng.standard_normal(5)
        r2 = rng.standard_normal(12)
        r3 = rng.standard_normal(12)
        fac = factor(lp_of(A), p, q)
        dx, dlam, ds = solve_block(fac, r1, r2, r3)
        bound = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([r1, r2, r3])))
        for res in residual_norms(A, p, q, r1, r2, r3, dx, dlam, ds):
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
    A = rng.standard_normal((4, 9))
    p = rng.uniform(0.5, 2.0, 9)
    q = rng.uniform(0.5, 2.0, 9)
    r1, r2, r3 = (rng.standard_normal(4), rng.standard_normal(9),
                  rng.standard_normal(9))
    exact = factor(lp_of(A), p, q)
    calls = []

    def inexact(rhs):
        calls.append(rhs)
        return (1.0 + error) * exact.solve(rhs)

    fac = dataclasses.replace(exact, _solve=inexact)
    if converges:
        for got, want in zip(solve_block(fac, r1, r2, r3),
                             brute_force(A, p, q, r1, r2, r3)):
            assert_allclose(got, want, rtol=1e-6, atol=1e-9)
    else:
        with pytest.raises(NumericalError):
            solve_block(fac, r1, r2, r3)
    assert len(calls) == solves
