"""Newton-kernel tests: hand oracles, brute-force cross-checks, guards."""
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import arclp.linalg
import arclp.standardize
from arclp.linalg import (DENSE_LIMIT, NumericalError, factor, norm,
                          solve_block)
from arclp.mps import parse_mps
from arclp.presolve import presolve
from arclp.solvers import initial_point_mehrotra
from arclp.standardize import to_standard_form

from conftest import (EDGE_FLOATS, FIX1_MPS, NETLIB_DIR, make_standard_lp,
                      outcome, staircase_raw)


def lp_of(A):
    """A problem that carries only the matrix ``A`` of a kernel test."""
    m, n = np.shape(A)
    return make_standard_lp(A, np.zeros(m), np.zeros(n))


# The bundled netlib problems and the tier-1 staircase LP, by name.
NETLIB = [path.stem for path in sorted(NETLIB_DIR.glob("*.mps"))]
PROBLEMS = NETLIB + ["st5x20x10"]


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


def route_to_band(monkeypatch):
    """Give every problem a band map in reverse Cuthill-McKee order,
    whatever its size and half-width."""
    def band_map(At):
        return arclp.linalg._band_map(At, *arclp.linalg._rcm_order(At))
    monkeypatch.setattr(arclp.linalg, "map_products", band_map)
    monkeypatch.setattr(arclp.standardize, "map_products", band_map)


@pytest.fixture(params=["dense", "band", "sparse"])
def kernel_path(request, monkeypatch):
    """Run a kernel test on the dense Cholesky path, on the banded
    Cholesky path and, with every problem above the dense limit, on the
    sparse LU path."""
    if request.param == "band":
        route_to_band(monkeypatch)
    elif request.param == "sparse":
        monkeypatch.setattr(arclp.linalg, "DENSE_LIMIT", 0)
    return request.param


def lower_of_band(band):
    """The lower triangle that LAPACK's lower band storage ``band`` holds;
    the storage past the end of each column must hold zeros."""
    rows, m = band.shape
    lower = np.zeros((m, m))
    for r in range(rows):
        c = np.arange(m - r)
        lower[c + r, c] = band[r, :m - r]
        assert not band[r, m - r:].any()
    return lower


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


def test_product_map_is_built_once_per_problem(monkeypatch):
    # The product map is built on a problem's first factorization and
    # shared by the start point's factor and every iteration's, on either
    # path: a dense map, or a sparse one that carries its row order.
    real_map = arclp.linalg.map_products
    real_assemble = arclp.linalg.ProductMap.assemble
    maps, used = [], []

    def map_products(At):
        maps.append(At)
        return real_map(At)

    def assemble(product_map, d):
        used.append(product_map)
        return real_assemble(product_map, d)

    monkeypatch.setattr(arclp.standardize, "map_products", map_products)
    monkeypatch.setattr(arclp.linalg, "map_products", map_products)
    monkeypatch.setattr(arclp.linalg.ProductMap, "assemble", assemble)
    rng = np.random.default_rng(8)

    def start_and_two_iterations(lp):
        initial_point_mehrotra(lp)
        facs = [factor(lp, rng.uniform(0.5, 2.0, 6),
                       rng.uniform(0.5, 2.0, 6)) for _ in range(2)]
        assert all(fac.A is lp.A and fac.At is lp.At for fac in facs)
        return facs

    dense_lp = lp_of(rng.standard_normal((3, 6)))
    facs = start_and_two_iterations(dense_lp)
    assert all(fac.dense for fac in facs)
    assert len(maps) == 1 and maps[0] is dense_lp.At
    assert dense_lp.product_map.perm is None
    assert len(used) == 3
    assert all(m is dense_lp.product_map for m in used)

    monkeypatch.setattr(arclp.linalg, "DENSE_LIMIT", 0)
    lp = lp_of(rng.standard_normal((3, 6)))
    used.clear()
    facs = start_and_two_iterations(lp)
    assert not any(fac.dense for fac in facs)
    assert len(maps) == 2 and maps[1] is lp.At
    assert lp.product_map.perm is not None
    assert sorted(lp.product_map.perm) == [0, 1, 2]
    assert not hasattr(lp, "row_order")
    assert len(used) == 3 and all(m is lp.product_map for m in used)


def test_row_order_keeps_the_minimum_degree_fill(monkeypatch):
    # Factoring in the map's order gives the fill of SuperLU's own
    # minimum-degree factorization (its inverse permutation gives more).
    monkeypatch.setattr(arclp.linalg, "DENSE_LIMIT", 0)
    A = sp.random(100, 200, density=0.03, random_state=9, format="csr")
    A = (A + sp.eye(100, 200)).tocsr()
    d = np.random.default_rng(9).uniform(0.5, 2.0, 200)
    options = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    own = spla.splu((A.multiply(d) @ A.T).tocsc(),
                    permc_spec="MMD_AT_PLUS_A", **options)
    perm = arclp.linalg.map_products(sp.csr_array(A.T)).perm
    Ap = A[perm]
    ours = spla.splu((Ap.multiply(d) @ Ap.T).tocsc(),
                     permc_spec="NATURAL", **options)
    assert ours.L.nnz + ours.U.nnz == own.L.nnz + own.U.nnz


def test_sparse_retry_keeps_the_pattern(monkeypatch):
    # Rows 1 and 2 are equal, so M is singular and the first LU fails;
    # M_01 and M_02 cancel to zero.  The regularized retry must factor the
    # map's pattern, with those slots kept, as the first attempt did.
    monkeypatch.setattr(arclp.linalg, "DENSE_LIMIT", 0)
    real_splu = arclp.linalg._splu_in_order
    seen = []

    def splu_in_order(M):
        seen.append((M.indptr.copy(), M.indices.copy()))
        return real_splu(M)

    monkeypatch.setattr(arclp.linalg, "_splu_in_order", splu_in_order)
    lp = lp_of([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
    factor(lp, np.array([2.0, 2.0, 1.0]), np.ones(3))
    pm = lp.product_map
    assert pm.indices.size == 9 and len(seen) == 2
    for indptr, indices in seen:
        assert np.array_equal(indptr, pm.indptr)
        assert np.array_equal(indices, pm.indices)


def test_band_retry_factors_the_band_again(monkeypatch):
    # Rows 1 and 2 are equal, so M is singular and pbtrf fails, after it
    # has overwritten the leading columns of the band in place.  The
    # regularized retry must factor the band assembled again plus the
    # diagonal shift, not what the failed attempt left behind.
    route_to_band(monkeypatch)
    real_band_cholesky = arclp.linalg._band_cholesky
    seen = []

    def band_cholesky(M):
        seen.append(M.copy())
        return real_band_cholesky(M)

    monkeypatch.setattr(arclp.linalg, "_band_cholesky", band_cholesky)
    A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
    d = np.array([2.0, 2.0, 1.0])
    lp = lp_of(A)
    fac = factor(lp, d, np.ones(3))
    assert not fac.dense
    first, retry = seen
    perm = lp.product_map.perm
    M = ((A * d) @ A.T)[np.ix_(perm, perm)]
    assert lower_of_band(first).tobytes() == np.tril(M).tobytes()
    shifted = first.copy()
    shifted[0] += 1e-12 * np.diag(M).max()
    assert retry.tobytes() == shifted.tobytes()


@pytest.mark.parametrize("name", NETLIB)
def test_dense_factor_is_scipys_cholesky_bit_for_bit(presolved, name):
    # factor calls LAPACK's potrf and potrs directly on the lower triangle
    # that the map assembles; its solves must be those of scipy's own
    # Cholesky of the full product, at any scaling, and so must those of
    # its regularized retry where that Cholesky fails.
    lp = presolved(name)
    assert lp.m <= DENSE_LIMIT
    rng = np.random.default_rng(13)
    for k in (0, 1, 4, 8, 12):
        p = 10.0 ** rng.uniform(-k, k, lp.n)
        q = 10.0 ** rng.uniform(-k, k, lp.n)
        rhs = rng.standard_normal(lp.m)
        M = (lp.A.multiply(p / q) @ lp.At).toarray()
        try:
            c = scipy.linalg.cho_factor(M, lower=True)
        except scipy.linalg.LinAlgError:
            M[np.diag_indices(lp.m)] += 1e-12 * max(np.diag(M).max(), 1.0)
            c = scipy.linalg.cho_factor(M, lower=True)
        fac = factor(lp, p, q)
        assert fac.dense
        want = scipy.linalg.cho_solve(c, rhs)
        assert fac.solve(rhs).tobytes() == want.tobytes(), k


def test_duplicate_entries_are_summed(kernel_path):
    # A CSR matrix may hold one entry twice; the dense map pairs each entry
    # with those up to its own row only once the duplicates are summed.
    A = sp.csr_array((np.array([1.0, 2.0, 0.5, 3.0, 1.0]),
                      np.array([2, 0, 2, 1, 0]), np.array([0, 3, 5])),
                     shape=(2, 3))
    lp = make_standard_lp(A, np.ones(2), np.ones(3))
    assert not lp.At.has_canonical_format
    d = np.array([2.0, 0.5, 3.0])
    fac = factor(lp, d, np.ones(3))
    rhs = np.array([1.0, -2.0])
    dense_A = A.toarray()
    assert_allclose(fac.solve(rhs), np.linalg.solve((dense_A * d) @ dense_A.T,
                                                    rhs), rtol=1e-14)


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


@settings(max_examples=200, deadline=None)
@given(v=hnp.arrays(float, st.integers(0, 300),
                    elements=st.one_of(EDGE_FLOATS, st.floats(-1e3, 1e3))))
def test_norm_is_numpys_bit_for_bit(v):
    assert outcome(norm, v) == outcome(np.linalg.norm, v)


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
    """Kernel oracles run on the dense Cholesky path, on the banded
    Cholesky path and on the sparse LU path (see ``kernel_path``)."""

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
        # map must round as A.multiply(d) @ A.T does, at any scaling.  A
        # dense or band map assembles only the lower triangle, which is
        # all that Cholesky reads, and a band map holds zeros outside it.
        lp = presolved(name)
        product_map = arclp.linalg.map_products(lp.At)
        layout = ("dense" if product_map.perm is None else
                  "band" if product_map.kd is not None else "sparse")
        # st5x20x10 has half-width 105 in its band order, under the limit.
        assert layout == ("band" if kernel_path == "dense"
                          and lp.m > DENSE_LIMIT else kernel_path)
        perm = np.arange(lp.m) if layout == "dense" else product_map.perm
        rng = np.random.default_rng(12)
        for k in (0, 1, 4, 8, 12):
            d = 10.0 ** rng.uniform(-k, k, lp.n)
            want = (lp.A.multiply(d) @ lp.At).toarray()[np.ix_(perm, perm)]
            M, diagonal = product_map.assemble(d)
            if layout == "sparse":
                got = M.toarray()
            else:
                want = np.tril(want)
                if layout == "band":
                    assert M.shape == (product_map.kd + 1, lp.m), k
                    got = lower_of_band(M)
                else:
                    assert not np.triu(M, 1).any(), k
                    got = np.tril(M)
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
        M, _ = lp.product_map.assemble(d)
        if kernel_path == "sparse":
            assert M.nnz == 4 and M[0, 1] == 0.0 and M[1, 0] == 0.0
        elif kernel_path == "band":
            # The half-width counts the cancelled entry.
            assert lp.product_map.kd == 1 and M[1, 0] == 0.0

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
