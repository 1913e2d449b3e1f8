"""Newton-kernel tests: hand oracles, brute-force cross-checks, guards."""
import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import reverse_cuthill_mckee

import arclp.linalg
import arclp.standardize
from arclp.linalg import NumericalError, factor, matvec, norm, solve_block
from arclp.mps import parse_mps
from arclp.presolve import presolve
from arclp.solvers import initial_point_mehrotra
from arclp.standardize import to_standard_form

from conftest import (EDGE_FLOATS, FIX1_MPS, NETLIB_DIR,
                      assert_supply_border, examples, make_standard_lp,
                      outcome, perfbench_module, staircase_raw)


def lp_of(A):
    """A problem that carries only the matrix ``A`` of a kernel test."""
    m, n = np.shape(A)
    return make_standard_lp(A, np.zeros(m), np.zeros(n))


# The bundled netlib problems and the tier-1 staircase LP, by name.
NETLIB = [path.stem for path in sorted(NETLIB_DIR.glob("*.mps"))]
PROBLEMS = NETLIB + ["st5x20x10"]


@pytest.fixture(scope="module")
def presolved():
    """Load a problem of ``PROBLEMS``, or the benchmark generator's seeded
    transport plan ``tr10x90``, through presolve, once per module."""
    cache = {}

    def load(name):
        if name not in cache:
            if name == "tr10x90":
                raw = perfbench_module("workloads").transport_lp(
                    arclp, 10, 90, np.random.default_rng(1), name)
            elif name == "st5x20x10":
                raw = staircase_raw()
            else:
                raw = parse_mps((NETLIB_DIR / (name + ".mps")).read_text())
            cache[name] = presolve(to_standard_form(raw))[0]
        return cache[name]
    return load


def set_band_rows(monkeypatch, rows):
    """Patch the border rule to leave the ``rows`` rows ranked last in the
    band and put every other kept row in the border, or none where no
    more than ``rows`` are kept."""
    monkeypatch.setattr(arclp.linalg, "_border",
                        lambda degree: max(degree.size - rows, 0))


# Band rows under which every problem of PROBLEMS gets a border: none, so
# that all its kept rows form the border, or 8.
BAND_ROWS = {"sparse": 0, "band+border": 8}


@pytest.fixture(params=["band", "sparse", "band+border"])
def kernel_path(request, monkeypatch):
    """Run a kernel test on the band alone, which every problem of these
    tests takes by default; with every kept row in the border, which
    factors the Schur complement by dense Cholesky (its id, ``sparse``,
    is that of the sparse LU path it replaced, so that the test ids stay
    those of earlier runs); and with 8 band rows, which leaves both the
    band and the border non-empty on every problem of PROBLEMS and the
    band alone on fewer than 9 kept rows."""
    if request.param in BAND_ROWS:
        set_band_rows(monkeypatch, BAND_ROWS[request.param])
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


def lower_of(pm, values):
    """The lower triangle that ``values`` holds in the layout of the map
    ``pm``: the band rows' block in band storage, then the border rows,
    which must hold zeros right of the diagonal."""
    band, border = pm.blocks(values)
    nb = band.shape[1]
    assert not np.triu(border, nb + 1).any()
    lower = np.zeros((pm.m, pm.m))
    lower[:nb, :nb] = lower_of_band(band)
    lower[nb:] = border
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
    # shared by the start point's factor and every iteration's, with or
    # without a border, each with its row order, and with the elimination
    # of the rows that qualify.
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
        facs = [factor(lp, rng.uniform(0.5, 2.0, lp.n),
                       rng.uniform(0.5, 2.0, lp.n)) for _ in range(2)]
        assert all(fac.A is lp.A and fac.At is lp.At for fac in facs)
        return facs

    band_lp = lp_of(rng.standard_normal((3, 6)))
    facs = start_and_two_iterations(band_lp)
    assert all(fac.dense for fac in facs)
    assert len(maps) == 1 and maps[0] is band_lp.At
    assert band_lp.product_map.kd == 2
    assert band_lp.product_map.border == 0
    assert band_lp.product_map.elim is None
    assert sorted(band_lp.product_map.perm) == [0, 1, 2]
    assert len(used) == 3
    assert all(m is band_lp.product_map for m in used)

    # Row 3 holds the only entry of column 6 and one of column 0: it is
    # eliminated, and the map covers rows 0 to 2.
    A = np.hstack([rng.standard_normal((4, 6)), np.zeros((4, 1))])
    A[3, 1:] = [0.0] * 5 + [2.0]
    elim_lp = lp_of(A)
    used.clear()
    facs = start_and_two_iterations(elim_lp)
    assert len(maps) == 2 and maps[1] is elim_lp.At
    pm = elim_lp.product_map
    assert pm.elim.rows.tolist() == [3] and pm.elim.shared.tolist() == [0]
    assert pm.m == 3 and sorted(pm.perm) == [0, 1, 2]
    assert len(used) == 3 and all(m is pm for m in used)

    set_band_rows(monkeypatch, 0)
    lp = lp_of(rng.standard_normal((3, 6)))
    used.clear()
    facs = start_and_two_iterations(lp)
    assert not any(fac.dense for fac in facs)
    assert len(maps) == 3 and maps[2] is lp.At
    assert (lp.product_map.kd, lp.product_map.border) == (0, 3)
    assert sorted(lp.product_map.perm) == [0, 1, 2]
    assert not hasattr(lp, "row_order")
    assert len(used) == 3 and all(m is lp.product_map for m in used)


def rcm_order(At):
    """``_rcm_order`` of the rows of ``A`` from ``At``: the order, its
    half-width and each row's position in it."""
    linalg = arclp.linalg
    return linalg._rcm_order(linalg._links(linalg._columns(At)))


def scipy_half_width(At, perm):
    """Half-width of the pattern of ``|A| @ |A|.T``, formed by scipy, with
    the rows of ``A`` in the order ``perm``."""
    unit = sp.csr_array((np.ones(At.nnz), At.indices, At.indptr),
                        shape=At.shape)
    pattern = (unit.T @ unit).tocoo()
    new = np.argsort(perm)
    return int(np.abs(new[pattern.row] - new[pattern.col]).max(initial=0))


# Six components: two rows over three shared columns, two rows of one
# column each, one row of two columns, an empty row and three rows over two
# shared columns.
BLOCKS = sp.csr_array(sp.block_diag(
    [np.ones((2, 3)), np.eye(2), [[1.0, 2.0]], np.zeros((1, 1)),
     np.ones((3, 2))]))


@pytest.mark.parametrize("name", PROBLEMS + ["scalar", "blocks"])
def test_half_width_is_that_of_scipys_product(presolved, name):
    # The order comes from searches of the row-column graph of A, and its
    # half-width from the columns of A: the product |A| @ |A|.T is never
    # formed.  The half-width must be that of scipy's product in the
    # returned order, which must be a permutation of the rows.  beaconfd
    # has five components.
    if name == "scalar":
        At = lp_of([[2.0]]).At
    elif name == "blocks":
        At = sp.csr_array(BLOCKS.T)
    else:
        At = presolved(name).At
    perm, kd, position = rcm_order(At)
    assert sorted(perm.tolist()) == list(range(At.shape[1]))
    assert position[perm].tolist() == list(range(At.shape[1]))
    assert kd == scipy_half_width(At, perm)
    assert kd == {"scalar": 0, "blocks": 2}.get(name, kd)


@st.composite
def patterns(draw):
    """A random ``A`` (CSR) for the ordering: up to 12 rows over up to 15
    columns, with empty rows, rows alone in their columns, explicit zeros
    and, at times, one row over every column."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 15))
    kept = draw(hnp.arrays(bool, (m, n), elements=st.booleans()))
    if draw(st.booleans()):
        kept[draw(st.integers(0, m - 1))] = True
    zero = draw(hnp.arrays(bool, (m, n), elements=st.booleans()))
    rows, cols = kept.nonzero()
    return sp.csr_array((np.where(zero[rows, cols], 0.0, 1.0), (rows, cols)),
                        shape=(m, n))


# Column 0 is empty, column 1 holds one entry, columns 2 and 3 link rows
# 0 and 2, and column 3's entry in row 2 is an explicit zero.
@settings(max_examples=300, deadline=None)
@example(A=sp.csr_array(([1.0, 1.0, 1.0, 2.0, 0.0],
                         ([0, 0, 1, 2, 2], [2, 3, 1, 2, 3])), shape=(3, 4)))
@given(A=patterns())
def test_links_are_the_linking_entries(A):
    # The linking columns are those of two or more entries, explicit zeros
    # counted: empty and single-entry columns link nothing.  Column by
    # column, the links hold the rows of each linking column's entries and
    # the column's rank among the linking columns; then each linking
    # column's entry count and each row's degree, its entries in linking
    # columns.  Checked against a dense pattern.
    linalg = arclp.linalg
    links = linalg._links(linalg._columns(sp.csr_array(A.T)))
    entries = A.tocoo()
    pattern = np.zeros(A.shape, bool)
    pattern[entries.row, entries.col] = True
    linking = pattern.sum(axis=0) > 1
    rows = [pattern[:, j].nonzero()[0].tolist() for j in linking.nonzero()[0]]
    assert links.rows.tolist() == sum(rows, [])
    assert links.col.tolist() == sum(([c] * len(r) for c, r in
                                      enumerate(rows)), [])
    assert links.count.tolist() == [len(r) for r in rows]
    assert links.degree.tolist() == \
        pattern[:, linking].sum(axis=1).tolist()


@settings(max_examples=300, deadline=None)
@given(A=patterns())
def test_refined_order_is_a_narrower_band(A):
    # The averaging sweeps start from the reverse Cuthill-McKee order and
    # keep an order only if it is narrower: the refined order must be a
    # permutation of the rows, its half-width that of scipy's product in
    # that order and never wider than the start, and the start itself
    # where no sweep narrows it.  Explicit zeros count as entries.  A row
    # with no entry in a linking column keeps its position, which the
    # start makes one of the last.
    At = sp.csr_array(A.T)
    linalg = arclp.linalg
    links = linalg._links(linalg._columns(At))
    start = linalg._rcm_order(links)
    perm, kd = linalg._refine(links, *start)
    assert sorted(perm.tolist()) == list(range(A.shape[0]))
    position = np.argsort(perm)
    assert kd == scipy_half_width(At, perm) <= start[1]
    unit = sp.csr_array((np.ones(At.nnz), At.indices, At.indptr),
                        shape=At.shape)
    degree = unit[np.diff(At.indptr) > 1].sum(axis=0)
    lone = (degree == 0).nonzero()[0]
    assert position[lone].tolist() == start[2][lone].tolist()
    if kd == start[1]:
        assert perm.tobytes() == start[0].tobytes()


def test_pseudo_peripheral_start_narrows_the_staircase(presolved):
    # scipy's reverse Cuthill-McKee starts each component at a row of
    # least degree; on the staircase plan a pseudo-peripheral start must
    # give a narrower band (105 rows with scipy's order).
    At = presolved("st5x20x10").At
    unit = sp.csr_array((np.ones(At.nnz), At.indices, At.indptr),
                        shape=At.shape)
    theirs = reverse_cuthill_mckee((unit.T @ unit).tocsr(),
                                   symmetric_mode=True)
    assert rcm_order(At)[1] < scipy_half_width(At, theirs)


# The retry factors a border with level-3 BLAS (W.T @ W and potrf): CI
# runs it on two BLAS threads as well.
@pytest.mark.two_blas_threads
def test_border_retry_keeps_the_layout(monkeypatch):
    # Rows 1 and 2 are equal, so M is singular, and with 0 or 1 band rows
    # both are border rows, on which potrf fails after pbtrf overwrote the
    # band.  The regularized retry must factor the same band and border,
    # assembled again, plus the diagonal shift.
    real_cholesky = arclp.linalg._cholesky
    seen = []

    def cholesky(pm, values):
        seen.append(values.copy())
        return real_cholesky(pm, values)

    monkeypatch.setattr(arclp.linalg, "_cholesky", cholesky)
    A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
    d = np.array([2.0, 2.0, 1.0])
    for rows in (0, 1):
        set_band_rows(monkeypatch, rows)
        lp = lp_of(A)
        seen.clear()
        fac = factor(lp, d, np.ones(3))
        pm = lp.product_map
        assert not fac.dense and pm.m - pm.border == rows
        first, retry = seen
        M = ((A * d) @ A.T)[np.ix_(pm.perm, pm.perm)]
        assert lower_of(pm, first).tobytes() == np.tril(M).tobytes()
        shifted = first.copy()
        shifted[pm.diag] += 1e-12 * np.diag(M).max()
        assert retry.tobytes() == shifted.tobytes()
        w = np.array([1.0, 2.0, 2.0])
        assert_allclose(M @ fac.solve(w)[pm.perm], w[pm.perm], rtol=1e-6)


# The retry runs pbtrf again on the band it overwrote: CI runs it on two
# BLAS threads as well.
@pytest.mark.two_blas_threads
def test_band_retry_factors_the_band_again(monkeypatch):
    # Rows 1 and 2 are equal, so M is singular and pbtrf fails, after it
    # has overwritten the leading columns of the band in place.  The
    # regularized retry must factor the band assembled again plus the
    # diagonal shift, not what the failed attempt left behind.
    real_cholesky = arclp.linalg._cholesky
    seen = []

    def cholesky(pm, values):
        seen.append(pm.blocks(values.copy())[0])
        return real_cholesky(pm, values)

    monkeypatch.setattr(arclp.linalg, "_cholesky", cholesky)
    A = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
    d = np.array([2.0, 2.0, 1.0])
    lp = lp_of(A)
    fac = factor(lp, d, np.ones(3))
    assert fac.dense
    first, retry = seen
    perm = lp.product_map.perm
    M = ((A * d) @ A.T)[np.ix_(perm, perm)]
    assert lower_of_band(first).tobytes() == np.tril(M).tobytes()
    shifted = first.copy()
    shifted[0] += 1e-12 * np.diag(M).max()
    assert retry.tobytes() == shifted.tobytes()


# The retry on a band of half-width 0 factors its border with level-3
# BLAS: CI runs it on two BLAS threads as well.
@pytest.mark.two_blas_threads
def test_diagonal_band_retry_keeps_the_layout(monkeypatch):
    # Rows 0 and 1 are equal and lie over all 20 columns; row 2 + j lies
    # over columns 2j and 2j + 1.  Without rows 0 and 1 the rows share no
    # column, and each lies over 20 of them against 2: they form the
    # border after a band of half-width 0.  With d = 2 every number is
    # exact: the band is 4, W holds 2 and E - W.T @ W is 0, on which potrf
    # fails.  The regularized retry must factor the same band and border,
    # assembled again, plus the diagonal shift.
    real_cholesky = arclp.linalg._cholesky
    seen = []

    def cholesky(pm, values):
        seen.append(values.copy())
        return real_cholesky(pm, values)

    monkeypatch.setattr(arclp.linalg, "_cholesky", cholesky)
    A = np.zeros((12, 20))
    A[:2] = 1.0
    for j in range(10):
        A[2 + j, 2 * j:2 * j + 2] = 1.0
    d = np.full(20, 2.0)
    lp = lp_of(A)
    fac = factor(lp, d, np.ones(20))
    pm = lp.product_map
    assert pm.elim is None and (pm.kd, pm.border) == (0, 2)
    assert sorted(pm.perm[-2:]) == [0, 1] and not fac.dense
    first, retry = seen
    M = ((A * d) @ A.T)[np.ix_(pm.perm, pm.perm)]
    assert lower_of(pm, first).tobytes() == np.tril(M).tobytes()
    shifted = first.copy()
    shifted[pm.diag] += 1e-12 * np.diag(M).max()
    assert retry.tobytes() == shifted.tobytes()
    w = M @ np.arange(12.0)
    assert_allclose(M @ fac.solve(w[np.argsort(pm.perm)])[pm.perm], w,
                    rtol=1e-6)


@st.composite
def bordered_patterns(draw):
    """A random ``A`` (CSR) that a border of its densest rows often leaves
    pairwise column-disjoint: up to 4 rows over random columns, then 4 to
    36 rows over disjoint runs of columns (some of them empty), and at
    times a few entries anywhere, explicit zeros among them; the rows are
    shuffled."""
    runs = draw(st.integers(4, 36))
    n = draw(st.integers(runs, 3 * runs))
    dense = draw(st.integers(0, 4))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=runs - 1,
                                max_size=runs - 1)))
    m = dense + runs
    pattern = np.zeros((m, n), bool)
    pattern[:dense] = draw(hnp.arrays(bool, (dense, n),
                                      elements=st.booleans()))
    for r, (lo, hi) in enumerate(zip([0] + cuts, cuts + [n])):
        pattern[dense + r, lo:hi] = True
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        pattern[r, c] = True
    pattern = pattern[draw(st.permutations(range(m)))]
    zero = draw(hnp.arrays(bool, (m, n), elements=st.booleans()))
    rows, cols = pattern.nonzero()
    return sp.csr_array((np.where(zero[rows, cols], 0.0, 1.0), (rows, cols)),
                        shape=(m, n))


@st.composite
def chains_with_dense_rows(draw):
    """A random ``A`` (CSR) whose degrees fall on both sides of the border
    rule's factor of four: a chain of 4 to 40 rows, row i over columns i
    and i + 1, plus 1 to 5 rows over random runs of columns; the rows are
    shuffled."""
    chain = draw(st.integers(4, 40))
    spans = draw(st.lists(st.integers(1, chain + 1), min_size=1, max_size=5))
    A = np.eye(chain + len(spans), chain + 1)
    A[:chain] += np.eye(chain, chain + 1, 1)
    for r, span in enumerate(spans, chain):
        A[r] = 0.0
        start = draw(st.integers(0, chain + 1 - span))
        A[r, start:start + span] = 1.0
    return sp.csr_array(A[draw(st.permutations(range(A.shape[0])))])


# The border rule's oracle, which picks the layouts whose borders are
# factored with level-3 BLAS: CI runs it on two BLAS threads as well.
@pytest.mark.two_blas_threads
# A chain of 40 rows over columns i and i + 1, a row over all 41 columns
# and one over the first 10: degrees 41, 10 and 2, so that the rule holds
# at the first two ranks, and the border is the first row alone.
@settings(max_examples=examples(300), deadline=None)
@example(A=sp.csr_array(np.vstack([np.eye(40, 41) + np.eye(40, 41, 1),
                                   np.ones(41), np.arange(41) < 10])))
@given(A=st.one_of(patterns(), bordered_patterns(),
                  chains_with_dense_rows()))
def test_border_is_the_first_much_denser_prefix(A):
    # Rank the rows the factor keeps by their degree, their entries in
    # linking columns, most first, ties by row index.  The border is the
    # first b rows of the ranking for the least b whose last row has at
    # least four times the degree of the next and at least 4 * b; none
    # where no b short of all the kept rows has that.  It follows the band
    # rows in rank order, and the band is as narrow as its rows allow in
    # their order.  Explicit zeros count as entries.
    pm = lp_of(A).product_map
    kept = np.setdiff1d(np.arange(A.shape[0]),
                        [] if pm.elim is None else pm.elim.rows)
    entries = A.tocoo()
    pattern = np.zeros(A.shape, bool)
    pattern[entries.row, entries.col] = True
    pattern = pattern[kept]
    linking = pattern.sum(axis=0) > 1
    degree = pattern[:, linking].sum(axis=1).tolist()
    rank = sorted(range(kept.size), key=lambda r: (-degree[r], r))
    border = 0
    for b in range(1, kept.size):
        if degree[rank[b - 1]] >= 4 * max(degree[rank[b]], b):
            border = b
            break
    nb = kept.size - border
    assert (pm.m, pm.border) == (kept.size, border)
    assert pm.perm[nb:].tolist() == kept[rank[:border]].tolist()
    assert pm.kd == scipy_half_width(sp.csr_array(A[pm.perm[:nb]].T),
                                     np.arange(nb))


@pytest.mark.parametrize("seed", [1, 2])
def test_diagonal_border_spares_the_search(seed, monkeypatch):
    # The benchmark's transport plans take their supply rows as the
    # border; the demand rows left share no linking column, so the band's
    # reverse Cuthill-McKee order numbers them without a breadth-first
    # search, in a band of half-width 0.
    linalg = arclp.linalg
    real_search = linalg._search
    searches = []

    def search(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(linalg, "_search", search)
    workloads = perfbench_module("workloads")
    plans = workloads.generate(arclp, "transport", seed)
    for raw, (supply, _) in zip(plans, workloads.TRANSPORT_SIZES):
        lp = presolve(to_standard_form(raw))[0]
        assert_supply_border(lp, supply)
        assert not searches, raw.name


def reduced(lp, d, shift=0.0):
    """The kept rows ``A1`` of ``lp`` in its map's order, the scaling ``dt``
    of the Schur complement ``A1 @ diag(dt) @ A1.T`` left by eliminating
    the map's other rows from ``M + shift * I``, and their pivots, row by
    row from ``A``: a pivot sums ``d_k * A_rk**2`` over the row's private
    columns in ascending order, plus ``shift``, plus ``(d_j * A_rj) *
    A_rj`` for its shared column ``j``, where ``dt_j = d_j * (private part
    plus shift) / pivot``."""
    pm = lp.product_map
    A1 = lp.A[pm.perm]
    if pm.elim is None:
        return A1, d, np.zeros(0)
    dt = d.copy()
    count = np.diff(lp.At.indptr)
    pivots = []
    for r in pm.elim.rows:
        row = slice(lp.A.indptr[r], lp.A.indptr[r + 1])
        cols, vals = lp.A.indices[row], lp.A.data[row]
        private = count[cols] == 1
        delta = 0.0
        for k, a in zip(cols[private], vals[private]):
            delta += d[k] * a ** 2
        delta += shift
        pivot = delta
        for j, a in zip(cols[~private], vals[~private]):
            pivot = delta + (d[j] * a) * a
            dt[j] = d[j] * delta / pivot
        pivots.append(pivot)
    return A1, dt, np.array(pivots)


# pbtrf works in level-3 BLAS blocks once the half-width reaches its block
# size, 32 (share2b and beaconfd): CI runs these oracles on two BLAS
# threads as well.
@pytest.mark.two_blas_threads
@pytest.mark.parametrize("name", NETLIB)
def test_band_factor_is_scipys_cholesky_banded_bit_for_bit(presolved, name,
                                                           monkeypatch):
    # factor calls LAPACK's pbtrf and pbtrs directly on the lower band
    # that the map assembles in its order perm: the Schur complement on
    # the rows it keeps.  Its factor must be scipy's cholesky_banded of
    # the band of scipy's A1.multiply(dt) @ A1.T, at any scaling, and so
    # must that of its regularized retry where that Cholesky fails; the
    # band solve of the kept rows' reduced right-hand side must be
    # cho_solve_banded's.
    lp = presolved(name)
    pm = lp.product_map
    # Some band must reach pbtrf's blocked path (see above).
    assert max(presolved(other).product_map.kd for other in NETLIB) >= 32
    real_cholesky = arclp.linalg._cholesky
    real_pbtrs = arclp.linalg._pbtrs
    factors, reduced_rhs = [], []

    def cholesky(pm, values):
        factors.append(real_cholesky(pm, values)[0])
        return factors[-1], None, None, None

    def pbtrs(c, b, **kwargs):
        reduced_rhs.append(b.copy())
        return real_pbtrs(c, b, **kwargs)

    monkeypatch.setattr(arclp.linalg, "_cholesky", cholesky)
    monkeypatch.setattr(arclp.linalg, "_pbtrs", pbtrs)
    rng = np.random.default_rng(13)
    for k in (0, 1, 4, 8, 12):
        p = 10.0 ** rng.uniform(-k, k, lp.n)
        q = 10.0 ** rng.uniform(-k, k, lp.n)
        rhs = rng.standard_normal(lp.m)
        d = p / q
        A1, dt, pivots = reduced(lp, d)
        M = (A1.multiply(dt) @ A1.T).toarray()
        band = np.zeros((pm.kd + 1, pm.m))
        for r in range(pm.kd + 1):
            band[r, :pm.m - r] = np.diagonal(M, -r)
        try:
            want = scipy.linalg.cholesky_banded(band, lower=True)
        except scipy.linalg.LinAlgError:
            reg = 1e-12 * max(np.diag(M).max(initial=1.0),
                              pivots.max(initial=1.0))
            A1, dt, _ = reduced(lp, d, reg)
            M = (A1.multiply(dt) @ A1.T).toarray()
            for r in range(pm.kd + 1):
                band[r, :pm.m - r] = np.diagonal(M, -r)
            band[0] += reg
            want = scipy.linalg.cholesky_banded(band, lower=True)
        factors.clear()
        reduced_rhs.clear()
        fac = factor(lp, p, q)
        assert fac.dense
        assert factors[-1].tobytes() == want.tobytes(), k
        y = fac.solve(rhs)
        got = scipy.linalg.cho_solve_banded((want, True), reduced_rhs[-1])
        assert y[pm.perm].tobytes() == got.tobytes(), k


# A border is factored with level-3 BLAS (W.T @ W and potrf), and the
# transport plan's after a band of half-width 0: CI runs these oracles on
# two BLAS threads as well.
@pytest.mark.two_blas_threads
@pytest.mark.parametrize("name, rows", [
    (name, rows) for rows in BAND_ROWS.values() for name in PROBLEMS]
    + [("tr10x90", None)])
def test_border_factor_is_the_block_cholesky(presolved, name, rows,
                                            monkeypatch):
    # With a border [C.T, E] after the band B, the factor of what the map
    # assembled is B's band Cholesky L (scipy's cholesky_banded bit for
    # bit), W with L @ W = C and U with L.T @ U = W, each to the rounding
    # of a triangular solve, and scipy's Cholesky of E - W.T @ W bit for
    # bit, at any scaling and in the regularized retry too.  Its solve
    # must solve M.  With 0 or 8 band rows, the other kept rows form the
    # border; None keeps the border rule: the transport plan's own
    # border, its 10 supply rows after a band of half-width 0.
    if rows is not None:
        set_band_rows(monkeypatch, rows)
    lp = presolved(name)
    pm = arclp.linalg.map_products(lp.At)
    monkeypatch.setitem(vars(lp), "product_map", pm)
    nb = pm.m - pm.border
    if rows is None:
        assert (pm.kd, pm.border, nb) == (0, 10, 90)
    else:
        assert pm.border and nb == rows
    real_cholesky = arclp.linalg._cholesky
    calls = []

    def cholesky(pm, values):
        copy = values.copy()
        calls.append((copy, real_cholesky(pm, values)))
        return calls[-1][1]

    monkeypatch.setattr(arclp.linalg, "_cholesky", cholesky)
    rng = np.random.default_rng(14)
    A = lp.A.toarray()
    eps = np.finfo(float).eps
    for k in (0, 1, 4, 8, 12):
        p = 10.0 ** rng.uniform(-k, k, lp.n)
        q = 10.0 ** rng.uniform(-k, k, lp.n)
        fac = factor(lp, p, q)
        assert not fac.dense
        values, (c, W, U, schur) = calls[-1]
        band, border = pm.blocks(values)
        if nb:
            want = scipy.linalg.cholesky_banded(band, lower=True)
            assert c.tobytes() == want.tobytes(), k
        L = lower_of_band(c)
        C = border[:, :nb].T
        assert (np.abs(L @ W - C)
                <= 4 * nb * eps * (np.abs(L) @ np.abs(W))).all(), k
        assert (np.abs(L.T @ U - W)
                <= 4 * nb * eps * (np.abs(L.T) @ np.abs(U))).all(), k
        want = scipy.linalg.cholesky(border[:, nb:] - W.T @ W, lower=True)
        assert np.tril(schur).tobytes() == want.tobytes(), k
        M = (A * (p / q)) @ A.T
        w = rng.standard_normal(lp.m)
        y = fac.solve(w)
        assert norm(M @ y - w) <= 1e-10 * (np.abs(M).max() * norm(y)
                                           + norm(w)), k


def test_duplicate_entries_are_summed(kernel_path):
    # A CSR matrix may hold one entry twice; the band map pairs each entry
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
    # One row whose one entry lies in a private column is eliminated: the
    # band of the kept rows is empty, a (1, 0) array with half-width 0, and
    # the row's pivot is M itself.
    lp = lp_of([[2.0]])
    fac = factor(lp, np.array([3.0]), np.array([6.0]))
    assert fac.dense
    pm = lp.product_map
    assert pm.m == 0 and pm.kd == 0 and pm.perm.size == 0
    assert pm.elim.rows.tolist() == [0] and pm.elim.shared.size == 0
    values, diagonal = pm.assemble(np.array([0.5]))
    band, border = pm.blocks(values)
    assert band.shape == (1, 0) and border.shape == (0, 0)
    assert diagonal.size == 0
    dt, pivots, weights = pm.elim.reduce(np.array([0.5]))
    assert dt.tolist() == [0.5] and pivots.tolist() == [2.0]
    assert weights.size == 0
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


@st.composite
def products(draw):
    """A CSR matrix with explicit zeros, of 0-8 rows and columns, with
    int32 or int64 indices, and an operand of its width: float, int32 or
    int64, and contiguous or strided."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    stored = draw(hnp.arrays(bool, (m, n)))
    rows, cols = np.nonzero(stored)
    values = draw(hnp.arrays(float, rows.size, elements=st.one_of(
        EDGE_FLOATS, st.just(0.0))))
    M = sp.csr_array((values, (rows, cols)), shape=(m, n))
    if draw(st.booleans()):
        M.indices = M.indices.astype(np.int64)
        M.indptr = M.indptr.astype(np.int64)
    dtype = draw(st.sampled_from([float, np.int32, np.int64]))
    step = draw(st.sampled_from([1, 2, -1, -3]))
    elements = EDGE_FLOATS if dtype is float else None
    v = draw(hnp.arrays(dtype, n * abs(step), elements=elements))[::step]
    return M, v


@settings(max_examples=examples(300), deadline=None)
@example(product=(sp.csr_array((0, 3)), np.ones(3)))
@example(product=(sp.csr_array((3, 0)), np.ones(0)))
@example(product=(sp.csr_array(([0.0, 2.0], ([0, 2], [1, 1])),
                               shape=(4, 2)), np.arange(4)[::2]))
@given(product=products())
def test_matvec_is_scipys_product(product):
    M, v = product
    assert outcome(matvec, M, v) == outcome(M.__matmul__, v)


@pytest.mark.parametrize("name", NETLIB)
def test_matvec_is_scipys_product_on_netlib(presolved, name):
    lp = presolved(name)
    rng = np.random.default_rng(0)
    for M in (lp.A, lp.At):
        v = rng.standard_normal(M.shape[1])
        assert outcome(matvec, M, v) == outcome(M.__matmul__, v)


@pytest.mark.parametrize("shape", [(6,), (8,), (7, 1), (1, 7), ()],
                         ids=["short", "long", "column", "row", "scalar"])
def test_matvec_rejects_an_operand_of_another_shape(shape):
    # csr_matvec itself checks no length: it reads past the end of a
    # short operand and raises nothing.
    M = sp.random_array((5, 7), density=0.5, format="csr", rng=1)
    with pytest.raises(ValueError):
        matvec(M, np.ones(shape))


def csr_bytes(M):
    """The shape of a CSR matrix and the dtype and bytes of its arrays."""
    return M.shape, [(a.dtype.str, a.tobytes())
                     for a in (M.data, M.indices, M.indptr)]


@st.composite
def coordinates(draw):
    """Distinct ``(row, col)`` pairs, as a product map's terms give them to
    its conversion to CSR: in ascending col, rows in any order within a
    col.  The matrix has 0-8 rows and 0-8 columns, or 3 rows and more
    columns than int32 numbers; the values hold explicit zeros and IEEE
    special values, and each index array is int32 or int64 where its
    numbers allow."""
    if draw(st.booleans()):
        m, n = 3, 2 ** 31 + 5
        cols = [0, 7, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 4]
    else:
        m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        cols = list(range(n))
    stored = draw(hnp.arrays(bool, (m, len(cols))))
    pairs = np.argwhere(stored)
    pairs = pairs[draw(st.permutations(range(len(pairs))))]
    pairs = pairs[np.argsort(pairs[:, 1], kind="stable")]
    row = pairs[:, 0].astype(draw(st.sampled_from([np.int32, np.int64])))
    col = np.array(cols, np.int64).take(pairs[:, 1])
    if n <= np.iinfo(np.int32).max:
        col = col.astype(draw(st.sampled_from([np.int32, np.int64])))
    data = draw(hnp.arrays(float, len(pairs), elements=st.one_of(
        EDGE_FLOATS, st.just(0.0))))
    return data, row, col, (m, n)


# The map's conversion to CSR calls scipy's private coo_tocsr: CI runs
# this oracle with more examples on each scipy it installs.
@settings(max_examples=examples(300), deadline=None)
@example(coo=(np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int32),
              (0, 0)))
@given(coo=coordinates())
def test_slot_matrix_is_scipys_csr_array(coo):
    data, row, col, shape = coo
    T = arclp.linalg._csr(data, row, col, shape)
    want = sp.csr_array((data, (row, col)), shape=shape)
    assert type(T) is type(want)
    assert csr_bytes(T) == csr_bytes(want)


# Every row sits alone in its column, so the factor eliminates them all
# and the map of the kept rows is empty.
@settings(max_examples=examples(300), deadline=None)
@example(A=sp.csr_array(np.eye(3)), rows=None)
@given(A=st.one_of(patterns(), bordered_patterns()),
       rows=st.sampled_from([None, 2, 0]))
def test_product_map_holds_its_terms_in_scipys_csr_array(A, rows):
    # T must be scipy's CSR matrix of the terms, with its index type:
    # the slots as rows, the entries they pair as columns, their
    # coefficients as values.  With 2 or 0 band rows every other kept row
    # is in the border; None keeps the border rule, which borders many of
    # the bordered patterns.
    linalg = arclp.linalg
    real_terms, terms = linalg._terms, []

    def spy(*args):
        terms.append(real_terms(*args))
        return terms[-1]

    rule = linalg._border if rows is None else (
        lambda degree: max(degree.size - rows, 0))
    with (mock.patch.object(linalg, "_terms", spy),
          mock.patch.object(linalg, "_border", rule)):
        pm = linalg.map_products(sp.csr_array(A.T))
    (slot, term, coef), = terms
    nb = pm.m - pm.border
    assert pm.T.shape == ((pm.kd + 1) * nb + pm.border * pm.m, pm.col.size)
    want = sp.csr_array((coef, (slot, term)), shape=pm.T.shape)
    assert csr_bytes(pm.T) == csr_bytes(want)


@st.composite
def block_systems(draw):
    """A block system of 0-5 rows and 0-6 columns, explicit zeros in
    ``A``, right-hand sides with signed zeros, and the ``dlam`` that a
    stub factor returns, with nan, inf and -0.0 among its entries."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rows, cols = np.nonzero(draw(hnp.arrays(bool, (m, n))))
    values = draw(hnp.arrays(float, rows.size, elements=st.one_of(
        st.just(0.0), st.floats(-1e3, 1e3))))
    A = sp.csr_array((values, (rows, cols)), shape=(m, n))
    scaling = st.floats(1e-8, 1e8)
    finite = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-1e100, 1e100))
    p, q, r2, r3 = (draw(hnp.arrays(float, n, elements=elements))
                    for elements in (scaling, scaling, finite, finite))
    r1 = draw(hnp.arrays(float, m, elements=finite))
    dlam = draw(hnp.arrays(float, m, elements=EDGE_FLOATS))
    return A, p, q, r1, r2, r3, dlam


@settings(max_examples=examples(300), deadline=None)
@given(system=block_systems())
def test_block_solve_computes_the_written_expressions(system):
    # solve_block works in place; it must give what the expressions of
    # its comments give with scipy's products, byte for byte: the
    # right-hand side it solves with, dx, dlam and ds, and the residuals
    # it takes the norms of (a norm of 0 stops the refinement).  Its
    # arguments stay as they were.
    A, p, q, r1, r2, r3, dlam = system
    given = [v.copy() for v in (p, q, r1, r2, r3)]
    At = sp.csr_array(A.T)
    solved, residuals = [], []

    def stub(rhs):
        solved.append(rhs.copy())
        return dlam.copy()

    def record(v):
        residuals.append(v.copy())
        return 0.0

    fac = arclp.linalg.NewtonFactor(dense=True, A=A, At=At, p=p, q=q,
                                    _solve=stub)
    with mock.patch.object(arclp.linalg, "norm", record):
        got = solve_block(fac, r1, r2, r3)
    with np.errstate(all="ignore"):
        w = r1 - A @ ((r3 - p * r2) / q)
        At_dlam = At @ dlam
        ds = r2 - At_dlam
        dx = (r3 - p * ds) / q
        want = [A @ dx - r1, At_dlam + ds - r2, q * dx + p * ds - r3]

    def raw(vectors):
        return [(v.dtype.str, v.tobytes()) for v in vectors]

    assert raw(given) == raw([p, q, r1, r2, r3])
    assert raw(solved) == raw([w])
    assert raw(got) == raw([dx, dlam, ds])
    assert raw(residuals) == raw(want)


def positive_rule(v):
    """The positivity test of the scaling vectors as an elementwise
    comparison: any entry <= 0 fails, and nan or inf alone pass."""
    return not (np.asarray(v) <= 0).any()


@settings(max_examples=500, deadline=None)
@given(p=hnp.arrays(float, st.integers(0, 6), elements=st.one_of(
           EDGE_FLOATS, st.sampled_from([-1.0, -1e-300, 1e-300, 1.0]))),
       q_sign=st.sampled_from([-1.0, 1.0]))
def test_scaling_check_is_the_elementwise_rule(p, q_sign):
    # _check_scaling reduces with fmin, which skips nan; it must accept and
    # reject exactly what the elementwise rule does, on p and on q.
    A = sp.csr_array((1, p.size))
    for pair in ((p, np.ones(p.size)), (np.ones(p.size), q_sign * p)):
        want = all(positive_rule(v) for v in pair)
        try:
            arclp.linalg._check_scaling(A, *pair)
            got = True
        except ValueError:
            got = False
        assert got == want


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


def test_border_above_dense_limit():
    # The degrees alone decide on a border, not the row count: with 250
    # rows, a banded pattern takes the band alone, and the same pattern
    # plus one dense row, which gives M a half-width of about m in reverse
    # Cuthill-McKee order, takes the band with that row as its border.
    rng = np.random.default_rng(5)
    m = 250
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
    half_widths = []
    for B, border in ((A, 0), (np.vstack([A, np.ones(n)]), 1)):
        lp = lp_of(B)
        fac = factor(lp, p, q)
        assert fac.dense == (not border)
        pm = lp.product_map
        assert pm.border == border
        assert pm.perm[m:].tolist() == [m] * border
        # The band holds the banded pattern's rows in their own order.
        half_widths.append(pm.kd)
        r1 = rng.standard_normal(B.shape[0])
        r2 = rng.standard_normal(n)
        r3 = rng.standard_normal(n)
        dx, dlam, ds = solve_block(fac, r1, r2, r3)
        bound = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([r1, r2, r3])))
        for res in residual_norms(B, p, q, r1, r2, r3, dx, dlam, ds):
            assert res <= bound
    assert half_widths[0] == half_widths[1]


def eliminable_system(rng):
    """A random ``A`` (CSR) whose rows take every case of the elimination,
    shuffled, with the set of rows the map must eliminate.

    Four dense kept rows over eight columns, plus rows that qualify: one
    of private columns only; one with a private entry and one in kept
    column 0; two twins that both have a private entry and one in kept
    column 1, of which only the first in index order is eliminated; one
    with a single entry, in kept column 2, and no private entry; and one
    with an explicit zero and a nonzero in private columns and an entry in
    kept column 3.  A kept row holds an explicit zero too.  Values are
    +-1 or of other sizes."""
    def value():
        return rng.choice([-1.0, 1.0]) * (1.0 if rng.random() < 0.5
                                          else rng.uniform(0.1, 10.0))
    kept = [{j: value() for j in range(8)} for _ in range(4)]
    kept[0][5] = 0.0
    extra = iter(range(8, 100))
    rows = kept + [
        {next(extra): value(), next(extra): value()},
        {next(extra): value(), 0: value()},
        {next(extra): value(), 1: value()},
        {next(extra): value(), 1: value()},
        {2: value()},
        {next(extra): 0.0, next(extra): value(), 3: value()},
    ]
    n = next(extra)
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    new = np.argsort(order)
    twins = sorted(new[[6, 7]])
    elim = set(new[4:]) - {twins[1]}
    cols = rng.permutation(n)
    A = sp.csr_array((
        [v for row in rows for v in row.values()],
        [cols[j] for row in rows for j in row],
        np.cumsum([0] + [len(row) for row in rows])), shape=(len(rows), n))
    A.sort_indices()
    return A, elim


@pytest.mark.parametrize("dense_rows", [1, 3])
def test_border_picks_its_rows(dense_rows):
    # A chain of 40 rows, row i over columns i and i + 1, has half-width
    # 1; dense rows over 41, 30 and 20 columns widen it.  Each dense row
    # has more than four times the degree of a chain row (2) and more
    # than four times the number of dense rows, but none four times the
    # next dense row's: the border is exactly the dense rows, in rank
    # order (most entries in linking columns first, ties by row index),
    # after the chain's band of half-width 1.  The rows are shuffled, and
    # none is eliminated.
    rng = np.random.default_rng(22)
    rows = [[i, i + 1] for i in range(40)]
    rows += [list(range(41)), list(range(30)), list(range(20))][:dense_rows]
    order = rng.permutation(len(rows))
    A = np.zeros((len(rows), 41))
    for r, i in enumerate(order):
        A[r, rows[i]] = rng.uniform(0.5, 2.0, len(rows[i]))
    degree = (A != 0).sum(axis=1)
    # Most entries first, ties by index: sort on (-degree, index).
    rank = sorted(range(len(rows)), key=lambda r: (-degree[r], r))
    pm = lp_of(A).product_map
    assert pm.elim is None and pm.m == len(rows)
    assert pm.border == dense_rows
    assert pm.perm[-dense_rows:].tolist() == rank[:dense_rows]
    # The dense rows came last before the shuffle.
    assert sorted(order[pm.perm[-dense_rows:]]) == \
        list(range(40, 40 + dense_rows))
    assert pm.kd == 1 == scipy_half_width(
        sp.csr_array(A[pm.perm[:40]].T), np.arange(40))


# It picks the rows whose elimination TestOnBothFactorPaths checks: CI
# runs it with those oracles, on two BLAS threads as well.
@pytest.mark.two_blas_threads
def test_elimination_picks_its_rows():
    # The rows eliminated are exactly the qualifying ones, one twin of the
    # pair that shares a column; the rest are the map's kept rows.
    rng = np.random.default_rng(20)
    for _ in range(10):
        A, elim = eliminable_system(rng)
        lp = lp_of(A)
        assert (lp.A.data == 0).sum() == 2
        pm = lp.product_map
        assert set(pm.elim.rows.tolist()) == elim
        assert sorted(pm.perm.tolist() + pm.elim.rows.tolist()) == \
            list(range(A.shape[0]))
        # The rows with a shared column come first, one per column.
        assert pm.elim.shared.size == 4 == np.unique(pm.elim.shared).size
    # An empty row or one of explicit zeros would have a zero pivot: it is
    # kept, while row 0, of private columns only, is eliminated.
    for zeros in (0, 1):
        A = sp.csr_array((np.array([1.0, 2.0, 0.0][:2 + zeros]),
                          np.array([0, 1, 2][:2 + zeros]),
                          np.array([0, 2, 2 + zeros])), shape=(2, 3))
        lp = lp_of(A)
        assert (lp.A.data == 0).sum() == zeros
        pm = lp.product_map
        assert pm.elim.rows.tolist() == [0] and pm.perm.tolist() == [1]


# The kernel oracles on the band and on a border, both factored in BLAS:
# CI runs them on two BLAS threads as well.
@pytest.mark.two_blas_threads
class TestOnBothFactorPaths:
    """Kernel oracles run on the band alone and with a border (see
    ``kernel_path``)."""

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
        # map must round as scipy's A1.multiply(dt) @ A1.T does on the rows
        # A1 it keeps, at any scaling.  The map assembles only the lower
        # triangle, which is all that Cholesky reads: the band rows' block
        # and the border rows up to the diagonal, with zeros outside it.
        lp = presolved(name)
        pm = arclp.linalg.map_products(lp.At)
        nb = pm.m - pm.border
        # By default every problem of PROBLEMS takes the band alone.
        assert {"band": nb == pm.m, "sparse": nb == 0,
                "band+border": 0 < nb < pm.m}[kernel_path]
        A1 = lp.A[pm.perm]
        # The band is as narrow as its rows allow in that order.
        assert pm.kd == scipy_half_width(sp.csr_array(A1[:nb].T),
                                         np.arange(nb))
        rng = np.random.default_rng(12)
        for k in (0, 1, 4, 8, 12):
            d = 10.0 ** rng.uniform(-k, k, lp.n)
            dt = reduced(lp, d)[1]
            want = np.tril((A1.multiply(dt) @ A1.T).toarray())
            values, diagonal = pm.assemble(dt)
            assert lower_of(pm, values).tobytes() == want.tobytes(), k
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
        pm = lp.product_map
        band, border = pm.blocks(pm.assemble(d)[0])
        if kernel_path == "sparse":
            assert border.shape == (2, 2) and border[1, 0] == 0.0
        else:
            # The half-width counts the cancelled entry.
            assert pm.kd == 1 and band[1, 0] == 0.0

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
            lp = lp_of(A)
            fac = factor(lp, p, q)
            # Up to 7 rows take the band alone with 8 band rows, and by
            # the rule, as dense rows have equal degrees; one row of
            # private columns is eliminated and leaves no row for a
            # border.
            assert fac.dense == (kernel_path != "sparse"
                                 or lp.product_map.m == 0)
            dx, dlam, ds = solve_block(fac, r1, r2, r3)
            bx, blam, bs = brute_force(A, p, q, r1, r2, r3)
            assert_allclose(dx, bx, rtol=1e-6, atol=1e-9)
            assert_allclose(dlam, blam, rtol=1e-6, atol=1e-9)
            assert_allclose(ds, bs, rtol=1e-6, atol=1e-9)

    def test_elimination_matches_brute_force(self, kernel_path):
        # NewtonFactor.solve solves the full M @ y = w, eliminated rows
        # included, with and without a border on the kept rows; so does
        # the block solve.
        rng = np.random.default_rng(21)
        for _ in range(10):
            A, elim = eliminable_system(rng)
            m, n = A.shape
            lp = lp_of(A)
            dense_A = A.toarray()
            for k in (0, 1, 2):
                p = 10.0 ** rng.uniform(-k, k, n)
                q = 10.0 ** rng.uniform(-k, k, n)
                fac = factor(lp, p, q)
                # The four kept rows take the band alone with 8 band rows,
                # and by the rule, as their degrees are equal.
                assert fac.dense == (kernel_path != "sparse")
                w = rng.standard_normal(m)
                assert_allclose(
                    fac.solve(w),
                    np.linalg.solve((dense_A * (p / q)) @ dense_A.T, w),
                    rtol=1e-6, atol=1e-9)
                r1 = rng.standard_normal(m)
                r2 = rng.standard_normal(n)
                r3 = rng.standard_normal(n)
                for got, want in zip(solve_block(fac, r1, r2, r3),
                                     brute_force(dense_A, p, q, r1, r2, r3)):
                    assert_allclose(got, want, rtol=1e-6, atol=1e-9)
            assert set(lp.product_map.elim.rows.tolist()) == elim

    def test_underflowed_pivot_takes_the_regularized_retry(self,
                                                           kernel_path):
        # Row 0's entries lie in private columns only, so it is eliminated,
        # and d underflows to zero on them: its pivot is zero, and its row
        # of M too, as a zero diagonal that fails the Cholesky of M would
        # be.  The factor must take the regularized retry, which solves
        # M + reg * I: y_0 = 0 for w_0 = 0, not 0 / 0, and the kept rows'
        # solution of their own block.
        A = np.array([[1.0, 2.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0, -1.0, 1.0]])
        p = np.array([1e-300, 1e-300, 1.0, 2.0, 3.0])
        q = np.array([1e300, 1e300, 1.0, 1.0, 1.0])
        d = p / q
        assert d[0] == d[1] == 0.0
        lp = lp_of(A)
        fac = factor(lp, p, q)
        assert lp.product_map.elim.rows.tolist() == [0]
        w = np.array([0.0, 1.0, -2.0])
        expected = np.zeros(3)
        M = (A * d) @ A.T
        expected[1:] = np.linalg.solve(M[1:, 1:], w[1:])
        y = fac.solve(w)
        assert np.isfinite(y).all()
        assert_allclose(y, expected, rtol=1e-9, atol=0)

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
