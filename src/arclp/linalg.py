"""Sparse normal-equations kernel for interior-point Newton systems.

Every search direction used by the solvers comes from one block system ::

    A @ dx                = r1
    A.T @ dlam + ds       = r2
    diag(q) @ dx + diag(p) @ ds = r3

with strictly positive scaling vectors ``p`` and ``q``.  Eliminating ``dx``
and ``ds`` reduces it to the m-by-m normal equations
``M @ dlam = r1 - A @ (r3 / q) + A @ ((p / q) * r2)`` with
``M = A @ diag(d) @ A.T``, ``d = p / q``, factored once per scaling pair
and reused for every right-hand side at that iterate; the factor carries
the system.

Some rows of ``A`` couple to the rest of ``M`` through one column at most:
all their entries but at most one lie in private columns (columns with a
single entry), such as the rows ``x_j + s = u_j`` that the standardizer
adds for upper bounds.  When no two of them share that one other column,
their block of ``M`` is diagonal, and Gaussian elimination removes them
exactly (:class:`Elimination`).  This is the implicit upper-bound
treatment of primal-dual codes (S. J. Wright, Primal-Dual Interior-Point
Methods, SIAM 1997), here in the linear algebra alone.  What is factored
is the Schur complement ``S = A1 @ diag(dt) @ A1.T`` on the kept rows
``A1``, where ``dt`` is ``d`` except at each eliminated row's shared
column ``j``: ``dt_j = d_j * delta_r / Delta_r``, with ``Delta_r`` the
row's pivot and ``delta_r`` its part from the private columns.  The
factor still solves the full ``M @ y = w``.  With no such row (every
transport plan) ``S`` is ``M``.

``S`` is assembled from one product map per problem
(:func:`map_products`, cached as ``StandardLP.product_map``): a sparse
matrix ``T`` with one row per slot of a fixed layout and one column per
entry ``A_ij`` of ``A1``, which holds the coefficient ``A_kj`` of each
term ``(A_ij * dt_j) * A_kj`` of the slot of ``(i, k)``.  Each assembly
is a gather of ``dt`` and one product of ``T`` with the vector of
``A_ij * dt_j``.  ``T`` is built once per map by scipy's COO-to-CSR
conversion, a stable counting sort, so each slot keeps its terms in
ascending ``j``, and scipy's CSR product sums them from zero in that
order, as scipy's sparse matrix product does: every entry the map
assembles is bit for bit that of scipy's ``A1.multiply(dt) @ A1.T``.

The map orders the rows of ``A1`` in reverse Cuthill-McKee order,
refines that order by a few averaging sweeps of the row positions over
the linking columns (a cheap stand-in for the spectral envelope
reduction of S. T. Barnard, A. Pothen and H. Simon, Numer. Linear
Algebra Appl. 2(4), 1995), and lays ``S`` out as a band in LAPACK's band
storage, which ``pbtrf`` factors in place and ``pbtrs`` solves with.  A
wide band comes from a few dense rows (one linking row makes it nearly
``m``), and a dense row ordered last causes no fill (the bordered form
of A. George and J. W. H. Liu, Computer Solution of Large Sparse
Positive Definite Systems, Prentice-Hall 1981).  Such rows then form a
border after the band ``B``: with ``S = [[B, C], [C.T, E]]``, ``pbtrf``
factors ``B = L @ L.T``, ``tbtrs`` forms ``W = L^-1 @ C`` and ``U =
L^-T @ W``, ``potrf`` factors ``E - W.T @ W``, and a solve is one
``pbtrs`` and one ``potrs``.  The border is read off the rows ranked by
degree, their entries in linking columns: the fewest leading rows of
the ranking of which each has at least four times the degree of every
row after them and at least four times their number.  A failed
factorization is retried once, on the same layout, with a small diagonal
regularization.

Every product of a solve with ``A`` or ``A.T`` (:func:`solve_block`, the
residuals, the restart and the starting point) goes through
:func:`matvec`, which calls scipy's CSR kernel ``csr_matvec`` itself:
the routine that ``A @ v`` reaches for a 1-D ``v``, so each result is
byte for byte scipy's, without the Python dispatch of the ``@``
operator, which on small problems costs more than the kernel itself.
The kernel checks no length: against a short operand it reads past its
end and raises nothing, so :func:`matvec` checks the operand's shape
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr as _coo_tocsr
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
from scipy.sparse.csgraph import breadth_first_order

_pbtrf, _pbtrs, _tbtrs, _potrf, _potrs = scipy.linalg.get_lapack_funcs(
    ("pbtrf", "pbtrs", "tbtrs", "potrf", "potrs"), dtype=np.float64)

__all__ = ["NumericalError", "NewtonFactor", "ProductMap", "map_products",
           "factor", "solve_block", "matvec", "norm"]

# Residual tolerance of solve_block: absolute floor 1, relative in the
# stacked right-hand side.
_RESIDUAL_TOL = 1e-8

# Refinement passes solve_block may make with one factor.
_MAX_REFINEMENTS = 3


class NumericalError(RuntimeError):
    """The Newton system could not be factored or solved accurately."""


def norm(v):
    """Euclidean norm of a real vector, ``sqrt(v @ v)``: what
    ``np.linalg.norm`` computes for one, without its dispatch."""
    return math.sqrt(v @ v)


def matvec(M, v):
    """``M @ v`` for a float CSR matrix ``M`` and a 1-D array ``v``, byte
    for byte, by scipy's own CSR kernel without its operator dispatch.

    Raises
    ------
    ValueError
        If ``v`` is not 1-D of length ``M.shape[1]``: the kernel itself
        checks no length, and would read past the end of a short ``v``.
    """
    m, n = M.shape
    if v.shape != (n,):
        raise ValueError("operand of shape %s does not match a matrix of "
                         "shape %s" % (v.shape, (m, n)))
    out = np.zeros(m)
    _csr_matvec(m, n, M.indptr, M.indices, M.data, v, out)
    return out


def _csr(data, row, col, shape):
    # sp.csr_array((data, (row, col)), shape=shape), in the index type that
    # scipy picks, by the COO-to-CSR conversion that scipy itself calls,
    # for distinct (row, col) pairs that come in ascending col within each
    # row: the conversion is a stable counting sort, so scipy would then
    # neither sort nor sum anything.
    idx = np.int32
    if (max(*shape, data.size) > np.iinfo(idx).max
            or not np.can_cast(row.dtype, idx)
            or not np.can_cast(col.dtype, idx)):
        idx = np.int64
    indptr = np.empty(shape[0] + 1, idx)
    indices = np.empty(data.size, idx)
    values = np.empty_like(data)
    _coo_tocsr(shape[0], shape[1], data.size, row.astype(idx, copy=False),
               col.astype(idx, copy=False), data, indptr, indices, values)
    return sp.csr_array((values, indices, indptr), shape=shape)


@dataclass(frozen=True)
class NewtonFactor:
    """Factorization of ``M = A @ diag(p / q) @ A.T`` with the system it
    solves.

    ``A``, ``At``, ``p`` and ``q`` are the caller's arrays, not copies:
    they must not change while the factor is in use.  Build a new factor
    per scaling pair.  ``dense`` is True when the band Cholesky alone
    factored the kept rows' Schur complement and False when a dense
    border took part; :meth:`solve` solves with the full ``M``,
    eliminated rows included.
    """

    dense: bool
    A: sp.csr_array = field(repr=False)
    At: sp.csr_array = field(repr=False)
    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    _solve: object = field(repr=False)

    def solve(self, rhs):
        """Solve ``M @ y = rhs`` for one right-hand side (all m rows)."""
        return self._solve(rhs)


def _check_scaling(A, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = A.shape[1]
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError("scaling vectors must have length %d" % n)
    # A nonfinite entry passes: it makes M or the block residual nonfinite.
    # fmin skips nan, so the least entry is nan only when all are.
    if (np.fmin.reduce(p, initial=np.inf) <= 0
            or np.fmin.reduce(q, initial=np.inf) <= 0):
        raise ValueError("scaling vectors must be strictly positive")
    return p, q


class Elimination(NamedTuple):
    """The rows of ``A`` that :func:`factor` eliminates before it factors
    the normal matrix ``M = A @ diag(d) @ A.T``, and how they couple to
    the rows it keeps.

    A row is eliminated when all its entries but at most one lie in
    private columns (columns of ``A`` with a single entry), one of its
    entries is nonzero, and no eliminated row before it has an entry in
    its one other column, its shared column ``j``.  Two eliminated rows
    then share no column, so their block of ``M`` is diagonal, with the
    pivot ``Delta_r = delta_r + d_j * A_rj**2`` in row ``r``: the private
    part ``delta_r`` sums ``d_k * A_rk**2`` over the row's private columns
    ``k``, and a row without a shared column lacks the second term.  Row
    ``r`` couples to the kept rows only through column ``j``, so
    eliminating the rows leaves the Schur complement ``S = A1 @ diag(dt)
    @ A1.T`` on the kept rows ``A1`` of ``A``, where ``dt`` is ``d``
    except at each shared column: ``dt_j = d_j * delta_r / Delta_r``, a
    product and a quotient of positive numbers.

    ``rows`` lists the eliminated rows of ``A``, the ``shared.size`` rows
    with a shared column first: row ``rows[s]`` holds ``a[s]`` in column
    ``shared[s]``.  Private entry ``e`` lies in row ``rows[own_row[e]]``
    and column ``own_col[e]`` and holds a value whose square is
    ``own_sq[e]``.  Link ``e`` is an entry ``A_ij = link_val[e]`` of a
    kept row ``i`` in the shared column of the eliminated row
    ``rows[link_row[e]]``; ``link_pos[e]`` is the position of row ``i`` in
    the assembled matrix (see :class:`ProductMap`).  A solve reads its
    right-hand side at ``gather``: the kept rows in the map's order
    ``perm``, the eliminated rows, and the eliminated row of each link.
    """

    rows: np.ndarray
    shared: np.ndarray
    a: np.ndarray
    own_row: np.ndarray
    own_col: np.ndarray
    own_sq: np.ndarray
    link_row: np.ndarray
    link_pos: np.ndarray
    link_val: np.ndarray
    gather: np.ndarray

    def reduce(self, d, shift=0.0):
        """``dt``, the pivots ``Delta`` and each link's weight ``A_ij *
        d_j * A_rj / Delta_r`` for ``M + shift * I``: the shift adds to
        every private part, and ``S`` gains it on its diagonal."""
        own = d.take(self.own_col)
        own *= self.own_sq
        # Plus a float: without private entries np.bincount gives ints.
        pivots = np.bincount(self.own_row, own, self.rows.size) + shift
        ns = self.shared.size
        dj = d.take(self.shared)
        coupling = dj * self.a
        # The private parts first make dt, then become the pivots.
        dj *= pivots[:ns]
        pivots[:ns] += coupling * self.a
        dj /= pivots[:ns]
        dt = d.copy()
        dt[self.shared] = dj
        coupling /= pivots[:ns]
        weights = coupling.take(self.link_row)
        weights *= self.link_val
        return dt, pivots, weights


class ProductMap(NamedTuple):
    """Where each term of ``A1 @ diag(d) @ A1.T`` goes, for every ``d``.

    ``A1`` holds the rows of ``A`` that ``elim`` (an :class:`Elimination`,
    or ``None`` when no row qualifies) does not eliminate: ``m`` of them.
    :func:`factor` assembles the Schur complement ``A1 @ diag(dt) @
    A1.T`` that the elimination leaves, with ``dt`` from
    :meth:`Elimination.reduce`, and its solve still solves the full ``M``.
    The entries of ``A1`` are taken column by column: entry ``e`` holds
    ``A_ij = val[e]`` with ``j = col[e]``.  ``T`` (CSR) has one row per
    slot and one column per entry: row ``s`` holds ``A_kj`` in column
    ``e`` for each term ``(A_ij * d_j) * A_kj`` of the slot ``s`` of
    ``(i, k)``, in ascending ``j``, so the slots are ``T @ (val *
    d[col])``.  ``diag`` holds the slot of each diagonal entry, in
    the assembled matrix's row order ``perm`` (its row ``r`` is row
    ``perm[r]`` of ``A``): the ``m - border`` band rows, then the border.
    Only the lower triangle (``k <= i``) is mapped, in one array of two
    blocks (see :meth:`blocks`): the band rows' block, within ``kd`` of
    its diagonal, in LAPACK's lower band storage, a ``(kd + 1, m -
    border)`` column-major array whose entry ``(r - c, c)`` is ``M_rc``;
    then the border, a ``(border, m)`` array whose row ``b`` holds row ``m
    - border + b`` up to the diagonal.
    """

    m: int
    col: np.ndarray
    val: np.ndarray
    T: sp.csr_array
    diag: np.ndarray
    perm: np.ndarray
    kd: int
    border: int = 0
    elim: Elimination = None

    def assemble(self, d):
        """The lower triangle of ``A1 @ diag(d) @ A1.T`` in the order
        ``perm``, a fresh array in the map's layout, and its diagonal,
        with the roundings of scipy's ``A1.multiply(d) @ A1.T``."""
        ad = d.take(self.col)
        ad *= self.val
        values = matvec(self.T, ad)
        return values, values[self.diag]

    def blocks(self, values):
        """Views of the band and the border in what :meth:`assemble` made."""
        nb = self.m - self.border
        cut = (self.kd + 1) * nb
        return (values[:cut].reshape((self.kd + 1, nb), order="F"),
                values[cut:].reshape(self.border, self.m))


def _terms(At, kd, nb):
    # Entry e of At (a _Columns, each column's rows ascending) leads the
    # terms that pair it with entries first[e], ..., e of its column: each
    # term's slot (see ProductMap), its entry e and its coefficient A_kj.
    # The slots and entries are int32 where every slot and term fits, the
    # index type scipy picks for T.
    indptr, indices, count = At.indptr, At.indices, At.count
    m = At.shape[1]
    first = indptr[:-1].repeat(count)
    lead = np.arange(1, indices.size + 1) - first
    start = lead.cumsum() - lead
    size = int(lead.sum())
    idx = np.int32
    if max((kd + 1) * nb + (m - nb) * m, size) > np.iinfo(idx).max:
        idx = np.int64
    indices = indices.astype(idx, copy=False)
    term = np.arange(indices.size, dtype=idx).repeat(lead)
    other = np.arange(size, dtype=idx)
    other -= (start - first).astype(idx).repeat(lead)
    # Term (i, k) of two band rows goes to slot k * (kd + 1) + (i - k) =
    # k * kd + i of the band.  Term (i, k) of a border row i goes to entry
    # (i - nb, k) of the border, which follows the band: slot (kd + 1) *
    # nb + (i - nb) * m + k.
    if nb == m:
        slot = (indices * kd).take(other)
        slot += indices.repeat(lead)
    else:
        # Row i's terms go to slots base[i] + step[i] * k.
        row = np.arange(m)
        base = np.where(row < nb, row, (kd + 1) * nb + (row - nb) * m)
        step = np.where(row < nb, kd, 1).astype(idx)
        slot = step.take(indices).repeat(lead)
        slot *= indices.take(other)
        slot += base.astype(idx).take(indices).repeat(lead)
    return slot, term, At.data.take(other)


def _search(graph, root, m):
    # One breadth-first search of the row-column graph from row `root`:
    # the visiting order, each node's predecessor, the eccentricity of
    # `root` among the rows and the deepest row level.  Rows (nodes below
    # m) and columns alternate level by level, so a level ends where the
    # kind of node changes.
    order, pred = breadth_first_order(graph, root)
    row = order < m
    cuts = np.flatnonzero(row[1:] != row[:-1]) + 1
    deep = cuts.size & ~1
    last = order[cuts[deep - 1] if deep else 0:
                 cuts[deep] if deep < cuts.size else None]
    return order, pred, deep // 2, last


def _cuthill_mckee(graph, root, m, degree):
    # George and Liu's sweep for a pseudo-peripheral start: move to a row
    # of least degree in the deepest level while that deepens the search.
    # The last search is the Cuthill-McKee order from that start.
    order, pred, depth, last = _search(graph, root, m)
    while True:
        x = last[np.argmin(degree[last])]
        if x == root:
            return order, pred
        root = x
        order, pred, deeper, last = _search(graph, root, m)
        if deeper <= depth:
            return order, pred
        depth = deeper


class _Columns(NamedTuple):
    # The arrays of a CSR matrix with the columns of A as rows, such as At,
    # and the entry count of each column.
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple
    count: np.ndarray


def _columns(At):
    return _Columns(At.data, At.indices, At.indptr, At.shape,
                    At.indptr[1:] - At.indptr[:-1])


class _Links(NamedTuple):
    # The entries of the linking columns of the rows of A (the columns of
    # two or more entries, the only ones that link rows), column by
    # column: each one's row and its column's rank among the linking
    # columns.  Then each linking column's entry count, and each row's
    # degree, its entries in linking columns.
    rows: np.ndarray
    col: np.ndarray
    count: np.ndarray
    degree: np.ndarray


def _links(At):
    # The _Links of At, a _Columns.
    linking = At.count > 1
    rows = At.indices[linking.repeat(At.count)]
    count = At.count[linking]
    return _Links(rows, np.arange(count.size).repeat(count), count,
                  np.bincount(rows, minlength=At.shape[1]))


def _drop(At, out):
    # At (a _Columns) without the rows marked `out`, its _Links and the
    # rows it keeps, which keep their order, so every column stays sorted.
    stay = ~out
    new = stay.cumsum(dtype=At.indices.dtype) - 1
    kept = stay.take(At.indices)
    # Each column's kept entries start at the count of kept entries before
    # it; the positions of the kept entries gather them, as numpy gathers
    # by index faster than by mask.
    before = np.zeros(kept.size + 1, np.intp)
    np.cumsum(kept, out=before[1:])
    indptr = before.take(At.indptr)
    at = kept.nonzero()[0]
    keep = stay.nonzero()[0]
    rest = _Columns(At.data.take(at), new.take(At.indices.take(at)), indptr,
                    (At.shape[0], keep.size), indptr[1:] - indptr[:-1])
    return rest, _links(rest), keep


def _rcm_order(links):
    # Reverse Cuthill-McKee order of the rows of A (links is its _Links),
    # the half-width of M in that order and each row's position in it,
    # without forming |A| @ |A|.T.  The search runs on the bipartite graph
    # of the rows of A and its linking columns: node r < m is row r, node
    # m + c the linking column of rank c.
    rows, col, count, degree = links
    m, n = degree.size, count.size
    # A row of degree 0 is a component of its own, which the loop below
    # would start first, in index order: number them so without a search.
    parts = [(degree == 0).nonzero()[0]]
    if parts[0].size == m:
        return parts[0][::-1], 0, (m - 1) - parts[0]
    # Each row's columns by rank: the entries sorted stably by row.  In
    # the narrowest unsigned type that holds a row number numpy sorts by
    # radix, up to 65536 rows.
    by_row = rows.astype(np.min_scalar_type(m - 1)).argsort(kind="stable")
    # In int32, the index type of scipy's graph routines, so that scipy
    # takes the arrays as they are.
    graph = sp.csr_array(
        (np.ones(2 * rows.size),
         np.concatenate([col.take(by_row) + m, rows], dtype=np.intc),
         np.concatenate([[0], degree.cumsum(), count.cumsum() + rows.size],
                        dtype=np.intc)),
        shape=(m + n, m + n))
    # One start per connected component, at its row of least degree;
    # numbered rows, the isolated ones first, get a degree no row has.
    rest = degree.copy()
    rest[parts[0]] = n + 1
    first, root = None, rest.argmin()
    while rest[root] <= n:
        order, pred = _cuthill_mckee(graph, root, m, degree)
        parts.append(order[order < m])
        rest[parts[-1]] = n + 1
        root = rest.argmin()
        # A search marks the nodes it does not reach with a negative
        # predecessor, so the maximum keeps each node's own.
        first = pred if first is None else np.maximum(first, pred)
    order = np.concatenate(parts)
    # A column's first row in the order is the one whose visit reached
    # it, its predecessor, so the widest spread of rows within a column,
    # the half-width, is the largest distance from a row to that one.
    at = np.empty(m, np.intp)
    at[order] = np.arange(m)
    kd = (at.take(rows) - at.take(first[m:]).repeat(count)).max(initial=0)
    return order[::-1], int(kd), (m - 1) - at


def _refine(links, perm, kd, at):
    # The order perm of the rows of A (links is its _Links), its
    # half-width kd and each row's position at, refined by averaging
    # sweeps (see map_products): the narrowest order seen and its
    # half-width.  An order is kept only if it is narrower, so with no
    # sweep that narrows, perm itself is returned.
    if not kd:
        return perm, kd
    m, n = perm.size, links.count.size
    # The linking entries' rows and the degrees, rows numbered by position
    # in perm, so that a stable sort breaks ties by that position.
    rows, col = at.take(links.rows), links.col
    degree = links.degree.take(perm)
    lone = (degree == 0).nonzero()[0]
    degree[lone] = 1
    position = np.arange(m, dtype=float)
    best = order = np.arange(m)
    stale = 0
    while stale < 2:
        mean = np.bincount(col, position.take(rows), n)
        mean /= links.count
        value = np.bincount(rows, mean.take(col), m)
        value /= degree
        value[lone] = position[lone]
        position = value
        last, order = order, value.argsort(kind="stable")
        stale += 1
        if (order == last).all():
            # The same order has the same half-width.
            continue
        new = np.empty(m, np.intp)
        new[order] = np.arange(m)
        # The widest spread of positions within one linking column.
        new = new.take(rows)
        high = np.zeros(n, np.intp)
        np.maximum.at(high, col, new)
        low = np.full(n, m, np.intp)
        np.minimum.at(low, col, new)
        width = int((high - low).max())
        if width < kd:
            best, kd, stale = order, width, 0
    return perm.take(best), kd


def _eliminate(At, links):
    # The rows that the factor eliminates (see Elimination), or None if no
    # row qualifies; links is the _Links of At.  Returns the _Columns of At
    # without their entries (the kept rows, renumbered in index order) and
    # its _Links, their Elimination, and the row of A of each kept row.
    # Until the kept rows are ordered, link_pos holds each link's row among
    # the kept rows, and gather only the eliminated row of each link.
    m = At.shape[1]
    indptr, indices, data, count = At.indptr, At.indices, At.data, At.count
    out = links.degree <= 1
    if not out.any():
        return None
    # Private entries: the one entry of a column.
    own_col = (count == 1).nonzero()[0]
    at = indptr.take(own_col)
    owner = indices.take(at)
    # An empty row or a row of explicit zeros would have a zero pivot.
    live = np.zeros(m, bool)
    live[indices[data != 0]] = True
    out &= live
    # Candidates of degree one, by their linking entry e: the first in its
    # column (in index order) is eliminated, and the others are kept.
    e = out.take(links.rows).nonzero()[0]
    rank = links.col.take(e)
    first = np.diff(rank, prepend=-1) != 0
    r = links.rows.take(e)
    out[r] = first
    e, rank = e[first], rank[first]
    elim = np.concatenate([r[first], (out & (links.degree == 0)).nonzero()[0]])
    if not elim.size:
        return None
    index = np.empty(m, np.intp)
    index[elim] = np.arange(elim.size)
    # The private entries of the eliminated rows.
    mine = out.take(owner)
    own_col, at, owner = own_col[mine], at[mine], owner[mine]
    At1, links1, keep = _drop(At, out)
    # The shared columns, and the links: their entries in At1.
    linking = count > 1
    shared = linking.nonzero()[0].take(rank)
    length = At1.count.take(shared)
    at_link = ((At1.indptr.take(shared) - length.cumsum() + length)
               .repeat(length) + np.arange(length.sum()))
    link_row = np.arange(shared.size).repeat(length)
    return At1, links1, Elimination(
        rows=elim, shared=shared, a=data[linking.repeat(count)].take(e),
        own_row=index.take(owner), own_col=own_col,
        own_sq=data.take(at) ** 2, link_row=link_row,
        link_pos=At1.indices.take(at_link), link_val=At1.data.take(at_link),
        gather=elim.take(link_row)), keep


def map_products(At):
    """Build the :class:`ProductMap` of ``A`` from ``At = A.T`` (CSR).

    First the rows of :class:`Elimination` are found and their entries
    dropped: what remains, the kept rows ``A1``, is ordered and mapped, so
    the normal matrix factored is the Schur complement ``A1 @ diag(dt) @
    A1.T`` on the kept rows.  With no row eliminated, ``A1`` is ``A``.

    The terms run over the columns ``j`` of ``A1`` in ascending order and,
    within a column, pair each entry ``A_ij`` with the entries up to its
    own row, so the terms of each slot come in ascending ``j``.  The rows
    of ``A1`` are in reverse Cuthill-McKee order (E. Cuthill and J. McKee,
    Proc. 24th ACM National Conference, 1969): a breadth-first search of
    the bipartite graph of its rows and its linking columns (columns of
    two or more entries), each row's columns visited in index order, from
    one start per connected component: a pseudo-peripheral row, found by
    George and Liu's sweep (A. George and J. W. H. Liu, ACM Trans. Math.
    Software 5(3), 1979) from the component's row of least degree (entries
    in linking columns), moving to a row of least degree in the deepest
    level while the search deepens.  The half-width ``kd`` is then the
    widest spread of new row numbers within one column of ``A1``, so the
    pattern of ``|A1| @ |A1|.T`` is never formed.

    The border (see the module docstring) holds the rows ranked first by
    degree, ties by row index, as many as :func:`_border` reads off their
    degrees.  The other rows are ordered as above on their own, and the
    border follows them in rank order.  On a transport plan the border is
    the supply rows; the demand rows left share no linking column, so
    their band has half-width 0 and holds them in descending index.

    The order of the band rows is then refined by averaging sweeps,
    starting from their positions in that order (a band of half-width 0
    needs none).  In a sweep, each linking column takes the mean position
    of its rows, each row takes the mean over its linking columns (a row
    with none keeps its position), and the rows are sorted by that mean,
    ties by their reverse Cuthill-McKee position; the means are the next
    sweep's positions, and the half-width is read off the linking columns
    again.  The narrowest order seen is kept, so the band is never wider
    than in reverse Cuthill-McKee order, and unchanged where no sweep
    narrows it; two sweeps in a row that do not narrow it end the
    refinement.  Each breadth-first level of a staircase's kept rows holds
    one period (30 rows), so a level-by-level order stays near two periods
    wide (57); the sweeps bring the band to 32.
    """
    if not At.has_canonical_format:
        At = sp.csr_array(At, copy=True)
        At.sum_duplicates()
    At = _columns(At)
    links = _links(At)
    found = _eliminate(At, links)
    return _map(*found) if found else _map(At, links)


def _border(degree):
    # The size of the border, from the degrees of the rows in rank order
    # (most first): i + 1 for the first i whose degree is at least four
    # times both the next row's and i + 1, or 0 where no i is.
    ahead = np.maximum(degree[1:], np.arange(1, degree.size))
    first = (degree[:-1] >= 4 * ahead).nonzero()[0]
    return int(first[0]) + 1 if first.size else 0


def _map(At, links, elim=None, keep=None):
    # The ProductMap of At's rows, which are the rows keep of A when elim
    # is given (see map_products); links is the _Links of At.
    m = At.shape[1]
    count = At.count
    # The rows by rank: most entries in linking columns first.
    rank = (-links.degree).argsort(kind="stable")
    border = _border(links.degree.take(rank))
    band = links
    if border:
        out = np.zeros(m, bool)
        out[rank[:border]] = True
        band, rows = _drop(At, out)[1:]
    perm, kd, at = _rcm_order(band)
    perm, kd = _refine(band, perm, kd, at)
    if border:
        # The band rows in their own order, then the border by rank.
        perm = np.concatenate([rows.take(perm), rank[:border]])
    at = np.empty(m, np.intp)
    at[perm] = np.arange(m)
    col = np.arange(At.shape[0], dtype=np.int32).repeat(count)
    # With the rows of A renumbered in the order perm, each column's
    # entries up to its own row give the lower triangle in that order, so
    # each column's entries are sorted by their new row: by the key
    # (column, new row), whose columns already come in order, which
    # numpy's stable sort (timsort) exploits.
    pos = at.take(At.indices)
    key = col * np.int64(m)
    key += pos
    order = key.argsort(kind="stable")
    At = _Columns(At.data.take(order), pos.take(order), At.indptr,
                  At.shape, count)
    nb = m - border
    slot, term, coef = _terms(At, kd, nb)
    base = (kd + 1) * nb
    diag = np.concatenate([np.arange(0, base, kd + 1),
                           np.arange(border) * (m + 1) + (base + nb)])
    if elim is not None:
        # at[r] is the position of row r of At in the order perm.
        perm = keep.take(perm)
        elim = elim._replace(
            link_pos=at.take(elim.link_pos),
            gather=np.concatenate([perm, elim.rows, elim.gather]))
    return ProductMap(m=m, col=col, val=At.data,
                      T=_csr(coef, slot, term, (base + border * m, col.size)),
                      diag=diag, perm=perm, kd=kd, border=border, elim=elim)


def _cholesky(pm, values):
    # The band's Cholesky factor L (in place: a retry assembles values
    # again) and, with a border [C.T, E], W = L^-1 @ C, U = L^-T @ W and
    # the Cholesky factor of E - W.T @ W.  pbtrf and potrf fail only on a
    # matrix that is not positive definite; tbtrs cannot, after pbtrf.
    band, border = pm.blocks(values)
    c, info = _pbtrf(band, lower=1, overwrite_ab=1)
    W = U = schur = None
    if pm.border and info == 0:
        nb = band.shape[1]
        W = U = border[:, :nb].T
        if nb:
            # Not on an empty band: tbtrs takes the zero leading dimension
            # of several right-hand sides and writes out of bounds.
            W = _tbtrs(c, W, uplo="L")[0]
            U = _tbtrs(c, W, uplo="L", trans="T")[0]
        schur, info = _potrf(border[:, nb:] - W.T @ W, lower=1,
                             overwrite_a=1, clean=0)
    if info != 0:
        raise scipy.linalg.LinAlgError("not positive definite")
    return c, W, U, schur


def factor(lp, p, q):
    """Factor the normal matrix ``M = A @ diag(p / q) @ A.T`` of ``lp``.

    The rows of the problem's :class:`Elimination` (``lp.product_map.elim``)
    are eliminated first: with ``d = p / q``, their pivots ``Delta`` and
    the scaling ``dt`` (``d``, but ``dt_j = d_j * delta_r / Delta_r`` at
    each shared column ``j``) leave the Schur complement ``S = A1 @
    diag(dt) @ A1.T`` on the kept rows.  ``S`` is assembled from the
    problem's :class:`ProductMap` (``lp.product_map``, built on the first
    call and kept with the problem), bit for bit as scipy's
    ``A1.multiply(dt) @ A1.T``, in the map's order ``perm``, and factored
    as a band with, where a few rows are much denser than the others, a
    border (see the module docstring).  The factor still solves the full
    ``M @ y = w``: the eliminated rows' right-hand side is folded into the
    kept rows', one solve with ``S`` gives their ``y`` in the order
    ``perm``, and back-substitution gives the eliminated rows' ``y``.
    With no row eliminated, ``S`` is ``M``.

    The LAPACK input is not checked for finiteness: ``|S_ik| <= (S_ii +
    S_kk) / 2``, so the guard on the diagonal and the pivots, which raises
    ``NumericalError``, covers every entry.  If ``pbtrf`` or ``potrf``
    fails, or an eliminated row's pivot is zero (``d`` underflowed), the
    factorization is retried once on the same layout for ``M`` plus a
    small regularization on its diagonal: the eliminated rows take it into
    their pivots and ``dt``, and ``S`` on its diagonal.

    Parameters
    ----------
    lp : StandardLP
        Problem whose ``A`` (full row rank) and ``At`` define the system.
    p, q : ndarray, shape (n,)
        Strictly positive scaling vectors.

    Returns
    -------
    NewtonFactor
        Holds ``lp.A``, ``lp.At``, ``p`` and ``q`` by reference; its
        ``dense`` is True when the map has no border.

    Raises
    ------
    ValueError
        If ``p`` or ``q`` has a nonpositive entry.
    NumericalError
        If the normal matrix is not finite, or if the factorization fails
        even after one diagonally regularized retry (rank-deficient ``A``
        or catastrophic scaling).
    """
    A, At = lp.A, lp.At
    p, q = _check_scaling(A, p, q)
    pm = lp.product_map
    el = pm.elim
    # |S_ik| <= (S_ii + S_kk) / 2, so a finite diagonal and finite pivots
    # mean finite M; an overflow here is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = dt = p / q
        if el is not None:
            dt, pivots, weights = el.reduce(d)
        values, diagonal = pm.assemble(dt)
        top = diagonal.max(initial=1.0)
        if el is not None:
            top = pivots.max(initial=top)
        reg = 1e-12 * top
    if not math.isfinite(reg):
        raise NumericalError("normal matrix is not finite")

    try:
        # A zero pivot (an underflow in d) fails as a singular S would.
        if el is not None and not pivots.min(initial=1.0) > 0:
            raise scipy.linalg.LinAlgError
        c, _, U, schur = _cholesky(pm, values)
    except scipy.linalg.LinAlgError:
        # One regularized retry on the same layout, for M + reg * I: the
        # eliminated rows take reg into their pivots and dt, S is
        # assembled again, as pbtrf overwrote its band, and reg shifts the
        # diagonal slots.
        if el is not None:
            dt, pivots, weights = el.reduce(d, reg)
        values = pm.assemble(dt)[0]
        values[pm.diag] += reg
        try:
            c, _, U, schur = _cholesky(pm, values)
        except scipy.linalg.LinAlgError:
            raise NumericalError("normal matrix factorization failed") \
                from None

    # Nonfinite solutions are left to solve_block's residual guard.
    m, m1 = A.shape[0], pm.m
    nb = m1 - pm.border
    gather = pm.perm if el is None else el.gather
    order = gather[:m]

    def solve(rhs):
        # One gather: the kept rows' right-hand side in the order perm,
        # then the eliminated rows' and the links' sources.
        g = rhs[gather]
        w = g[:m1]
        if el is not None:
            # Fold the eliminated rows into the kept rows' right-hand side.
            w -= np.bincount(el.link_pos, weights * g[m:], m1)
        if U is None:
            w[:] = _pbtrs(c, w, lower=1, overwrite_b=1)[0]
        else:
            # The border rows solve the Schur complement with w2 - C.T @
            # B^-1 @ w1 = w2 - U.T @ w1, and the band rows get B^-1 @ w1 -
            # U @ w2, in place; dot, as matmul is slow on one border row.
            w1, w2 = w[:nb], w[nb:]
            w2 -= U.T.dot(w1)
            w2[:] = _potrs(schur, w2, lower=1, overwrite_b=1)[0]
            w1[:] = _pbtrs(c, w1, lower=1, overwrite_b=1)[0]
            w1 -= U.dot(w2)
        if el is not None:
            # Back-substitute the eliminated rows.
            y2 = g[m1:m]
            y2 /= pivots
            y2 -= np.bincount(el.link_row, weights * w.take(el.link_pos),
                              y2.size)
        y = np.empty(m)
        y[order] = g[:m]
        return y
    return NewtonFactor(dense=not pm.border, A=A, At=At, p=p, q=q,
                        _solve=solve)


# Every value solve_block computes reaches its residual guard, which turns
# an overflow (an infinite tolerance or a nonfinite residual) into
# NumericalError, so numpy need not warn about it.
@np.errstate(over="ignore", invalid="ignore")
def solve_block(fac, r1, r2, r3):
    """Solve the Newton block system that ``fac`` factored.

    Parameters
    ----------
    fac : NewtonFactor
        Factor built by :func:`factor`; it supplies ``A``, ``p`` and ``q``.
    r1, r2, r3 : ndarray
        Right-hand sides of the three block rows (lengths m, n, n).

    Returns
    -------
    dx, dlam, ds : ndarray

    Raises
    ------
    ValueError
        On shape mismatches.
    NumericalError
        If ``||rhs||`` is not finite, or if a backward residual exceeds
        ``1e-8 * (1 + ||rhs||)`` after up to three refinement passes with
        the same factor.
    """
    A, At, p, q = fac.A, fac.At, fac.p, fac.q
    m, n = A.shape
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    r3 = np.asarray(r3, dtype=float)
    if r1.shape != (m,) or r2.shape != (n,) or r3.shape != (n,):
        raise ValueError("right-hand side shapes do not match A")

    # In place, with the operations of w = r1 - A @ ((r3 - p * r2) / q)
    # and dx = (r3 - p * ds) / q in their order.
    v = p * r2
    np.subtract(r3, v, out=v)
    v /= q
    w = matvec(A, v)
    np.subtract(r1, w, out=w)
    dlam = fac.solve(w)
    At_dlam = matvec(At, dlam)
    ds = r2 - At_dlam
    dx = np.multiply(p, ds, out=v)
    np.subtract(r3, dx, out=dx)
    dx /= q

    rhs_norm = math.sqrt(r1 @ r1 + r2 @ r2 + r3 @ r3)
    tol = _RESIDUAL_TOL * (1.0 + rhs_norm)

    def worst_residual(dx_, At_dlam_, ds_):
        # A @ dx - r1, At_dlam + ds - r2 and q * dx + p * ds - r3, in place.
        res1 = matvec(A, dx_)
        res1 -= r1
        res2 = At_dlam_ + ds_
        res2 -= r2
        res3 = q * dx_
        res3 += p * ds_
        res3 -= r3
        norms = (norm(res1), norm(res2), norm(res3))
        # nan when any of the three is (max alone keeps its first argument
        # when a later one is nan); norms are not negative, so their sum
        # is nan only then.
        return math.nan if math.isnan(sum(norms)) else max(norms)

    worst = worst_residual(dx, At_dlam, ds)
    # Refine with the same factor while the residual is above tolerance
    # and still falling.  Back-substitution satisfies the second and third
    # block rows exactly, so each pass solves for the first-row defect
    # alone and adds the correction to the current solution; recomputing
    # ds and dx from scratch would scale the rounding in ds by p / q,
    # which reaches 1e10.
    last = np.inf
    for _ in range(_MAX_REFINEMENTS):
        if worst <= tol or not worst < last:
            break
        dl = fac.solve(r1 - matvec(A, dx))
        At_dl = matvec(At, dl)
        dlam = dlam + dl
        ds = ds - At_dl
        dx = dx + (p / q) * At_dl
        last, worst = worst, worst_residual(dx, matvec(At, dlam), ds)
    if not worst <= tol < np.inf:
        raise NumericalError(
            "block solve residual %.3e exceeds tolerance %.3e"
            % (worst, tol))
    return dx, dlam, ds
