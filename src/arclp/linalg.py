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
(:func:`map_products`, cached as ``StandardLP.product_map``): every term
``A_ij * A_kj`` with the slot of ``(i, k)`` in a fixed layout, so each
assembly is a gather of ``dt``, a repeat and one ``np.bincount`` of
``(A_ij * dt_j) * A_kj``.  The terms of a slot are summed in ascending
``j``, as scipy's sparse product sums them, so every entry the map
assembles is bit for bit that of scipy's ``A1.multiply(dt) @ A1.T``.

The map also decides the factor path, from the half-width ``kd`` of
``S`` in a reverse Cuthill-McKee order of the rows of ``A1``, found
without forming the pattern of ``|A1| @ |A1|.T``: a breadth-first search
of the graph of ``A1``'s rows and columns from a pseudo-peripheral row of
each connected component (George and Liu's sweep), with ``kd`` the widest
spread of new row numbers within one column of ``A1``.  If
``kd < DENSE_LIMIT`` (always so up to ``DENSE_LIMIT`` rows), the map
fills the lower band of ``S`` in LAPACK's band storage, which ``pbtrf``
factors by Cholesky in place and ``pbtrs`` solves with.  A wider band (a
dense linking row makes it nearly ``m``) gets a sparse map of the CSC
pattern of ``|A1| @ |A1|.T`` in one minimum-degree row order instead,
factored by sparse LU in that order with diagonal pivots, so every
factorization of a problem has the same fill.  Both paths retry once, on
the same pattern, with a small diagonal regularization before giving up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

_pbtrf, _pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"),
                                               dtype=np.float64)

__all__ = ["NumericalError", "NewtonFactor", "ProductMap", "map_products",
           "factor", "solve_block", "norm", "DENSE_LIMIT"]

DENSE_LIMIT = 200

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


@dataclass(frozen=True)
class NewtonFactor:
    """Factorization of ``M = A @ diag(p / q) @ A.T`` with the system it
    solves.

    ``A``, ``At``, ``p`` and ``q`` are the caller's arrays, not copies:
    they must not change while the factor is in use.  Build a new factor
    per scaling pair.  ``dense`` is True when LAPACK's band Cholesky
    factored the kept rows' Schur complement and False when sparse LU
    did; :meth:`solve` solves with the full ``M``, eliminated rows
    included.
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
    if (p <= 0).any() or (q <= 0).any():
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
    ``A_ij = val[e]`` with ``j = col[e]`` and leads the next ``lead[e]``
    terms, one per entry ``A_kj`` of its column.  Term ``t`` is
    ``(A_ij * d_j) * coef[t]`` with ``coef[t] = A_kj``, and it is summed
    into slot ``slot[t]`` of ``(i, k)``; the terms of a slot come in
    ascending ``j``.  ``diag`` holds the slot of each diagonal entry, in
    the assembled matrix's row order.  Rows and columns are in the order
    ``perm`` (row ``r`` of the assembled matrix is row ``perm[r]`` of
    ``A``), in one of two layouts:

    * band (``kd`` is set): only the terms with ``k <= i`` are mapped, so
      the lower triangle, diagonal included and all within ``kd`` of the
      diagonal, is laid out in LAPACK's lower band storage, a
      ``(kd + 1, m)`` column-major array whose entry ``(r - c, c)`` is
      ``M_rc``;
    * sparse (``kd`` is ``None``): the slots are those of the CSC pattern
      ``indptr``/``indices`` of ``|A1| @ |A1|.T`` plus the diagonal, both
      triangles.
    """

    m: int
    col: np.ndarray
    val: np.ndarray
    lead: np.ndarray
    coef: np.ndarray
    slot: np.ndarray
    diag: np.ndarray
    perm: np.ndarray
    kd: int = None
    indptr: np.ndarray = None
    indices: np.ndarray = None
    elim: Elimination = None

    def assemble(self, d):
        """``A1 @ diag(d) @ A1.T`` in the order ``perm`` (a fresh band
        array for a band map, CSC for a sparse one) and its diagonal, with
        the roundings of scipy's ``A1.multiply(d) @ A1.T``."""
        ad = d.take(self.col)
        ad *= self.val
        terms = np.repeat(ad, self.lead)
        terms *= self.coef
        band = self.kd is not None
        values = np.bincount(
            self.slot, weights=terms,
            minlength=((self.kd + 1) * self.m if band
                       else self.indices.size))
        if band:
            M = values.reshape((self.kd + 1, self.m), order="F")
        else:
            M = sp.csc_array((values, self.indices, self.indptr),
                             shape=(self.m, self.m))
        return M, values[self.diag]


def _terms(At, lower, stride):
    # Entry e of At (a _Columns) leads the terms that pair it with entries
    # first[e], first[e] + 1, ... of its row (a column of A): up to its own
    # position when `lower`, else all of them.  Returns each entry's lead
    # and, for each term of rows i and k, the key k * stride + i and the
    # coefficient A_kj.
    indptr, indices, count = At.indptr, At.indices, At.count
    first = indptr[:-1].repeat(count)
    lead = (np.arange(1, indices.size + 1) - first if lower
            else count.repeat(count))
    start = lead.cumsum() - lead
    other = np.arange(int(lead.sum()), dtype=np.int32)
    other -= (start - first).astype(np.int32).repeat(lead)
    key = (indices.astype(np.intp) * stride).take(other)
    key += indices.repeat(lead)
    return lead, key, At.data.take(other)


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


def _rcm_order(At):
    # Reverse Cuthill-McKee order of the rows of A (At is a _Columns), the
    # half-width of M in that order and each row's position in it, without
    # forming |A| @ |A|.T.  The search runs on the bipartite graph of the
    # rows of A and its columns of two or more entries, the only ones that
    # link rows: node r < m is row r, node m + c the linking column of rank
    # c in ascending entry count, so every row lists its columns, as the
    # search visits them, fewest entries first.
    m = At.shape[1]
    count = At.count
    col_of = (count > 1).nonzero()[0]
    col_of = col_of.take(count.take(col_of).argsort(kind="stable"))
    count = count.take(col_of)
    n = count.size
    ptr = np.zeros(n + 1, count.dtype)
    count.cumsum(out=ptr[1:])
    rows = At.indices.take((At.indptr.take(col_of) - ptr[:-1]).repeat(count)
                           + np.arange(ptr[-1]))
    # A row's degree: its entries in linking columns.
    degree = np.bincount(rows, minlength=m)
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
         np.concatenate([np.arange(m, m + n, dtype=np.intc).repeat(count)
                         .take(by_row), rows], dtype=np.intc),
         np.concatenate([[0], degree.cumsum(), ptr[1:] + rows.size],
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


def _eliminate(At):
    # The rows that the factor eliminates (see Elimination), or None if no
    # row qualifies.  Returns the _Columns of At without their entries, the
    # kept rows renumbered in index order, their Elimination, and the row
    # of A of each kept row.  Until the kept rows are ordered, link_pos
    # holds each link's row among the kept rows, and gather only the
    # eliminated row of each link.
    m = At.shape[1]
    indptr, indices, data = At.indptr, At.indices, At.data
    count = At.count
    # Each entry of At: is it in a linking column?  A row's degree counts
    # its entries that are.
    linking = (count > 1).repeat(count)
    degree = np.bincount(indices[linking], minlength=m)
    out = degree <= 1
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
    # Candidates of degree one, by their linking entry: the first in its
    # column (in index order) is eliminated, and the others are kept.
    at_shared = (linking & out.take(indices)).nonzero()[0]
    shared = indptr.searchsorted(at_shared, side="right") - 1
    first = np.ones(at_shared.size, bool)
    first[1:] = shared[1:] != shared[:-1]
    r = indices.take(at_shared)
    out[r] = first
    at_shared, shared = at_shared[first], shared[first]
    elim = np.concatenate([r[first], (out & (degree == 0)).nonzero()[0]])
    if not elim.size:
        return None
    index = np.empty(m, np.intp)
    index[elim] = np.arange(elim.size)
    # The private entries of the eliminated rows.
    mine = out.take(owner)
    own_col, at, owner = own_col[mine], at[mine], owner[mine]
    # At1: At without the eliminated rows' entries.  The kept rows keep
    # their order, so every column stays sorted.
    stay = ~out
    keep = stay.nonzero()[0]
    new = stay.cumsum(dtype=indices.dtype)
    new -= 1
    kept = stay.take(indices)
    count = count.copy()
    count[own_col] = 0
    count[shared] -= 1
    indptr = np.zeros(indptr.size, indptr.dtype)
    count.cumsum(out=indptr[1:])
    At1 = _Columns(data[kept], new.take(indices[kept]), indptr,
                   (At.shape[0], keep.size), count)
    # Links: the entries of the shared columns in At1.
    length = count.take(shared)
    at_link = ((indptr.take(shared) - length.cumsum() + length).repeat(length)
               + np.arange(length.sum()))
    link_row = np.arange(shared.size).repeat(length)
    return At1, Elimination(
        rows=elim, shared=shared, a=data.take(at_shared),
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
    within a column, over pairs of its entries, so the terms of each slot
    come in ascending ``j``.  The half-width ``kd`` of the matrix in
    reverse Cuthill-McKee order (E. Cuthill and J. McKee, Proc. 24th ACM
    National Conference, 1969) alone picks the layout.  The order numbers
    the rows of ``A1`` by breadth-first search of the bipartite graph of
    its rows and its columns of two or more entries, each row's columns
    visited in ascending entry count, from one start per connected
    component: a pseudo-peripheral row, found by George and Liu's sweep
    (A. George and J. W. H. Liu, ACM Trans. Math. Software 5(3), 1979)
    from the component's row of least degree (entries in those columns),
    moving to a row of least degree in the deepest level while the search
    deepens.  ``kd`` is then the widest spread of new row numbers within
    one column of ``A1``, so the pattern of ``|A1| @ |A1|.T`` is never
    formed.  If ``kd < DENSE_LIMIT`` the map is a band map in that order,
    which pairs each entry ``A_ij`` with the entries of its column up to
    and including its own row.  Otherwise it is sparse and pairs every two
    entries of a column: it keeps an explicit slot for an entry whose
    terms cancel, where scipy's product drops it, so every ``d > 0`` gives
    the same pattern.  One minimum-degree ordering of that pattern
    (SuperLU's ``MMD_AT_PLUS_A``, on unit entries with ``m + 1`` on the
    diagonal, a strictly diagonally dominant matrix whose LU cannot fail)
    then serves every factorization of the problem, and the slots are laid
    out in that order.
    """
    if not At.has_canonical_format:
        At = sp.csr_array(At, copy=True)
        At.sum_duplicates()
    At = _columns(At)
    found = _eliminate(At)
    if found is None:
        return _map(At)
    return _map(*found)


def _map(At, elim=None, keep=None):
    # The ProductMap of At's rows, which are the rows keep of A when elim
    # is given (see map_products).
    m = At.shape[1]
    perm, kd, at = _rcm_order(At)
    count = At.count
    col = np.arange(At.shape[0], dtype=np.int32).repeat(count)
    if kd < DENSE_LIMIT:
        # With the rows of A renumbered in the order perm, each column's
        # entries up to its own row give the lower triangle in that order,
        # so each column's entries are sorted by their new row: by the key
        # (column, new row), whose columns already come in order, which
        # numpy's stable sort (timsort) exploits.
        pos = at.take(At.indices)
        key = col * np.int64(m)
        key += pos
        order = key.argsort(kind="stable")
        At = _Columns(At.data.take(order), pos.take(order), At.indptr,
                      At.shape, count)
        # Term (i, k) goes to slot k * (kd + 1) + (i - k) = k * kd + i of
        # the band; slots are intp, which np.bincount takes without a copy.
        lead, slot, coef = _terms(At, True, kd)
        layout = dict(slot=slot, diag=np.arange(0, m * (kd + 1), kd + 1),
                      kd=kd)
    else:
        # CSC keys k * m + i sort column by column, rows ascending.
        lead, keys, coef = _terms(At, False, m)
        keys = np.concatenate([np.arange(m, dtype=np.intp) * (m + 1), keys])
        pattern, slot = np.unique(keys, return_inverse=True)
        del keys
        rows, cols = pattern % m, pattern // m
        at = spla.splu(
            sp.csc_array((np.where(rows == cols, m + 1.0, 1.0), rows,
                          np.searchsorted(pattern, np.arange(m + 1) * m)),
                         shape=(m, m)),
            permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True}).perm_c
        perm = np.argsort(at)
        # Relabel the slots into that order: entry (r, c) moves to
        # (at[r], at[c]), and its new slot is the rank of its new key.
        keys = at[cols].astype(np.int64) * m + at[rows]
        order = np.argsort(keys)
        keys = keys[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        layout = dict(
            slot=rank[slot[m:]],
            diag=np.searchsorted(keys, np.arange(m) * (m + 1)),
            indptr=np.searchsorted(keys, np.arange(m + 1) * m).astype(
                np.int32),
            indices=(keys % m).astype(np.int32))
    if elim is not None:
        # at[r] is the position of row r of At in the order perm.
        perm = keep.take(perm)
        elim = elim._replace(
            link_pos=at.take(elim.link_pos),
            gather=np.concatenate([perm, elim.rows, elim.gather]))
    return ProductMap(m=m, col=col, val=At.data, lead=lead, coef=coef,
                      perm=perm, elim=elim, **layout)


def _splu_in_order(M):
    # M is symmetric positive definite (up to regularization) and already
    # in fill-reducing order: keep that order and pivot on the diagonal,
    # so the fill is fixed by the pattern, not by the data.
    return spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _band_cholesky(M):
    # pbtrf factors the fresh band array in place: the regularized retry
    # assembles it again.  Its info is nonzero only if M is not positive
    # definite, as M's shape and dtype are fixed.
    c, info = _pbtrf(M, lower=1, overwrite_ab=1)
    if info != 0:
        raise scipy.linalg.LinAlgError("not positive definite")
    return c


def factor(lp, p, q):
    """Factor the normal matrix ``M = A @ diag(p / q) @ A.T`` of ``lp``.

    The rows of the problem's :class:`Elimination` (``lp.product_map.elim``)
    are eliminated first: with ``d = p / q``, their pivots ``Delta`` and
    the scaling ``dt`` (``d``, but ``dt_j = d_j * delta_r / Delta_r`` at
    each shared column ``j``) leave the Schur complement ``S = A1 @
    diag(dt) @ A1.T`` on the kept rows.  ``S`` is assembled from the
    problem's :class:`ProductMap` (``lp.product_map``, built on the first
    call and kept with the problem), bit for bit as scipy's
    ``A1.multiply(dt) @ A1.T``, in the map's order ``perm``.  A band map's
    lower band is factored in place by LAPACK's ``pbtrf`` and solved by
    ``pbtrs``; a sparse map's fixed CSC pattern is factored by SuperLU in
    that order with diagonal pivots (see :func:`map_products`).  The
    factor still solves the full ``M @ y = w``: the eliminated rows'
    right-hand side is folded into the kept rows', one solve with ``S``
    gives their ``y`` in the order ``perm``, and back-substitution gives
    the eliminated rows' ``y``.  With no row eliminated, ``S`` is ``M``.

    The LAPACK input is not checked for finiteness: ``|S_ik| <= (S_ii +
    S_kk) / 2``, so the guard on the diagonal and the pivots, which raises
    ``NumericalError``, covers every entry.  If the factorization fails,
    or an eliminated row's pivot is zero (``d`` underflowed), it is
    retried once on the same pattern for ``M`` plus a small regularization
    on its diagonal: the eliminated rows take it into their pivots and
    ``dt``, and ``S`` on its diagonal.

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
        ``dense`` is True on the band path and False on the sparse one.

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
        M, diagonal = pm.assemble(dt)
        top = diagonal.max(initial=1.0)
        if el is not None:
            top = pivots.max(initial=top)
        reg = 1e-12 * top
    if not math.isfinite(reg):
        raise NumericalError("normal matrix is not finite")

    band = pm.kd is not None
    if band:
        decompose, failure = _band_cholesky, scipy.linalg.LinAlgError
    else:
        decompose, failure = _splu_in_order, RuntimeError
    try:
        # A zero pivot (an underflow in d) fails as a singular S would.
        if el is not None and not pivots.min(initial=1.0) > 0:
            raise failure
        fac = decompose(M)
    except failure:
        # One regularized retry on the same pattern, for M + reg * I: the
        # eliminated rows take reg into their pivots and dt, a band is
        # assembled again, as pbtrf overwrote it, and reg shifts the
        # diagonal slots.
        if el is not None:
            dt, pivots, weights = el.reduce(d, reg)
            M = pm.assemble(dt)[0]
        elif band:
            M = pm.assemble(d)[0]
        values = M.reshape(-1, order="F") if band else M.data
        values[pm.diag] += reg
        try:
            fac = decompose(M)
        except failure:
            raise NumericalError("normal matrix factorization failed") \
                from None

    # Nonfinite solutions are left to solve_block's residual guard.
    inner = ((lambda b: _pbtrs(fac, b, lower=1, overwrite_b=1)[0])
             if band else fac.solve)
    m, m1 = A.shape[0], pm.m
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
        w[:] = inner(w)
        if el is not None:
            # Back-substitute the eliminated rows.
            y2 = g[m1:m]
            y2 /= pivots
            y2 -= np.bincount(el.link_row, weights * w.take(el.link_pos),
                              y2.size)
        y = np.empty(m)
        y[order] = g[:m]
        return y
    return NewtonFactor(dense=band, A=A, At=At, p=p, q=q, _solve=solve)


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

    w = r1 - A @ ((r3 - p * r2) / q)
    dlam = fac.solve(w)
    At_dlam = At @ dlam
    ds = r2 - At_dlam
    dx = (r3 - p * ds) / q

    rhs_norm = math.sqrt(r1 @ r1 + r2 @ r2 + r3 @ r3)
    tol = _RESIDUAL_TOL * (1.0 + rhs_norm)

    def worst_residual(dx_, At_dlam_, ds_):
        norms = (norm(A @ dx_ - r1), norm(At_dlam_ + ds_ - r2),
                 norm(q * dx_ + p * ds_ - r3))
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
        dl = fac.solve(r1 - A @ dx)
        At_dl = At @ dl
        dlam = dlam + dl
        ds = ds - At_dl
        dx = dx + (p / q) * At_dl
        last, worst = worst, worst_residual(dx, At @ dlam, ds)
    if not worst <= tol < np.inf:
        raise NumericalError(
            "block solve residual %.3e exceeds tolerance %.3e"
            % (worst, tol))
    return dx, dlam, ds
