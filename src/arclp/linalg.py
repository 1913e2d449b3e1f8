"""Sparse normal-equations kernel for interior-point Newton systems.

Every search direction used by the solvers comes from one block system ::

    A @ dx                = r1
    A.T @ dlam + ds       = r2
    diag(q) @ dx + diag(p) @ ds = r3

with strictly positive scaling vectors ``p`` and ``q``.  Eliminating ``dx``
and ``ds`` reduces it to the m-by-m normal equations
``M @ dlam = r1 - A @ (r3 / q) + A @ ((p / q) * r2)`` with
``M = A @ diag(p / q) @ A.T``, factored once per scaling pair and reused
for every right-hand side at that iterate; the factor carries the system.

``M`` is assembled from one product map per problem
(:func:`map_products`, cached as ``StandardLP.product_map``): every term
``A_ij * A_kj`` with the slot of ``(i, k)`` in a fixed layout, so each
assembly is a gather of ``d``, a repeat and one ``np.bincount`` of
``(A_ij * d_j) * A_kj``.  The terms of a slot are summed in ascending
``j``, as scipy's sparse product sums them, so every entry the map
assembles is bit for bit that of scipy's ``A.multiply(d) @ A.T``.

The map also decides the factor path.  Problems with at most
``DENSE_LIMIT`` rows get a dense map of the lower triangle alone, the
only part Cholesky reads; it fills a dense ``M`` that LAPACK's ``potrf``
factors and ``potrs`` solves with, called directly.  Larger ones get a
sparse map whose slots are the CSC pattern of ``|A| @ |A|.T`` in one
fill-reducing row order ``perm`` per problem; ``M`` is factored by sparse
LU in that order, pivoting on the diagonal, so every factorization of a
problem has the same fill.  Both paths retry once, on the same pattern,
with a small diagonal regularization before giving up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"),
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
    """Factorization of ``A @ diag(p / q) @ A.T`` with the system it solves.

    ``A``, ``At``, ``p`` and ``q`` are the caller's arrays, not copies:
    they must not change while the factor is in use.  Build a new factor
    per scaling pair.
    """

    dense: bool
    A: sp.csr_array = field(repr=False)
    At: sp.csr_array = field(repr=False)
    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    _solve: object = field(repr=False)

    def solve(self, rhs):
        """Solve ``M @ y = rhs`` for one right-hand side."""
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


class ProductMap(NamedTuple):
    """Where each term of ``A @ diag(d) @ A.T`` goes, for every ``d``.

    The entries of ``A`` are taken column by column: entry ``e`` holds
    ``A_ij = val[e]`` with ``j = col[e]`` and leads the next ``lead[e]``
    terms, one per entry ``A_kj`` of its column.  Term ``t`` is
    ``(A_ij * d_j) * coef[t]`` with ``coef[t] = A_kj``, and it is summed
    into slot ``slot[t]`` of ``(i, k)``; the terms of a slot come in
    ascending ``j``.  A dense map (``perm`` is ``None``) has the row-major
    entries of the m-by-m matrix as slots and maps only the terms with
    ``k <= i``: it assembles the lower triangle, diagonal included, and
    leaves the upper one zero.  A sparse map's slots are those
    of the CSC pattern ``indptr``/``indices`` of ``|A| @ |A|.T`` plus the
    diagonal, with rows and columns in a fill-reducing order ``perm``:
    row ``r`` of the assembled matrix is row ``perm[r]`` of ``A``.
    ``diag`` holds the slot of each diagonal entry, in the assembled
    matrix's row order.
    """

    m: int
    col: np.ndarray
    val: np.ndarray
    lead: np.ndarray
    coef: np.ndarray
    slot: np.ndarray
    diag: np.ndarray
    perm: np.ndarray = None
    indptr: np.ndarray = None
    indices: np.ndarray = None

    def assemble(self, d):
        """``M = A @ diag(d) @ A.T`` (an ndarray for a dense map, CSC in
        the order ``perm`` for a sparse one) and its diagonal, with the
        roundings of scipy's ``A.multiply(d) @ A.T``."""
        ad = d.take(self.col)
        ad *= self.val
        terms = np.repeat(ad, self.lead)
        terms *= self.coef
        dense = self.perm is None
        values = np.bincount(self.slot, weights=terms,
                             minlength=self.m ** 2 if dense
                             else self.indices.size)
        if dense:
            M = values.reshape(self.m, self.m)
        else:
            M = sp.csc_array((values, self.indices, self.indptr),
                             shape=(self.m, self.m))
        return M, values[self.diag]


def map_products(At):
    """Build the :class:`ProductMap` of ``A`` from ``At = A.T`` (CSR).

    The terms run over the columns ``j`` of ``A`` in ascending order and,
    within a column, over pairs of its entries, so the terms of each slot
    come in ascending ``j``.  Up to ``DENSE_LIMIT`` rows the map is dense
    and pairs each entry ``A_ij`` with the entries of its column up to
    and including its own row, for which the duplicate entries of ``At``
    are summed and its rows sorted first.  Above it the map is sparse and
    pairs every two entries of a column: it keeps an explicit slot for an
    entry whose terms cancel, where scipy's product drops it, so every
    ``d > 0`` gives the same pattern.  One minimum-degree ordering of that
    pattern (SuperLU's ``MMD_AT_PLUS_A``, on unit entries with ``m + 1``
    on the diagonal, a strictly diagonally dominant matrix whose LU cannot
    fail) then serves every factorization of the problem, and the slots
    are laid out in that order.
    """
    n, m = At.shape
    dense = m <= DENSE_LIMIT
    if dense and not At.has_canonical_format:
        At = At.copy()
        At.sum_duplicates()
    count = np.diff(At.indptr)
    col = np.repeat(np.arange(n, dtype=np.int32), count)
    first = np.repeat(At.indptr[:-1], count)
    # Term t pairs the entry that leads it with entry `other` of the same
    # column: first[e], first[e] + 1, ... for the terms of entry e.  On
    # the dense path entry e leads the terms up to its own position.
    lead = (np.arange(At.nnz) - first + 1 if dense
            else np.repeat(count, count))
    start = np.cumsum(lead) - lead
    other = np.arange(int(lead.sum()), dtype=np.int32)
    other -= np.repeat((start - first).astype(np.int32), lead)
    del start, first
    i = np.repeat(At.indices, lead)
    k = At.indices[other]
    coef = At.data[other]
    del other
    # Slots are intp, which np.bincount takes without a copy.
    if dense:
        return ProductMap(m=m, col=col, val=At.data, lead=lead, coef=coef,
                          slot=i.astype(np.intp) * m + k,
                          diag=np.arange(m) * (m + 1))
    # CSC keys k * m + i sort column by column, rows ascending.
    keys = np.concatenate([np.arange(m, dtype=np.int64) * (m + 1),
                           k.astype(np.int64) * m + i])
    del i, k
    pattern, slot = np.unique(keys, return_inverse=True)
    del keys
    rows, cols = pattern % m, pattern // m
    perm_c = spla.splu(
        sp.csc_array((np.where(rows == cols, m + 1.0, 1.0), rows,
                      np.searchsorted(pattern, np.arange(m + 1) * m)),
                     shape=(m, m)),
        permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).perm_c
    # Relabel the slots into that order: entry (r, c) moves to
    # (perm_c[r], perm_c[c]), and its new slot is the rank of its new key.
    keys = perm_c[cols].astype(np.int64) * m + perm_c[rows]
    order = np.argsort(keys)
    keys = keys[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return ProductMap(
        m=m, col=col, val=At.data, lead=lead, coef=coef, slot=rank[slot[m:]],
        diag=np.searchsorted(keys, np.arange(m) * (m + 1)),
        perm=np.argsort(perm_c),
        indptr=np.searchsorted(keys, np.arange(m + 1) * m).astype(np.int32),
        indices=(keys % m).astype(np.int32))


def _splu_in_order(M):
    # M is symmetric positive definite (up to regularization) and already
    # in fill-reducing order: keep that order and pivot on the diagonal,
    # so the fill is fixed by the pattern, not by the data.
    return spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _cholesky(M):
    # potrf copies M, which the regularized retry needs intact, and reads
    # only its lower triangle.  Its info is nonzero only if M is not
    # positive definite, as M's shape and dtype are fixed.
    c, info = _potrf(M, lower=1, clean=0)
    if info != 0:
        raise scipy.linalg.LinAlgError("not positive definite")
    return c


def factor(lp, p, q):
    """Factor the normal matrix ``M = A @ diag(p / q) @ A.T`` of ``lp``.

    ``M`` is assembled from the problem's :class:`ProductMap`
    (``lp.product_map``, built on the first call and kept with the
    problem), bit for bit as scipy's ``A.multiply(p / q) @ A.T``.  A dense
    map fills the lower triangle of a dense array, which LAPACK's
    ``potrf`` factors by Cholesky and ``potrs`` solves with, called
    directly; the upper triangle is neither assembled nor read.  Their
    input is not checked for finiteness: ``|M_ik| <= (M_ii + M_kk) / 2``,
    so the guard on the diagonal, which raises ``NumericalError``, covers
    every entry.  A sparse map fills the fixed CSC pattern of
    ``|A| @ |A|.T`` with its rows and columns in the map's order ``perm``,
    which SuperLU factors in that order with diagonal pivots.  If the
    factorization fails, it is retried once on the same pattern with a
    small regularization added to the diagonal.

    Parameters
    ----------
    lp : StandardLP
        Problem whose ``A`` (full row rank) and ``At`` define the system.
    p, q : ndarray, shape (n,)
        Strictly positive scaling vectors.

    Returns
    -------
    NewtonFactor
        Holds ``lp.A``, ``lp.At``, ``p`` and ``q`` by reference.

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
    # |M_ik| <= (M_ii + M_kk) / 2, so a finite diagonal means finite M;
    # an overflow here is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        M, diagonal = pm.assemble(p / q)
        reg = 1e-12 * max(diagonal.max(), 1.0)
    if not math.isfinite(reg):
        raise NumericalError("normal matrix is not finite")

    # One regularized retry on either path, shifting M's diagonal slots in
    # place so that the retry factors the same pattern.
    dense = pm.perm is None
    if dense:
        decompose, failure = _cholesky, scipy.linalg.LinAlgError
        values = M.reshape(-1)
    else:
        decompose, failure, values = _splu_in_order, RuntimeError, M.data
    try:
        fac = decompose(M)
    except failure:
        values[pm.diag] += reg
        try:
            fac = decompose(M)
        except failure:
            raise NumericalError("normal matrix factorization failed") \
                from None

    # Nonfinite solutions are left to solve_block's residual guard.
    if dense:
        solve = lambda rhs: _potrs(fac, rhs, lower=1)[0]
    else:
        def solve(rhs, perm=pm.perm):
            y = np.empty(pm.m)
            y[perm] = fac.solve(rhs[perm])
            return y
    return NewtonFactor(dense=dense, A=A, At=At, p=p, q=q, _solve=solve)


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
