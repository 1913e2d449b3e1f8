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

``M`` is assembled from a product map built once per problem
(:func:`map_products`): every term ``A_ij * A_kj`` with the slot of
``(i, k)`` in a fixed layout, so each assembly is a gather of ``d``, a
repeat and one ``np.bincount`` of ``(A_ij * d_j) * A_kj``.  The terms of
a slot are summed in ascending ``j``, as scipy's sparse product sums
them, so ``M`` is bit for bit the ``A.multiply(d) @ A.T`` of scipy.

Problems with at most ``DENSE_LIMIT`` rows fill a dense ``M``
(``StandardLP.product_map``) and factor it by Cholesky.  Larger ones
fill the fixed CSC pattern of ``|A| @ |A|.T`` in one fill-reducing row
order per problem (:func:`order_rows`, cached as ``StandardLP.row_order``
with its own map) and factor it by sparse LU, pivoting on the diagonal,
so every factorization of a problem has the same fill.  Both paths retry
once with a small diagonal regularization before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumericalError", "NewtonFactor", "ProductMap", "map_products",
           "RowOrder", "order_rows", "factor", "solve_block", "DENSE_LIMIT"]

DENSE_LIMIT = 200

# Residual tolerance of solve_block: absolute floor 1, relative in the
# stacked right-hand side.
_RESIDUAL_TOL = 1e-8

# Refinement passes solve_block may make with one factor.
_MAX_REFINEMENTS = 3


class NumericalError(RuntimeError):
    """The Newton system could not be factored or solved accurately."""


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
    if np.any(p <= 0) or np.any(q <= 0):
        raise ValueError("scaling vectors must be strictly positive")
    return p, q


class ProductMap(NamedTuple):
    """Where each term of ``A @ diag(d) @ A.T`` goes, for every ``d``.

    The entries of ``A`` are taken column by column: entry ``e`` holds
    ``A_ij = val[e]`` with ``j = col[e]`` and leads the next ``lead[e]``
    terms, one per entry ``A_kj`` of its column.  Term ``t`` is
    ``(A_ij * d_j) * coef[t]`` with ``coef[t] = A_kj``, and it is summed
    into slot ``slot[t]`` of ``(i, k)``; the terms of a slot come in
    ascending ``j``.  A dense map's slots are the row-major entries of the
    m-by-m matrix; a sparse map's are those of the CSC pattern
    ``indptr``/``indices`` of ``|A| @ |A|.T`` plus the diagonal.  ``diag``
    holds the slot of each diagonal entry.
    """

    m: int
    col: np.ndarray
    val: np.ndarray
    lead: np.ndarray
    coef: np.ndarray
    slot: np.ndarray
    diag: np.ndarray
    indptr: np.ndarray = None
    indices: np.ndarray = None

    def assemble(self, d):
        """``M = A @ diag(d) @ A.T`` (an ndarray for a dense map, CSC for
        a sparse one) and its diagonal, with the roundings of scipy's
        ``A.multiply(d) @ A.T``."""
        ad = d.take(self.col)
        ad *= self.val
        terms = np.repeat(ad, self.lead)
        terms *= self.coef
        dense = self.indptr is None
        values = np.bincount(self.slot, weights=terms,
                             minlength=self.m ** 2 if dense
                             else self.indices.size)
        if dense:
            M = values.reshape(self.m, self.m)
        else:
            M = sp.csc_array((values, self.indices, self.indptr),
                             shape=(self.m, self.m))
        return M, values[self.diag]


def map_products(At, dense):
    """Build the :class:`ProductMap` of ``A`` from ``At = A.T`` (CSR).

    The terms run over the columns ``j`` of ``A`` in ascending order and,
    within a column, over every pair of its entries, so the terms of each
    slot come in ascending ``j``.  A sparse map keeps an explicit slot for
    an entry whose terms cancel, where scipy's product drops it.
    """
    n, m = At.shape
    count = np.diff(At.indptr)
    col = np.repeat(np.arange(n, dtype=np.int32), count)
    lead = np.repeat(count, count)
    # Term t pairs the entry that leads it with entry `other` of the same
    # column: first[e], first[e] + 1, ... for the terms of entry e.
    start = np.cumsum(lead) - lead
    first = np.repeat(At.indptr[:-1], count)
    other = np.arange(int(lead.sum()), dtype=np.int32)
    other -= np.repeat((start - first).astype(np.int32), lead)
    del start, first
    i = np.repeat(At.indices, lead)
    k = At.indices[other]
    coef = At.data[other]
    del other
    if dense:
        return ProductMap(m=m, col=col, val=At.data, lead=lead, coef=coef,
                          slot=i * m + k,
                          diag=np.arange(m) * (m + 1))
    # CSC keys k * m + i sort column by column, rows ascending.
    keys = np.concatenate([np.arange(m, dtype=np.int64) * (m + 1),
                           k.astype(np.int64) * m + i])
    del i, k
    pattern, slot = np.unique(keys, return_inverse=True)
    del keys
    return ProductMap(
        m=m, col=col, val=At.data, lead=lead, coef=coef,
        slot=slot[m:].astype(np.int32), diag=slot[:m],
        indptr=np.searchsorted(pattern, np.arange(m + 1) * m)
        .astype(np.int32),
        indices=(pattern % m).astype(np.int32))


class RowOrder(NamedTuple):
    """Fill-reducing row order ``perm`` of a problem's normal matrices,
    with the permuted ``A[perm]`` and its transpose ``At``, both CSR, and
    the sparse :class:`ProductMap` of ``A[perm]``."""

    perm: np.ndarray
    A: sp.csr_array
    At: sp.csr_array
    product_map: ProductMap


def order_rows(A):
    """Minimum-degree row order for every normal matrix of ``A``.

    For positive ``d`` the pattern of ``A @ diag(d) @ A.T`` is that of
    ``|A| @ |A|.T``, so one ordering of that pattern (SuperLU's
    ``MMD_AT_PLUS_A``) serves every factorization of the problem.  With
    unit entries and ``m`` added to the diagonal the matrix is strictly
    diagonally dominant, so the LU that computes the order cannot fail.
    """
    m = A.shape[0]
    pattern = sp.csr_array((np.ones(A.nnz), A.indices, A.indptr),
                           shape=A.shape)
    S = pattern @ pattern.T
    S.data[:] = 1.0
    lu = spla.splu((S + m * sp.identity(m)).tocsc(),
                   permc_spec="MMD_AT_PLUS_A",
                   options={"SymmetricMode": True})
    perm = np.argsort(lu.perm_c)
    Ap = A[perm]
    Apt = Ap.T.tocsr()
    return RowOrder(perm=perm, A=Ap, At=Apt,
                    product_map=map_products(Apt, dense=False))


def _splu_in_order(M):
    # M is symmetric positive definite (up to regularization) and already
    # in fill-reducing order: keep that order and pivot on the diagonal,
    # so the fill is fixed by the pattern, not by the data.
    return spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def factor(lp, p, q):
    """Factor the normal matrix ``M = A @ diag(p / q) @ A.T`` of ``lp``.

    ``M`` is assembled from the problem's :class:`ProductMap`, bit for bit
    as scipy's ``A.multiply(p / q) @ A.T``.  Up to ``DENSE_LIMIT`` rows it
    fills a dense array (map ``lp.product_map``) that is factored by
    Cholesky.  Above it, ``M`` fills the fixed CSC pattern of
    ``|A| @ |A|.T`` with its rows and columns in the order of
    ``lp.row_order`` (map ``lp.row_order.product_map``; both computed on
    the first such call and kept with the problem) and is factored by
    SuperLU in that order with diagonal pivots.

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
    m = A.shape[0]
    sparse = m > DENSE_LIMIT
    system = lp.row_order if sparse else lp
    # |M_ik| <= (M_ii + M_kk) / 2, so a finite diagonal means finite M;
    # an overflow here is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        M, diagonal = system.product_map.assemble(p / q)
        reg = 1e-12 * max(diagonal.max(), 1.0)
    if not np.isfinite(reg):
        raise NumericalError("normal matrix is not finite")

    if not sparse:
        try:
            cf = scipy.linalg.cho_factor(M, lower=True)
        except scipy.linalg.LinAlgError:
            try:
                cf = scipy.linalg.cho_factor(
                    M + reg * np.eye(m), lower=True)
            except scipy.linalg.LinAlgError:
                raise NumericalError(
                    "normal matrix is not positive definite") from None
        # Nonfinite solutions are left to solve_block's residual guard.
        solve = lambda rhs, cf=cf: scipy.linalg.cho_solve(
            cf, rhs, check_finite=False)
        return NewtonFactor(dense=True, A=A, At=At, p=p, q=q, _solve=solve)

    try:
        lu = _splu_in_order(M)
    except RuntimeError:
        try:
            lu = _splu_in_order(M + reg * sp.identity(m, format="csc"))
        except RuntimeError:
            raise NumericalError("normal matrix factorization failed") \
                from None

    def solve(rhs, lu=lu, perm=system.perm):
        y = np.empty(m)
        y[perm] = lu.solve(rhs[perm])
        return y
    return NewtonFactor(dense=False, A=A, At=At, p=p, q=q, _solve=solve)


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
    ds = r2 - At @ dlam
    dx = (r3 - p * ds) / q

    rhs_norm = np.sqrt(r1 @ r1 + r2 @ r2 + r3 @ r3)
    tol = _RESIDUAL_TOL * (1.0 + rhs_norm)

    def worst_residual(dx_, dlam_, ds_):
        # np.max, unlike max, is nan when any of the three is.
        return np.max([np.linalg.norm(A @ dx_ - r1),
                       np.linalg.norm(At @ dlam_ + ds_ - r2),
                       np.linalg.norm(q * dx_ + p * ds_ - r3)])

    worst = worst_residual(dx, dlam, ds)
    # Refine with the same factor while the residual is above tolerance
    # and still falling.  Back-substitution satisfies the second and third
    # block rows exactly, so only the first-row defect needs correcting.
    last = np.inf
    for _ in range(_MAX_REFINEMENTS):
        if worst <= tol or not worst < last:
            break
        dlam = dlam + fac.solve(r1 - A @ dx)
        ds = r2 - At @ dlam
        dx = (r3 - p * ds) / q
        last, worst = worst, worst_residual(dx, dlam, ds)
    if not worst <= tol < np.inf:
        raise NumericalError(
            "block solve residual %.3e exceeds tolerance %.3e"
            % (worst, tol))
    return dx, dlam, ds
