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

Problems with at most ``DENSE_LIMIT`` rows use a dense Cholesky
factorization.  Larger ones use a sparse LU of the (symmetric positive
definite) normal matrix in one fill-reducing row order per problem
(:func:`order_rows`, cached as ``StandardLP.row_order``), pivoting on the
diagonal, so every factorization of a problem has the same fill.  Both
paths retry once with a small diagonal regularization before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumericalError", "NewtonFactor", "RowOrder", "order_rows",
           "factor", "solve_block", "DENSE_LIMIT"]

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


class RowOrder(NamedTuple):
    """Fill-reducing row order ``perm`` of a problem's normal matrices,
    with the permuted ``A[perm]`` and its transpose ``At``, both CSR."""

    perm: np.ndarray
    A: sp.csr_array
    At: sp.csr_array


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
    return RowOrder(perm=perm, A=Ap, At=Ap.T.tocsr())


def _splu_in_order(M):
    # M is symmetric positive definite (up to regularization) and already
    # in fill-reducing order: keep that order and pivot on the diagonal,
    # so the fill is fixed by the pattern, not by the data.
    return spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def factor(lp, p, q):
    """Factor the normal matrix ``M = A @ diag(p / q) @ A.T`` of ``lp``.

    Up to ``DENSE_LIMIT`` rows, ``M`` is factored by dense Cholesky.
    Above it, ``M`` is assembled with its rows and columns in the order of
    ``lp.row_order`` (computed on the first such call and kept with the
    problem) and factored by SuperLU in that order with diagonal pivots.

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
        M = system.A.multiply(p / q) @ system.At
        reg = 1e-12 * max(M.diagonal().max(), 1.0)
    if not np.isfinite(reg):
        raise NumericalError("normal matrix is not finite")

    if not sparse:
        Md = M.toarray()
        try:
            cf = scipy.linalg.cho_factor(Md, lower=True)
        except scipy.linalg.LinAlgError:
            try:
                cf = scipy.linalg.cho_factor(
                    Md + reg * np.eye(m), lower=True)
            except scipy.linalg.LinAlgError:
                raise NumericalError(
                    "normal matrix is not positive definite") from None
        # Nonfinite solutions are left to solve_block's residual guard.
        solve = lambda rhs, cf=cf: scipy.linalg.cho_solve(
            cf, rhs, check_finite=False)
        return NewtonFactor(dense=True, A=A, At=At, p=p, q=q, _solve=solve)

    M = M.tocsc()
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
