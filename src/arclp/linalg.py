"""Sparse normal-equations kernel for interior-point Newton systems.

Every search direction used by the solvers comes from one block system ::

    A @ dx                = r1
    A.T @ dlam + ds       = r2
    diag(q) @ dx + diag(p) @ ds = r3

with strictly positive scaling vectors ``p`` and ``q``.  Eliminating ``dx``
and ``ds`` reduces it to the m-by-m normal equations
``M @ dlam = r1 - A @ (r3 / q) + A @ ((p / q) * r2)`` with
``M = A @ diag(p / q) @ A.T``, factored once per scaling pair and reused
for every right-hand side at that iterate.

Problems with at most ``DENSE_LIMIT`` rows use a dense Cholesky
factorization; larger ones use a sparse LU of the (symmetric positive
definite) normal matrix with a minimum-degree ordering.  Both paths retry
once with a small diagonal regularization before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["NumericalError", "NewtonFactor", "factor", "solve_block",
           "DENSE_LIMIT"]

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
    """Factorization of ``A @ diag(p / q) @ A.T`` bound to its inputs.

    Instances are immutable; build a new one per scaling pair.  The
    ``p``/``q`` copies let :func:`solve_block` reject a factor that does
    not match the system it is asked to solve.
    """

    m: int
    dense: bool
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
    if not (np.all(p > 0) and np.all(q > 0) and np.all(np.isfinite(p))
            and np.all(np.isfinite(q))):
        raise ValueError("scaling vectors must be strictly positive "
                         "and finite")
    return p, q


def factor(A, p, q):
    """Factor the normal matrix ``M = A @ diag(p / q) @ A.T``.

    Parameters
    ----------
    A : sparse array, shape (m, n)
        Constraint matrix with full row rank.
    p, q : ndarray, shape (n,)
        Strictly positive scaling vectors.

    Returns
    -------
    NewtonFactor

    Raises
    ------
    ValueError
        If ``p`` or ``q`` has a nonpositive or nonfinite entry.
    NumericalError
        If the factorization fails even after one diagonally regularized
        retry (rank-deficient ``A`` or catastrophic scaling).
    """
    A = sp.csr_array(A)
    p, q = _check_scaling(A, p, q)
    m = A.shape[0]
    W = A.multiply(p / q)
    M = (W @ A.T).tocsc()
    reg = 1e-12 * max(M.diagonal().max(), 1.0)

    if m <= DENSE_LIMIT:
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
        solve = lambda rhs, cf=cf: scipy.linalg.cho_solve(cf, rhs)
        return NewtonFactor(m=m, dense=True, p=p.copy(), q=q.copy(),
                            _solve=solve)

    try:
        lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
    except RuntimeError:
        try:
            lu = spla.splu(M + reg * sp.identity(m, format="csc"),
                           permc_spec="MMD_AT_PLUS_A",
                           options={"SymmetricMode": True})
        except RuntimeError:
            raise NumericalError("normal matrix factorization failed") \
                from None
    solve = lambda rhs, lu=lu: lu.solve(rhs)
    return NewtonFactor(m=m, dense=False, p=p.copy(), q=q.copy(),
                        _solve=solve)


def solve_block(fac, A, p, q, r1, r2, r3):
    """Solve one Newton block system using a prebuilt factor.

    Parameters
    ----------
    fac : NewtonFactor
        Factor built by :func:`factor` from the same ``(A, p, q)``.
    A : sparse array, shape (m, n)
    p, q : ndarray, shape (n,)
    r1, r2, r3 : ndarray
        Right-hand sides of the three block rows (lengths m, n, n).

    Returns
    -------
    dx, dlam, ds : ndarray

    Raises
    ------
    ValueError
        On shape mismatches or if ``fac`` was built from different
        scaling vectors.
    NumericalError
        If a backward residual exceeds ``1e-8 * (1 + ||rhs||)`` after up
        to three refinement passes with the same factor.
    """
    A = sp.csr_array(A)
    m, n = A.shape
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    r3 = np.asarray(r3, dtype=float)
    if r1.shape != (m,) or r2.shape != (n,) or r3.shape != (n,):
        raise ValueError("right-hand side shapes do not match A")
    if fac.m != m or not (np.array_equal(fac.p, p)
                          and np.array_equal(fac.q, q)):
        raise ValueError("factor was built from a different system")

    w = r1 - A @ ((r3 - p * r2) / q)
    dlam = fac.solve(w)
    ds = r2 - A.T @ dlam
    dx = (r3 - p * ds) / q

    rhs_norm = np.sqrt(r1 @ r1 + r2 @ r2 + r3 @ r3)
    tol = _RESIDUAL_TOL * (1.0 + rhs_norm)

    def worst_residual(dx_, dlam_, ds_):
        return max(np.linalg.norm(A @ dx_ - r1),
                   np.linalg.norm(A.T @ dlam_ + ds_ - r2),
                   np.linalg.norm(q * dx_ + p * ds_ - r3))

    worst = worst_residual(dx, dlam, ds)
    # Refine with the same factor while the residual is above tolerance
    # and still falling.  Back-substitution satisfies the second and third
    # block rows exactly, so only the first-row defect needs correcting.
    last = np.inf
    for _ in range(_MAX_REFINEMENTS):
        if worst <= tol or not worst < last:
            break
        dlam = dlam + fac.solve(r1 - A @ dx)
        ds = r2 - A.T @ dlam
        dx = (r3 - p * ds) / q
        last, worst = worst, worst_residual(dx, dlam, ds)
    if not worst <= tol:
        raise NumericalError(
            "block solve residual %.3e exceeds tolerance %.3e"
            % (worst, tol))
    return dx, dlam, ds
