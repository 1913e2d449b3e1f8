"""Transformation of a raw LP into standard equality form.

The target problem is ``min c @ x  s.t.  A @ x = b, x >= 0`` built from the
raw blocks as::

    [ A_E   0   0   0 ] [x']    [b_E - A_E @ l]
    [ A_G  -I   0   0 ] [s_G] = [b_G - A_G @ l]
    [ A_L   0   I   0 ] [s_L]   [b_L - A_L @ l]
    [ I_B   0   0   I ] [s_B]   [b_UP - l     ]

where ``l`` holds the finite lower bounds (variables are shifted so the
bound becomes 0), ``I_B`` selects the variables with a finite upper bound,
and ``s_G``/``s_L``/``s_B`` are surplus, slack and bound-slack columns.
Variables with an infinite lower bound are split into a difference of two
nonnegative columns before shifting.  A variable fixed by equal bounds is
kept as a shifted column pinned at 0 and recorded in ``fixed_cols``; the
presolver removes it, which avoids emitting a zero-width bound row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import order_rows

__all__ = ["InfeasibleBoundsError", "VarMap", "StandardLP",
           "to_standard_form", "recover_solution"]


class InfeasibleBoundsError(ValueError):
    """A variable's upper bound lies strictly below its lower bound."""


@dataclass(frozen=True)
class VarMap:
    """Recipe for mapping a standard-form solution back to raw variables.

    ``rules`` has one entry per raw variable: ``("shift", j, offset)``
    recovers ``x_raw = x_std[j] + offset`` and ``("split", jp, jn)``
    recovers ``x_raw = x_std[jp] - x_std[jn]``.  ``c`` and
    ``objective_shift`` reproduce the raw objective value from a
    standard-form point.
    """

    rules: tuple
    n_std: int
    c: np.ndarray
    objective_shift: float


@dataclass(frozen=True)
class StandardLP:
    """Equality-form LP ``min c @ x : A @ x = b, x >= 0``.

    ``A`` is held in CSR with its transpose ``At``, built once (frozen, so
    they cannot drift apart).  ``c @ x + objective_shift`` is the original
    objective (bound shifts plus the MPS objective constant).
    ``fixed_cols`` lists columns that must be 0 in any feasible point
    (from equal-bound variables); presolve eliminates them.
    """

    name: str
    A: sp.csr_array
    b: np.ndarray
    c: np.ndarray
    objective_shift: float
    var_map: VarMap
    fixed_cols: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "A", sp.csr_array(self.A))

    @cached_property
    def At(self):
        """``A.T`` in CSR, built once per problem."""
        return self.A.T.tocsr()

    @cached_property
    def row_order(self):
        """Fill-reducing :class:`~arclp.linalg.RowOrder` of the normal
        matrix, built on the first sparse factorization."""
        return order_rows(self.A)

    @property
    def shape(self):
        return self.A.shape

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


def to_standard_form(raw):
    """Build a :class:`StandardLP` from a :class:`~arclp.mps.RawLP`.

    Raises
    ------
    InfeasibleBoundsError
        If some upper bound is below the matching lower bound.
    ValueError
        If the problem has no rows and no bounds (nothing to solve).
    """
    n_raw = raw.n_cols
    lower, upper = raw.lower, raw.upper
    bad = np.nonzero(upper < lower)[0]
    if bad.size:
        raise InfeasibleBoundsError(
            "upper bound below lower bound for column %r"
            % raw.col_names[bad[0]])

    # Column plan: raw variables first (split pairs adjacent), then the
    # slack blocks in row order.
    rules = []
    fixed_cols = []
    shift = np.zeros(n_raw)
    j = 0
    for i in range(n_raw):
        if np.isneginf(lower[i]):
            rules.append(("split", j, j + 1))
            j += 2
        else:
            rules.append(("shift", j, lower[i]))
            shift[i] = lower[i]
            if upper[i] == lower[i]:
                fixed_cols.append(j)
            j += 1
    n_vars = j

    bounded = [i for i in range(n_raw)
               if np.isfinite(upper[i]) and upper[i] != lower[i]]
    n_ge = raw.A_ge.shape[0]
    n_le = raw.A_le.shape[0]
    m = raw.A_eq.shape[0] + n_ge + n_le + len(bounded)
    n = n_vars + n_ge + n_le + len(bounded)
    if m == 0:
        raise ValueError("problem has no constraints")

    # Expand raw columns into standard columns (split pairs get +/- copies).
    def expand(block):
        block = block.tocsc()
        cols, rows, vals = [], [], []
        for i in range(n_raw):
            lo_ptr, hi_ptr = block.indptr[i], block.indptr[i + 1]
            idx = block.indices[lo_ptr:hi_ptr]
            dat = block.data[lo_ptr:hi_ptr]
            rule = rules[i]
            if rule[0] == "split":
                for col, sign in ((rule[1], 1.0), (rule[2], -1.0)):
                    cols.extend([col] * len(idx))
                    rows.extend(idx)
                    vals.extend(sign * dat)
            else:
                cols.extend([rule[1]] * len(idx))
                rows.extend(idx)
                vals.extend(dat)
        return rows, cols, vals

    rows_, cols_, vals_ = [], [], []
    row0 = 0
    rhs = []
    for kind, A_blk, b_blk, _ in raw.blocks():
        r, cidx, v = expand(A_blk)
        rows_.extend(row0 + np.asarray(r, dtype=int))
        cols_.extend(cidx)
        vals_.extend(v)
        rhs.append(b_blk - A_blk @ shift)
        if kind == "G":
            for k in range(A_blk.shape[0]):
                rows_.append(row0 + k)
                cols_.append(n_vars + k)
                vals_.append(-1.0)
        elif kind == "L":
            for k in range(A_blk.shape[0]):
                rows_.append(row0 + k)
                cols_.append(n_vars + n_ge + k)
                vals_.append(1.0)
        row0 += A_blk.shape[0]

    # Bound rows: x'_i + s_B = upper - lower (split columns keep their
    # +/- pair on the left side and are not shifted).
    b_bound = np.empty(len(bounded))
    for k, i in enumerate(bounded):
        rule = rules[i]
        if rule[0] == "split":
            rows_.extend([row0 + k, row0 + k])
            cols_.extend([rule[1], rule[2]])
            vals_.extend([1.0, -1.0])
            b_bound[k] = upper[i]
        else:
            rows_.append(row0 + k)
            cols_.append(rule[1])
            vals_.append(1.0)
            b_bound[k] = upper[i] - lower[i]
        rows_.append(row0 + k)
        cols_.append(n_vars + n_ge + n_le + k)
        vals_.append(1.0)
    rhs.append(b_bound)

    A = sp.csc_array((vals_, (rows_, cols_)), shape=(m, n))
    b = np.concatenate(rhs)

    c = np.zeros(n)
    for i in range(n_raw):
        rule = rules[i]
        if rule[0] == "split":
            c[rule[1]] += raw.c[i]
            c[rule[2]] -= raw.c[i]
        else:
            c[rule[1]] += raw.c[i]
    objective_shift = float(raw.c @ shift) + raw.objective_constant

    var_map = VarMap(rules=tuple(rules), n_std=n, c=c.copy(),
                     objective_shift=objective_shift)
    return StandardLP(name=raw.name, A=A, b=b, c=c,
                      objective_shift=objective_shift,
                      var_map=var_map, fixed_cols=tuple(fixed_cols))


def recover_solution(x_std, var_map):
    """Map a standard-form point back to the raw variable space.

    Parameters
    ----------
    x_std : ndarray
        Point in the standard-form space (length ``var_map.n_std``).
    var_map : VarMap

    Returns
    -------
    x_raw : ndarray
        Values of the original variables.
    objective : float
        ``var_map.c @ x_std + var_map.objective_shift``, the objective of
        the original problem at this point.
    """
    x_std = np.asarray(x_std, dtype=float)
    if x_std.shape != (var_map.n_std,):
        raise ValueError("expected a vector of length %d, got shape %r"
                         % (var_map.n_std, x_std.shape))
    x_raw = np.empty(len(var_map.rules))
    for i, rule in enumerate(var_map.rules):
        if rule[0] == "split":
            x_raw[i] = x_std[rule[1]] - x_std[rule[2]]
        else:
            x_raw[i] = x_std[rule[1]] + rule[2]
    objective = float(var_map.c @ x_std) + var_map.objective_shift
    return x_raw, objective
