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

from .linalg import map_products

__all__ = ["InfeasibleBoundsError", "VarMap", "StandardLP",
           "to_standard_form", "recover_solution"]


class InfeasibleBoundsError(ValueError):
    """A variable's bounds hold no finite value: the upper bound lies
    strictly below the lower bound, or a bound is infinite on the wrong
    side (a lower bound of ``+inf`` or an upper bound of ``-inf``)."""


@dataclass(frozen=True)
class VarMap:
    """Recipe for mapping a standard-form solution back to raw variables.

    Raw variable ``i`` starts at standard column ``j = col[i]``.  Where
    ``split[i]`` holds, ``x_raw = x_std[j] - x_std[j + 1]``; otherwise
    ``x_raw = x_std[j] + offset[i]``.  ``c`` and ``objective_shift``
    reproduce the raw objective value from a standard-form point.
    """

    col: np.ndarray
    split: np.ndarray
    offset: np.ndarray
    n_std: int
    c: np.ndarray
    objective_shift: float

    @cached_property
    def rules(self):
        """The recipe as one tuple per raw variable: ``("shift", j,
        offset)`` or ``("split", j, j + 1)``."""
        return tuple(("split", j, j + 1) if s else ("shift", j, offset)
                     for j, s, offset in zip(self.col.tolist(),
                                             self.split.tolist(),
                                             self.offset))


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
        if not isinstance(self.A, sp.csr_array):
            object.__setattr__(self, "A", sp.csr_array(self.A))

    @cached_property
    def At(self):
        """``A.T`` in CSR, built once per problem."""
        return self.A.T.tocsr()

    @cached_property
    def product_map(self):
        """:class:`~arclp.linalg.ProductMap` of the normal matrix, built
        on the first factorization.  Its ``elim`` holds the rows that the
        factor eliminates first (all their entries but at most one in
        columns of one entry, such as the bound rows
        ``x_j + s_B = u_j - l_j`` of the standard form).  The rest are
        mapped in their order ``perm``: a band, then a border of the
        rows much denser than the others, if any (see
        :func:`map_products`)."""
        return map_products(self.At)

    @cached_property
    def shape(self):
        """``A.shape``, read once: the loop reads ``m`` and ``n`` on every
        iteration, and scipy's ``shape`` is a Python property."""
        return self.A.shape

    @cached_property
    def m(self):
        return self.shape[0]

    @cached_property
    def n(self):
        return self.shape[1]


def to_standard_form(raw):
    """Build a :class:`StandardLP` from a :class:`~arclp.mps.RawLP`.

    Every raw entry is placed through one column map: raw variable ``i``
    starts at column ``col[i]``, the running sum of the widths of the
    variables before it (width 2 for a split variable, 1 otherwise), and
    a split variable's negative half sits at ``col[i] + 1``.  Each block's
    entries keep their values (explicit zeros included) and are copied
    with the opposite sign into the negative half of a split column; the
    slack and bound-slack entries follow from their row positions.

    Raises
    ------
    InfeasibleBoundsError
        If the bounds of some variable hold no finite value.
    ValueError
        If the problem has no rows and no bounds (nothing to solve).
    """
    lower, upper = raw.lower, raw.upper
    bad = np.nonzero((upper < lower) | (lower == np.inf)
                     | (upper == -np.inf))[0]
    if bad.size:
        i = bad[0]
        raise InfeasibleBoundsError(
            "column %r has no finite value between lower bound %r and "
            "upper bound %r" % (raw.col_names[i], float(lower[i]),
                                float(upper[i])))

    # Column plan: raw variables first (split pairs adjacent), then the
    # slack blocks in row order.
    split = np.isneginf(lower)
    width = 1 + split.astype(np.int64)
    col = np.cumsum(width) - width
    n_vars = int(width.sum())
    shift = np.where(split, 0.0, lower)
    fixed = ~split & (upper == lower)
    bounded = np.nonzero(np.isfinite(upper) & (upper != lower))[0]

    # The raw rows, then the bound rows (bound row k holds a 1 in column
    # bounded[k]), as one CSR over the raw variables; a block in another
    # format, or with unsorted or duplicate entries, is read canonically.
    blocks = [(A_blk if A_blk.format == "csr" and A_blk.has_canonical_format
               else A_blk.tocoo().tocsr(), b_blk)
              for _, A_blk, b_blk, _ in raw.blocks()]
    m_eq, n_ge, n_le = (A_blk.shape[0] for A_blk, _ in blocks)
    n_b = bounded.size
    m = m_eq + n_ge + n_le + n_b
    n = n_vars + n_ge + n_le + n_b
    if m == 0:
        raise ValueError("problem has no constraints")
    per_row = np.concatenate([np.diff(A_blk.indptr) for A_blk, _ in blocks]
                             + [np.ones(n_b, dtype=np.int64)])
    j = np.concatenate([A_blk.indices for A_blk, _ in blocks] + [bounded])
    v = np.concatenate([A_blk.data for A_blk, _ in blocks] + [np.ones(n_b)])
    row = np.repeat(np.arange(m), per_row)

    # Each entry takes its variable's width of slots in its row (a split
    # variable's negative half copies it with the opposite sign), and every
    # row past the equalities ends with its slack, column n_vars + r - m_eq.
    slacks = np.maximum(np.arange(m + 1) - m_eq, 0)
    slots = np.concatenate([[0], np.cumsum(width[j])])
    indptr = slots[np.concatenate([[0], np.cumsum(per_row)])] + slacks
    at = slots[:-1] + slacks[row]
    neg = split[j]
    tail = indptr[m_eq + 1:] - 1
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    indices[at], data[at] = col[j], v
    indices[at[neg] + 1], data[at[neg] + 1] = col[j[neg]] + 1, -v[neg]
    indices[tail] = n_vars + np.arange(m - m_eq)
    data[tail] = np.repeat([-1.0, 1.0], [n_ge, n_le + n_b])
    A = sp.csr_array((data, indices, indptr), shape=(m, n))
    # b_blk - A_blk @ shift, the product summed in entry order as scipy's
    # is.  Bound rows: x'_i + s_B = upper - lower (split columns keep their
    # +/- pair on the left side and are not shifted); the sum turns a shift
    # of -0.0 into 0.0, which changes upper - shift only where upper is
    # +-0.0, and such a column is fixed, not bounded.
    b = (np.concatenate([b_blk for _, b_blk in blocks] + [upper[bounded]])
         - np.bincount(row, weights=v * shift[j], minlength=m))

    c = np.zeros(n)
    c[col] += raw.c
    c[col[split] + 1] -= raw.c[split]
    objective_shift = float(raw.c @ shift) + raw.objective_constant

    var_map = VarMap(col=col, split=split, offset=shift, n_std=n, c=c.copy(),
                     objective_shift=objective_shift)
    return StandardLP(name=raw.name, A=A, b=b, c=c,
                      objective_shift=objective_shift,
                      var_map=var_map,
                      fixed_cols=tuple(col[fixed].tolist()))


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
    # A split variable's offset is 0, and its sum is then replaced.
    x_raw = x_std[var_map.col] + var_map.offset
    split = var_map.col[var_map.split]
    x_raw[var_map.split] = x_std[split] - x_std[split + 1]
    objective = float(var_map.c @ x_std) + var_map.objective_shift
    return x_raw, objective
