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
    def product_map(self):
        """:class:`~arclp.linalg.ProductMap` of the normal matrix, built
        on the first factorization: dense up to ``DENSE_LIMIT`` rows,
        else a band or a sparse map with its row order ``perm``."""
        return map_products(self.At)

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

    blocks = list(raw.blocks())
    m_eq, n_ge, n_le = (A_blk.shape[0] for _, A_blk, _, _ in blocks)
    n_b = bounded.size
    m = m_eq + n_ge + n_le + n_b
    n = n_vars + n_ge + n_le + n_b
    if m == 0:
        raise ValueError("problem has no constraints")

    # (rows, cols, values) of each part of the docstring's block matrix.
    coo = sp.vstack([A_blk for _, A_blk, _, _ in blocks]).tocoo()
    neg = split[coo.col]
    ge, le, k = np.arange(n_ge), np.arange(n_le), np.arange(n_b)
    row_b = m_eq + n_ge + n_le + k
    b_neg = split[bounded]
    parts = [
        (coo.row, col[coo.col], coo.data),
        (coo.row[neg], col[coo.col[neg]] + 1, -coo.data[neg]),
        (m_eq + ge, n_vars + ge, np.full(n_ge, -1.0)),
        (m_eq + n_ge + le, n_vars + n_ge + le, np.ones(n_le)),
        (row_b, col[bounded], np.ones(n_b)),
        (row_b[b_neg], col[bounded[b_neg]] + 1, np.full(b_neg.sum(), -1.0)),
        (row_b, n_vars + n_ge + n_le + k, np.ones(n_b)),
    ]
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    A = sp.csr_array((vals, (rows, cols)), shape=(m, n))
    # Bound rows: x'_i + s_B = upper - lower (split columns keep their
    # +/- pair on the left side and are not shifted).
    b = np.concatenate([b_blk - A_blk @ shift for _, A_blk, b_blk, _ in blocks]
                       + [upper[bounded] - shift[bounded]])

    c = np.zeros(n)
    c[col] += raw.c
    c[col[split] + 1] -= raw.c[split]
    objective_shift = float(raw.c @ shift) + raw.objective_constant

    rules = tuple(("split", j, j + 1) if s else ("shift", j, lo)
                  for j, s, lo in zip(col.tolist(), split.tolist(), lower))
    var_map = VarMap(rules=rules, n_std=n, c=c.copy(),
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
    x_raw = np.empty(len(var_map.rules))
    for i, rule in enumerate(var_map.rules):
        if rule[0] == "split":
            x_raw[i] = x_std[rule[1]] - x_std[rule[2]]
        else:
            x_raw[i] = x_std[rule[1]] + rule[2]
    objective = float(var_map.c @ x_std) + var_map.objective_shift
    return x_raw, objective
