"""Presolve reductions for standard-form LPs.

The cascade applies, to a fixpoint: elimination of columns pinned at zero
by the standardizer, removal of empty rows (infeasible when the right-hand
side is nonzero), fixing of variables determined by singleton rows
(infeasible when the implied value is negative), and removal of empty
columns (unbounded when the objective coefficient is negative).  A final
rank guard drops linearly dependent rows so the reduced matrix has full
row rank, which the Newton kernel requires.  It first peels off every row
that holds the only entry of some column among the rows left, since such
a row has no part in any dependency, and runs its pivoted QR only on the
core that remains; a core over the QR's size cap skips the guard.

Eliminations are recorded in a :class:`PresolveReport` whose
:meth:`~PresolveReport.restore` lifts a reduced solution back to the
pre-presolve standard space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .standardize import StandardLP

__all__ = ["PresolveReport", "presolve"]

_ZERO_TOL = 1e-10
_QR_CAP = 4_000_000    # matrix entries the rank guard's QR may take


@dataclass
class PresolveReport:
    """Outcome of :func:`presolve`.

    ``verdict`` is ``None`` for a successful reduction, or
    ``"infeasible"`` / ``"unbounded"`` when the cascade proves the problem
    has no optimum; ``reason`` then explains which rule fired.
    """

    m_before: int = 0
    n_before: int = 0
    m_after: int = 0
    n_after: int = 0
    events: list = field(default_factory=list)
    kept_rows: np.ndarray = None
    kept_cols: np.ndarray = None
    fixed_values: dict = field(default_factory=dict)
    verdict: str = None
    reason: str = ""

    def restore(self, x_reduced):
        """Lift a reduced-space point to the pre-presolve standard space."""
        x_reduced = np.asarray(x_reduced, dtype=float)
        if x_reduced.shape != (self.n_after,):
            raise ValueError("expected a vector of length %d" % self.n_after)
        x = np.zeros(self.n_before)
        x[self.kept_cols] = x_reduced
        for j, v in self.fixed_values.items():
            x[j] = v
        return x

    def __str__(self):
        head = "presolve %dx%d -> %dx%d" % (self.m_before, self.n_before,
                                            self.m_after, self.n_after)
        if self.verdict:
            head += " [%s: %s]" % (self.verdict, self.reason)
        return "\n".join([head] + ["  " + e for e in self.events])


def _core_rows(A, count=None):
    """Rows of the CSR matrix ``A`` that may take part in a dependency.

    A row that holds the only live entry of some column has coefficient
    zero in every linear dependency among the live rows, so it is peeled
    off, and the peel repeats on the rows left.  The rounds are capped at
    ``_QR_CAP // nnz``, the QR's budget; rows still live when it runs out
    stay in the core, so the core never misses a dependent row.

    The first round takes the column counts ``count`` when the caller
    has them.  Each round drops the peeled rows' entries, and the next
    counts only the entries left.
    """
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    cols = A.indices
    if count is None:
        count = np.bincount(cols, minlength=A.shape[1])
    live = np.ones(A.shape[0], dtype=bool)
    for _ in range(_QR_CAP // max(A.nnz, 1)):
        private = (count == 1).take(cols).nonzero()[0]
        if not private.size:
            break
        live[rows.take(private)] = False
        stay = live.take(rows)
        rows, cols = rows[stay], cols[stay]
        count = np.bincount(cols, minlength=A.shape[1])
    return np.nonzero(live)[0]


def _rank_guard(A, b, row_ids, count=None):
    """Drop linearly dependent rows (with a consistency check on b).

    Returns ``(rows_to_drop, reason_or_None)`` where a non-``None`` reason
    means the dependent equations contradict the kept ones.  Only the
    core rows of :func:`_core_rows` (which takes the column counts
    ``count``) can be dependent, so the guard runs a dense pivoted QR of
    the core alone, which is exact where a regularized Cholesky attempt
    could mask semidefiniteness; only ``R`` and the pivots are computed,
    since the rank and the kept rows follow from them and ``Q`` is never
    read.  When the core holds more than ``_QR_CAP`` entries the check is
    skipped and rank trouble surfaces through the kernel's residual guard
    instead.
    """
    core = _core_rows(A, count)
    if not core.size or core.size * A.shape[1] > _QR_CAP:
        return [], None
    At = A[core].toarray().T
    R, piv = scipy.linalg.qr(At, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(At.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0)
    rank = int(np.sum(diag > tol))
    kept, dropped = piv[:rank], piv[rank:]
    if not len(dropped):
        return [], None
    # Each dropped row must be the same combination of kept rows on b.
    b = b[core]
    coef, *_ = np.linalg.lstsq(At[:, kept], At[:, dropped], rcond=None)
    implied = coef.T @ b[kept]
    bad = np.abs(implied - b[dropped]) > 1e-8 * (1 + np.abs(b[dropped]))
    if np.any(bad):
        i = core[dropped[np.nonzero(bad)[0][0]]]
        return [], ("row %d is linearly dependent with an inconsistent "
                    "right-hand side" % row_ids[i])
    return list(core[dropped]), None


def presolve(lp):
    """Reduce a :class:`~arclp.standardize.StandardLP`.

    The cascade runs on the entries of ``lp.A`` with masks of the live
    rows and columns, and the reduced matrix is built once at the end
    (it is ``lp.A`` itself when nothing is removed).

    Returns
    -------
    reduced : StandardLP or None
        The reduced problem, or ``None`` when the report carries an
        ``infeasible`` / ``unbounded`` verdict.
    report : PresolveReport
    """
    m, n = lp.shape
    rows = np.repeat(np.arange(m), np.diff(lp.A.indptr))
    cols, vals = lp.A.indices, lp.A.data
    on = vals != 0      # the live entries; explicit zeros take no part
    row_live = np.ones(m, dtype=bool)
    col_live = np.ones(n, dtype=bool)
    b = lp.b.copy()
    shift = lp.objective_shift
    report = PresolveReport(m_before=m, n_before=n)
    b_scale = 1.0 + np.abs(lp.b).max(initial=0.0)

    def verdict(kind, reason):
        report.verdict = kind
        report.reason = reason
        report.kept_rows = np.flatnonzero(row_live)
        report.kept_cols = np.flatnonzero(col_live)
        report.m_after = report.kept_rows.size
        report.n_after = report.kept_cols.size
        return None, report

    # Columns the standardizer pinned at zero (zero-width bounds).
    if lp.fixed_cols:
        report.fixed_values.update(dict.fromkeys(lp.fixed_cols, 0.0))
        col_live[list(lp.fixed_cols)] = False
        report.events.append("dropped %d fixed columns" % len(lp.fixed_cols))

    while True:
        on &= row_live[rows] & col_live[cols]
        row_nnz = np.bincount(rows[on], minlength=m)

        # Empty rows: 0 = b must hold.
        empty = np.flatnonzero(row_live & (row_nnz == 0))
        if empty.size:
            off = np.abs(b[empty]) > _ZERO_TOL * b_scale
            if np.any(off):
                return verdict("infeasible",
                               "empty row %d has nonzero right-hand side"
                               % empty[np.argmax(off)])
            row_live[empty] = False
            report.events.append("dropped %d empty rows" % empty.size)
            continue

        # Singleton rows fix their variable; a second row on the same
        # column waits a pass, so the fixes are the first row of each.
        if (row_nnz == 1).any():
            single = np.flatnonzero(on & (row_nnz[rows] == 1))
            first = np.sort(np.unique(cols[single], return_index=True)[1])
            single = single[first]
            i, j = rows[single], cols[single]
            v = b[i] / vals[single]
            bad = v < -_ZERO_TOL * b_scale
            v = np.where(v < 0.0, 0.0, v)
            if bad.any():
                k = np.argmax(bad)
                report.fixed_values.update(zip(j[:k].tolist(), v[:k].tolist()))
                return verdict("infeasible",
                               "singleton row %d forces a negative value"
                               % i[k])
            # Each fixed column leaves its live rows in the loop's order,
            # and the objective gains c[j] * v one fix at a time.
            fix_pos = np.full(n, -1)
            fix_pos[j] = np.arange(j.size)
            hit = np.flatnonzero(on & (fix_pos[cols] >= 0))
            hit = hit[np.argsort(fix_pos[cols[hit]], kind="stable")]
            np.subtract.at(b, rows[hit], vals[hit] * v[fix_pos[cols[hit]]])
            shift = np.cumsum(np.concatenate([[shift], lp.c[j] * v]))[-1]
            report.fixed_values.update(zip(j.tolist(), v.tolist()))
            row_live[i] = False
            col_live[j] = False
            report.events.append("fixed %d variables from singleton rows"
                                 % j.size)
            continue

        # Empty columns: optimal at 0 when the cost is nonnegative.
        col_nnz = np.bincount(cols[on], minlength=n)
        empty_cols = np.flatnonzero(col_live & (col_nnz == 0))
        if empty_cols.size:
            neg = lp.c[empty_cols] < -1e-12
            if np.any(neg):
                return verdict(
                    "unbounded",
                    "empty column %d has negative objective coefficient"
                    % empty_cols[np.argmax(neg)])
            report.fixed_values.update(dict.fromkeys(empty_cols.tolist(),
                                                     0.0))
            col_live[empty_cols] = False
            report.events.append("dropped %d empty columns"
                                 % empty_cols.size)
            continue
        break

    # The reduced matrix, its columns renumbered in their order.
    row_ids, col_ids = np.flatnonzero(row_live), np.flatnonzero(col_live)
    if row_ids.size == m and col_ids.size == n and on.all():
        A = lp.A
    else:
        indptr = np.concatenate([[0], np.cumsum(row_nnz[row_ids])])
        A = sp.csr_array((vals[on], (np.cumsum(col_live) - 1)[cols[on]],
                          indptr), shape=(row_ids.size, col_ids.size))
    b = b[row_ids]
    if row_ids.size:
        dep, reason = _rank_guard(A, b, row_ids, col_nnz.take(col_ids))
        if reason is not None:
            return verdict("infeasible", reason)
        if dep:
            keep = np.setdiff1d(np.arange(row_ids.size), dep)
            A, b, row_ids = A[keep], b[keep], row_ids[keep]
            report.events.append("dropped %d linearly dependent rows"
                                 % len(dep))

    report.m_after, report.n_after = A.shape
    report.kept_rows, report.kept_cols = row_ids, col_ids
    reduced = StandardLP(name=lp.name, A=A, b=b, c=lp.c[col_ids],
                         objective_shift=shift, var_map=lp.var_map,
                         fixed_cols=())
    return reduced, report
