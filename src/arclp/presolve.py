"""Presolve reductions for standard-form LPs.

The cascade applies, to a fixpoint: elimination of columns pinned at zero
by the standardizer, removal of empty rows (infeasible when the right-hand
side is nonzero), fixing of variables determined by singleton rows
(infeasible when the implied value is negative), removal of empty columns
(unbounded when the objective coefficient is negative), and removal of
duplicate rows that are scalar multiples of an earlier row.  A final rank
guard drops linearly dependent rows so the reduced matrix has full row
rank, which the Newton kernel requires.

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


def _drop(A, b, c, row_ids, col_ids, rows=None, cols=None):
    if rows is not None and len(rows):
        keep = np.setdiff1d(np.arange(A.shape[0]), rows)
        A = A[keep]
        b = b[keep]
        row_ids = row_ids[keep]
    if cols is not None and len(cols):
        keep = np.setdiff1d(np.arange(A.shape[1]), cols)
        A = A[:, keep]
        c = c[keep]
        col_ids = col_ids[keep]
    return A.tocsc(), b, c, row_ids, col_ids


def _duplicate_rows(A, b):
    """Return (rows to drop, infeasible reason or None).

    A row is dropped when it is a scalar multiple of an earlier row with a
    consistent right-hand side; an inconsistent right-hand side proves
    infeasibility.
    """
    A = A.tocsr()
    A.sort_indices()
    m = A.shape[0]
    buckets = {}
    for i in range(m):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        key = (hi - lo, A.indices[lo:hi].tobytes())
        buckets.setdefault(key, []).append(i)
    drop = []
    for key, rows in buckets.items():
        if len(rows) < 2:
            continue
        for a_pos, i in enumerate(rows):
            if i in drop:
                continue
            vi = A.data[A.indptr[i]:A.indptr[i + 1]]
            scale_i = np.abs(vi).max()
            for k in rows[a_pos + 1:]:
                if k in drop:
                    continue
                vk = A.data[A.indptr[k]:A.indptr[k + 1]]
                t = vk[0] / vi[0]
                if np.max(np.abs(vk - t * vi)) > 1e-12 * scale_i * abs(t):
                    continue
                if abs(b[k] - t * b[i]) > _ZERO_TOL * (1 + abs(t * b[i])):
                    return drop, ("rows %d and %d are parallel with "
                                  "conflicting right-hand sides" % (i, k))
                drop.append(k)
    return drop, None


def _rank_guard(A, b, row_ids):
    """Drop linearly dependent rows (with a consistency check on b).

    Returns ``(rows_to_drop, reason_or_None)`` where a non-``None`` reason
    means the dependent equations contradict the kept ones.  Uses a dense
    pivoted QR, which is exact where a regularized Cholesky attempt could
    mask semidefiniteness; only ``R`` and the pivots are computed, since
    the rank and the kept rows follow from them and ``Q`` is never read.
    Beyond the size cap the check is skipped and rank trouble surfaces
    through the kernel's residual guard instead.
    """
    m, n = A.shape
    if m * n > 4_000_000:
        return [], None
    At = A.toarray().T
    R, piv = scipy.linalg.qr(At, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(At.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0)
    rank = int(np.sum(diag > tol))
    kept, dropped = piv[:rank], piv[rank:]
    if not len(dropped):
        return [], None
    # Each dropped row must be the same combination of kept rows on b.
    coef, *_ = np.linalg.lstsq(At[:, kept], At[:, dropped], rcond=None)
    implied = coef.T @ b[kept]
    bad = np.abs(implied - b[dropped]) > 1e-8 * (1 + np.abs(b[dropped]))
    if np.any(bad):
        i = dropped[np.nonzero(bad)[0][0]]
        return [], ("row %d is linearly dependent with an inconsistent "
                    "right-hand side" % row_ids[i])
    return list(dropped), None


def presolve(lp):
    """Reduce a :class:`~arclp.standardize.StandardLP`.

    Returns
    -------
    reduced : StandardLP or None
        The reduced problem, or ``None`` when the report carries an
        ``infeasible`` / ``unbounded`` verdict.
    report : PresolveReport
    """
    A = lp.A.tocsc()
    A.eliminate_zeros()
    b = lp.b.copy()
    c = lp.c.copy()
    row_ids = np.arange(lp.m)
    col_ids = np.arange(lp.n)
    shift = lp.objective_shift
    report = PresolveReport(m_before=lp.m, n_before=lp.n)
    b_scale = 1.0 + np.abs(lp.b).max(initial=0.0)

    def verdict(kind, reason):
        report.verdict = kind
        report.reason = reason
        report.m_after, report.n_after = A.shape
        report.kept_rows, report.kept_cols = row_ids, col_ids
        return None, report

    # Columns the standardizer pinned at zero (zero-width bounds).
    if lp.fixed_cols:
        fixed = list(lp.fixed_cols)
        for j in lp.fixed_cols:
            report.fixed_values[j] = 0.0
        A, b, c, row_ids, col_ids = _drop(A, b, c, row_ids, col_ids,
                                          cols=fixed)
        report.events.append("dropped %d fixed columns" % len(fixed))

    changed = True
    while changed:
        changed = False
        A.eliminate_zeros()
        csr = A.tocsr()
        row_nnz = np.diff(csr.indptr)

        # Empty rows: 0 = b must hold.
        empty = np.nonzero(row_nnz == 0)[0]
        if empty.size:
            off = np.abs(b[empty]) > _ZERO_TOL * b_scale
            if np.any(off):
                i = empty[np.nonzero(off)[0][0]]
                return verdict("infeasible",
                               "empty row %d has nonzero right-hand side"
                               % row_ids[i])
            A, b, c, row_ids, col_ids = _drop(A, b, c, row_ids, col_ids,
                                              rows=empty)
            report.events.append("dropped %d empty rows" % empty.size)
            changed = True
            continue

        # Singleton rows fix their variable.
        singles = np.nonzero(row_nnz == 1)[0]
        if singles.size:
            fixed_cols, fixed_rows = [], []
            for i in singles:
                j = csr.indices[csr.indptr[i]]
                if j in fixed_cols:
                    continue    # second fix of the same column waits a pass
                v = b[i] / csr.data[csr.indptr[i]]
                if v < -_ZERO_TOL * b_scale:
                    return verdict(
                        "infeasible",
                        "singleton row %d forces a negative value"
                        % row_ids[i])
                v = max(v, 0.0)
                b -= A[:, [j]].toarray().ravel() * v
                shift += c[j] * v
                report.fixed_values[int(col_ids[j])] = v
                fixed_cols.append(j)
                fixed_rows.append(i)
            A, b, c, row_ids, col_ids = _drop(A, b, c, row_ids, col_ids,
                                              rows=fixed_rows,
                                              cols=fixed_cols)
            report.events.append("fixed %d variables from singleton rows"
                                 % len(fixed_cols))
            changed = True
            continue

        # Empty columns: optimal at 0 when the cost is nonnegative.
        col_nnz = np.diff(A.indptr)
        empty_cols = np.nonzero(col_nnz == 0)[0]
        if empty_cols.size:
            neg = c[empty_cols] < -1e-12
            if np.any(neg):
                j = empty_cols[np.nonzero(neg)[0][0]]
                return verdict(
                    "unbounded",
                    "empty column %d has negative objective coefficient"
                    % col_ids[j])
            for j in empty_cols:
                report.fixed_values[int(col_ids[j])] = 0.0
            A, b, c, row_ids, col_ids = _drop(A, b, c, row_ids, col_ids,
                                              cols=empty_cols)
            report.events.append("dropped %d empty columns"
                                 % empty_cols.size)
            changed = True
            continue

        dup, reason = _duplicate_rows(A, b)
        if reason is not None:
            return verdict("infeasible", reason)
        if dup:
            A, b, c, row_ids, col_ids = _drop(A, b, c, row_ids, col_ids,
                                              rows=dup)
            report.events.append("dropped %d duplicate rows" % len(dup))
            changed = True

    if A.shape[0]:
        dep, reason = _rank_guard(A, b, row_ids)
        if reason is not None:
            return verdict("infeasible", reason)
        if dep:
            A, b, c, row_ids, col_ids = _drop(A, b, c, row_ids, col_ids,
                                              rows=dep)
            report.events.append("dropped %d linearly dependent rows"
                                 % len(dep))

    report.m_after, report.n_after = A.shape
    report.kept_rows, report.kept_cols = row_ids, col_ids
    reduced = StandardLP(name=lp.name, A=A, b=b, c=c,
                         objective_shift=shift, var_map=lp.var_map,
                         fixed_cols=())
    return reduced, report
