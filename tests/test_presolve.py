"""Presolve rule tests: each rule alone, the cascade, and verdicts."""
import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linprog

from arclp.mps import parse_mps
from arclp.presolve import _core_rows, _rank_guard, presolve
from arclp.standardize import to_standard_form

from conftest import FIX_INFEASIBLE_MPS, make_standard_lp


def test_empty_row_with_zero_rhs_removed():
    lp = make_standard_lp([[1.0, 1.0], [0.0, 0.0]], [2.0, 0.0], [1.0, 1.0])
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.shape == (1, 2)
    assert report.m_before == 2 and report.m_after == 1


def test_empty_row_with_nonzero_rhs_infeasible():
    lp = make_standard_lp([[1.0, 1.0], [0.0, 0.0]], [2.0, 1.0], [1.0, 1.0])
    reduced, report = presolve(lp)
    assert reduced is None
    assert report.verdict == "infeasible"
    assert "row" in report.reason


def test_singleton_row_fixes_variable():
    # 2 x1 = 4 pins x1 = 2; the remaining row drops the contribution.
    lp = make_standard_lp([[2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                          [4.0, 5.0], [3.0, 1.0, 1.0])
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.shape == (1, 2)
    assert report.fixed_values == {0: 2.0}
    assert_array_equal(reduced.b, [3.0])
    # Objective constant from the fixed variable: 3 * 2.
    assert reduced.objective_shift == lp.objective_shift + 6.0


def test_singleton_row_negative_value_infeasible():
    lp = make_standard_lp([[2.0, 0.0], [1.0, 1.0]], [-4.0, 5.0], [1.0, 1.0])
    reduced, report = presolve(lp)
    assert reduced is None
    assert report.verdict == "infeasible"


def test_empty_column_dropped_when_cost_nonnegative():
    lp = make_standard_lp([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]],
                          [2.0, 0.0], [1.0, 1.0, 4.0])
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.shape == (2, 2)
    # The zero column is feasible only at 0, so no objective change.
    assert reduced.objective_shift == lp.objective_shift


def test_empty_column_negative_cost_unbounded():
    lp = make_standard_lp([[1.0, 0.0]], [1.0], [1.0, -1.0])
    reduced, report = presolve(lp)
    assert reduced is None
    assert report.verdict == "unbounded"


def test_parallel_rows_dropped_by_rank_guard():
    # Row 2 is twice row 1 and no column is private to a row, so the rank
    # guard's QR sees all three rows and drops one.
    lp = make_standard_lp([[1.0, 2.0], [2.0, 4.0], [1.0, -1.0]],
                          [3.0, 6.0, 0.0], [1.0, 1.0])
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.m == 2


def test_parallel_rows_inconsistent_rhs_infeasible():
    # Parallel rows whose right-hand sides disagree fail the rank guard's
    # consistency check.
    lp = make_standard_lp([[1.0, 2.0], [2.0, 4.0]], [3.0, 7.0], [1.0, 1.0])
    reduced, report = presolve(lp)
    assert reduced is None
    assert report.verdict == "infeasible"


def test_fixed_columns_eliminated():
    lp = make_standard_lp([[1.0, 1.0, 1.0], [1.0, -1.0, 2.0]],
                          [3.0, 1.0], [1.0, 1.0, 1.0])
    lp = dataclasses.replace(lp, fixed_cols=(2,))
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.shape == (2, 2)
    assert report.fixed_values.get(2) == 0.0


def test_cascade_can_solve_outright():
    # The singleton row 3 fixes x1, which leaves rows 1 and 2 singletons
    # on x2; row 1 fixes it and row 2 is left empty with a zero
    # right-hand side: the whole problem collapses and the solver returns
    # the constant.
    lp = make_standard_lp([[1.0, 2.0], [2.0, 4.0], [1.0, 0.0]],
                          [3.0, 6.0, 1.0], [5.0, 1.0])
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.shape == (0, 0)
    assert report.fixed_values == {0: 1.0, 1: 1.0}
    assert reduced.objective_shift == 6.0
    x = report.restore(np.zeros(0))
    assert_array_equal(x, [1.0, 1.0])

    from arclp.solvers import SolveResult, solve
    res = solve(reduced)
    assert res.status == "Optimal"
    assert res.iterations == 0
    assert res.objective == 6.0


def test_dependent_rows_dropped_by_rank_guard():
    # Row 3 = row 1 + row 2 and no row owns a column, so the rank guard's
    # QR sees all three rows and restores full row rank.
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    lp = make_standard_lp(A, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.m == 2
    assert np.linalg.matrix_rank(reduced.A.toarray()) == 2


def test_dependent_rows_inconsistent_infeasible():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    lp = make_standard_lp(A, [1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    reduced, report = presolve(lp)
    assert reduced is None
    assert report.verdict == "infeasible"


def full_qr_guard(A, b):
    """Rank and consistency of ``A x = b`` from a pivoted QR of all rows."""
    At = A.toarray().T
    R, piv = scipy.linalg.qr(At, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > max(At.shape) * np.finfo(float).eps * diag[0]))
    kept, dropped = piv[:rank], piv[rank:]
    coef, *_ = np.linalg.lstsq(At[:, kept], At[:, dropped], rcond=None)
    gap = np.abs(coef.T @ b[kept] - b[dropped])
    return rank, bool(np.all(gap <= 1e-8 * (1 + np.abs(b[dropped]))))


@settings(max_examples=200, deadline=None)
@given(n_base=st.integers(1, 5), n_shared=st.integers(1, 6),
       n_dep=st.integers(0, 3), n_private=st.integers(0, 5),
       perturb=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_rank_guard_matches_a_full_qr(n_base, n_shared, n_dep, n_private,
                                      perturb, seed):
    # Base rows, integer combinations of them, and rows that own a private
    # column each, shuffled; b is consistent unless one entry is moved.
    rng = np.random.default_rng(seed)
    base = rng.integers(-3, 4, (n_base, n_shared)).astype(float)
    base[0, 0] = 1.0
    dep = rng.integers(-2, 3, (n_dep, n_base)) @ base
    private = np.hstack([rng.integers(-3, 4, (n_private, n_shared)),
                         np.diag(rng.choice([-2.0, 1.0, 3.0], n_private))])
    dense = np.zeros((n_base + n_dep + n_private, n_shared + n_private))
    dense[:n_base + n_dep, :n_shared] = np.vstack([base, dep])
    dense[n_base + n_dep:] = private
    dense = dense[rng.permutation(dense.shape[0])]
    dense = dense[:, rng.permutation(dense.shape[1])]
    A = sp.csc_array(dense)
    b = A @ rng.uniform(0.5, 2.0, A.shape[1])
    if perturb:
        b[rng.integers(A.shape[0])] += 1.0
    rank, consistent = full_qr_guard(A, b)
    assert rank == np.linalg.matrix_rank(dense)

    drop, reason = _rank_guard(A, b, np.arange(A.shape[0]))
    assert (reason is None) == consistent
    if consistent:
        kept = np.setdiff1d(np.arange(A.shape[0]), drop)
        assert kept.size == rank
        assert np.linalg.matrix_rank(dense[kept]) == rank


def slack_rows_lp(inconsistent):
    """2100 rows over 3797 columns, m*n about 8.0e6: rows 0 and 1 fill
    the first 1700 columns, row 2 is their sum, and every later row holds
    one of those columns and a slack column of its own."""
    m, k = 2100, 1700
    rng = np.random.default_rng(5)
    top = rng.integers(1, 6, (2, k)).astype(float)
    top = np.vstack([top, top.sum(axis=0)])
    rest = np.arange(3, m)
    rows = np.concatenate([np.repeat([0, 1, 2], k), rest, rest])
    cols = np.concatenate([np.tile(np.arange(k), 3), rest % k,
                           k + rest - 3])
    vals = np.concatenate([top.ravel(), np.ones(2 * rest.size)])
    A = sp.csc_array((vals, (rows, cols)), shape=(m, k + m - 3))
    b = A @ np.ones(A.shape[1])
    b[2] += float(inconsistent)
    return make_standard_lp(A, b, np.ones(A.shape[1]))


def test_rank_guard_runs_past_the_full_matrix_cap():
    # m*n is twice the QR's cap, but the slack rows peel off and leave a
    # core of three rows, one of them dependent.
    lp = slack_rows_lp(inconsistent=False)
    assert lp.m * lp.n > 4_000_000
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.m == lp.m - 1
    assert "dropped 1 linearly dependent rows" in report.events


def test_rank_guard_past_the_full_matrix_cap_proves_infeasible():
    reduced, report = presolve(slack_rows_lp(inconsistent=True))
    assert reduced is None
    assert report.verdict == "infeasible"
    assert "linearly dependent" in report.reason


def test_peel_stops_at_its_budget():
    # On a bidiagonal chain each round peels only the two end rows, so the
    # peel would need m / 2 rounds; it takes 4e6 // nnz rounds and leaves
    # the middle of the chain in the core, which is over the QR's cap.
    m = 20_000
    A = sp.diags_array([np.ones(m), np.ones(m)], offsets=[0, 1],
                       shape=(m, m + 1)).tocsc()
    rounds = 4_000_000 // A.nnz
    core = _core_rows(A)
    assert_array_equal(core, np.arange(rounds, m - rounds))
    lp = make_standard_lp(A, A @ np.ones(m + 1), np.ones(m + 1))
    reduced, report = presolve(lp)
    assert report.verdict is None and reduced.m == m


def test_bound_contradiction_detected(netlib_dir):
    std = to_standard_form(parse_mps(FIX_INFEASIBLE_MPS))
    reduced, report = presolve(std)
    assert reduced is None
    assert report.verdict == "infeasible"


def test_restore_lifts_reduced_point():
    lp = make_standard_lp([[2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                          [4.0, 5.0], [3.0, 1.0, 1.0])
    reduced, report = presolve(lp)
    x = report.restore(np.array([1.0, 2.0]))
    assert x.shape == (3,)
    assert x[0] == 2.0
    assert_allclose(lp.A @ x, lp.b)


def test_objective_preserved_on_fixture(fix1_text):
    std = to_standard_form(parse_mps(fix1_text))
    reduced, report = presolve(std)
    assert report.verdict is None
    before = linprog(std.c, A_eq=std.A.toarray(), b_eq=std.b,
                     bounds=(0, None), method="highs")
    after = linprog(reduced.c, A_eq=reduced.A.toarray(), b_eq=reduced.b,
                    bounds=(0, None), method="highs")
    assert before.status == 0 and after.status == 0
    assert_allclose(before.fun + std.objective_shift,
                    after.fun + reduced.objective_shift, atol=1e-8)


def test_full_row_rank_after_presolve(netlib_dir):
    for name in ("afiro", "sc50b"):
        std = to_standard_form(parse_mps((netlib_dir / (name + ".mps"))
                                         .read_text()))
        reduced, report = presolve(std)
        assert report.verdict is None
        A = reduced.A.toarray()
        assert np.linalg.matrix_rank(A) == reduced.m


def test_reference_sizes(netlib_dir):
    # Published dimensions for these two instances after reduction.
    expected = {"afiro": (27, 51), "kb2": (52, 77)}
    for name, (m, n) in expected.items():
        std = to_standard_form(parse_mps((netlib_dir / (name + ".mps"))
                                         .read_text()))
        reduced, report = presolve(std)
        assert (reduced.m, reduced.n) == (m, n), name


def test_report_prints_summary():
    lp = make_standard_lp([[1.0, 1.0], [0.0, 0.0]], [2.0, 0.0], [1.0, 1.0])
    _, report = presolve(lp)
    text = str(report)
    assert "2x2" in text and "1x2" in text
