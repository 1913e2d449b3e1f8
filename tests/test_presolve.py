"""Presolve rule tests: each rule alone, the cascade, and verdicts."""
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linprog

from arclp.mps import parse_mps
from arclp.presolve import presolve
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


def test_duplicate_rows_merged():
    lp = make_standard_lp([[1.0, 2.0], [2.0, 4.0], [1.0, -1.0]],
                          [3.0, 6.0, 0.0], [1.0, 1.0])
    reduced, report = presolve(lp)
    assert report.verdict is None
    assert reduced.m == 2


def test_duplicate_rows_inconsistent_rhs_infeasible():
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
    # Duplicate merge exposes a singleton, which exposes another: the
    # whole problem collapses and the solver returns the constant.
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
    # Row 3 = row 1 + row 2: no duplicate-pair rule fires, only the
    # rank guard can restore full row rank.
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
