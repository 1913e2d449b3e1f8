"""Standard-form transformation tests against hand-worked examples and a
dense reference built from the module docstring's block formula."""
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linprog

from arclp.mps import parse_mps
from arclp.standardize import (InfeasibleBoundsError, recover_solution,
                               to_standard_form)

from conftest import EDGE_FLOATS, examples, outcome, raw_lps

MINIMAL = """\
NAME MIN1
ROWS
 N  OBJ
 L  ROW1
COLUMNS
    X1        OBJ       1.0        ROW1      1.0
    X2        OBJ       1.0        ROW1      2.0
RHS
    RHS       ROW1      4.0
ENDATA
"""


def test_equality_only_is_identity(fix2_text):
    std = to_standard_form(parse_mps(fix2_text))
    assert std.shape == (2, 3)
    assert_array_equal(std.A.toarray(), [[1, 1, 0], [1, 0, 1]])
    assert_array_equal(std.b, [2.0, 0.0])
    assert_array_equal(std.c, [1.0, 1.0, 3.0])
    assert std.objective_shift == 0.0


def test_le_row_gets_plus_slack():
    std = to_standard_form(parse_mps(MINIMAL))
    assert std.shape == (1, 3)
    assert_array_equal(std.A.toarray(), [[1.0, 2.0, 1.0]])
    assert_array_equal(std.b, [4.0])
    assert_array_equal(std.c, [1.0, 1.0, 0.0])


def test_ge_row_gets_minus_slack():
    text = MINIMAL.replace(" L  ROW1", " G  ROW1")
    std = to_standard_form(parse_mps(text))
    assert_array_equal(std.A.toarray(), [[1.0, 2.0, -1.0]])


def test_bound_row_and_objective_shift():
    # One variable with 1 <= x <= 5 under a loose L row: the shifted
    # variable x' = x - 1 picks up a bound row x' + s_B = 4, and the
    # constant c * 1 moves into objective_shift.
    text = """\
NAME B1
ROWS
 N  OBJ
 L  ROW1
COLUMNS
    X1        OBJ       2.0        ROW1      1.0
RHS
    RHS       ROW1      10.0
BOUNDS
 LO BND       X1        1.0
 UP BND       X1        5.0
ENDATA
"""
    std = to_standard_form(parse_mps(text))
    # Columns: x', s_L, s_B; rows: the L row then the bound row.
    assert std.shape == (2, 3)
    assert_array_equal(std.A.toarray(), [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert_array_equal(std.b, [9.0, 4.0])
    assert_array_equal(std.c, [2.0, 0.0, 0.0])
    assert std.objective_shift == 2.0


def test_row_count_matches_block_sum(fix1_text):
    raw = parse_mps(fix1_text)
    std = to_standard_form(raw)
    finite_up = int(np.sum(np.isfinite(raw.upper) & (raw.upper != raw.lower)))
    assert std.m == raw.n_rows + finite_up
    # FIX1: one E, one G, one L row plus the X1 upper bound.
    assert std.m == 4


def test_free_variable_split_adjacent():
    text = MINIMAL.replace("ENDATA", "BOUNDS\n FR BND       X1\nENDATA")
    std = to_standard_form(parse_mps(text))
    rule = std.var_map.rules[0]
    assert rule[0] == "split"
    jp, jn = rule[1], rule[2]
    assert jn == jp + 1
    col_p = std.A[:, [jp]].toarray().ravel()
    col_n = std.A[:, [jn]].toarray().ravel()
    assert_array_equal(col_n, -col_p)
    assert std.c[jn] == -std.c[jp]


def test_fixed_variable_has_no_bound_row():
    text = MINIMAL.replace("ENDATA", "BOUNDS\n FX BND       X1        2.0\n"
                           "ENDATA")
    std = to_standard_form(parse_mps(text))
    # Only the L row; the fixed column is flagged instead of adding a
    # zero-width bound row.
    assert std.m == 1
    assert std.fixed_cols == (0,)
    assert std.objective_shift == 2.0
    assert_array_equal(std.b, [2.0])


def test_inconsistent_bounds_raise():
    text = MINIMAL.replace("ENDATA", "BOUNDS\n UP BND       X1        -1.0\n"
                           "ENDATA")
    with pytest.raises(InfeasibleBoundsError):
        to_standard_form(parse_mps(text))


@pytest.mark.parametrize("bounds", [" LO BND       X1        inf\n",
                                    " MI BND       X1\n"
                                    " UP BND       X1        -1e400\n"])
def test_infinite_bound_on_the_wrong_side_raises(bounds):
    text = MINIMAL.replace("ENDATA", "BOUNDS\n" + bounds + "ENDATA")
    with pytest.raises(InfeasibleBoundsError, match="no finite value"):
        to_standard_form(parse_mps(text))


def test_objective_constant_flows_into_shift(fix2_text):
    text = fix2_text.replace("    RHS       R1        2.0\n",
                             "    RHS       R1        2.0\n"
                             "    RHS       OBJ       10.0\n")
    std = to_standard_form(parse_mps(text))
    assert std.objective_shift == -10.0


class TestRecover:
    def test_shifted_variable(self):
        text = MINIMAL.replace("ENDATA",
                               "BOUNDS\n LO BND       X1        1.0\nENDATA")
        std = to_standard_form(parse_mps(text))
        x_std = np.zeros(std.n)
        x_std[0] = 3.0
        x_raw, _ = recover_solution(x_std, std.var_map)
        assert x_raw[0] == 4.0

    def test_split_variable(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n FR BND       X1\nENDATA")
        std = to_standard_form(parse_mps(text))
        jp, jn = std.var_map.rules[0][1:]
        x_std = np.zeros(std.n)
        x_std[jp], x_std[jn] = 2.0, 5.0
        x_raw, _ = recover_solution(x_std, std.var_map)
        assert x_raw[0] == -3.0

    def test_length_mismatch(self):
        std = to_standard_form(parse_mps(MINIMAL))
        with pytest.raises(ValueError):
            recover_solution(np.zeros(std.n + 1), std.var_map)

    def test_objective_recovery_end_to_end(self, fix1_text):
        # Solve the standard form with an external method and check the
        # mapped-back objective against the known optimum of FIX1.
        raw = parse_mps(fix1_text)
        std = to_standard_form(raw)
        res = linprog(std.c, A_eq=std.A.toarray(), b_eq=std.b,
                      bounds=(0, None), method="highs")
        assert res.status == 0
        x_raw, objective = recover_solution(res.x, std.var_map)
        assert_allclose(objective, -7.0, rtol=1e-9)
        assert_allclose(x_raw, [1.0, -1.0, 6.0], atol=1e-8)
        direct = raw.c @ x_raw + raw.objective_constant
        assert_allclose(objective, direct, rtol=1e-9)


def test_feasible_point_maps_forward(fix1_text):
    # Push the known raw optimum through the transformation by solving
    # for the slack values; the standard-form equations must hold.
    raw = parse_mps(fix1_text)
    std = to_standard_form(raw)
    x_raw = np.array([1.0, -1.0, 6.0])
    x_std = np.zeros(std.n)
    for i, rule in enumerate(std.var_map.rules):
        if rule[0] == "shift":
            x_std[rule[1]] = x_raw[i] - rule[2]
        else:
            x_std[rule[1]] = max(x_raw[i], 0.0)
            x_std[rule[2]] = max(-x_raw[i], 0.0)
    # Slack columns each appear in exactly one row; back-solve them.
    A = std.A.toarray()
    n_vars = max(max(r[1], r[2]) if r[0] == "split" else r[1]
                 for r in std.var_map.rules) + 1
    residual = std.b - A[:, :n_vars] @ x_std[:n_vars]
    for j in range(n_vars, std.n):
        rows = np.nonzero(A[:, j])[0]
        assert rows.size == 1
        x_std[j] = residual[rows[0]] / A[rows[0], j]
    assert_allclose(A @ x_std, std.b, atol=1e-12)
    assert np.all(x_std >= -1e-12)
    assert_allclose(std.c @ x_std + std.objective_shift,
                    raw.c @ x_raw + raw.objective_constant, rtol=1e-12)


def dense_standard_form(raw):
    """Dense reference: the module docstring's blocks, assembled whole.

    ``X`` maps standard variable columns to raw variables (a split
    variable owns a ``+e_i, -e_i`` pair), so the variable part of every
    block row is the raw row times ``X``.
    """
    lower, upper = raw.lower, raw.upper
    X, rules, fixed = [], [], []
    for i, e in enumerate(np.eye(raw.n_cols)):
        if np.isneginf(lower[i]):
            rules.append(("split", len(X), len(X) + 1))
            X += [e, -e]
        else:
            if upper[i] == lower[i]:
                fixed.append(len(X))
            rules.append(("shift", len(X), lower[i]))
            X.append(e)
    X = np.array(X).T
    l = np.where(np.isneginf(lower), 0.0, lower)
    B = [i for i in range(raw.n_cols)
         if np.isfinite(upper[i]) and upper[i] != lower[i]]
    A_E, A_G, A_L = (A.toarray() for A in (raw.A_eq, raw.A_ge, raw.A_le))
    I_B = np.eye(raw.n_cols)[B]
    m_E, m_G, m_L, m_B = map(len, (A_E, A_G, A_L, B))
    Z = np.zeros
    A = np.block([
        [A_E @ X, Z((m_E, m_G)), Z((m_E, m_L)), Z((m_E, m_B))],
        [A_G @ X, -np.eye(m_G), Z((m_G, m_L)), Z((m_G, m_B))],
        [A_L @ X, Z((m_L, m_G)), np.eye(m_L), Z((m_L, m_B))],
        [I_B @ X, Z((m_B, m_G)), Z((m_B, m_L)), np.eye(m_B)]])
    b = np.concatenate([raw.b_eq - A_E @ l, raw.b_ge - A_G @ l,
                        raw.b_le - A_L @ l, upper[B] - l[B]])
    c = np.concatenate([raw.c @ X, Z(m_G + m_L + m_B)])
    # Every stored raw entry, zero or not, is kept once per standard
    # column of its variable; slacks and bound rows add their own.
    widths = np.abs(X).sum(axis=1)
    nnz = (sum(widths[A.tocoo().col].sum()
               for A in (raw.A_eq, raw.A_ge, raw.A_le))
           + m_G + m_L + widths[B].sum() + m_B)
    return dict(A=A, b=b, c=c, X=X, l=l, nnz=nnz, rules=tuple(rules),
                fixed_cols=tuple(fixed),
                objective_shift=raw.c @ l + raw.objective_constant)


@settings(max_examples=examples(200), deadline=None)
@given(raw=raw_lps(), seed=st.integers(0, 2**32 - 1))
def test_matches_dense_block_formula(raw, seed):
    ref = dense_standard_form(raw)
    if ref["A"].shape[0] == 0:
        with pytest.raises(ValueError, match="no constraints"):
            to_standard_form(raw)
        return
    std = to_standard_form(raw)
    assert std.shape == ref["A"].shape
    assert_array_equal(std.A.toarray(), ref["A"])
    assert std.A.nnz == ref["nnz"]
    assert std.A.has_canonical_format
    assert_array_equal(std.b, ref["b"])
    # Byte for byte what scipy's products give, block by block.
    B = np.isfinite(raw.upper) & (raw.upper != raw.lower)
    b_scipy = np.concatenate([b_blk - A_blk @ ref["l"]
                              for _, A_blk, b_blk, _ in raw.blocks()]
                             + [raw.upper[B] - ref["l"][B]])
    assert std.b.tobytes() == b_scipy.tobytes()
    assert_array_equal(std.c, ref["c"])
    assert_array_equal(std.var_map.c, ref["c"])
    assert std.objective_shift == ref["objective_shift"]
    assert std.var_map.objective_shift == ref["objective_shift"]
    assert std.var_map.n_std == std.n
    assert std.fixed_cols == ref["fixed_cols"]
    assert std.var_map.rules == ref["rules"]

    x_std = np.random.default_rng(seed).integers(0, 5, std.n).astype(float)
    x_raw, objective = recover_solution(x_std, std.var_map)
    X = ref["X"]
    assert_array_equal(x_raw, X @ x_std[:X.shape[1]] + ref["l"])
    assert objective == raw.c @ x_raw + raw.objective_constant


def test_blocks_in_any_sparse_format(fix1_text):
    # Blocks with unsorted or duplicate entries, or not in CSR, give the
    # standard form of their canonical CSR (duplicates summed).
    raw = parse_mps(fix1_text)
    std = to_standard_form(raw)
    A_eq = raw.A_eq.tocoo()
    halves = sp.coo_array((np.tile(A_eq.data / 2, 2),
                           (np.tile(A_eq.row, 2), np.tile(A_eq.col, 2))),
                          shape=A_eq.shape)
    A_le = raw.A_le
    unsorted = sp.csr_array((A_le.data[::-1], A_le.indices[::-1],
                             A_le.indptr), shape=A_le.shape)
    assert not unsorted.has_sorted_indices
    for blocks in (dict(A_eq=halves), dict(A_le=unsorted),
                   dict(A_ge=raw.A_ge.tocsc())):
        other = to_standard_form(dataclasses.replace(raw, **blocks))
        assert other.A.has_canonical_format
        assert_array_equal(other.A.indptr, std.A.indptr)
        assert_array_equal(other.A.indices, std.A.indices)
        assert_array_equal(other.A.data, std.A.data)
        assert_array_equal(other.b, std.b)


def recover_by_rules(x_std, var_map):
    """``x_raw`` by the rule tuples, one raw variable at a time."""
    x_raw = np.empty(len(var_map.rules))
    for i, rule in enumerate(var_map.rules):
        if rule[0] == "split":
            x_raw[i] = x_std[rule[1]] - x_std[rule[2]]
        else:
            x_raw[i] = x_std[rule[1]] + rule[2]
    return x_raw


@settings(max_examples=examples(200), deadline=None)
@given(raw=raw_lps(), data=st.data())
def test_recovery_applies_the_rules_bit_for_bit(raw, data):
    if dense_standard_form(raw)["A"].shape[0] == 0:
        return
    var_map = to_standard_form(raw).var_map
    x_std = data.draw(hnp.arrays(float, var_map.n_std, elements=EDGE_FLOATS))
    assert (outcome(lambda x: recover_solution(x, var_map)[0], x_std)
            == outcome(recover_by_rules, x_std, var_map))
