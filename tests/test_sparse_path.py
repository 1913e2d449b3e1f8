"""End to end above ``DENSE_LIMIT`` rows, on the band and on the sparse
LU path.

The factor first eliminates the rows whose entries all lie in private
columns but at most one (a staircase's bound rows); the half-width of
the normal matrix of the rows it keeps, in reverse Cuthill-McKee order
with each component started at a pseudo-peripheral row, picks the path.
The bundled netlib instances and the benchmark's transport plans have
fewer than ``DENSE_LIMIT`` rows, so their half-width is under the limit
and they take the band whatever their pattern.  A staircase production
plan from the benchmark's generator (``perfbench/workloads.py``, loaded
read-only) has more rows: it is solved through the whole pipeline by
every algorithm and checked against scipy's HiGHS.  With five periods
its normal matrix has half-width 77, and 57 on the 150 rows kept, under
the limit, so it is factored in band storage.  A ten-period plan with
one more row over all columns couples every two kept rows, which makes
the kept rows' half-width 299 (498 before the elimination): that plan
is factored by sparse LU.
"""
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import arclp
import arclp.linalg
from arclp.linalg import DENSE_LIMIT
from arclp.mps import parse_mps
from arclp.presolve import presolve
from arclp.solvers import Status
from arclp.standardize import to_standard_form

from conftest import NETLIB_DIR, perfbench_module, staircase_raw

linalg = arclp.linalg


def with_linking_row(raw):
    """``raw`` plus one row ``sum(x) <= 10 * sum(demand)``.  The optimal
    plan uses far less, so the row changes the structure and not the
    optimum."""
    n = len(raw.col_names)
    return dataclasses.replace(
        raw, name=raw.name + "link",
        A_le=sp.vstack([raw.A_le, sp.csr_array(np.ones((1, n)))]).tocsr(),
        b_le=np.append(raw.b_le, 10.0 * raw.b_eq.sum()),
        row_names_le=raw.row_names_le + ["LINK"])


def plan_file(raw, tmp_path_factory):
    """``raw``'s MPS file and HiGHS's optimal objective."""
    path = tmp_path_factory.mktemp("staircase") / (raw.name + ".mps")
    path.write_text(arclp.write_mps(raw))
    return path, perfbench_module("workloads").highs_reference(raw)


@pytest.fixture(scope="module")
def staircase(tmp_path_factory):
    """Five periods, 20 products, 10 resources: m = 250 and n = 450 after
    presolve, half-width 77, and 57 on the 150 rows kept."""
    return plan_file(staircase_raw(), tmp_path_factory)


@pytest.fixture(scope="module")
def linked_staircase(tmp_path_factory):
    """Ten periods with the linking row: m = 501 and n = 901 after
    presolve, half-width 498, and 299 on the 301 rows kept."""
    return plan_file(with_linking_row(staircase_raw(10)), tmp_path_factory)


def presolved(path):
    return presolve(to_standard_form(parse_mps(path.read_text())))[0]


def half_widths(lp):
    """The half-width of ``lp``'s normal matrix in reverse Cuthill-McKee
    order, and that of the rows the factor keeps, in theirs."""
    At = linalg._columns(lp.At)
    found = linalg._eliminate(At)
    At1 = At if found is None else found[0]
    return tuple(linalg._rcm_order(B)[1] for B in (At, At1))


def test_half_width_picks_the_path(staircase, linked_staircase):
    lp, linked = presolved(staircase[0]), presolved(linked_staircase[0])
    assert (lp.m, lp.n, linked.m, linked.n) == (250, 450, 501, 901)
    assert half_widths(lp) == (77, 57)
    assert half_widths(linked) == (498, 299)
    assert lp.product_map.kd == 57 and lp.product_map.indptr is None
    assert (lp.product_map.m, lp.product_map.elim.rows.size) == (150, 100)
    assert linked.product_map.kd is None
    assert linked.product_map.indptr is not None
    pm = linked.product_map
    assert (pm.m, pm.elim.rows.size) == (301, 200)
    # Every netlib instance and the largest transport plan take the band.
    narrow = [presolved(path) for path in sorted(NETLIB_DIR.glob("*.mps"))]
    narrow.append(presolve(to_standard_form(
        perfbench_module("workloads").transport_lp(
            arclp, 16, 176, np.random.default_rng(1), "tr16x176")))[0])
    assert len(narrow) == 9
    for lp in narrow:
        pm = lp.product_map
        rows = pm.perm.tolist()
        if pm.elim is not None:
            rows += pm.elim.rows.tolist()
        assert pm.kd == half_widths(lp)[1] < DENSE_LIMIT
        assert pm.indptr is None and sorted(rows) == list(range(lp.m))


def solve_on(path, ref, algorithm, layout, monkeypatch):
    """Solve the plan at ``path`` with ``algorithm``, check the answer
    against ``ref`` and that every factorization took ``layout``'s path;
    return the record."""
    calls = {}
    for name, key in (("_band_cholesky", "band"),
                      ("_splu_in_order", "sparse")):
        def counted(M, real=getattr(arclp.linalg, name), key=key):
            calls[key] = calls.get(key, 0) + 1
            return real(M)
        monkeypatch.setattr(arclp.linalg, name, counted)
    config = arclp.SolverConfig(algorithm=algorithm)
    record, _, _ = arclp.solve_mps_file(path, config)
    assert record.m > DENSE_LIMIT
    assert list(calls) == [layout]
    assert calls[layout] >= record.iterations
    assert record.status == Status.OPTIMAL
    # The gap the relative stopping rule allows.
    tol = record.n * config.epsilon * max(1.0, abs(ref))
    assert abs(record.objective - ref) <= tol
    return record


@pytest.mark.parametrize("algorithm", ["alg2", "arc", "line", "alg1"])
def test_staircase_solves_on_the_sparse_path(staircase, algorithm,
                                             monkeypatch):
    record = solve_on(*staircase, algorithm, "band", monkeypatch)
    assert (record.m, record.n) == (250, 450)


@pytest.mark.parametrize("algorithm", ["alg2", "arc", "line", "alg1"])
def test_linked_staircase_solves_by_sparse_lu(linked_staircase, algorithm,
                                              monkeypatch):
    record = solve_on(*linked_staircase, algorithm, "sparse", monkeypatch)
    assert (record.m, record.n) == (501, 901)
