"""End to end above ``DENSE_LIMIT``, on the band and on the sparse LU path.

The bundled netlib instances all stay on the dense path, so a staircase
production plan from the benchmark's generator (``perfbench/workloads.py``,
loaded read-only) is solved through the whole pipeline by every algorithm
and checked against scipy's HiGHS.  In reverse Cuthill-McKee order its
normal matrix has half-width 105, under the dense limit, so it is
factored in band storage.  The same plan with one more row over all
columns couples every two rows of the normal matrix, which makes the
half-width 248: that plan is factored by sparse LU.
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

from conftest import perfbench_module, staircase_raw


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
    presolve, half-width 105."""
    return plan_file(staircase_raw(), tmp_path_factory)


@pytest.fixture(scope="module")
def linked_staircase(tmp_path_factory):
    """The same plan with the linking row: m = 251, n = 451, half-width
    248."""
    return plan_file(with_linking_row(staircase_raw()), tmp_path_factory)


def presolved(path):
    return presolve(to_standard_form(parse_mps(path.read_text())))[0]


def test_half_width_picks_the_path(staircase, linked_staircase):
    lp, linked = presolved(staircase[0]), presolved(linked_staircase[0])
    assert (lp.m, lp.n, linked.m, linked.n) == (250, 450, 251, 451)
    assert arclp.linalg._rcm_order(lp.At)[1] == 105
    assert arclp.linalg._rcm_order(linked.At)[1] == 248
    assert lp.product_map.kd == 105 and lp.product_map.indptr is None
    assert linked.product_map.kd is None
    assert linked.product_map.indptr is not None


def solve_on(path, ref, algorithm, layout, monkeypatch):
    """Solve the plan at ``path`` with ``algorithm``, check the answer
    against ``ref`` and that every factorization took ``layout``'s path;
    return the record."""
    calls = {}
    for name, key in (("_cholesky", "dense"), ("_band_cholesky", "band"),
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
    assert (record.m, record.n) == (251, 451)
