"""End to end on the band alone and on the band with a dense border.

The factor first eliminates the rows whose entries all lie in private
columns but at most one (a staircase's bound rows).  The rows it keeps
are ranked by degree, their entries in linking columns: the leading
rows of the ranking form a border when each has at least four times
the degree of every row after them and at least four times the number
of border rows.  The other rows form a band, in reverse Cuthill-McKee
order with each component started at a pseudo-peripheral row, refined
by averaging sweeps.  On a transport plan, of any size, the border is
exactly the supply rows, and the demand rows left form a band of
half-width 0.  The bundled netlib instances have no much-denser rows,
so they take the band alone.  A staircase production plan from the
benchmark's generator (``perfbench/workloads.py``, loaded read-only) is
solved through the whole pipeline by every algorithm and checked
against scipy's HiGHS.  With five periods its normal matrix has
half-width 78, and 57 on the 150 rows kept; it has no much-denser row,
so it is factored in band storage, which the averaging sweeps narrow to
half-width 32.  A ten-period plan with one more row over all columns
couples every two kept rows, which makes the kept rows' half-width 291
(498 before the elimination).  That row has 600 entries in linking
columns against 16 for any other row: it forms the border, and the
other 300 kept rows a band of half-width 57, 32 once refined.
"""
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import arclp
import arclp.linalg
from arclp.mps import parse_mps
from arclp.presolve import presolve
from arclp.solvers import Status
from arclp.standardize import to_standard_form

from conftest import (NETLIB_DIR, assert_supply_border, perfbench_module,
                      staircase_raw)

linalg = arclp.linalg

# pbtrf works in level-3 BLAS blocks once the half-width reaches its block
# size, 32, the staircase's; a border's W.T @ W and potrf are level-3 BLAS
# too.  CI runs the staircase solves, on the band alone and with the
# linking row's border, and the layouts on two BLAS threads as well.
pytestmark = pytest.mark.two_blas_threads


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
    presolve, half-width 78, and 57 on the 150 rows kept (32 refined)."""
    return plan_file(staircase_raw(), tmp_path_factory)


@pytest.fixture(scope="module")
def linked_staircase(tmp_path_factory):
    """Ten periods with the linking row: m = 501 and n = 901 after
    presolve, half-width 498, and 291 on the 301 rows kept."""
    return plan_file(with_linking_row(staircase_raw(10)), tmp_path_factory)


def presolved(path):
    return presolve(to_standard_form(parse_mps(path.read_text())))[0]


def links(lp):
    """The ``_Links`` of ``lp``'s rows, and of the rows the factor keeps."""
    At = linalg._columns(lp.At)
    every = linalg._links(At)
    found = linalg._eliminate(At, every)
    return every, every if found is None else found[1]


def half_widths(lp):
    """The half-width of ``lp``'s normal matrix in reverse Cuthill-McKee
    order, and that of the rows the factor keeps, in theirs."""
    return tuple(linalg._rcm_order(B)[1] for B in links(lp))


def refined_half_width(lp):
    """The half-width of the kept rows in their refined order."""
    kept = links(lp)[1]
    return linalg._refine(kept, *linalg._rcm_order(kept))[1]


def test_half_width_picks_the_path(staircase, linked_staircase):
    lp, linked = presolved(staircase[0]), presolved(linked_staircase[0])
    assert (lp.m, lp.n, linked.m, linked.n) == (250, 450, 501, 901)
    assert half_widths(lp) == (78, 57)
    assert half_widths(linked) == (498, 291)
    pm = lp.product_map
    assert (pm.kd, pm.border) == (32, 0)
    assert (pm.m, pm.elim.rows.size) == (150, 100)
    # The linking row, the row of A with the most entries, is the
    # border's one row.
    pm = linked.product_map
    assert (pm.kd, pm.border) == (32, 1)
    assert pm.perm[-1] == np.diff(linked.A.indptr).argmax()
    assert (pm.m, pm.elim.rows.size) == (301, 200)
    # Every netlib instance and every size of the benchmark's staircase
    # generator takes the band alone, and every size of its transport
    # generator a band of half-width 0 with the supply rows as border.
    workloads = perfbench_module("workloads")
    rng = np.random.default_rng(1)
    narrow = [presolved(path) for path in sorted(NETLIB_DIR.glob("*.mps"))]
    transport = [presolve(to_standard_form(workloads.transport_lp(
        arclp, *size, rng, "tr%dx%d" % size)))[0]
        for size in workloads.TRANSPORT_SIZES]
    narrow += [presolve(to_standard_form(workloads.staircase_lp(
        arclp, *size, rng, "st%dx%dx%d" % size)))[0]
        for size in workloads.STAIRCASE_SIZES]
    assert len(narrow) + len(transport) == 15
    for lp, (supply, _) in zip(transport, workloads.TRANSPORT_SIZES):
        assert_supply_border(lp, supply)
    # The refined half-widths are pinned: an order that widens a band
    # fails here.
    assert {lp.name: lp.product_map.kd for lp in narrow} == {
        "ADLITTLE": 30, "AFIRO": 12, "BEACONFD": 68, "KB2": 26, "SC50A": 12,
        "SC50B": 12, "SCAGR7": 15, "SHARE2B": 32, "st42x20x10": 32,
        "st50x20x10": 32}
    for lp in narrow:
        pm = lp.product_map
        rows = pm.perm.tolist()
        if pm.elim is not None:
            rows += pm.elim.rows.tolist()
        assert pm.kd == refined_half_width(lp) <= half_widths(lp)[1]
        assert pm.border == 0 and sorted(rows) == list(range(lp.m))


@pytest.mark.parametrize("supply, demand", [(20, 300), (40, 400)])
def test_transport_border_is_the_supply_rows(supply, demand):
    # A supply row has an entry in each of its plan's demand columns, a
    # demand row one per supply row.  Without the supply rows the demand
    # rows are pairwise column-disjoint, and the supply rows are the rows
    # of most entries in linking columns, each with more than four times
    # a demand row's and four times the number of supply rows: the border
    # rule takes them, after a band of half-width 0.
    workloads = perfbench_module("workloads")
    lp = presolve(to_standard_form(workloads.transport_lp(
        arclp, supply, demand, np.random.default_rng(1),
        "tr%dx%d" % (supply, demand))))[0]
    assert lp.m == supply + demand
    assert_supply_border(lp, supply)


@pytest.mark.parametrize("rows, step", [
    (1, 1), (2, 1), (4, 1), (8, 1), (1, 2), (1, 10)])
def test_linking_rows_form_the_border(rows, step, monkeypatch):
    # A twelve-period plan with `rows` more rows over every `step`-th
    # column: over all, half or a tenth of the 720 columns.  Each such
    # row has 72 to 720 entries in linking columns, against 16 for any
    # row of the plan, so the linking rows form the border, in rank
    # order (equal degrees, so by row index), and the plan's own rows the
    # band of the plain plan, ordered by one reverse Cuthill-McKee search
    # (two breadth-first searches from its pseudo-peripheral start, as
    # for the plain plan).
    raw = staircase_raw(12)
    n = len(raw.col_names)
    rng = np.random.default_rng(rows)
    link = np.zeros((rows, n))
    link[:, ::step] = rng.uniform(1.0, 2.0, (rows, link[:, ::step].shape[1]))
    linked = dataclasses.replace(
        raw, A_le=sp.vstack([raw.A_le, sp.csr_array(link)]).tocsr(),
        b_le=np.append(raw.b_le, np.full(rows, 20.0 * raw.b_eq.sum())),
        row_names_le=raw.row_names_le + ["LINK%d" % r for r in range(rows)])
    calls = {"_rcm_order": 0, "_search": 0}

    def counted(name):
        real = getattr(linalg, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name))
    plain = linalg.map_products(to_standard_form(raw).At)
    searches = calls["_search"]
    calls.update({"_rcm_order": 0, "_search": 0})
    lp = to_standard_form(linked)
    pm = linalg.map_products(lp.At)
    assert calls == {"_rcm_order": 1, "_search": searches}
    assert plain.border == 0 and pm.border == rows
    assert pm.kd == plain.kd == 32
    size = np.diff(lp.A.indptr)
    densest = np.argsort(-size, kind="stable")[:rows]
    assert pm.perm[-rows:].tolist() == sorted(densest)
    assert size[densest].min() > np.delete(size, densest).max()


def solve_on(path, ref, algorithm, border, monkeypatch):
    """Solve the plan at ``path`` with ``algorithm``, check the answer
    against ``ref`` and that every factorization had a border of
    ``border`` rows; return the record."""
    borders = []
    real_cholesky = arclp.linalg._cholesky

    def cholesky(pm, values):
        borders.append(pm.border)
        return real_cholesky(pm, values)

    monkeypatch.setattr(arclp.linalg, "_cholesky", cholesky)
    config = arclp.SolverConfig(algorithm=algorithm)
    record, _, _ = arclp.solve_mps_file(path, config)
    assert set(borders) == {border}
    assert len(borders) >= record.iterations
    assert record.status == Status.OPTIMAL
    # The gap the relative stopping rule allows.
    tol = record.n * config.epsilon * max(1.0, abs(ref))
    assert abs(record.objective - ref) <= tol
    return record


@pytest.mark.parametrize("algorithm", ["alg2", "arc", "line", "alg1"])
def test_staircase_solves_on_the_band(staircase, algorithm, monkeypatch):
    record = solve_on(*staircase, algorithm, 0, monkeypatch)
    assert (record.m, record.n) == (250, 450)


@pytest.mark.parametrize("algorithm", ["alg2", "arc", "line", "alg1"])
def test_linked_staircase_solves_with_a_border(linked_staircase, algorithm,
                                              monkeypatch):
    record = solve_on(*linked_staircase, algorithm, 1, monkeypatch)
    assert (record.m, record.n) == (501, 901)
