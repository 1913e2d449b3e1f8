"""End to end on the sparse factorization path (m > ``DENSE_LIMIT``).

The bundled netlib instances all stay on the dense path, so a staircase
production plan from the benchmark's generator (``perfbench/workloads.py``,
loaded read-only) is solved through the whole pipeline by every algorithm
and checked against scipy's HiGHS.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import arclp
from arclp.linalg import DENSE_LIMIT
from arclp.solvers import Status

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def staircase(tmp_path_factory):
    """Five periods, 20 products, 10 resources: m = 250 and n = 450 after
    presolve; the MPS file and HiGHS's optimal objective."""
    raw = workloads.staircase_lp(arclp, 5, 20, 10, np.random.default_rng(5),
                                 "st5x20x10")
    path = tmp_path_factory.mktemp("staircase") / "st5x20x10.mps"
    path.write_text(arclp.write_mps(raw))
    return path, workloads.highs_reference(raw)


@pytest.mark.parametrize("algorithm", ["alg2", "arc", "line", "alg1"])
def test_staircase_solves_on_the_sparse_path(staircase, algorithm):
    path, ref = staircase
    config = arclp.SolverConfig(algorithm=algorithm)
    record, _, _ = arclp.solve_mps_file(path, config)
    assert (record.m, record.n) == (250, 450)
    assert record.m > DENSE_LIMIT
    assert record.status == Status.OPTIMAL
    # The gap the relative stopping rule allows.
    tol = record.n * config.epsilon * max(1.0, abs(ref))
    assert abs(record.objective - ref) <= tol
