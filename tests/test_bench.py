"""Harness tests: pipeline records, CSV round trip, profiles, timing."""
import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

import arclp.bench
from arclp.bench import (AverageTimeReport, BenchmarkRecord, ProfileCurve,
                         average_time_report, performance_profile,
                         profile_to_csv, records_from_csv, records_to_csv,
                         run_benchmark, solve_mps_file)
from arclp.solvers import SolverConfig, Status

from conftest import FIX1_MPS, FIX2_MPS, FIX_INFEASIBLE_MPS


def record(problem, solver="alg2", status=Status.OPTIMAL, iterations=10,
           seconds=1.0, beta=0.9, note=""):
    return BenchmarkRecord(problem=problem, n=5, m=3, algorithm=solver,
                           beta=beta, status=status, iterations=iterations,
                           time_seconds=seconds, mu=1e-9, rb_norm=1e-10,
                           rc_norm=1e-10, objective=-1.0, note=note)


@pytest.fixture
def problem_dir(tmp_path):
    (tmp_path / "fix1.mps").write_text(FIX1_MPS)
    (tmp_path / "fix2.mps").write_text(FIX2_MPS)
    return tmp_path


class TestSolveMpsFile:
    def test_fixture_solves(self, problem_dir):
        rec, result, x_raw = solve_mps_file(problem_dir / "fix1.mps")
        assert rec.status == Status.OPTIMAL
        assert rec.problem == "FIX1"
        assert rec.iterations == result.iterations > 0
        assert_allclose(rec.objective, -7.0, rtol=1e-6)
        assert_allclose(x_raw, [1.0, -1.0, 6.0], atol=1e-5)

    def test_missing_file_recorded(self, tmp_path):
        rec, result, x_raw = solve_mps_file(tmp_path / "nope.mps")
        assert rec.status == Status.INPUT_ERROR
        assert result is None and x_raw is None
        assert rec.note != ""

    def test_malformed_file_recorded(self, tmp_path):
        bad = tmp_path / "bad.mps"
        bad.write_text("ROWS\ngarbage\n")
        rec, _, _ = solve_mps_file(bad)
        assert rec.status == Status.INPUT_ERROR

    def test_infeasible_verdict(self, tmp_path):
        path = tmp_path / "inf.mps"
        path.write_text(FIX_INFEASIBLE_MPS)
        rec, result, _ = solve_mps_file(path)
        assert rec.status == Status.INFEASIBLE
        assert result is None

    def test_undecodable_file_is_input_error(self, tmp_path):
        bad = tmp_path / "binary.mps"
        bad.write_bytes(b"\xff\xfe\x00")
        rec, result, _ = solve_mps_file(bad)
        assert rec.status == Status.INPUT_ERROR and result is None

    def test_non_utf8_byte_in_a_comment_is_read(self, netlib_dir, tmp_path):
        # One decoding rule, whatever the locale: undecodable bytes are
        # replaced, as parse_mps does with bytes.
        path = tmp_path / "afiro.mps"
        path.write_bytes(b"* caf\xe9\n"
                         + (netlib_dir / "afiro.mps").read_bytes())
        rec, _, _ = solve_mps_file(path)
        assert rec.status == Status.OPTIMAL

    def test_bound_conflict_is_infeasible(self, tmp_path):
        path = tmp_path / "cross.mps"
        path.write_text("NAME CROSS\nROWS\n N  OBJ\n L  R1\nCOLUMNS\n"
                        "    X1  OBJ  1.0  R1  1.0\nRHS\n    RHS  R1  4.0\n"
                        "BOUNDS\n LO BND  X1  3.0\n UP BND  X1  2.0\n"
                        "ENDATA\n")
        rec, result, _ = solve_mps_file(path)
        assert rec.status == Status.INFEASIBLE
        assert result is None and "upper bound" in rec.note

    def test_no_constraints_is_input_error(self, tmp_path):
        path = tmp_path / "free.mps"
        path.write_text("NAME FREE\nROWS\n N  OBJ\nCOLUMNS\n"
                        "    X1  OBJ  1.0\nENDATA\n")
        rec, result, _ = solve_mps_file(path)
        assert rec.status == Status.INPUT_ERROR
        assert result is None and "no constraints" in rec.note

    @pytest.mark.parametrize("old, new, lineno", [
        ("ENDATA", "BOUNDS\n UP BND  X1  nan\nENDATA", 14),
        ("R1        1.0\n    X3", "R1        NaN\n    X3", 9),
        ("R1        1.0\n    X3", "R1        inf\n    X3", 9),
        ("R1        2.0", "R1        -1e400", 12),
        ("ENDATA", "RANGES\n    RNG  R2  nan\nENDATA", 14),
    ], ids=["nan-bound", "nan-coefficient", "inf-coefficient", "inf-rhs",
            "nan-range"])
    def test_nonfinite_number_is_input_error(self, tmp_path, old, new,
                                             lineno):
        path = tmp_path / "nonfinite.mps"
        assert old in FIX2_MPS
        path.write_text(FIX2_MPS.replace(old, new, 1))
        rec, result, _ = solve_mps_file(path)
        assert rec.status == Status.INPUT_ERROR and result is None
        assert rec.note.startswith("line %d: non-finite" % lineno)

    def test_config_echoed(self, problem_dir):
        cfg = SolverConfig(algorithm="line", beta=0.5)
        rec, _, _ = solve_mps_file(problem_dir / "fix2.mps", cfg)
        assert rec.algorithm == "line"
        assert rec.beta == 0.5

    @pytest.mark.parametrize("algorithm", ["alg2", "arc", "line", "alg1"])
    def test_requests_make_no_product_through_scipys_dispatch(
            self, netlib_dir, monkeypatch, algorithm):
        # Every product with A and A.T on the request path calls scipy's
        # CSR kernel through linalg.matvec, which skips the operator's
        # Python dispatch.
        def refused(self, other):
            raise AssertionError("a product went through csr_array's @")
        monkeypatch.setattr(sp.csr_array, "__matmul__", refused)
        config = SolverConfig(algorithm=algorithm)
        for path in sorted(netlib_dir.glob("*.mps")):
            rec, _, _ = solve_mps_file(path, config)
            assert rec.status == Status.OPTIMAL, path.stem


class TestRunBenchmark:
    def test_cross_product(self, problem_dir):
        configs = [SolverConfig(algorithm="alg2"),
                   SolverConfig(algorithm="line")]
        records = run_benchmark(problem_dir, configs)
        assert len(records) == 4
        # Deterministic order: sorted files, configs in given order.
        assert [r.problem for r in records] == ["FIX1", "FIX1",
                                                "FIX2", "FIX2"]
        assert [r.algorithm for r in records] == ["alg2", "line",
                                                  "alg2", "line"]
        assert all(r.status == Status.OPTIMAL for r in records)

    def test_failures_do_not_abort(self, problem_dir):
        (problem_dir / "bad.mps").write_text("not an lp\n")
        records = run_benchmark(problem_dir, [SolverConfig()])
        assert len(records) == 3
        statuses = {r.problem: r.status for r in records}
        assert statuses["bad"] == Status.INPUT_ERROR
        assert statuses["FIX1"] == Status.OPTIMAL

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError):
            run_benchmark(tmp_path, [SolverConfig()])

    def test_time_limit_passes_through(self, problem_dir):
        records = run_benchmark(problem_dir,
                                [SolverConfig(time_limit=1e-9)])
        assert all(r.status == Status.ITERATION_LIMIT for r in records)

    @pytest.mark.parametrize("time_limit", [-1.0, 0.0, float("nan")])
    def test_bad_time_limit_raises_before_solving(self, problem_dir,
                                                  monkeypatch, time_limit):
        monkeypatch.setattr(arclp.bench, "solve_mps_file", None)
        with pytest.raises(ValueError, match="time_limit"):
            run_benchmark(problem_dir,
                          [SolverConfig(time_limit=time_limit)])


class TestCsvRoundTrip:
    def test_round_trip(self):
        records = [record("p1"), record("p2", solver="line", beta=0.5,
                                        status=Status.ITERATION_LIMIT,
                                        iterations=100,
                                        note='time limit, "soft"')]
        text = records_to_csv(records)
        lines = text.strip().splitlines()
        assert lines[0] == ("problem,n,m,algorithm,beta,status,iterations,"
                            "time_seconds,mu,rb_norm,rc_norm,objective,"
                            "note")
        back = records_from_csv(text)
        assert len(back) == 2
        assert back[0].problem == "p1"
        assert back[1].status == Status.ITERATION_LIMIT
        assert back[1].beta == 0.5
        assert back[0].iterations == 10
        assert back[0].note == ""
        assert back[1].note == 'time limit, "soft"'

    def test_rejects_foreign_header(self):
        # The second header is the older format's, with a beta_formula
        # column after beta.
        for text in ("a,b,c\n1,2,3\n",
                     "problem,n,m,algorithm,beta,beta_formula,status,"
                     "iterations,time_seconds,mu,rb_norm,rc_norm,objective,"
                     "note\np1,5,3,alg2,0.9,simple,Optimal,10,1.000000,"
                     "1.000000e-09,1.000000e-10,1.000000e-10,-1.0,\n"):
            with pytest.raises(ValueError):
                records_from_csv(text)

    def test_rejects_a_row_of_the_wrong_width(self):
        header, row = records_to_csv([record("p1")]).splitlines()
        for bad in (row.rsplit(",", 1)[0], row + ",extra"):
            with pytest.raises(ValueError, match="columns"):
                records_from_csv(header + "\n" + bad + "\n")


class TestSolverKey:
    def test_key_holds_only_parameters_the_algorithm_reads(self):
        # arc and line do not read beta; alg1 and alg2 do.
        assert record("p", "arc", beta=0.5).solver_key() \
            == record("p", "arc", beta=0.9).solver_key() == "arc"
        assert record("p", "line", beta=0.5).solver_key() == "line"
        alg1 = record("p", "alg1", beta=0.5)
        assert alg1.solver_key() == "alg1|beta=0.5"
        assert record("p", "alg2", beta=0.5).solver_key() == "alg2|beta=0.5"


class TestPerformanceProfile:
    def test_hand_example(self):
        records = [record("p1", "A", iterations=10),
                   record("p2", "A", iterations=20),
                   record("p1", "B", iterations=20),
                   record("p2", "B", iterations=20)]
        curves = performance_profile(records)
        by_solver = {c.solver.split("|")[0]: c for c in curves}
        a, b = by_solver["A"], by_solver["B"]
        assert_array_equal(a.taus, [1.0])
        assert_array_equal(a.fractions, [1.0])
        assert_array_equal(b.taus, [1.0, 2.0])
        assert_array_equal(b.fractions, [0.5, 1.0])

    def test_single_solver_all_solved(self):
        curves = performance_profile([record("p1"), record("p2")])
        assert len(curves) == 1
        assert_array_equal(curves[0].fractions, [1.0])

    def test_unsolved_is_infinite_ratio(self):
        records = [record("p1", "A"), record("p2", "A"),
                   record("p1", "B"),
                   record("p2", "B", status=Status.ITERATION_LIMIT,
                          iterations=100)]
        curves = performance_profile(records)
        b = [c for c in curves if c.solver.startswith("B")][0]
        assert b.fractions.max() <= 0.5

    def test_curves_monotone(self):
        rng = np.random.default_rng(31)
        records = []
        for p in range(6):
            for s in ("A", "B", "C"):
                status = (Status.OPTIMAL if rng.uniform() > 0.2
                          else Status.STEP_TOO_SMALL)
                records.append(record("p%d" % p, s, status=status,
                                      iterations=int(rng.integers(5, 40))))
        for curve in performance_profile(records):
            assert np.all(np.diff(curve.fractions) >= 0)
            assert np.all(np.diff(curve.taus) > 0)
            # Terminal value equals this solver's solved fraction.
            solved = sum(1 for r in records
                         if r.solver_key() == curve.solver
                         and r.status == Status.OPTIMAL)
            assert_allclose(curve.fractions[-1], solved / 6.0)

    def test_time_metric(self):
        records = [record("p1", "A", seconds=1.0),
                   record("p1", "B", seconds=3.0)]
        curves = performance_profile(records, metric="time")
        b = [c for c in curves if c.solver.startswith("B")][0]
        assert_array_equal(b.taus, [1.0, 3.0])

    def test_mismatched_problem_sets_rejected(self):
        with pytest.raises(ValueError):
            performance_profile([record("p1", "A"), record("p2", "B")])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            performance_profile([record("p1"), record("p1")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            performance_profile([])

    def test_csv_schema(self):
        text = profile_to_csv(performance_profile([record("p1")]))
        lines = text.strip().splitlines()
        assert lines[0] == "solver,tau,fraction"
        assert len(lines) == 2


class TestAverageTimeReport:
    def test_common_slow_subset(self):
        records = [record("p1", "A", seconds=10.0),
                   record("p2", "A", seconds=20.0),
                   record("p1", "B", seconds=30.0),
                   record("p2", "B", seconds=40.0)]
        report = average_time_report(records, threshold=5.0)
        assert sorted(report.problems) == ["p1", "p2"]
        means = {k.split("|")[0]: v for k, v in report.means.items()}
        assert means == {"A": 15.0, "B": 35.0}

    def test_requires_all_solvers_slow(self):
        records = [record("p1", "A", seconds=10.0),
                   record("p2", "A", seconds=1.0),
                   record("p1", "B", seconds=30.0),
                   record("p2", "B", seconds=40.0)]
        report = average_time_report(records, threshold=5.0)
        assert report.problems == ["p1"]

    def test_empty_subset_prints_notice(self):
        records = [record("p1", "A", seconds=0.1)]
        report = average_time_report(records, threshold=30.0)
        assert report.problems == []
        assert "no problems" in str(report)
