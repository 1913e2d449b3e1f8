"""Command-line surface tests: flags, exit codes, output schemas."""
import csv
import json

import pytest
from numpy.testing import assert_allclose

from arclp.cli import main

from conftest import FIX1_MPS, FIX2_MPS, FIX_INFEASIBLE_MPS, NETLIB_DIR


@pytest.fixture
def fix1_path(tmp_path):
    path = tmp_path / "fix1.mps"
    path.write_text(FIX1_MPS)
    return path


@pytest.fixture
def problem_dir(tmp_path):
    (tmp_path / "fix1.mps").write_text(FIX1_MPS)
    (tmp_path / "fix2.mps").write_text(FIX2_MPS)
    return tmp_path


class TestSolve:
    def test_default_solve(self, fix1_path, capsys):
        code = main(["solve", str(fix1_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Optimal" in out
        assert "FIX1" in out

    def test_json_output(self, fix1_path, capsys):
        code = main(["solve", str(fix1_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Optimal"
        assert payload["algorithm"] == "alg2"
        assert_allclose(payload["objective"], -7.0, rtol=1e-6)
        assert payload["iterations"] > 0

    @pytest.mark.parametrize("text, status", [
        (FIX_INFEASIBLE_MPS, "Infeasible"),
        ("ROWS\n", "InputError"),
    ], ids=["infeasible", "input_error"])
    def test_json_without_a_solve_is_strict_json(self, tmp_path, capsys,
                                                 text, status):
        # When the input decides the outcome no figure is computed; the
        # output must still parse without nan or inf constants.
        path = tmp_path / "lp.mps"
        path.write_text(text)
        code = main(["solve", str(path), "--json"])
        assert code == 4

        def reject(constant):
            raise ValueError("not JSON: %s" % constant)
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=reject)
        assert payload["status"] == status
        for key in ("mu", "rb_norm", "rc_norm", "objective"):
            assert payload[key] is None, key

    def test_algorithm_flag(self, fix1_path, capsys):
        code = main(["solve", str(fix1_path), "--algorithm", "line",
                     "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "line"

    def test_netlib_instance(self, capsys):
        if not NETLIB_DIR.is_dir():
            pytest.skip("bundled test set not found")
        code = main(["solve", str(NETLIB_DIR / "afiro.mps"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert_allclose(payload["objective"], -464.75314286, rtol=1e-6)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "absent.mps")])
        assert code == 1
        assert "no such file" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mps"
        bad.write_text("ROWS\n")
        code = main(["solve", str(bad)])
        assert code == 4

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inf.mps"
        path.write_text(FIX_INFEASIBLE_MPS)
        code = main(["solve", str(path)])
        assert code == 4

    def test_iteration_limit_exit_code(self, fix1_path, capsys):
        code = main(["solve", str(fix1_path), "--max-iter", "1"])
        assert code == 2

    def test_bad_flag_value(self, fix1_path, capsys):
        code = main(["solve", str(fix1_path), "--beta", "2.0"])
        assert code == 1
        assert "beta" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, fix1_path, capsys):
        code = main(["solve", str(fix1_path), "--simplex"])
        assert code == 1

    def test_unknown_algorithm_choice(self, fix1_path, capsys):
        code = main(["solve", str(fix1_path), "--algorithm", "qp"])
        assert code == 1

    def test_trace_csv(self, fix1_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["solve", str(fix1_path), "--trace", str(trace)])
        assert code == 0
        rows = list(csv.reader(trace.read_text().splitlines()))
        assert rows[0] == ["iter", "mu", "mu_z", "beta_k", "step_primal",
                           "step_dual", "rb_norm", "rc_norm"]
        assert len(rows) > 1


class TestBench:
    def test_bench_to_stdout(self, problem_dir, capsys):
        code = main(["bench", str(problem_dir),
                     "--algorithms", "alg2,arc"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("problem,")
        assert len(lines) == 5

    def test_bench_to_file(self, problem_dir, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", str(problem_dir), "--algorithms", "alg2",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("problem,")

    def test_missing_directory(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path / "void")])
        assert code == 1

    def test_empty_directory(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path)])
        assert code == 1

    def test_no_algorithms(self, problem_dir, capsys):
        code = main(["bench", str(problem_dir), "--algorithms", ","])
        assert code == 1

    @pytest.mark.parametrize("limit", ["-1", "0", "nan"])
    def test_bad_time_limit(self, problem_dir, capsys, limit):
        code = main(["bench", str(problem_dir), "--time-limit", limit])
        assert code == 1
        captured = capsys.readouterr()
        assert "time_limit" in captured.err and captured.out == ""


class TestProfile:
    def _bench_csv(self, problem_dir, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", str(problem_dir),
                     "--algorithms", "alg2,line", "--out", str(out)]) == 0
        return out

    def test_profile_schema(self, problem_dir, tmp_path, capsys):
        csv_path = self._bench_csv(problem_dir, tmp_path)
        code = main(["profile", str(csv_path)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "solver,tau,fraction"
        assert len(lines) >= 3

    def test_time_metric_routed(self, problem_dir, tmp_path, capsys):
        csv_path = self._bench_csv(problem_dir, tmp_path)
        code = main(["profile", str(csv_path), "--metric", "time"])
        assert code == 0

    def test_time_threshold_report(self, problem_dir, tmp_path, capsys):
        csv_path = self._bench_csv(problem_dir, tmp_path)
        code = main(["profile", str(csv_path), "--time-threshold", "30"])
        assert code == 0
        assert "no problems" in capsys.readouterr().out

    def test_missing_csv(self, tmp_path, capsys):
        code = main(["profile", str(tmp_path / "void.csv")])
        assert code == 1

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        code = main(["profile", str(path)])
        assert code == 1
