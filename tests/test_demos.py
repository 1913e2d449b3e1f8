"""The scripts under demos/ run to their documented end."""
import runpy
import sys

import pytest

from conftest import FIX_INFEASIBLE_MPS, ROOT

DEMOS = ROOT / "demos"

CROSSED_BOUNDS_MPS = ("NAME CROSS\nROWS\n N  OBJ\n L  R1\nCOLUMNS\n"
                      "    X1  OBJ  1.0  R1  1.0\nRHS\n    RHS  R1  4.0\n"
                      "BOUNDS\n LO BND  X1  3.0\n UP BND  X1  1.0\n"
                      "ENDATA\n")


def run_demo(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [str(DEMOS / name), *map(str, args)])
    runpy.run_path(str(DEMOS / name), run_name="__main__")


def test_solve_one_on_afiro(monkeypatch, capsys):
    run_demo(monkeypatch, "solve_one.py")
    out = capsys.readouterr().out
    assert "momentum arc search: Optimal" in out
    assert "plain arc search:    Optimal" in out


@pytest.mark.parametrize("text", [CROSSED_BOUNDS_MPS, FIX_INFEASIBLE_MPS],
                         ids=["crossed-bounds", "presolve-infeasible"])
def test_solve_one_exits_1_when_the_input_decides(monkeypatch, capsys,
                                                  tmp_path, text):
    path = tmp_path / "decided.mps"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_demo(monkeypatch, "solve_one.py", path)
    assert exc.value.code == 1
    assert ": Infeasible (" in capsys.readouterr().out


def test_compare_methods(monkeypatch, capsys):
    run_demo(monkeypatch, "compare_methods.py")
    assert "momentum vs plain arc" in capsys.readouterr().out


def test_make_profile(monkeypatch, capsys, tmp_path):
    run_demo(monkeypatch, "make_profile.py", tmp_path)
    assert (tmp_path / "records.csv").is_file()
    assert (tmp_path / "profile.csv").is_file()


def test_beta_sweep(monkeypatch):
    run_demo(monkeypatch, "beta_sweep.py")
