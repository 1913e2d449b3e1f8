"""Shared fixtures: tiny MPS problems, random feasible LP generators and
hypothesis strategies for raw LPs."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import arclp
from arclp.mps import RawLP
from arclp.standardize import StandardLP, VarMap

ROOT = Path(__file__).resolve().parents[1]
NETLIB_DIR = ROOT / "data" / "netlib"

# Classic three-variable example exercising every row type and a
# shifted lower bound.  Optimum: x = (1, -1, 6), objective -7.
FIX1_MPS = """\
NAME          FIX1
ROWS
 N  COST
 L  LIM1
 G  LIM2
 E  MYEQN
COLUMNS
    X1        COST      1.0        LIM1      1.0
    X1        LIM2      1.0
    X2        COST      2.0        LIM1      1.0
    X2        MYEQN     -1.0
    X3        COST      -1.0       MYEQN     1.0
RHS
    RHS       LIM1      4.0        LIM2      1.0
    RHS       MYEQN     7.0
BOUNDS
 UP BND       X1        4.0
 LO BND       X2        -1.0
ENDATA
"""

# Equality-only problem, already near standard form.  Optimum:
# x = (0, 2, 0) with objective 2 (minimize x1 + x2 + 3 x3 on the
# simplex-like constraints below).
FIX2_MPS = """\
NAME          FIX2
ROWS
 N  OBJ
 E  R1
 E  R2
COLUMNS
    X1        OBJ       1.0        R1        1.0
    X1        R2        1.0
    X2        OBJ       1.0        R1        1.0
    X3        OBJ       3.0        R2        1.0
RHS
    RHS       R1        2.0
ENDATA
"""

# Infeasible by bounds: equality row forces x = 5 but x <= 1.
FIX_INFEASIBLE_MPS = """\
NAME          BADLP
ROWS
 N  OBJ
 E  ROW1
COLUMNS
    X1        OBJ       1.0        ROW1      1.0
RHS
    RHS       ROW1      5.0
BOUNDS
 UP BND       X1        1.0
ENDATA
"""


@pytest.fixture
def fix1_text():
    return FIX1_MPS


@pytest.fixture
def fix2_text():
    return FIX2_MPS


@pytest.fixture
def netlib_dir():
    if not NETLIB_DIR.is_dir():
        pytest.skip("bundled test set not found")
    return NETLIB_DIR


def make_standard_lp(A, b, c, name="fixture", shift=0.0):
    """Wrap arrays (``A`` dense or sparse) as a StandardLP with an identity
    variable map."""
    A = sp.csc_array(A if sp.issparse(A)
                     else np.atleast_2d(np.asarray(A, dtype=float)))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    rules = tuple(("shift", j, 0.0) for j in range(A.shape[1]))
    var_map = VarMap(rules=rules, n_std=A.shape[1], c=c.copy(),
                     objective_shift=shift)
    return StandardLP(name=name, A=A, b=b, c=c, objective_shift=shift,
                      var_map=var_map)


def random_feasible_lp(rng, m, n, name="random"):
    """Random standard-form LP with strictly feasible primal and dual.

    Drawing x*, s* > 0 and any lam*, then setting b = A x* and
    c = A.T lam* + s*, guarantees both feasible regions have interior
    points, so an optimum exists and path-following methods apply.
    """
    while True:
        A = rng.standard_normal((m, n))
        if np.linalg.matrix_rank(A) == m:
            break
    x_star = rng.uniform(0.5, 2.0, size=n)
    s_star = rng.uniform(0.5, 2.0, size=n)
    lam_star = rng.standard_normal(m)
    b = A @ x_star
    c = A.T @ lam_star + s_star
    return make_standard_lp(A, b, c, name=name)


@pytest.fixture
def small_lp():
    """Fixed 3x5 feasible LP used across solver tests."""
    rng = np.random.default_rng(7)
    return random_feasible_lp(rng, 3, 5, name="small")


def perfbench_module(name):
    """Load ``perfbench/<name>.py`` read-only, without putting the
    benchmark's directory on the import path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def staircase_raw():
    """The benchmark generator's staircase production plan with five
    periods, 20 products and 10 resources (m = 250, n = 450 after
    presolve), the smallest LP of the tier-1 suite on the sparse path."""
    return perfbench_module("workloads").staircase_lp(
        arclp, 5, 20, 10, np.random.default_rng(5), "st5x20x10")


# Small integers keep every product and sum exact, so the dense reference
# and the sparse assembly must agree to the last bit.
SMALL = st.integers(-4, 4).map(float)


@st.composite
def bounds(draw):
    """``(lower, upper)`` of one of the MPS bound types, never crossed."""
    kind = draw(st.sampled_from(["PL", "FR", "MI", "FX", "LO", "UP",
                                 "LO+UP"]))
    lo, up = sorted([draw(SMALL), draw(SMALL)])
    return {"PL": (0.0, np.inf), "FR": (-np.inf, np.inf),
            "MI": (-np.inf, up), "FX": (lo, lo), "LO": (lo, np.inf),
            "UP": (0.0, abs(up)), "LO+UP": (lo, up)}[kind]


@st.composite
def raw_lps(draw):
    """RawLP with 0-3 rows per E/G/L block and stored zero entries."""
    n = draw(st.integers(1, 5))
    blocks = {}
    for kind in "EGL":
        m = draw(st.integers(0, 3))
        vals = draw(hnp.arrays(float, (m, n), elements=SMALL))
        stored = draw(hnp.arrays(bool, (m, n)))
        rows, cols = np.nonzero(stored)
        blocks[kind] = (
            sp.csr_array((vals[rows, cols], (rows, cols)), shape=(m, n)),
            draw(hnp.arrays(float, m, elements=SMALL)),
            ["%s%d" % (kind, i) for i in range(m)])
    lower, upper = np.array(draw(st.lists(bounds(), min_size=n,
                                          max_size=n))).T
    (A_eq, b_eq, r_eq), (A_ge, b_ge, r_ge), (A_le, b_le, r_le) = \
        blocks.values()
    return RawLP(name="P", col_names=["X%d" % j for j in range(n)],
                 c=draw(hnp.arrays(float, n, elements=SMALL)),
                 A_eq=A_eq, b_eq=b_eq, row_names_eq=r_eq,
                 A_ge=A_ge, b_ge=b_ge, row_names_ge=r_ge,
                 A_le=A_le, b_le=b_le, row_names_le=r_le,
                 lower=lower, upper=upper,
                 objective_constant=draw(SMALL))
