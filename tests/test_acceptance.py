"""Acceptance suite: one test per published claim this package checks.

Each test prints a single PASS/FAIL line with the measured numbers so a
plain ``pytest -v -s tests/test_acceptance.py`` doubles as a report.
"""
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from arclp.bench import (BenchmarkRecord, average_time_report,
                         performance_profile, run_benchmark)
from arclp.mps import parse_mps
from arclp.presolve import presolve
import arclp.solvers
from arclp.solvers import SolverConfig, Status, solve
from arclp.standardize import to_standard_form

from conftest import NETLIB_DIR, random_feasible_lp
from test_linalg import brute_force, lp_of, residual_norms
from arclp.linalg import factor, solve_block

# The published table must hold on any BLAS thread count: CI runs the
# suite on two threads as well.
pytestmark = pytest.mark.two_blas_threads

# Published iteration counts for the three practical methods
# (momentum / plain arc / line search) on the desk-scale subset.
REFERENCE_ITERATIONS = {
    "afiro": (7, 8, 9),
    "adlittle": (10, 11, 13),
    "sc50a": (8, 8, 9),
    "sc50b": (7, 7, 8),
    "kb2": (24, 24, 24),
    "share2b": (12, 14, 15),
    "scagr7": (12, 12, 15),
    "beaconfd": (7, 8, 10),
}

# Certified optimal objectives for the same instances.
REFERENCE_OBJECTIVES = {
    "afiro": -4.6475314286e2,
    "adlittle": 2.2549496316e5,
    "sc50a": -6.4575077059e1,
    "sc50b": -7.0000000000e1,
    "kb2": -1.7499001299e3,
    "share2b": -4.1573224074e2,
    "scagr7": -2.3313892548e6,
    "beaconfd": 3.3592485807e4,
}

ALGORITHMS = ("alg2", "arc", "line")


def report(ok, line):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


@pytest.fixture(scope="module")
def reproduction(netlib_suite_guard):
    configs = [SolverConfig(algorithm=a) for a in ALGORITHMS]
    t0 = time.perf_counter()
    records = run_benchmark(NETLIB_DIR, configs)
    elapsed = time.perf_counter() - t0
    table = {(r.problem.lower(), r.algorithm): r for r in records}
    return table, elapsed


@pytest.fixture(scope="module")
def netlib_suite_guard():
    missing = [p for p in REFERENCE_ITERATIONS
               if not (NETLIB_DIR / (p + ".mps")).is_file()]
    if missing:
        pytest.skip("bundled test set incomplete: %s" % missing)


def load_reduced(name):
    std = to_standard_form(parse_mps((NETLIB_DIR / (name + ".mps"))
                                     .read_text()))
    reduced, rep = presolve(std)
    assert rep.verdict is None
    return reduced


def test_criterion_1_iteration_counts(reproduction):
    table, elapsed = reproduction
    worst = 0
    rows = []
    for problem, expected in REFERENCE_ITERATIONS.items():
        for algorithm, target in zip(ALGORITHMS, expected):
            rec = table[(problem, algorithm)]
            assert rec.status == Status.OPTIMAL, (problem, algorithm)
            gap = abs(rec.iterations - target)
            worst = max(worst, gap)
            rows.append((problem, algorithm, rec.iterations, target))
    ok = worst <= 3 and elapsed < 5.0
    report(ok, "criterion 1: iteration counts within +-3 of the published "
           "table on %d runs (worst gap %d) in %.2f s < 5 s"
           % (len(rows), worst, elapsed))


def test_criterion_2_method_ordering(reproduction):
    table, _ = reproduction
    wins = 0
    for problem in REFERENCE_ITERATIONS:
        k2 = table[(problem, "alg2")].iterations
        ka = table[(problem, "arc")].iterations
        kl = table[(problem, "line")].iterations
        if k2 <= ka and ka <= kl + 1:
            wins += 1
    report(wins >= 6, "criterion 2: momentum <= arc <= line+1 ordering "
           "holds on %d of 8 problems (need >= 6)" % wins)


def test_criterion_3_objective_correctness(reproduction):
    table, _ = reproduction
    worst = 0.0
    for problem, certified in REFERENCE_OBJECTIVES.items():
        # Independent oracle: an unrelated LP code on the same
        # standard-form problem must agree with the certified value.
        reduced = load_reduced(problem)
        res = linprog(reduced.c, A_eq=reduced.A, b_eq=reduced.b,
                      bounds=(0, None), method="highs")
        assert res.status == 0, problem
        oracle = res.fun + reduced.objective_shift
        # Published optima are rounded; 2.4e-7 separates the two common
        # figures for scagr7, so the oracle guard sits at 1e-6.
        assert abs(oracle - certified) <= 1e-6 * abs(certified), problem
        for algorithm in ALGORITHMS:
            rec = table[(problem, algorithm)]
            rel = abs(rec.objective - certified) / abs(certified)
            worst = max(worst, rel)
    report(worst <= 1e-5, "criterion 3: objectives match the certified "
           "values on all 24 runs (worst relative error %.2e <= 1e-5)"
           % worst)


def _check_guarded_trace(res, theta, beta, rtol=1e-8):
    """Re-derive every contraction claim from the recorded trace."""
    rows = res.trace
    assert res.invariant_violations == []
    if not rows:
        return
    rb0 = rows[0]["rb"]
    floor = 1e-12 * (1.0 + np.max(np.abs(rb0)))
    sign0 = np.sign(rb0)
    mus = [row["mu"] for row in rows] + [res.mu]
    for k, row in enumerate(rows):
        shrink = 1.0 - row["sin_alpha"]
        assert abs(mus[k + 1] - shrink * row["mu"]) \
            <= rtol * max(shrink * row["mu"], 1e-300)
        if k + 1 < len(rows):
            nxt = rows[k + 1]
            assert abs(nxt["rc_norm"] - shrink * row["rc_norm"]) \
                <= rtol * (1.0 + row["rc_norm"])
            live = np.abs(row["rb"]) > floor
            bound = np.abs(row["rb"][live]) * shrink * (1 + 1e-10) + floor
            assert np.all(np.abs(nxt["rb"][live]) <= bound)
            moving = np.abs(nxt["rb"]) > floor
            assert np.all((np.sign(nxt["rb"]) == sign0)[moving])
        mu = row["mu"]
        dev = np.linalg.norm(row["x"] * row["s"] - mu)
        assert dev <= theta * mu * (1.0 + 1e-8)
        if row["beta_k"] > 0.0:
            x, z = row["x"], row["z"]
            assert np.all(z >= (1 - beta) * x - 1e-12 * np.abs(x))
            assert np.all(z <= (1 + beta) * x + 1e-12 * np.abs(x))
    # Final accepted point stays in the neighborhood too.
    dev = np.linalg.norm(res.x * res.s - res.mu)
    assert dev <= theta * res.mu * (1.0 + 1e-8)


def test_criterion_4_guarded_invariants(netlib_suite_guard):
    cfg = SolverConfig(algorithm="alg1", trace=True)
    rng = np.random.default_rng(20240901)
    runs = 0
    solved = 0
    for _ in range(50):
        m = int(rng.integers(2, 16))
        n = int(rng.integers(m + 2, 31))
        lp = random_feasible_lp(rng, m, n)
        res = solve(lp, cfg)
        _check_guarded_trace(res, cfg.theta, cfg.beta)
        runs += 1
        solved += res.status == Status.OPTIMAL
    for name in ("afiro", "kb2"):
        res = solve(load_reduced(name), cfg)
        _check_guarded_trace(res, cfg.theta, cfg.beta)
        runs += 1
        solved += res.status == Status.OPTIMAL
    report(solved == runs, "criterion 4: contraction, sign, neighborhood "
           "and restart-box invariants hold at 1e-8 on all %d guarded "
           "runs (%d reached Optimal)" % (runs, solved))


def test_criterion_5_momentum_equivalence(monkeypatch):
    # The momentum path runs in full, with every restart weight zero.
    monkeypatch.setattr(arclp.solvers, "momentum_weight_simple",
                        lambda *args: 0.0)
    rng = np.random.default_rng(20240902)
    for i in range(10):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(m + 2, 25))
        lp = random_feasible_lp(rng, m, n)
        frozen = solve(lp, SolverConfig(algorithm="alg2", trace=True))
        plain = solve(lp, SolverConfig(algorithm="arc", trace=True))
        assert frozen.status == plain.status, i
        assert frozen.iterations == plain.iterations, i
        mu_a = np.array([r["mu"] for r in frozen.trace])
        mu_b = np.array([r["mu"] for r in plain.trace])
        assert np.allclose(mu_a, mu_b, rtol=1e-12, atol=0.0), i
    report(True, "criterion 5: zero-momentum runs are iterate-for-iterate "
           "identical to the arc baseline on 10 random problems")


def test_criterion_6_kernel_oracle():
    rng = np.random.default_rng(20240903)
    checked = 0
    worst_rel = 0.0
    while checked < 200:
        m = int(rng.integers(1, 21))
        n = int(rng.integers(m, 41))
        A = rng.standard_normal((m, n))
        if np.linalg.matrix_rank(A) < m:
            continue
        # Scaling spread of 1e4 in p/q squares to ~1e8 in the normal
        # matrix, the regime a mid-solve iteration actually produces.
        p = 10.0 ** rng.uniform(-2, 2, n)
        q = 10.0 ** rng.uniform(-2, 2, n)
        r1 = rng.standard_normal(m)
        r2 = rng.standard_normal(n)
        r3 = rng.standard_normal(n)
        fac = factor(lp_of(A), p, q)
        dx, dlam, ds = solve_block(fac, r1, r2, r3)
        bound = 1e-8 * (1 + np.linalg.norm(np.concatenate([r1, r2, r3])))
        assert max(residual_norms(A, p, q, r1, r2, r3,
                                  dx, dlam, ds)) <= bound
        bx, blam, bs = brute_force(A, p, q, r1, r2, r3)
        scale = max(np.max(np.abs(np.concatenate([bx, blam, bs]))), 1e-30)
        rel = np.max(np.abs(np.concatenate([dx - bx, dlam - blam,
                                            ds - bs]))) / scale
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6
        checked += 1
    report(True, "criterion 6: 200 random block systems match the dense "
           "oracle (worst relative gap %.2e <= 1e-6) with residuals "
           "within bound" % worst_rel)


def test_criterion_7_momentum_weight_sensitivity(netlib_suite_guard):
    totals = {}
    for beta in (0.001, 0.1, 0.5, 0.9):
        total = 0
        for problem in REFERENCE_ITERATIONS:
            res = solve(load_reduced(problem),
                        SolverConfig(algorithm="alg2", beta=beta))
            assert res.status == Status.OPTIMAL, (problem, beta)
            total += res.iterations
        totals[beta] = total
    ok = totals[0.9] <= totals[0.001]
    report(ok, "criterion 7: total iterations at beta=0.9 (%d) <= "
           "beta=0.001 (%d); full sweep %s"
           % (totals[0.9], totals[0.001], totals))


def test_criterion_8_profile_correctness():
    def rec(problem, solver, iterations, status=Status.OPTIMAL):
        return BenchmarkRecord(problem=problem, n=1, m=1, algorithm=solver,
                               beta=0.9,
                               status=status, iterations=iterations,
                               time_seconds=1.0, mu=0.0, rb_norm=0.0,
                               rc_norm=0.0, objective=0.0)

    curves = performance_profile([rec("p1", "A", 10), rec("p2", "A", 20),
                                  rec("p1", "B", 20), rec("p2", "B", 20)])
    a, b = sorted(curves, key=lambda c: c.solver)
    assert np.array_equal(a.taus, [1.0])
    assert np.array_equal(a.fractions, [1.0])
    assert np.array_equal(b.taus, [1.0, 2.0])
    assert np.array_equal(b.fractions, [0.5, 1.0])
    # Unsolved runs count as infinite ratios and monotonicity holds.
    curves = performance_profile(
        [rec("p1", "A", 10), rec("p2", "A", 20), rec("p1", "B", 20),
         rec("p2", "B", 100, status=Status.ITERATION_LIMIT)])
    b = [c for c in curves if c.solver.startswith("B")][0]
    assert b.fractions.max() == 0.5
    for c in curves:
        assert np.all(np.diff(c.fractions) >= 0)
    report(True, "criterion 8: performance profile matches the "
           "hand-computed curves exactly and treats unsolved runs as "
           "infinite ratios")


def test_criterion_9_out_of_scope_claims_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    documented = ("does not attempt to reproduce" in text
                  and "methodology" in text)
    # The slow-subset timing comparison is mirrored as methodology only:
    # the helper must select exactly the problems every solver found slow.
    def rec(problem, solver, seconds):
        return BenchmarkRecord(problem=problem, n=1, m=1, algorithm=solver,
                               beta=0.9,
                               status=Status.OPTIMAL, iterations=1,
                               time_seconds=seconds, mu=0.0, rb_norm=0.0,
                               rc_norm=0.0, objective=0.0)
    rep = average_time_report([rec("p1", "A", 40.0), rec("p1", "B", 35.0),
                               rec("p2", "A", 50.0), rec("p2", "B", 1.0)],
                              threshold=30.0)
    assert rep.problems == ["p1"]
    report(documented, "criterion 9: full-scale sweep, solve-count table "
           "and average-time reduction are documented as out of scope; "
           "the timing methodology itself is implemented and tested")
