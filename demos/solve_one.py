"""Solve one MPS instance and walk through the iteration trace.

Run from the repository root:

    python3 demos/solve_one.py [path/to/problem.mps]

With no argument the bundled afiro instance is used.  The script solves
it twice, with and without the momentum restart, and prints the trace of
the momentum run so the restart weight and the per-iteration progress
are visible side by side.
"""
import sys
from pathlib import Path

from arclp import SolverConfig, parse_mps, presolve, solve, to_standard_form

path = Path(sys.argv[1]) if len(sys.argv) > 1 else \
    Path(__file__).resolve().parents[1] / "data" / "netlib" / "afiro.mps"

raw = parse_mps(path.read_text())
std = to_standard_form(raw)
reduced, report = presolve(std)
if reduced is None:
    # Presolve decided the outcome (infeasible or unbounded): no solve.
    print("problem %s: %s" % (raw.name, report))
    sys.exit(1)
print("problem %s: %d rows, %d cols after presolve (%s)"
      % (raw.name, reduced.m, reduced.n, report))

res = solve(reduced, SolverConfig(algorithm="alg2", trace=True))
print("\nmomentum arc search: %s in %d iterations, objective %.10g"
      % (res.status, res.iterations, res.objective))
print("\n iter        mu      beta_k   step_p   step_d     ||rb||")
for row in res.trace:
    print(" %4d  %9.2e  %8.3g  %7.3f  %7.3f  %9.2e"
          % (row["iter"], row["mu"], row["beta_k"],
             row["step_primal"], row["step_dual"], row["rb_norm"]))

plain = solve(reduced, SolverConfig(algorithm="arc"))
print("\nplain arc search:    %s in %d iterations, objective %.10g"
      % (plain.status, plain.iterations, plain.objective))
print("momentum saved %d iterations on this instance."
      % (plain.iterations - res.iterations))
