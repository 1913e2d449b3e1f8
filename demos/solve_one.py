"""Solve one MPS instance and walk through the iteration trace.

Run from the repository root:

    python3 demos/solve_one.py [path/to/problem.mps]

With no argument the bundled afiro instance is used.  The script solves
it twice, with and without the momentum restart, and prints the trace of
the momentum run so the restart weight and the per-iteration progress
are visible side by side.  When the input decides the outcome (it cannot
be read, or is infeasible or unbounded before any iteration), the script
prints that status and exits 1.
"""
import sys
from pathlib import Path

from arclp import SolverConfig, solve_mps_file

path = Path(sys.argv[1]) if len(sys.argv) > 1 else \
    Path(__file__).resolve().parents[1] / "data" / "netlib" / "afiro.mps"

record, res, _ = solve_mps_file(path, SolverConfig(algorithm="alg2",
                                                   trace=True))
if res is None:
    print("problem %s: %s (%s)" % (record.problem, record.status,
                                   record.note))
    sys.exit(1)
print("problem %s: %d rows, %d cols after presolve"
      % (record.problem, record.m, record.n))

print("\nmomentum arc search: %s in %d iterations, objective %.10g"
      % (record.status, record.iterations, record.objective))
print("\n iter        mu      beta_k   step_p   step_d     ||rb||")
for row in res.trace:
    print(" %4d  %9.2e  %8.3g  %7.3f  %7.3f  %9.2e"
          % (row["iter"], row["mu"], row["beta_k"],
             row["step_primal"], row["step_dual"], row["rb_norm"]))

plain, _, _ = solve_mps_file(path, SolverConfig(algorithm="arc"))
print("\nplain arc search:    %s in %d iterations, objective %.10g"
      % (plain.status, plain.iterations, plain.objective))
print("momentum saved %d iterations on this instance."
      % (plain.iterations - record.iterations))
