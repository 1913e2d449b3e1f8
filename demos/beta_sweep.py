"""How the momentum scale beta affects iteration counts.

Run from the repository root:

    python3 demos/beta_sweep.py

Sweeps beta over a grid for the momentum arc search on every bundled
instance.  beta caps how far the restart may move the iterate, so small
values approach the plain arc method and the sweep shows how much of the
restart's benefit survives at each level.  A cell whose solve did not
reach optimality shows its status in place of the iteration count, and
its column has no total; the script then exits 1 after the table.
"""
import sys
from pathlib import Path

from arclp import SolverConfig, parse_mps, presolve, solve, to_standard_form

netlib = Path(__file__).resolve().parents[1] / "data" / "netlib"
betas = (0.001, 0.1, 0.3, 0.5, 0.7, 0.9)

problems = {}
for path in sorted(netlib.glob("*.mps")):
    reduced, _ = presolve(to_standard_form(parse_mps(path.read_text())))
    problems[path.stem] = reduced

print("%-10s" % "problem" + "".join("  beta=%-9g" % b for b in betas))
totals = [0] * len(betas)
failed = []
for name, lp in problems.items():
    cells = []
    for j, beta in enumerate(betas):
        res = solve(lp, SolverConfig(algorithm="alg2", beta=beta))
        if res.status == "Optimal":
            cells.append(res.iterations)
            if totals[j] is not None:
                totals[j] += res.iterations
        else:
            cells.append(res.status)
            failed.append((name, beta, res.status, res.note))
            totals[j] = None
    print("%-10s" % name + "".join("  %-14s" % c for c in cells))
print("%-10s" % "total" + "".join("  %-14s" % ("-" if t is None else t)
                                  for t in totals))
for name, beta, status, note in failed:
    print("%s at beta=%g: %s (%s)" % (name, beta, status, note))
if failed:
    sys.exit(1)
