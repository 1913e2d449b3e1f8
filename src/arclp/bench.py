"""Benchmark harness: batch solves, CSV records, performance profiles.

A benchmark run drives the full pipeline (parse, standardize, presolve,
solve, recover) over a directory of MPS files and a list of solver
configurations, producing one :class:`BenchmarkRecord` per (problem,
configuration) pair.  Records serialize to a flat CSV; performance
profiles and threshold-restricted timing summaries are computed from the
records, not from live solves, so they can be rebuilt from saved CSVs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .mps import parse_mps
from .presolve import presolve
from .solvers import SolverConfig, Status, solve
from .standardize import (InfeasibleBoundsError, recover_solution,
                          to_standard_form)

__all__ = ["BenchmarkRecord", "ProfileCurve", "AverageTimeReport",
           "solve_mps_file", "run_benchmark", "records_to_csv",
           "records_from_csv", "performance_profile", "profile_to_csv",
           "average_time_report"]

@dataclass
class BenchmarkRecord:
    """One (problem, solver configuration) outcome."""

    problem: str
    n: int
    m: int
    algorithm: str
    beta: float
    status: str
    iterations: int
    time_seconds: float
    mu: float
    rb_norm: float
    rc_norm: float
    objective: float
    note: str = ""

    def solver_key(self):
        """Label of the solver: the algorithm and the parameters it reads."""
        if self.algorithm == "alg1":
            return "alg1|beta=%g" % self.beta
        if self.algorithm == "alg2":
            return "alg2|beta=%g" % self.beta
        return self.algorithm


# The CSV columns are the record's fields, in order.  The objective is
# written in full, so that it round-trips; the other floats are rounded.
_CSV_FIELDS = [f.name for f in fields(BenchmarkRecord)]
_CSV_TYPES = [{"int": int, "float": float, "str": str}[f.type]
              for f in fields(BenchmarkRecord)]
_CSV_FORMATS = {"beta": "%g", "time_seconds": "%.6f", "mu": "%.6e",
                "rb_norm": "%.6e", "rc_norm": "%.6e"}


@dataclass
class ProfileCurve:
    """Step curve of one solver in a performance profile.

    ``fractions[i]`` is the fraction of problems solved within a factor
    ``taus[i]`` of the per-problem best; ``taus`` starts at 1 and lists
    the observed finite ratios in increasing order.
    """

    solver: str
    taus: np.ndarray
    fractions: np.ndarray


@dataclass
class AverageTimeReport:
    """Mean wall time per solver over a common slow subset.

    Only problems on which every solver spent at least ``threshold``
    seconds qualify; with no qualifying problems the means are empty.
    """

    threshold: float
    problems: list
    means: dict

    def __str__(self):
        if not self.problems:
            return ("no problems where every solver took >= %g s"
                    % self.threshold)
        lines = ["average time over %d problems (threshold %g s):"
                 % (len(self.problems), self.threshold)]
        for solver, mean in sorted(self.means.items()):
            lines.append("  %-32s %10.2f s" % (solver, mean))
        return "\n".join(lines)


def solve_mps_file(path, config=None):
    """Run the full pipeline on one MPS file.

    Returns
    -------
    record : BenchmarkRecord
    result : SolveResult or None
        ``None`` when parsing, standardization or presolve already decided
        the outcome (``InputError``, ``Infeasible`` or ``Unbounded``).
    x_raw : ndarray or None
        The solution mapped back to the original (MPS) variables, when
        the solve reached optimality.
    """
    config = config or SolverConfig()
    path = Path(path)
    stub = dict(algorithm=config.algorithm, beta=config.beta, iterations=0,
                time_seconds=0.0, mu=float("nan"), rb_norm=float("nan"),
                rc_norm=float("nan"), objective=float("nan"))

    name = path.stem
    try:
        raw = parse_mps(path.read_text())
        name = raw.name or name
        std = to_standard_form(raw)
        reduced, report = presolve(std)
    except (OSError, ValueError) as exc:
        # Crossed bounds are a verdict; any other error here is bad input.
        status = (Status.INFEASIBLE if isinstance(exc, InfeasibleBoundsError)
                  else Status.INPUT_ERROR)
        return (BenchmarkRecord(problem=name, n=0, m=0, status=status,
                                note=str(exc), **stub), None, None)
    if report.verdict is not None:
        status = (Status.INFEASIBLE if report.verdict == "infeasible"
                  else Status.UNBOUNDED)
        return (BenchmarkRecord(problem=name, n=std.n, m=std.m,
                                status=status, note=report.reason,
                                **stub), None, None)

    result = solve(reduced, config)
    x_raw = None
    objective = result.objective
    if result.x is not None:
        x_std = report.restore(result.x)
        x_raw, objective = recover_solution(x_std, std.var_map)
    record = BenchmarkRecord(
        problem=name, n=reduced.n, m=reduced.m,
        algorithm=config.algorithm, beta=config.beta, status=result.status,
        iterations=result.iterations, time_seconds=result.wall_time,
        mu=result.mu, rb_norm=result.rb_norm, rc_norm=result.rc_norm,
        objective=objective, note=result.note)
    return record, result, x_raw


def run_benchmark(problem_dir, configs, time_limit=None):
    """Solve every ``*.mps`` file under ``problem_dir`` with every config.

    Files are taken in sorted order and configurations in the given
    order; the returned records follow that (file, config) order, so two
    runs over the same inputs produce identical record sequences.
    ``time_limit`` bounds the wall time of each individual solve.
    """
    paths = sorted(Path(problem_dir).glob("*.mps"))
    if not paths:
        raise ValueError("no .mps files under %s" % problem_dir)
    if time_limit is not None:
        configs = [replace(c, time_limit=time_limit).validate()
                   for c in configs]
    return [solve_mps_file(path, config)[0]
            for path in paths for config in configs]


def records_to_csv(records):
    """Serialize records to CSV text (fixed column set, header first)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in records:
        writer.writerow([_CSV_FORMATS.get(k, "%s") % getattr(r, k)
                         for k in _CSV_FIELDS])
    return buf.getvalue()


def records_from_csv(text):
    """Parse CSV text produced by :func:`records_to_csv`."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _CSV_FIELDS:
        raise ValueError("unrecognized benchmark CSV header")
    records = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(_CSV_FIELDS):
            raise ValueError("benchmark CSV row has %d columns, not %d"
                             % (len(row), len(_CSV_FIELDS)))
        records.append(BenchmarkRecord(*(parse(v) for parse, v
                                         in zip(_CSV_TYPES, row))))
    return records


def _metric_value(record, metric):
    if metric == "iterations":
        return float(record.iterations)
    if metric == "time":
        return float(record.time_seconds)
    raise ValueError("metric must be 'iterations' or 'time'")


def performance_profile(records, metric="iterations"):
    """Per-solver step curves of best-ratio coverage.

    For each problem the metric of every solver is divided by the best
    value among the solvers that reached optimality on it; unsolved runs
    get an infinite ratio.  The curve of a solver maps a ratio bound
    ``tau`` to the fraction of problems it solved within ``tau`` times
    the best.

    Raises
    ------
    ValueError
        On empty input, duplicated (solver, problem) pairs, or solvers
        covering different problem sets.
    """
    if not records:
        raise ValueError("no records to profile")
    by_solver = {}
    for r in records:
        key = r.solver_key()
        seen = by_solver.setdefault(key, {})
        if r.problem in seen:
            raise ValueError("duplicate record for solver %s on %r"
                             % (key, r.problem))
        seen[r.problem] = r
    problem_sets = {frozenset(d) for d in by_solver.values()}
    if len(problem_sets) != 1:
        raise ValueError("solvers cover different problem sets")
    problems = sorted(problem_sets.pop())
    solvers = sorted(by_solver)

    ratios = {solver: [] for solver in solvers}
    for problem in problems:
        solved = [_metric_value(by_solver[s][problem], metric)
                  for s in solvers
                  if by_solver[s][problem].status == Status.OPTIMAL]
        best = min(solved) if solved else None
        for s in solvers:
            r = by_solver[s][problem]
            if r.status != Status.OPTIMAL or best is None:
                ratios[s].append(np.inf)
                continue
            value = _metric_value(r, metric)
            if best == 0.0:
                ratios[s].append(1.0 if value == 0.0 else np.inf)
            else:
                ratios[s].append(value / best)

    curves = []
    for s in solvers:
        rr = np.asarray(ratios[s])
        finite = np.sort(rr[np.isfinite(rr)])
        taus = np.unique(np.concatenate(([1.0], finite)))
        fractions = np.array([(rr <= t).mean() for t in taus])
        curves.append(ProfileCurve(solver=s, taus=taus,
                                   fractions=fractions))
    return curves


def profile_to_csv(curves):
    """Serialize profile curves as ``solver,tau,fraction`` rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["solver", "tau", "fraction"])
    for curve in curves:
        for tau, frac in zip(curve.taus, curve.fractions):
            writer.writerow([curve.solver, "%g" % tau, "%g" % frac])
    return buf.getvalue()


def average_time_report(records, threshold):
    """Mean wall time per solver over the common slow subset.

    A problem qualifies when every solver spent at least ``threshold``
    seconds on it.  Means are computed per solver over the qualifying
    problems only; the report prints a clear notice when none qualify.
    """
    by_solver = {}
    for r in records:
        by_solver.setdefault(r.solver_key(), {})[r.problem] = r
    if not by_solver:
        return AverageTimeReport(threshold=threshold, problems=[],
                                 means={})
    common = set.intersection(*(set(d) for d in by_solver.values()))
    qualifying = sorted(
        p for p in common
        if all(d[p].time_seconds >= threshold
               for d in by_solver.values()))
    means = {}
    if qualifying:
        for solver, d in by_solver.items():
            means[solver] = float(np.mean([d[p].time_seconds
                                           for p in qualifying]))
    return AverageTimeReport(threshold=threshold, problems=qualifying,
                             means=means)
