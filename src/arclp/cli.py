"""Command-line interface: ``arclp solve | bench | profile``.

Exit codes of ``solve``: 0 optimal, 2 iteration limit or step too small,
3 numerical failure, 4 unreadable input (I/O or parse error, no
constraints) or an infeasible/unbounded verdict.  Bad flags, a missing
file or an output file that cannot be written exit 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .bench import (average_time_report, performance_profile,
                    profile_to_csv, records_from_csv, records_to_csv,
                    run_benchmark, solve_mps_file)
from .solvers import _STEP_RULES, SolverConfig, Status

_EXIT_BY_STATUS = {
    Status.OPTIMAL: 0,
    Status.ITERATION_LIMIT: 2,
    Status.STEP_TOO_SMALL: 2,
    Status.NUMERICAL_ERROR: 3,
    Status.INFEASIBLE: 4,
    Status.UNBOUNDED: 4,
    Status.INPUT_ERROR: 4,
}

_TRACE_FIELDS = ["iter", "mu", "mu_z", "beta_k", "step_primal",
                 "step_dual", "rb_norm", "rc_norm"]


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _add_solver_flags(parser, with_algorithm=True):
    # The defaults and the methods are the solver's own.
    default = SolverConfig()
    if with_algorithm:
        parser.add_argument("--algorithm", default=default.algorithm,
                            choices=list(_STEP_RULES),
                            help="solver driver (default %(default)s)")
    parser.add_argument("--beta", type=float, default=default.beta,
                        help="momentum restart scale in (0, 1]")
    parser.add_argument("--theta", type=float, default=default.theta,
                        help="neighborhood radius for alg1")
    parser.add_argument("--epsilon", type=float, default=default.epsilon,
                        help="relative stopping tolerance")
    parser.add_argument("--max-iter", type=int, default=default.max_iter,
                        help="iteration cap")
    parser.add_argument("--gamma", type=float, default=default.gamma,
                        help="step damping factor in (0, 1)")


def _config_from(args, algorithm=None):
    return SolverConfig(
        algorithm=algorithm or args.algorithm, beta=args.beta,
        theta=args.theta, epsilon=args.epsilon, max_iter=args.max_iter,
        gamma=args.gamma,
        trace=getattr(args, "trace", None) is not None,
        time_limit=getattr(args, "time_limit", None))


def build_parser():
    parser = _Parser(prog="arclp",
                     description="Arc-search interior-point LP solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one MPS file")
    p_solve.add_argument("path", help="MPS file")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--trace", metavar="PATH",
                         help="write per-iteration CSV trace here")
    p_solve.add_argument("--json", action="store_true",
                         help="print the result as JSON")

    p_bench = sub.add_parser("bench",
                             help="solve every MPS file in a directory")
    p_bench.add_argument("dir", help="directory of .mps files")
    p_bench.add_argument("--algorithms", default="alg2,arc,line",
                         help="comma-separated algorithms "
                              "(default alg2,arc,line)")
    _add_solver_flags(p_bench, with_algorithm=False)
    p_bench.add_argument("--time-limit", type=float, default=None,
                         help="per-solve wall clock limit in seconds")
    p_bench.add_argument("--out", metavar="PATH",
                         help="write the record CSV here "
                              "(default stdout)")

    p_prof = sub.add_parser("profile",
                            help="performance profile from a bench CSV")
    p_prof.add_argument("csv", help="benchmark CSV from 'arclp bench'")
    p_prof.add_argument("--metric", default="iterations",
                        choices=["iterations", "time"])
    p_prof.add_argument("--time-threshold", type=float, default=None,
                        help="also print mean times over problems where "
                             "every solver took at least this long")
    p_prof.add_argument("--out", metavar="PATH",
                        help="write the profile CSV here "
                             "(default stdout)")
    return parser


def _error(message):
    sys.stderr.write("arclp: %s\n" % message)
    return 1


def _write_or_print(text, out):
    # 0, or 1 once the error is reported if the file cannot be written.
    try:
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _error(exc)
    return 0


def cmd_solve(args):
    path = Path(args.path)
    if not path.is_file():
        return _error("no such file: %s" % path)
    try:
        config = _config_from(args).validate()
    except ValueError as exc:
        return _error(exc)

    record, result, _ = solve_mps_file(path, config)
    if args.trace:
        # An outcome the input decided has no iterations: header only.
        try:
            with open(args.trace, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_TRACE_FIELDS)
                for entry in result.trace if result is not None else ():
                    writer.writerow([entry.get(k) for k in _TRACE_FIELDS])
        except OSError as exc:
            return _error(exc)

    if args.json:
        # JSON has no nan or inf: a figure that was never computed (the
        # input decided the outcome) or overflowed is null.
        print(json.dumps({k: None if isinstance(v, float)
                          and not math.isfinite(v) else v
                          for k, v in asdict(record).items()},
                         allow_nan=False))
    else:
        print("%s: %s in %d iterations (%.3f s)"
              % (record.problem, record.status, record.iterations,
                 record.time_seconds))
        print("  objective %.10g  mu %.3e  rb %.3e  rc %.3e"
              % (record.objective, record.mu, record.rb_norm,
                 record.rc_norm))
        if record.note:
            print("  note: %s" % record.note)
    return _EXIT_BY_STATUS[record.status]


def cmd_bench(args):
    directory = Path(args.dir)
    if not directory.is_dir():
        return _error("no such directory: %s" % directory)
    try:
        configs = [_config_from(args, algorithm=name.strip())
                   for name in args.algorithms.split(",") if name.strip()]
        if not configs:
            raise ValueError("no algorithms given")
        records = run_benchmark(directory, configs)
    except ValueError as exc:
        return _error(exc)
    return _write_or_print(records_to_csv(records), args.out)


def cmd_profile(args):
    path = Path(args.csv)
    if not path.is_file():
        return _error("no such file: %s" % path)
    try:
        records = records_from_csv(path.read_text())
        curves = performance_profile(records, metric=args.metric)
    except ValueError as exc:
        return _error(exc)
    if _write_or_print(profile_to_csv(curves), args.out):
        return 1
    if args.time_threshold is not None:
        print(average_time_report(records, args.time_threshold))
    return 0


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad flags and on --help; report the code.
        return int(exc.code or 0)
    handler = {"solve": cmd_solve, "bench": cmd_bench,
               "profile": cmd_profile}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
