"""Benchmark of the arclp pipeline: time to optimum per algorithm.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload netlib --seed 1 --seconds 25 --trace 0

A request is one ``(instance, algorithm)`` solve through the full user
pipeline ``arclp.solve_mps_file(path, SolverConfig(algorithm=a))`` with
default settings: MPS file, parse, standardize, presolve, solve, restore
and recover.  A pass sends every instance of the workload to each of
``alg2``, ``arc``, ``line`` and ``alg1``, one request at a time, from one
single-threaded process (a closed loop with one client).

Set-up (not timed as part of a pass): the generated families are written
as MPS files under ``.perfbench_work/`` and their reference optima are
computed with scipy's HiGHS; then ``setup_s`` is measured in fresh
interpreters, one at a time, as ``import arclp`` plus the first request.
The passes run in one more fresh interpreter, which also reports the
peak resident memory.  With ``--trace 1`` set-up time is not measured;
the interpreter alternates untraced and traced passes and the per-layer
figures are printed in place of the end-to-end ones.

End-to-end times are medians of wall times scaled to a fixed machine
speed: each pass is multiplied by ``probe.REFERENCE_S`` over the median
time of a fixed probe workload timed between its requests, and set-up by
the run's median probe (see ``probe.py`` for why).  The median factor is printed; per-layer
times are raw.

Every answer is checked: a request fails unless its status is
``Optimal`` and its objective matches the reference (netlib: certified
optimum, relative 1e-5; generated: HiGHS, within ``n * epsilon *
max(1, |ref|)``, the gap the relative stopping rule allows).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker

# One BLAS thread.  On a 2-core Xeon, OpenBLAS's default of two threads
# gave the same median transport pass (3.16-3.20 s against 3.15-3.54 s)
# at twice the CPU time, and its passes spread no less.  Set before numpy
# is imported, here and in every worker (they inherit the environment).
BLAS_THREADS = "1"
for _var in worker.BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import probe  # noqa: E402  (these import numpy, so after the thread count)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROCESSES = 5
DEADLINE_S = 170        # a run must end within 180 s


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import arclp from this checkout, or stop with an error."""
    if not (ROOT / "src" / "arclp" / "__init__.py").is_file():
        fail("no arclp sources under %s" % (ROOT / "src"))
    return worker.import_arclp(ROOT)


def instances(arclp, workload, seed, directory):
    """``[(path, reference objective, tolerance)]`` of a workload."""
    if workload == "netlib":
        paths = sorted((ROOT / "data" / "netlib").glob("*.mps"))
        if sorted(p.stem for p in paths) != sorted(workloads.NETLIB_OPTIMA):
            fail("data/netlib does not hold the eight bundled instances")
        return [(p, workloads.NETLIB_OPTIMA[p.stem],
                 workloads.NETLIB_RTOL * abs(workloads.NETLIB_OPTIMA[p.stem]))
                for p in paths]
    out = []
    for path, lp in workloads.write_instances(arclp, workload, seed,
                                              directory):
        ref = workloads.highs_reference(lp)
        tol = (workloads.standard_columns(lp) * arclp.SolverConfig().epsilon
               * max(1.0, abs(ref)))
        out.append((path, ref, tol))
    return out


def child(args, deadline):
    """Run a worker to completion; return the JSON object it printed."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args + [
        "--root", str(ROOT)]
    timeout = deadline - time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        fail("worker %s was still running at the %d s deadline"
             % (args[0], DEADLINE_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("worker %s exited with code %d" % (args[0], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(outcomes, references):
    """Number of outcomes that are not Optimal at the reference optimum."""
    failed = 0
    for name, algorithm, status, objective, _, _ in outcomes:
        ref, tol = references[name]
        if status != "Optimal" or not abs(objective - ref) <= tol:
            failed += 1
            print("FAILED %s %s: status %s, objective %r, reference %r "
                  "(tolerance %.3g)" % (name, algorithm, status, objective,
                                        ref, tol))
    return failed


def probe_median(measured):
    """Median probe time of a run (traced passes take no probes)."""
    return statistics.median(t for p in measured["passes"]
                             for t in p["probes"])


def end_to_end(setups, measured, algorithms):
    """End-to-end figures; times are scaled to the reference machine speed.

    Each pass is scaled by the median probe timed during it, set-up by
    the median probe of the run.
    """
    passes = measured["passes"]
    scales = [probe.REFERENCE_S / statistics.median(p["probes"])
              for p in passes]
    metrics = {
        "setup_s": (probe.REFERENCE_S / probe_median(measured)
                    * statistics.median(setups), "s"),
        "pass_s": (statistics.median(
            k * p["pass_s"] for k, p in zip(scales, passes)), "s"),
    }
    times = [worker.per_algorithm(p["requests"], worker.SECONDS)
             for p in passes]
    iterations = [worker.per_algorithm(p["requests"], worker.ITERATIONS)
                  for p in passes]
    for alg in algorithms:
        metrics["time_to_opt_s." + alg] = (statistics.median(
            k * t[alg] for k, t in zip(scales, times)), "s")
    for alg in algorithms:
        metrics["iterations." + alg] = (
            statistics.median(i[alg] for i in iterations), "count")
    metrics["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    return metrics


def per_layer(measured, bytes_per_pass):
    untraced = [p["pass_s"] for p in measured["passes"] if not p["traced"]]
    traced = [p["pass_s"] for p in measured["passes"] if p["traced"]]
    layers = tracing.median_layers(measured["layers"])
    layers["mps.bytes_in"] = bytes_per_pass
    layers["machine.probe_s"] = probe_median(measured)
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(untraced) - 1.0)
    return {name: (value, tracing.unit(name))
            for name, value in layers.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    arclp = load_program()
    work = WORK / ("%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    started = time.perf_counter()
    cases = instances(arclp, args.workload, args.seed, work)
    references = {path.stem: (ref, tol) for path, ref, tol in cases}
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({
        "paths": [str(path) for path, _, _ in cases],
        "algorithms": list(workloads.ALGORITHMS)}))

    # setup_s is an end-to-end metric, so a traced run does not measure it.
    setups, outcomes = [], []
    first = str(cases[0][0])
    for _ in range(0 if args.trace else SETUP_PROCESSES):
        result = child(["setup", "--instance", first, "--algorithm",
                        workloads.ALGORITHMS[0]], deadline)
        setups.append(result["setup_s"])
        outcomes.append(result["request"])
    prepared = time.perf_counter() - started

    measured = child(["measure", "--manifest", str(manifest),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--spans", str(work / "spans.csv")],
                     deadline)
    (work / "passes.json").write_text(json.dumps(measured))
    outcomes += measured["warmup"]["requests"]
    for p in measured["passes"]:
        outcomes += p["requests"]
    failed = check(outcomes, references)

    if args.trace:
        bytes_per_pass = len(workloads.ALGORITHMS) * sum(
            path.stat().st_size for path, _, _ in cases)
        metrics = per_layer(measured, bytes_per_pass)
    else:
        metrics = end_to_end(setups, measured, workloads.ALGORITHMS)
        metrics["solved_frac"] = (1.0 - failed / len(outcomes), "ratio")

    print("workload %s, seed %d: %d instances x %d algorithms, %d passes, "
          "set-up %.1f s, BLAS threads %s"
          % (args.workload, args.seed, len(cases),
             len(workloads.ALGORITHMS), len(measured["passes"]), prepared,
             measured["blas_threads"]))
    print("speed probe %.4f s against %.4f s reference: wall times x ~%.3f"
          % (probe_median(measured), probe.REFERENCE_S,
             probe.REFERENCE_S / probe_median(measured)))
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
