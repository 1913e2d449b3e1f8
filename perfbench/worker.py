"""Child process of the benchmark: one fresh interpreter per measurement.

``setup`` mode times ``import arclp`` plus one solve in a cold
interpreter.  ``measure`` mode runs one warm-up pass and then timed passes
over every ``(instance, algorithm)`` request until the time budget is
spent, timing a machine-speed probe (``probe.py``) between the requests
of untraced passes; with ``--trace 1`` it alternates untraced and traced
passes.  Both print one JSON object on standard output; ``run.py`` checks
the answers.

Only the standard library is imported before the timer starts, so the
cold import of numpy and scipy through arclp is part of the set-up time.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def import_arclp(root):
    """Import arclp from ``root/src`` and nowhere else."""
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import arclp
    if src not in Path(arclp.__file__).resolve().parents:
        raise SystemExit("arclp was imported from %s, not %s"
                         % (arclp.__file__, src))
    return arclp


# Columns of an outcome row: instance, algorithm, status, objective,
# iterations, seconds.
ITERATIONS, SECONDS = 4, 5
PROBE_EVERY_S = 0.5


def outcome(path, algorithm, record, seconds):
    return [Path(path).stem, algorithm, record.status,
            float(record.objective), record.iterations, seconds]


def per_algorithm(outcomes, column):
    """Sum of one outcome column per algorithm."""
    totals = {}
    for row in outcomes:
        totals[row[1]] = totals.get(row[1], 0) + row[column]
    return totals


def run_setup(args):
    start = time.perf_counter()
    arclp = import_arclp(args.root)
    record, _, _ = arclp.solve_mps_file(
        args.instance, arclp.SolverConfig(algorithm=args.algorithm))
    seconds = time.perf_counter() - start
    return {"setup_s": seconds,
            "request": outcome(args.instance, args.algorithm, record,
                               seconds)}


def run_pass(arclp, requests, tracer=None, speed=None):
    """Solve every request once; return wall time and outcomes.

    With ``speed`` (a probe), the probe is also timed between requests,
    every ``PROBE_EVERY_S`` seconds and at least once; its time is left
    out of ``pass_s``.
    """
    outcomes, probes = [], []
    start = last_probe = time.perf_counter()
    for path, algorithm in requests:
        if tracer is not None:
            tracer.request = (Path(path).stem, algorithm)
        t0 = time.perf_counter()
        try:
            # Looked up at call time so that the tracer's wrapper is used.
            record, _, _ = arclp.bench.solve_mps_file(
                path, arclp.SolverConfig(algorithm=algorithm))
        except Exception as exc:
            # A crash is a failed request, not the end of the benchmark.
            traceback.print_exc()
            outcomes.append([Path(path).stem, algorithm, repr(exc),
                             float("nan"), 0, time.perf_counter() - t0])
            continue
        outcomes.append(outcome(path, algorithm, record,
                                time.perf_counter() - t0))
        if speed is not None and \
                time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed())
            last_probe = time.perf_counter()
    if speed is not None and not probes:
        probes.append(speed())
    return {"pass_s": time.perf_counter() - start - sum(probes),
            "requests": outcomes, "probes": probes}


def run_measure(args):
    arclp = import_arclp(args.root)
    manifest = json.loads(Path(args.manifest).read_text())
    requests = [(path, algorithm) for path in manifest["paths"]
                for algorithm in manifest["algorithms"]]

    # Warm-up: every algorithm once on the first instance, so that lazy
    # imports and first-call costs stay out of the timed passes.
    warmup = run_pass(arclp, requests[:len(manifest["algorithms"])])
    passes, layers = [], []
    import probe
    speed = probe.SpeedProbe()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    # Passes until the next one would end past the budget; at least three,
    # or two of each kind when tracing.
    start = time.perf_counter()
    while True:
        result = run_pass(arclp, requests, speed=speed)
        result["traced"] = False
        passes.append(result)
        if len(passes) == 1:
            # Peak memory after a fixed amount of work, so that it does
            # not depend on how many passes fit in the time budget.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            first = tracer.reset()
            with tracer.installed():
                result = run_pass(arclp, requests, tracer)
            result["traced"] = True
            passes.append(result)
            layers.append(tracing.pass_layers(
                tracer, first, per_algorithm(result["requests"], ITERATIONS),
                result["pass_s"]))
        elapsed = time.perf_counter() - start
        rounds = len(passes) // (2 if tracer else 1)
        if rounds >= (2 if tracer else 3) and \
                elapsed * (rounds + 1) / rounds > args.seconds:
            break

    if tracer is not None:
        tracer.write(args.spans)
    return {"warmup": warmup, "passes": passes, "layers": layers,
            "peak_rss_mb": peak_kb / 1024.0,

            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--instance")
    parser.add_argument("--algorithm", default="alg2")
    parser.add_argument("--manifest")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = run_setup(args) if args.mode == "setup" else run_measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
