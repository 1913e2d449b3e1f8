"""The benchmark's layer tracer still reaches every layer it patches.

``perfbench/tracing.py`` replaces module bindings of ``arclp`` by name.
A refactor that stops calling through one of them leaves its span empty,
and ``pass_layers`` then refuses the pass, so ``--trace 1`` would fail;
if other callers still reach the binding, the layer figures go quietly
wrong instead, which the per-algorithm counts below catch.
"""
import collections
import math
import time

import arclp
from arclp.solvers import Status

from conftest import NETLIB_DIR, perfbench_module

tracing = perfbench_module("tracing")

ALGORITHMS = ("alg2", "arc", "line", "alg1")


def test_traced_pass_reaches_every_layer():
    tracer = tracing.Tracer()
    first = tracer.reset()
    iterations = {}
    start = time.perf_counter()
    with tracer.installed():
        for algorithm in ALGORITHMS:
            tracer.request = ("afiro", algorithm)
            # Looked up at call time, so that the tracer's wrapper runs.
            record, _, _ = arclp.bench.solve_mps_file(
                NETLIB_DIR / "afiro.mps",
                arclp.SolverConfig(algorithm=algorithm))
            assert record.status == Status.OPTIMAL, algorithm
            iterations[algorithm] = record.iterations
    layers = tracing.pass_layers(tracer, first, iterations,
                                 time.perf_counter() - start)
    calls = collections.Counter((name, request[1]) for name, _, request, _, _
                                in tracer.spans[first:])
    for algorithm, its in iterations.items():
        # Each iteration factors, solves two or three block systems and
        # tests for convergence.  The residuals of the start and of each
        # point the loop moves to are computed once; an arc step adds
        # those of a boundary point only when its duality measure does
        # not already fail the test, which happens near the end alone.
        assert calls["linalg.factor", algorithm] >= its, algorithm
        assert calls["linalg.solve_block", algorithm] >= 2 * its, algorithm
        assert calls["solvers.check_convergence", algorithm] >= its + 1
        assert calls["core.residuals", algorithm] >= its + 1, algorithm
        extra = 5 if algorithm in ("alg2", "arc") else 2
        assert calls["core.residuals", algorithm] <= its + extra, algorithm
    for algorithm in ("alg2", "arc"):
        assert calls["solvers.max_alpha_positivity", algorithm] \
            >= 2 * iterations[algorithm]
    assert all(math.isfinite(value) for value in layers.values())
    assert layers["solvers.max_alpha_positivity.calls.line"] == 0
    assert layers["solvers.max_alpha_positivity.calls.alg1"] == 0
    assert layers["core.arc_point.calls_per_iter.alg1"] > 0
    # The tracer's bindings are restored on exit.
    assert arclp.bench.solve_mps_file is arclp.solve_mps_file
