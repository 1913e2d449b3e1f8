"""Outside-in tracing of the arclp pipeline.

The tracer replaces the module bindings through which the pipeline calls
its layers with timing wrappers; nothing in ``arclp`` itself changes.
Each call records a span ``(name, parent, request, start, end)``, where
``parent`` is the index of the enclosing span (-1 for a request root) and
``request`` is the ``(instance, algorithm)`` pair being solved.  Spans
stay in memory until :meth:`Tracer.write`.

Functions are imported by name into other modules, so a wrapper must
replace every binding a caller looks up, or its spans silently record
nothing.  :data:`SPANS` lists each traced function with all the places
it is bound; :func:`pass_layers` refuses a pass in which a traced name
recorded no span.  ``core.arc_point`` (called tens of times per guarded
iteration) and ``core.restart_point`` are counted, not timed; their time
stays in the self time of the calling solver loop, ``solvers.solve``.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time

# Span name -> (defining module, attribute, modules whose binding to patch).
SPANS = {
    "bench.solve_mps_file": ("bench", "solve_mps_file", ("bench",)),
    "mps.parse_mps": ("mps", "parse_mps", ("bench",)),
    "standardize.to_standard_form": ("standardize", "to_standard_form",
                                     ("bench",)),
    "presolve.presolve": ("presolve", "presolve", ("bench",)),
    "solvers.solve": ("solvers", "solve", ("bench",)),
    "standardize.recover_solution": ("standardize", "recover_solution",
                                     ("bench",)),
    "solvers.initial_point_mehrotra": ("solvers", "initial_point_mehrotra",
                                       ("solvers",)),
    "solvers.check_convergence": ("solvers", "check_convergence",
                                  ("solvers",)),
    "solvers.max_alpha_positivity": ("solvers", "max_alpha_positivity",
                                     ("solvers",)),
    "linalg.factor": ("linalg", "factor", ("solvers",)),
    "linalg.solve_block": ("linalg", "solve_block", ("solvers", "core")),
    "core.residuals": ("core", "residuals", ("solvers", "core")),
}
# Spans that only some algorithms reach.
ALGORITHM_ONLY = {"solvers.max_alpha_positivity": ("alg2", "arc"),
                  "solvers.initial_point_mehrotra": ("alg2", "arc", "line")}
NEWTON_SOLVE = "linalg.NewtonFactor.solve"
PER_ALGORITHM = ("linalg.factor", "linalg.solve_block",
                 "solvers.max_alpha_positivity", "solvers.solve")


class Tracer:
    """In-memory span recorder with wrappers installed around arclp."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.factor_dense = []          # NewtonFactor.dense per factor call
        self.reduced = {}               # instance -> reduced StandardLP
        self.alg1_arc_points = 0        # arc_point calls under alg1
        self.restarts = [0, 0]          # guarded restarts [attempted, kept]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, parent, self.request, start, end)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding for the duration of the block."""
        saved = []

        def module(name):
            # ``arclp.presolve`` is the function, so go by module path.
            return importlib.import_module("arclp." + name)

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for name, (home, attr, users) in SPANS.items():
            fn = getattr(module(home), attr)
            wrapped = self._wrap(name, fn)
            if name == "linalg.factor":
                wrapped = self._factor_probe(wrapped)
            elif name == "solvers.solve":
                wrapped = self._solve_probe(wrapped)
            for user in users:
                patch(module(user), attr, wrapped)
        newton = module("linalg").NewtonFactor
        solvers = module("solvers")
        patch(newton, "solve", self._wrap(NEWTON_SOLVE, newton.solve))
        patch(solvers, "arc_point", self._arc_point_counter(solvers.arc_point))
        patch(solvers, "restart_point",
              self._restart_counter(solvers.restart_point))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _factor_probe(self, fn):
        def factor(*args, **kwargs):
            fac = fn(*args, **kwargs)
            self.factor_dense.append(fac.dense)
            return fac
        return factor

    def _solve_probe(self, fn):
        def solve(lp, *args, **kwargs):
            self.reduced.setdefault(self.request[0], lp)
            return fn(lp, *args, **kwargs)
        return solve

    def _arc_point_counter(self, fn):
        def arc_point(*args, **kwargs):
            self.alg1_arc_points += self.request[1] == "alg1"
            return fn(*args, **kwargs)
        return arc_point

    def _restart_counter(self, fn):
        def restart_point(x, weight, delta, mode, *args, **kwargs):
            z = fn(x, weight, delta, mode, *args, **kwargs)
            if mode == "guarded":
                self.restarts[0] += 1
                self.restarts[1] += z is not x
            return z
        return restart_point

    def reset(self):
        """Drop the counters of a pass; spans are kept for :meth:`write`."""
        self.factor_dense.clear()
        self.alg1_arc_points = 0
        self.restarts[:] = [0, 0]
        return len(self.spans)

    def write(self, path):
        """Write every span as CSV: name, parent, instance, algorithm, times."""
        with open(path, "w") as out:
            out.write("index,name,parent,instance,algorithm,start,end\n")
            for i, (name, parent, req, start, end) in enumerate(self.spans):
                out.write("%d,%s,%d,%s,%s,%.9f,%.9f\n"
                          % (i, name, parent, req[0], req[1], start, end))


def normal_nnz(lp):
    """Nonzeros in the pattern of ``A @ A.T`` (computed, not timed)."""
    pattern = abs(lp.A).astype(bool).astype(float)
    return int((pattern @ pattern.T).nnz)


def pass_layers(tracer, first, iterations, pass_s):
    """Per-layer figures of the spans recorded since index ``first``.

    ``iterations`` maps each algorithm to its total iterations in the
    traced pass and ``pass_s`` is its wall time; the part of it outside
    every request span is the benchmark's own time.  Returns a dict of
    metric name -> value.
    """
    spans = tracer.spans[first:]
    self_s = {}
    calls = {}
    total_s = {}
    children = [0.0] * len(spans)
    nested_solves = {}
    for name, parent, req, start, end in spans:
        if parent >= first:
            children[parent - first] += end - start
            if name == NEWTON_SOLVE and \
                    tracer.spans[parent][0] == "linalg.solve_block":
                nested_solves[parent] = nested_solves.get(parent, 0) + 1
    for (name, parent, req, start, end), child in zip(spans, children):
        own = end - start - child
        for key in (name, name + "." + req[1]):
            self_s[key] = self_s.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1
            total_s[key] = total_s.get(key, 0.0) + end - start

    missing = [name for name in list(SPANS) + [NEWTON_SOLVE]
               if name not in calls]
    for name, algs in ALGORITHM_ONLY.items():
        missing += ["%s.%s" % (name, a) for a in algs
                    if "%s.%s" % (name, a) not in calls]
    if missing:
        raise RuntimeError("traced pass recorded no span for: %s"
                           % ", ".join(missing))

    out = {"trace.pass_s": pass_s,
           "trace.unspanned_s": pass_s - sum(
               end - start for _, parent, _, start, end in spans
               if parent < 0)}
    for name in list(SPANS) + [NEWTON_SOLVE]:
        out[name + ".self_s"] = self_s[name]
    for name in ("linalg.factor", "linalg.solve_block", "core.residuals",
                 "solvers.max_alpha_positivity"):
        out[name + ".calls"] = calls[name]
    for name in PER_ALGORITHM:
        for alg in iterations:
            key = "%s.%s" % (name, alg)
            if name == "solvers.max_alpha_positivity" and \
                    alg not in ALGORITHM_ONLY[name]:
                out[name + ".calls." + alg] = calls.get(key, 0)
            else:
                out[name + ".self_s." + alg] = self_s[key]
    for alg, its in iterations.items():
        out["solvers.ms_per_iter." + alg] = \
            1e3 * total_s["solvers.solve." + alg] / its
    out["linalg.solve_block.refinements"] = sum(
        n - 1 for n in nested_solves.values())
    out["linalg.factor.sparse_frac"] = 1.0 - statistics.fmean(
        tracer.factor_dense)
    out["linalg.normal_nnz"] = sum(normal_nnz(lp)
                                   for lp in tracer.reduced.values())
    out["core.arc_point.calls_per_iter.alg1"] = \
        tracer.alg1_arc_points / iterations["alg1"]
    attempted, kept = tracer.restarts
    out["core.restart_point.accepted_frac"] = kept / max(attempted, 1)
    return out


def unit(name):
    """Unit of a per-layer figure, read from its name."""
    if name.endswith("_frac"):
        return "ratio"
    if ".ms_per_iter." in name:
        return "ms"
    if ".self_s" in name or name.endswith("_s"):
        return "s"
    if name.endswith("bytes_in"):
        return "bytes"
    return "count"


def median_layers(passes):
    """Median of each per-layer figure over several traced passes."""
    return {key: statistics.median(p[key] for p in passes)
            for key in passes[0]}
