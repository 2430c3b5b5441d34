"""Per-layer tracing of hhverify from outside the package.

``Tracer.install`` replaces, at run time, the public functions of each layer
(the modules of ``src/hhverify``) with wrappers, in their own module and in
every other module that imported them by name, and puts counting wrappers on
``FunctionSpec.__call__``, ``HInterval.reflect`` and
``TransformedFunction.__call__``.  ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

A wrapper opens a span (name, start, end, parent, operation) when a call
crosses into its layer.  Calls inside a layer (``refinement_double_integral``
calling ``weighted_integral``, ``check_symmetrized`` calling
``check_harmonic_convex``, a chain building on another chain) open no span
but still update the counters; ``cli`` spans nest by function, so that
``main``, ``run_sweep`` and ``_emit`` each get their own, while
``format_json``'s recursion collapses into one.  Expression evaluations and
reflections are counted but get no span, so their time falls into the self
time of the layer that calls them.  A layer's self time is its spans' time
minus the time their child spans cover.  Spans are kept in memory and
written out by ``write``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from collections import Counter

LAYERS = ("fnspec", "hmean", "quad", "convexity", "ineq", "corpus", "cli")

CHAIN_FUNCTIONS = (
    "chain_hh_classic", "chain_harmonic_hh", "bounds_pointwise", "chain_subinterval",
    "chain_reflected_pair", "chain_refinement", "chain_harmonic_full",
    "product_inequalities", "chain_h_subinterval", "bounds_h_pointwise", "weighted_bounds",
)
QUAD_FUNCTIONS = ("integrate", "weighted_integral", "reflected_weighted_integral",
                  "refinement_double_integral")
CHECK_FUNCTIONS = ("check_convex", "check_harmonic_convex", "check_harmonic_h_convex",
                   "check_symmetrized")
# _emit is private: it is the one place where format_json's text is written
CLI_FUNCTIONS = ("main", "run_sweep", "format_json", "_emit")

# (name, unit, better) of every per-layer metric, in the order reported
LAYER_METRICS = (
    ("fnspec.evals", "count", "lower"),
    ("fnspec.eval_ns", "ns", "lower"),
    ("hmean.reflects", "count", "lower"),
    ("hmean.sym_evals", "count", "lower"),
    ("quad.calls", "count", "lower"),
    ("quad.evals", "count", "lower"),
    ("quad.refine_evals", "count", "lower"),
    ("quad.subdivisions", "count", "lower"),
    ("quad.budget_errors", "count", "lower"),
    ("quad.self_s", "s", "lower"),
    ("convexity.checks", "count", "lower"),
    ("convexity.samples", "count", "lower"),
    ("convexity.self_s", "s", "lower"),
    ("ineq.chains", "count", "higher"),
    ("ineq.self_s", "s", "lower"),
    ("corpus.gate_s", "s", "lower"),
    ("corpus.gate_checks", "count", "lower"),
    ("cli.jobs_run", "count", "higher"),
    ("cli.jobs_skipped", "count", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class _Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "child_ns")

    def __init__(self, span_id, parent, name, layer, start):
        self.id, self.parent, self.name, self.layer = span_id, parent, name, layer
        self.start, self.child_ns = start, 0


class _Counted:
    """An integrand that counts its evaluations into ``cell[0]``."""

    __slots__ = ("fn", "cell")

    def __init__(self, fn, cell):
        self.fn, self.cell = fn, cell

    def __call__(self, t):
        self.cell[0] += 1
        return self.fn(t)


class Tracer:
    def __init__(self, hv):
        self.hv = hv
        self.modules = [hv] + [getattr(hv, name) for name in LAYERS]
        self.counts = Counter()
        self.self_ns = Counter()
        self.span_ns = Counter()  # total time of spans, by span name
        self.spans = []  # (id, parent, op, name, start_ns, end_ns)
        self.stack = []
        self.op = None
        self._cells = {name: [0] for name in ("fnspec.evals", "hmean.reflects", "hmean.sym_evals",
                                               "quad.evals", "quad.refine_evals")}
        self._patches = self._plan()
        self._installed = False

    # --- spans -----------------------------------------------------------

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        span = _Span(len(self.spans) + len(self.stack), parent.id if parent else None,
                     name, layer, time.perf_counter_ns())
        self.stack.append(span)
        return span

    def _close(self, span):
        end = time.perf_counter_ns()
        self.stack.pop()
        duration = end - span.start
        self.self_ns[span.layer] += duration - span.child_ns
        self.span_ns[span.name] += duration
        if self.stack:
            self.stack[-1].child_ns += duration
        self.spans.append((span.id, span.parent, self.op, span.name, span.start, end))

    def op_spans(self, ops):
        """Copies of the benchmark's operations whose calls open a root span
        carrying the operation's index; spans of one operation share it."""

        def wrap(index, op):
            def call():
                self.op = index
                span = self._open(f"op:{op.name}", "bench")
                try:
                    return op.call()
                finally:
                    self._close(span)

            return dataclasses.replace(op, call=call)

        return [wrap(i, op) for i, op in enumerate(ops)]

    def _wrap(self, layer, fn, before=None, after=None, nest=False):
        """Span wrapper.  ``before(args, kwargs)`` may replace the arguments,
        ``after(result, args, boundary, parent)`` records counts."""
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            caller = stack[-1] if stack else None
            if before is not None:
                args, kwargs = before(args, kwargs)
            boundary = caller is None or caller.layer != layer
            if not (boundary or (nest and caller.name != name)):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, False, caller)
                return result
            if boundary:
                tracer.counts[f"{layer}.calls"] += 1
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except tracer.hv.QuadratureBudgetError:
                if layer == "quad" and boundary:
                    tracer.counts["quad.budget_errors"] += 1
                raise
            finally:
                tracer._close(span)
            if after is not None:
                after(result, args, boundary, caller)
            return result

        return wrapper

    def _counting(self, fn, cell):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- what gets wrapped -----------------------------------------------

    def _plan(self):
        hv, counts, cells = self.hv, self.counts, self._cells
        patches = []  # (owner, attribute, replacement)

        def everywhere(module, attr, replacement):
            original = getattr(module, attr)
            for mod in self.modules:
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, replacement))

        def count_integrand(key):
            def before(args, kwargs):
                if not isinstance(args[0], _Counted):
                    args = (_Counted(args[0], cells[key]),) + args[1:]
                return args, kwargs

            return before

        def subdivisions(result, args, boundary, caller):
            counts["quad.subdivisions"] += result.subdivisions

        def integrate_subdivisions(result, args, boundary, caller):
            if args[1] <= args[2]:  # reversed limits delegate to a second call
                subdivisions(result, args, boundary, caller)

        for attr in QUAD_FUNCTIONS:
            fn = getattr(hv.quad, attr)
            if attr == "integrate":
                wrapped = self._wrap("quad", fn, count_integrand("quad.evals"), integrate_subdivisions)
            elif attr == "refinement_double_integral":
                wrapped = self._wrap("quad", fn, count_integrand("quad.refine_evals"), subdivisions)
            else:
                wrapped = self._wrap("quad", fn)
            everywhere(hv.quad, attr, wrapped)

        def verdict(result, args, boundary, caller):
            if boundary:
                counts["convexity.checks"] += 1
                counts["convexity.samples"] += result.samples_used
                if caller is not None and caller.name == "corpus.builtin_functions":
                    counts["corpus.gate_checks"] += 1

        for attr in CHECK_FUNCTIONS:
            everywhere(hv.convexity, attr, self._wrap("convexity", getattr(hv.convexity, attr), after=verdict))

        def reports(result, args, boundary, caller):
            if boundary:
                counts["ineq.chains"] += len(result) if isinstance(result, tuple) else 1

        for attr in CHAIN_FUNCTIONS:
            everywhere(hv.ineq, attr, self._wrap("ineq", getattr(hv.ineq, attr), after=reports))

        everywhere(hv.corpus, "builtin_functions", self._wrap("corpus", hv.corpus.builtin_functions))

        def jobs(result, args, boundary, caller):
            summary = result["summary"]
            counts["cli.jobs_run"] += summary["total"] - summary["skipped"]
            counts["cli.jobs_skipped"] += summary["skipped"]

        for attr in CLI_FUNCTIONS:
            after = jobs if attr == "run_sweep" else None
            everywhere(hv.cli, attr, self._wrap("cli", getattr(hv.cli, attr), after=after, nest=True))

        patches.append((hv.fnspec.FunctionSpec, "__call__",
                        self._counting(hv.fnspec.FunctionSpec.__call__, cells["fnspec.evals"])))
        patches.append((hv.hmean.HInterval, "reflect",
                        self._counting(hv.hmean.HInterval.reflect, cells["hmean.reflects"])))
        patches.append((hv.hmean.TransformedFunction, "__call__",
                        self._counting(hv.hmean.TransformedFunction.__call__, cells["hmean.sym_evals"])))
        return [(owner, attr, getattr(owner, attr), new) for owner, attr, new in patches]

    def install(self):
        if not self._installed:
            for owner, attr, _, new in self._patches:
                setattr(owner, attr, new)
            self._installed = True

    def uninstall(self):
        if self._installed:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self._installed = False

    # --- results ---------------------------------------------------------

    def metrics(self, eval_ns: float, overhead: float) -> dict:
        """Every per-layer metric, by name, as (value, unit)."""
        values = dict(self.counts)
        values.update((name, cell[0]) for name, cell in self._cells.items())
        for layer in ("quad", "convexity", "ineq", "cli"):
            values[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        values["corpus.gate_s"] = self.span_ns["corpus.builtin_functions"] / 1e9
        values["cli.emit_s"] = self.span_ns["cli._emit"] / 1e9
        values["fnspec.eval_ns"] = eval_ns
        values["trace.overhead"] = overhead
        return {name: (values.get(name, 0), unit) for name, unit, _ in LAYER_METRICS}

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            json.dump(dict(header, fields=["id", "parent", "op", "name", "start_ns", "end_ns"],
                           spans=self.spans), fh)


def eval_ns(specs, points: int = 64, repeats: int = 5) -> float:
    """Best-of-``repeats`` time per evaluation of ``specs`` on a fixed grid of
    ``points`` abscissae each; 0 when the workload has no expressions."""
    if not specs:
        return 0.0
    total_ns = 0
    for spec, lo, hi in specs:
        grid = [lo + (hi - lo) * (k + 0.5) / points for k in range(points)]
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for t in grid:
                spec(t)
            best = min(best, time.perf_counter_ns() - t0)
        total_ns += best
    return total_ns / (len(specs) * points)
