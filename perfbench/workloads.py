"""The benchmark's workloads: their inputs, the fixed list of operations,
and the check of every operation's output.

Set-up (``build``) uses only the program: it parses expressions, runs the
corpus gate and builds the seeded random functions.  Reference values come
from ``refs``, which is imported lazily so that neither its import nor its
arithmetic lands in a timed region or in the set-up time.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("corpus_sweep", "smooth_chains", "kinked_chains")

SMOOTH_EXPRESSIONS = ("1", "3", "1/x", "x", "x^2", "exp(x)", "-ln(x)")
SMOOTH_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (1.0, 10.0), (-2.0, -1.0), (1e-6, 2e-6))
# weights that dominate the identity on [0, 1]: (name, source, callable)
WEIGHTS = (("t", "x", lambda s: s), ("sqrt(t)", "x^0.5", math.sqrt), ("1", "1", lambda s: 1.0))

KINKED_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (-2.0, -1.0))
KINKED_FUNCTION_SEEDS = tuple(range(24))
KINKED_R4_QUAD_TOL = 1e-6

REDUCED = {
    "corpus_sweep": {"entries": ("reciprocal", "neg_log")},
    "smooth_chains": {"expressions": ("1", "x^2"), "intervals": ((1.0, 2.0),)},
    "kinked_chains": {"function_seeds": (3, 4, 14)},
}

# Operations that fail their checks in every run, whatever the seed, because
# of faults in the program (see the FOUND lines in CHANGES.md): error bars
# that leave out rounding on large magnitudes (smooth t4), and Gauss-Kronrod
# error estimates that miss kinks lying between the nodes (kinked t1, t4, c1
# on random_hc_6, and r4 at its loosened quad_tol).  They are counted in
# ``failed``; a failure of any other operation makes the run incorrect.
KNOWN_FAULTS = {
    "corpus_sweep": frozenset(),
    "smooth_chains": frozenset({"t4 exp(x) [1,10]", "t4 1/x [1e-06,2e-06]"}),
    "kinked_chains": frozenset({
        "t1 random_hc_6 [1,2]", "t4 random_hc_6 [1,2]", "c1 random_hc_6 [1,2] h=t",
        "r4 random_hc_2 [-2,-1]", "r4 random_hc_5 [-2,-1]", "r4 random_hc_6 [1,2]",
        "r4 random_hc_7 [0.5,3]", "r4 random_hc_8 [-2,-1]", "r4 random_hc_9 [1,2]",
        "r4 random_hc_12 [1,2]", "r4 random_hc_15 [1,2]", "r4 random_hc_17 [-2,-1]",
        "r4 random_hc_19 [0.5,3]", "r4 random_hc_20 [-2,-1]", "r4 random_hc_21 [1,2]",
        "r4 random_hc_8 [-2,-1] h=1", "r4 random_hc_12 [1,2] h=t", "r4 random_hc_20 [-2,-1] h=1",
    }),
}


@dataclass
class Op:
    """One operation: ``call`` is timed, ``finish`` turns its return value
    into the result outside the timed region, and ``check`` returns None
    for a right result or a line saying what is wrong."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    finish: Callable[[object], object] = lambda result: result


@dataclass
class Workload:
    ops: list
    specs: list = field(default_factory=list)  # (FunctionSpec, lo, hi) for fnspec.eval_ns


def build(name: str, hv, out_dir: str, reduced: bool = False) -> Workload:
    """Set up workload ``name`` with the program ``hv`` (the imported
    package).  The inputs are fixed; the seed orders the passes (README)."""
    options = REDUCED[name] if reduced else {}
    if name == "corpus_sweep":
        return _corpus_sweep(hv, out_dir, **options)
    if name == "smooth_chains":
        return _smooth_chains(hv, **options)
    if name == "kinked_chains":
        return _kinked_chains(hv, **options)
    raise ValueError(f"unknown workload {name!r}")


def _memo(fn):
    cell = []

    def get():
        if not cell:
            cell.append(fn())
        return cell[0]

    return get


# --- corpus_sweep -------------------------------------------------------------


def _corpus_sweep(hv, out_dir, entries=None) -> Workload:
    corpus = hv.builtin_functions()
    hs = hv.builtin_h()
    chosen = [e for e in corpus if entries is None or e.name in entries]
    ops = [_sweep_op(hv, entry, out_dir) for entry in chosen]
    specs = [(e.spec, e.interval.a, e.interval.b) for e in chosen]
    specs += [(h.fn, 0.0, 1.0) for h in hs]
    return Workload(ops, specs)


def _sweep_op(hv, entry, out_dir) -> Op:
    path = os.path.join(out_dir, f"sweep-{entry.name}.json")
    argv = ["sweep", "--entry", entry.name, "--out", path]
    first_bytes = []

    def call():
        return hv.cli.main(argv)

    def finish(code):
        with open(path, "rb") as fh:
            return code, fh.read()

    @_memo
    def reference():
        import refs

        return refs.corpus_reference(entry.spec.source, entry.interval.a, entry.interval.b)

    def check(result):
        code, data = result
        if not first_bytes:
            first_bytes.append(data)
        elif data != first_bytes[0]:
            return "sweep JSON differs from the first pass"
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(data)
        summary = payload["summary"]
        if summary["violated"] or summary["errors"]:
            return f"summary {summary}"
        ref = reference()
        for job in payload["results"]:
            if job["status"] == "skipped" and not job.get("reason"):
                return f"{job['chain']} skipped without a reason"
            if job["chain"] != "t1" or job["report"] is None:
                continue
            rep = job["report"]
            terms = rep["terms"]
            mean = terms[1]
            if abs(mean["value"] - ref["t1_mean"]) > mean["abs_error"] + rep["tol"]:
                return f"t1 weighted mean {mean['value']!r} vs reference {ref['t1_mean']!r}"
            if ref["sym_constant"]:
                for i, p in enumerate(terms):
                    for q in terms[i + 1:]:
                        if abs(p["value"] - q["value"]) > p["abs_error"] + q["abs_error"] + rep["tol"]:
                            return f"t1 terms not all equal: {p['label']} vs {q['label']}"
        return None

    return Op(f"sweep {entry.name}", call, check, finish)


# --- chains shared by smooth_chains and kinked_chains -------------------------


def _points(a: float, b: float) -> tuple[float, float]:
    """Subinterval ends x < y at 0.31 and 0.83 of the width, as in
    acceptance criterion 6; x is away from the harmonic midpoint, where the
    r2 coefficient blows up, on every interval the workloads use."""
    return a + 0.31 * (b - a), a + 0.83 * (b - a)


def check_reports(result, expected) -> Optional[str]:
    """Every report passes and every integral term lies within its error bar
    plus the chain tolerance of the reference value."""
    reports = result if isinstance(result, tuple) else (result,)
    if len(reports) != len(expected):
        return f"{len(reports)} reports, expected {len(expected)}"
    for rep, refs_row in zip(reports, expected):
        if not rep.passed:
            return f"{rep.chain_id} did not pass: slacks {rep.slacks}"
        if len(rep.terms) != len(refs_row):
            return f"{rep.chain_id} has {len(rep.terms)} terms, expected {len(refs_row)}"
        for term, ref in zip(rep.terms, refs_row):
            if ref is None:
                continue
            if not abs(term.value - float(ref)) <= term.abs_error + rep.tol:
                return (
                    f"{rep.chain_id} {term.label} = {term.value!r}, reference {float(ref)!r}, "
                    f"error bar {term.abs_error!r} + tol {rep.tol!r}"
                )
    return None


def _lazy_ref(kind: str, arg):
    """The reference function ``refs.<kind>(arg)``, built on first use."""

    def make():
        import refs

        return getattr(refs, kind)(arg)

    return _memo(make)


def _chain_op(ineq, name, fname, args, kwargs, reference) -> Op:
    expected = _memo(reference)

    def call():
        # looked up at call time, so that a traced run sees its wrappers
        return getattr(ineq, fname)(*args, **kwargs)

    return Op(name, call, lambda result: check_reports(result, expected()))


def _chain_ops(hv, label, f, make_ref, interval, x, y, direction, weight=None, r4_quad_tol=None):
    """The unweighted chains (t1 t2 t3 r2 r3 r4 t4) on f, and, given a
    weight (name, HFunction), the weighted ones (t5 t6 c1 r4)."""
    ineq = hv.ineq
    d = {"direction": direction}
    r4_kw = dict(d) if r4_quad_tol is None else dict(d, quad_tol=r4_quad_tol)

    def ref(chain, **kw):
        def compute():
            import refs

            return refs.chain_reference(chain, make_ref(), interval, x=x, y=y, **kw)

        return compute

    if weight is None:
        return [
            _chain_op(ineq, f"t1 {label}", "chain_harmonic_hh", (f, interval), d, ref("t1")),
            _chain_op(ineq, f"t2 {label}", "bounds_pointwise", (f, interval, x), d, ref("t2")),
            _chain_op(ineq, f"t3 {label}", "chain_subinterval", (f, interval, x, y), d, ref("t3")),
            _chain_op(ineq, f"r2 {label}", "chain_reflected_pair", (f, interval, x), d, ref("r2")),
            _chain_op(ineq, f"r3 {label}", "chain_harmonic_full", (f, interval, x, y), d, ref("r3")),
            _chain_op(ineq, f"r4 {label}", "chain_refinement", (f, interval), r4_kw, ref("r4")),
            # the product partner is f itself: both factors in the same class
            _chain_op(ineq, f"t4 {label}", "product_inequalities", (f, f, interval), {}, ref("t4")),
        ]
    hname, h = weight
    one = lambda t: 1.0
    return [
        _chain_op(ineq, f"t5 {label} h={hname}", "chain_h_subinterval", (f, h, interval, x, y), d, ref("t5")),
        _chain_op(ineq, f"t6 {label} h={hname}", "bounds_h_pointwise", (f, h, interval, x), d, ref("t6")),
        _chain_op(ineq, f"c1 {label} h={hname}", "weighted_bounds", (f, h, one, interval), d, ref("c1", h=hname)),
        _chain_op(ineq, f"r4 {label} h={hname}", "chain_refinement", (f, interval),
                  dict(r4_kw, h=h), ref("r4", h=hname)),
    ]


# --- smooth_chains ------------------------------------------------------------


def harmonic_direction(source: str, a: float) -> str:
    """Class of f on a sign-definite interval, from the convexity of
    G(u) = f(1/u): 1, 3 and 1/x are harmonic affine (both classes; convex is
    used), x and exp(x) are harmonic convex for a > 0 and concave on
    [-2, -1], x^2 is harmonic convex, -ln(x) harmonic concave."""
    if source in ("x", "exp(x)"):
        return "convex" if a > 0 else "concave"
    if source == "-ln(x)":
        return "concave"
    return "convex"


def _smooth_chains(hv, expressions=SMOOTH_EXPRESSIONS, intervals=SMOOTH_INTERVALS) -> Workload:
    specs = {src: hv.parse(src) for src in expressions}
    weights = [(name, hv.HFunction.from_source(src, name=name)) for name, src, _ in WEIGHTS]
    ops, weighted, eval_specs = [], [], []
    turn = 0
    for a, b in intervals:
        interval = hv.HInterval(a, b)
        for src in expressions:
            if src == "-ln(x)" and a < 0:
                continue  # outside the domain of ln
            f = specs[src]
            eval_specs.append((f, a, b))
            x, y = _points(a, b)
            direction = harmonic_direction(src, a)
            make_ref = _lazy_ref("SmoothRef", src)
            label = f"{src} [{a:g},{b:g}]"
            ops += _chain_ops(hv, label, f, make_ref, interval, x, y, direction)
            nonnegative = src in ("1", "3", "x^2", "exp(x)") or a > 0
            if direction == "convex" and nonnegative:
                weight = weights[turn % len(weights)]
                turn += 1
                weighted += _chain_ops(hv, label, f, make_ref, interval, x, y, "convex", weight=weight)
    eval_specs += [(h.fn, 0.0, 1.0) for _, h in weights]
    return Workload(ops + weighted, eval_specs)


# --- kinked_chains ------------------------------------------------------------


def _kinked_chains(hv, function_seeds=KINKED_FUNCTION_SEEDS) -> Workload:
    weights = [(name, hv.HFunction.from_callable(fn, name=name)) for name, _, fn in WEIGHTS]
    ops, weighted = [], []
    for s in function_seeds:
        a, b = KINKED_INTERVALS[s % len(KINKED_INTERVALS)]
        interval = hv.HInterval(a, b)
        f = hv.random_harmonic_convex(s, interval)
        x, y = _points(a, b)
        make_ref = _lazy_ref("PiecewiseRef", f)
        label = f"random_hc_{s} [{a:g},{b:g}]"
        chains = _chain_ops(hv, label, f, make_ref, interval, x, y, "convex",
                            r4_quad_tol=KINKED_R4_QUAD_TOL)
        wchains = _chain_ops(hv, label, f, make_ref, interval, x, y, "convex",
                             weight=weights[s % len(weights)], r4_quad_tol=KINKED_R4_QUAD_TOL)
        ops += chains
        # t5 t6 c1 on every function, the weighted r4 on every fourth
        weighted += wchains if s % 4 == 0 else wchains[:3]
    return Workload(ops + weighted, [])
