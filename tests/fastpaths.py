"""The package's fast paths against the generic paths they stand in for, in
one table.

Each row of ``ROWS`` is a record the package builds and the slot it fills
(its batch, its weighted rule of t -> f(t)/t^2, or its own rule), or a
function that stands in for a loop of scalar calls.  Every row runs on one
set of base functions (``_bases``: smooth and failing parsed expressions,
piecewise functions and plain callables) and one set of segments
(``_segments``), and makes three claims against its reference: the same
values, bit for bit; the same exception, type and message; and so the
first failing node decides what is raised.  The batches of derived records
(sym(f), the ``c1`` integrands) call their parts' batches with no fallback
and make the weaker claim that the parts' ``batch_values`` make: they raise
only where the per-node values raise.  The values of such a record
(``values_at``, which the generic rule sums on a segment's nodes) fall back
as a whole and make the full claims.  ``CALLS`` is the column of the rows'
call counts.

``check_row`` runs a row on the shared inputs; a test that holds a case of
its own passes it to the row's ``claims``.  A new fast path lands with its
row, and a deleted one takes its row with it.
"""

import contextlib
import functools
import math
import struct
from functools import partial
from typing import Callable, NamedTuple

import pytest

from hhverify import ineq, quad
from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import EvalDomainError, FunctionSpec, parse
from hhverify.hmean import Function, HInterval, as_function, batch_else_each, first_negative, kinks_of, sym_transform
from hhverify.ineq import HFunction, product_inequalities, weighted_bounds, weighted_reports
from hhverify.quad import GK15, QuadResult, _gk15, weighted_integral

I12 = HInterval(1.0, 2.0)


def nodes(lo, hi):
    """The 15 Gauss-Kronrod nodes of [lo, hi], in the order every rule visits them."""
    return [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for x, _, _ in GK15]


# --- the shared inputs ----------------------------------------------------------

# FAILS is x, except at node 11 of SEGMENT and at the reflection of its node 1
# on I12, where it divides by zero.  A batch that takes f at every node before
# any reflection meets node 11 first; node by node, the reflection of node 1
# comes first.  No integral over I12 visits SEGMENT.
SEGMENT = (1.4, 1.7)
TS = nodes(*SEGMENT)
FAILS = f"x + 0/(x - {TS[11]!r}) + 0/(x - {I12.reflect(TS[1])!r})"
FIRST_FAILURE = (EvalDomainError, f"evaluation failed at t={I12.reflect(TS[1])!r}: float division by zero")

# each swallows a NaN in a plain evaluation: pow(nan, 0) == pow(1, nan) == 1,
# and min/max may drop a NaN operand.  They reach the NaN (t = inf, or
# x*1e308*10 - x*1e308*10 at a nonzero t) at some nodes only
SWALLOWED_NAN = (
    "x^0",
    "x^(1-1)",
    "(x*1e308*10 - x*1e308*10)^0",
    "(x*1e308*10 - x*1e308*10)^(1-1)",
    "(x*1e308*10 - x*1e308*10)^-0",
    "1^(1e308*10 - 1e308*10)",
    "1^(1e308*10 - 1e308*10) * x",
    "min(x*1e308*10 - x*1e308*10, 5)",
    "min(5, x*1e308*10 - x*1e308*10)",
    "max(x*1e308*10 - x*1e308*10, 5)",
    "max(1, x*1e308*10 - x*1e308*10)",
    "max(min(x, x*1e308*10 - x*1e308*10), 1)",
    "min(x, 1)^0 + 1",
    "(x*1e308*10 - x*1e308*10)^2",
    "min(x*1e308*10 - x*1e308*10, 1/(x-x))",
    "max(1/(x-x), x*1e308*10 - x*1e308*10)",
)
SOURCES = (
    "exp(x) - 1/x",
    "x^2",
    "1",
    "x",
    "+".join(["x"] * 151),  # the longest sum within the parser's limits
    FAILS,
    "ln(x - 1.5)",
    # fails on [1.86, 1.91]: on I12, node by node, sym(f) meets the
    # reflection of node 1 there before it meets node 11
    "ln(abs(x - 1.885) - 0.025)",
    *SWALLOWED_NAN,
)
# the last two: t*t underflows to zero at every node, and overflows
INTERVALS = (I12, HInterval(0.5, 3.0), HInterval(-2.0, -1.0), HInterval(1e-170, 2e-170), HInterval(1e160, 2e160))
# segments that no interval holds (0 is a node, values past the largest
# double, a subnormal end, limits not finite), for the rows that need no
# interval; and lists of nodes with a zero, an infinity or a NaN among them
LOOSE = [
    (-1.0, 1.0), (-1e-170, 1e-170), (-2e-170, -1e-170), (1e200, 2e200), (1e305, 1e306), (0.5, 1e6), (5e-324, 1.0),
    (math.inf, 1.0),
]
LOOSE_NODES = [[0.0, 1.0, 2.0], [1.0, math.inf, 2.0], [0.0, 0.0, math.nan], [math.nan]]
# a function of each kind, for the t4 row with g distinct from f
PARTNERS = ("exp(x) - 1/x", "x^2", "ln(abs(x) - c)", "piecewise 3", "piecewise 8", "callable", "callable failing")


@functools.cache
def _bases(interval):
    """The base functions on ``interval``, by name: the parsed ``SOURCES``;
    a parsed expression and a plain callable that fail where |t| <= c, for
    a c inside the interval; a smooth plain callable; and the piecewise
    functions of seeds 3, 5, 6 and 8, then, on the first three intervals,
    of the rest of 200 seeds."""
    c = min(abs(interval.a), abs(interval.b)) + 0.3 * interval.width
    bases = {source: parse(source) for source in SOURCES}
    bases["ln(abs(x) - c)"] = parse(f"ln(abs(x) - {c!r})")
    bases["callable"] = lambda t: t * t + 1.0
    bases["callable failing"] = lambda t: math.log(abs(t) - c)
    for seed in (3, 5, 6, 8, *(range(200) if interval in INTERVALS[:3] else ())):
        bases.setdefault(f"piecewise {seed}", random_harmonic_convex(seed, interval))
    return bases


def _parsed(interval):
    return [f for f in _bases(interval).values() if isinstance(f, FunctionSpec)]


def _piecewise(count):
    return lambda interval: [f for name, f in _bases(interval).items() if name.startswith("piecewise")][:count]


def _each_kind(interval):
    """Every base function but the piecewise ones after the first four."""
    return [f for name, f in _bases(interval).items() if not name.startswith("piecewise")] + _piecewise(4)(interval)


def _one(interval):
    """One base function, for the rows that do not depend on f."""
    return [_bases(interval)["x^2"]]


def _partners(f, interval):
    """The partners g of f in the t4 row with g distinct: every other
    partner for a partner, so that each kind meets each, and the parsed
    ``x^2`` for the other base functions."""
    partners = [_bases(interval)[name] for name in PARTNERS]
    return [g for g in partners if g is not f] if any(g is f for g in partners) else partners[1:2]


def _segments(lo, hi, points=()):
    """Segments of [lo, hi]: the whole, SEGMENT's share of it, another,
    slivers at either end; for ``points`` inside (kinks, the harmonic
    midpoint), the segments between them and the segments that end at each
    point or straddle it; then each reversed."""
    w = hi - lo
    inside = sorted({p for p in points if lo < p < hi})
    edges = [lo, *inside, hi]
    segments = [(lo + s * w, lo + e * w) for s, e in ((0.0, 1.0), (0.4, 0.7), (0.13, 0.91))]
    segments += [(lo, lo + 1e-9 * w), (hi - 1e-9 * w, hi)]
    segments += zip(edges, edges[1:])
    for p in inside:
        segments += [(lo, p), (p, hi), (p - 1e-3 * w, p + 1e-3 * w), (p - 1e-9 * w, p + 1e-9 * w)]
    return segments + [(r, l) for l, r in segments]


# the c1 h-weight integrands run in theta over [0, 1]
THETAS = _segments(0.0, 1.0, (0.5,))
THETA_NODES = [nodes(lo, hi) for lo, hi in THETAS]


# --- the claims -------------------------------------------------------------------


def outcome(fn, *args):
    """The bits of what ``fn(*args)`` returns (None, a float, or a sequence
    of floats), or the type and message of what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # the comparison covers every exception type
        return type(exc), str(exc)
    if result is None:
        return None
    return [struct.pack("<d", v) for v in (result if isinstance(result, (list, tuple)) else [result])]


def _each(f):
    """``f`` called once per item: the reference of a batch."""
    return lambda items: [f(x) for x in items]


def _generic(f):
    """The generic rule on ``f`` called node by node: the reference of a rule."""
    return partial(_gk15, Function(f))


def claims(record, slot, segments, node_lists, weak=False):
    """The claims of ``record``'s ``slot``, a rule on ``segments`` or a batch
    on ``node_lists``: (reference, cases, [(fast, weak), ...]).  A batch
    brings the record's values too, which fall back as a whole; on a
    segment's nodes, they are what the generic rule sums for the record."""
    assert isinstance(record, Function) and as_function(record) is record
    fast = getattr(record, slot)
    assert fast is not None
    if slot == "weighted":
        return [(_generic(lambda t: record(t) / (t * t)), segments, [(fast, False)])]
    if slot == "rule":
        return [(_generic(record), segments, [(fast, False)])]
    return [(_each(record), [(ts,) for ts in node_lists], [(fast, weak), (record.values_at, False)])]


def assert_claims(claims):
    for reference, cases, fasts in claims:
        for case in cases:
            want = outcome(reference, *case)
            for fast, weak in fasts:
                got = outcome(fast, *case)
                if weak and isinstance(want, tuple):
                    assert isinstance(got, tuple), case
                else:
                    assert got == want, case


# --- the rows ---------------------------------------------------------------------


def integrands(run):
    """The records that ``run()`` hands to ``integrate`` in ``ineq`` and
    ``quad``, none of them integrated: each integral is 1 +- 0, and f's
    endpoint mean is 1, so that a chain builds its integrands before it
    evaluates f.  What ``run()`` raises after that is dropped."""
    seen = []

    def record(f, *args, **kwargs):
        seen.append(f)
        return QuadResult(1.0, 0.0, 1)

    with pytest.MonkeyPatch.context() as patch:
        for module in (ineq, quad):
            patch.setattr(module, "integrate", record)
        patch.setattr(ineq, "_endpoint_avg", lambda f, interval: 1.0)
        with contextlib.suppress(Exception):
            run()
    return seen


W, H = parse("abs(x) + 1"), HFunction.from_source("x^0.5")


def _sym(f, interval, segments, node_lists):
    """The batch of sym(f)."""
    return claims(sym_transform(f, interval), "batch", segments, node_lists, weak=True)


def c1(f, interval):
    """int w, the mass w*(f + f(r)) in t, and the corrected and printed
    h-weight integrands in theta, as ``weighted_reports`` builds them."""
    built = integrands(lambda: weighted_reports(f, W, interval, ((H, "convex"),)))
    assert len(built) == 4 and built[0] is W and all(record.rule is None for record in built)
    return built


def _weighted_integrand(f, segments):
    """The f/t^2 integrand of ``weighted_integral``, against the generic rule
    on t -> f(t)/t^2: it carries f's weighted rule as its rule."""
    (integrand,) = integrands(lambda: weighted_integral(f, 1.0, 2.0))
    assert integrand.rule == f.weighted and isinstance(integrand, Function)
    return [(_generic(lambda t: f(t) / (t * t)), segments, [(integrand.rule, False)])]


def _product(f, gs, interval, segments):
    """The own rule of the t4 integrand sym(f)*g/t^2, for each g of ``gs``:
    a record with no batch."""
    records = [ineq._product_integrand(f, g, interval) for g in gs]
    assert all(record.batch is None for record in records)
    return [c for record in records for c in claims(record, "rule", segments, ())]


def _reflect_all(interval, node_lists):
    """``reflect_all`` against ``reflect`` of each node."""
    return [(_each(interval.reflect), [(ts,) for ts in node_lists], [(interval.reflect_all, False)])]


def _first_negative(f, interval):
    """``first_negative`` one point at a time."""
    a, b = interval.a, interval.b
    return next((t for t in (a + (b - a) * k / 64.0 for k in range(65)) if not f(t) >= 0.0), None)


def _batch_else_each(f, interval, node_lists):
    """``batch_else_each`` of sym(f)'s batch, which may meet another node's
    error first, and of no batch."""
    fb, cases = sym_transform(f, interval), [(ts,) for ts in node_lists]
    return [
        (_each(fb), cases, [(partial(batch_else_each, fb.batch, fb), False)]),
        (_each(f), cases, [(partial(batch_else_each, None, f), False)]),
    ]


class Row(NamedTuple):
    """The base functions a row takes on an interval, and its claims
    ``claims(f, interval, segments, node_lists)``.  A ``loose`` row needs no
    interval and takes ``LOOSE`` and ``LOOSE_NODES`` too."""

    bases: Callable
    claims: Callable
    loose: bool = False


ROWS = {
    "parsed batch": Row(_parsed, lambda f, i, s, n: claims(f, "batch", s, n), loose=True),
    "parsed weighted": Row(_parsed, lambda f, i, s, n: claims(f, "weighted", s, n), loose=True),
    "piecewise weighted": Row(_piecewise(200), lambda f, i, s, n: claims(f, "weighted", s, n), loose=True),
    "sym(parsed) batch": Row(_parsed, _sym),
    "sym(piecewise) batch": Row(_piecewise(20), _sym),
    "f/t^2 rule": Row(lambda i: _parsed(i) + _piecewise(4)(i), lambda f, i, s, n: _weighted_integrand(f, s), loose=True),
    "t4 rule, g is f": Row(_each_kind, lambda f, i, s, n: _product(f, [f], i, s)),
    "t4 rule, g distinct": Row(_each_kind, lambda f, i, s, n: _product(f, _partners(f, i), i, s)),
    "c1 mass batch": Row(_each_kind, lambda f, i, s, n: claims(c1(f, i)[1], "batch", s, n, weak=True)),
    "c1 corrected batch": Row(_one, lambda f, i, s, n: claims(c1(f, i)[2], "batch", THETAS, THETA_NODES, weak=True)),
    "c1 printed batch": Row(_one, lambda f, i, s, n: claims(c1(f, i)[3], "batch", THETAS, THETA_NODES, weak=True)),
    "HInterval.reflect_all": Row(_one, lambda f, i, s, n: _reflect_all(i, n)),
    "first_negative": Row(_each_kind, lambda f, i, s, n: [(_first_negative, [(f, i)], [(first_negative, False)])]),
    "batch_else_each": Row(_each_kind, lambda f, i, s, n: _batch_else_each(f, i, n)),
}


def check_row(name, intervals=INTERVALS):
    """Every claim of row ``name`` on each of ``intervals``, on the segments
    of each base function (and, for a loose row, ``LOOSE`` and
    ``LOOSE_NODES``)."""
    row = ROWS[name]
    for interval in intervals:
        for f in row.bases(interval):
            segments = _segments(interval.a, interval.b, (*kinks_of(f), interval.harmonic_midpoint))
            node_lists = [nodes(lo, hi) for lo, hi in segments]
            if row.loose:
                segments, node_lists = segments + LOOSE, node_lists + [nodes(lo, hi) for lo, hi in LOOSE] + LOOSE_NODES
            assert_claims(row.claims(f, interval, segments, node_lists))


# --- the call counts ----------------------------------------------------------------


def _one_batch_per_segment():
    """The generic rule's calls of a record with a batch."""
    f, calls = parse("exp(x) - 1/x"), []
    _gk15(Function(calls.append, lambda ts: calls.append(len(ts)) or f.batch(ts)), 1.0, 2.0)
    return calls


def _t4_calls(g_is_f):
    """The other integrands of the t4 chain, and the batches of f and g that
    its product integrand's rule calls on one segment."""
    calls = []

    def counted(fn):
        return Function(fn, lambda ts: calls.append((fn.label, len(ts))) or fn.batch(ts))

    f = counted(parse("exp(x) - 1/x"))
    *others, product = integrands(lambda: product_inequalities(f, f if g_is_f else counted(parse("x^2")), I12))
    product.rule(1.2, 1.7)
    return len(others), calls


def _reflect_calls(scale, sign):
    """The scalar reflects of ``reflect_all`` on five interior nodes of
    [c, 2c] (c = scale, or -2c, -c), with a NaN among them (up to the NaN)
    and with the harmonic midpoint (all six)."""
    calls, counts = [], []
    reflect = HInterval.reflect
    a, b = sorted((sign * scale, sign * 2.0 * scale))
    interval = HInterval(a, b)
    c, h = 0.5 * (a + b), 0.25 * (b - a)
    ts = [c + h * x for x in (-0.99, -0.5, 0.0, 0.3, 0.97)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HInterval, "reflect", lambda self, t: calls.append(t) or reflect(self, t))
        for points in (ts, ts[:3] + [math.nan] + ts[3:], ts + [interval.harmonic_midpoint]):
            calls.clear()
            fast = outcome(interval.reflect_all, points)
            counts.append(len(calls))
            assert fast == outcome(_each(partial(reflect, interval)), points)
    return counts


def _c1_calls():
    """The scalar calls of parsed expressions in a c1 chain whose f fails
    at node 11 of the first segment, and what it raises.  Its integrands'
    batches call those of f, w and h with no fallback of their own, and the
    sign check of w takes w's batch, so the scalar calls are f(a) and f(b)
    alone: the rule's one fallback makes none, since the integrand's scalar
    call is a batch of one."""
    node_11 = nodes(1.0, 2.0)[11]
    f, w, calls = parse(f"x + 0/(x - {node_11!r})"), parse("x + 1"), []
    call = FunctionSpec.__call__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FunctionSpec, "__call__", lambda self, t: calls.append(t) or call(self, t))
        result = outcome(weighted_bounds, f, H, w, I12)
    return result, len(calls)


def _taken_as_it_is():
    """``batch_else_each`` of a batch that does not raise, and its calls of ``each``."""
    calls = []
    return batch_else_each(lambda items: ["batch"] * len(items), calls.append, [1, 3]), calls


CALLS = {
    "parsed batch": (_one_batch_per_segment, [15]),
    "t4 rule, g is f": (partial(_t4_calls, True), (1, [("exp(x) - 1/x", 30)])),
    "t4 rule, g distinct": (partial(_t4_calls, False), (2, [("exp(x) - 1/x", 30), ("x^2", 15)])),
    "HInterval.reflect_all": (_reflect_calls, [0, 4, 6]),
    "c1 mass batch": (
        _c1_calls,
        ((EvalDomainError, f"evaluation failed at t={nodes(1.0, 2.0)[11]!r}: float division by zero"), 2),
    ),
    "batch_else_each": (_taken_as_it_is, (["batch", "batch"], [])),
}


def assert_calls(name, *args):
    """Row ``name``'s call counts: its probe, given ``args``, returns what ``CALLS`` expects."""
    probe, expected = CALLS[name]
    assert probe(*args) == expected
