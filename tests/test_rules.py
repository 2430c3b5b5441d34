"""Compiled Gauss-Kronrod rules of t -> f(t)/t^2, and batches of node
evaluations, against the generic rule called node by node.

Parsed expressions and ``random_harmonic_convex`` functions are records
with a ``weighted`` rule that :func:`hhverify.quad.weighted_integral` hands to
``integrate`` in place of ``quad._gk15``.  Each must return, bit for bit,
what the generic rule returns on ``lambda t: f(t) / (t * t)``, and raise the
same exception with the same message (the message of an expression's error
names the node ``t`` at which it was raised).

Parsed expressions, symmetric parts and the ``t4`` and ``c1`` integrands
are records with a ``batch``, which the generic rule calls once per segment.
Every result must be the one the rule gives with the batch hidden,
from one rule application up to the default sweep's bytes.
"""

import math
import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhverify import cli, quad
from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import BinOp, Call1, Call2, EvalDomainError, FunctionSpec, Neg, Num, Pow, Var, parse
from hhverify.hmean import Function, HInterval, sym_transform
from hhverify.ineq import HFunction, chain_refinement, product_inequalities, weighted_bounds
from hhverify.quad import GK15, _gk15


def _outcome(rule, lo, hi):
    """``repr`` of the rule's result, or the type and message it raised."""
    try:
        return repr(rule(lo, hi))
    except Exception as exc:  # the comparison covers every exception type
        return (type(exc), str(exc))


def _generic(f):
    return lambda lo, hi: _gk15(lambda t: f(t) / (t * t), lo, hi)


def assert_rule_is_generic(f, lo, hi):
    assert _outcome(f.weighted, lo, hi) == _outcome(_generic(f), lo, hi)


# --- parsed expressions -------------------------------------------------------

DOMAINS = ((1.0, 2.0), (0.5, 3.0), (-2.0, -1.0), (1e-6, 2e-6), (1e6, 2e6))

_numbers = (st.sampled_from((0.5, 1.0, 1.5, 2.0, 1e-3, 1e300)) | st.floats(-3.0, 3.0)).map(Num)
_exponents = st.sampled_from((-2.0, -1.0, 0.5, 2.0, 3.0, 7.5)).map(Num)
_trees = st.recursive(
    st.just(Var()) | _numbers,
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
        st.builds(Pow, kids, _exponents),
        st.builds(Call1, st.sampled_from(("ln", "exp", "abs")), kids),
        st.builds(Call2, st.sampled_from(("min", "max")), kids, kids),
    ),
    max_leaves=8,
)
# a segment as fractions of its domain; either order, and the domain's ends
_fractions = st.sampled_from((0.0, 1.0, 0.5)) | st.floats(0.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(_trees, st.sampled_from(DOMAINS), _fractions, _fractions)
# an overflowing product, and integrand values past the largest double
@example(BinOp("*", Num(1e300), Var()), (1e6, 2e6), 0.0, 1.0)
@example(BinOp("*", BinOp("*", Num(1e300), Var()), Var()), (1e6, 2e6), 0.0, 1.0)
@example(BinOp("/", Num(1e300), Var()), (1e-6, 2e-6), 0.0, 1.0)
# only the first node's value overflows, and its Gauss weight is zero: the
# generic rule's 0*inf makes the error estimate NaN
@example(BinOp("/", Num(1.88e290), Var()), (1e-6, 2e-6), 0.0, 1.0)
# a domain error at a middle node, not the first
@example(Call1("ln", BinOp("-", Num(1.5), Var())), (1.0, 2.0), 0.0, 1.0)
@example(Call1("ln", BinOp("-", Num(1.5), Var())), (1.0, 2.0), 1.0, 0.0)
def test_expression_rule_is_generic_rule(ast, domain, p, q):
    a, b = domain
    f = FunctionSpec(source="<generated>", ast=ast)
    assert_rule_is_generic(f, a + p * (b - a), a + q * (b - a))


@pytest.mark.parametrize(
    "source, lo, hi",
    [
        # t*t underflows to zero: a bare ZeroDivisionError, as from the integrand
        ("1", 1e-170, 2e-170),
        ("x", -2e-170, -1e-170),
        # 0 is a node of a symmetric segment
        ("x^2", -1.0, 1.0),
        # t*t overflows: every node contributes zero
        ("x^3", 1e160, 2e160),
    ],
)
def test_expression_rule_at_extreme_nodes(source, lo, hi):
    assert_rule_is_generic(parse(source), lo, hi)


def test_expression_rule_raises_zero_division_bare():
    with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
        parse("1").weighted(1e-170, 2e-170)


# --- piecewise functions --------------------------------------------------------

KINKED_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (-2.0, -1.0))


def _piecewise_segments(f, a, b, rng):
    """Whole interval, kink to kink, segments ending exactly at each kink and
    straddling it, inside one piece, random, and each of those reversed."""
    kinks = [k for k in f.kinks if a < k < b]
    points = [a, *sorted(kinks), b]
    segments = [(a, b), *zip(points, points[1:])]
    width = b - a
    for k in kinks:
        segments += [(a, k), (k, b), (k - 1e-3 * width, k + 1e-3 * width), (k - 1e-9, k + 1e-9)]
    for lo, hi in zip(points, points[1:]):
        segments.append((lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)))
    segments += [tuple(a + rng.random() * width for _ in range(2)) for _ in range(4)]
    return segments + [(hi, lo) for lo, hi in segments]


def test_piecewise_rule_is_generic_rule():
    rng = random.Random(7)
    for seed in range(200):
        for a, b in KINKED_INTERVALS:
            f = random_harmonic_convex(seed, HInterval(a, b))
            for lo, hi in _piecewise_segments(f, a, b, rng):
                assert_rule_is_generic(f, lo, hi)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-1.0, 1.0),  # 0 is the middle node: ZeroDivisionError from 1/t
        (1e-170, 2e-170),  # t*t underflows
        (-1e-170, 1e-170),
        (1e200, 2e200),  # t*t overflows
        (0.5, 1e6),  # far outside the knot span, both ends clamped
        (math.nextafter(0.0, 1.0), 1.0),
    ],
)
def test_piecewise_rule_at_extreme_nodes(lo, hi):
    f = random_harmonic_convex(5, HInterval(1.0, 2.0))
    assert_rule_is_generic(f, lo, hi)


# --- batches of node evaluations --------------------------------------------------


def _values(batch, ts):
    """``float.hex`` of each value of the batch, or the type and message it raised."""
    try:
        return [v.hex() for v in batch(ts)]
    except Exception as exc:  # the comparison covers every exception type
        return (type(exc), str(exc))


def _per_node(f):
    """``f`` called node by node: a plain callable, with no batch."""
    return lambda t: f(t)


def assert_batch_is_per_node(f, ts):
    assert _values(f.batch, ts) == _values(lambda ts: [f(t) for t in ts], ts)


def assert_rule_is_per_node(f, lo, hi):
    assert _outcome(partial(_gk15, f), lo, hi) == _outcome(partial(_gk15, _per_node(f)), lo, hi)


@settings(max_examples=400, deadline=None)
@given(_trees, st.sampled_from(DOMAINS), st.lists(_fractions, max_size=16), _fractions, _fractions)
# a domain error at a middle node, not the first, with nodes out of order
@example(Call1("ln", BinOp("-", Num(1.5), Var())), (1.0, 2.0), [0.1, 0.4, 0.9, 0.2, 0.6], 0.0, 1.0)
# a value past the largest double at the last node only
@example(BinOp("/", Num(1e300), Var()), (1e-6, 2e-6), [1.0, 0.5, 0.0], 1.0, 0.0)
def test_expression_batch_is_per_node(ast, domain, fractions, p, q):
    a, b = domain
    f = FunctionSpec(source="<generated>", ast=ast)
    # the same values, or the same exception at the same first failing node
    assert_batch_is_per_node(f, [a + r * (b - a) for r in fractions])
    lo, hi = a + p * (b - a), a + q * (b - a)
    assert_rule_is_per_node(f, lo, hi)
    assert_rule_is_per_node(sym_transform(f, HInterval(a, b)), lo, hi)


@settings(max_examples=200, deadline=None)
@given(_trees, st.sampled_from(DOMAINS), st.lists(_fractions, max_size=16))
def test_symmetric_part_batch_raises_where_per_node_raises(ast, domain, fractions):
    a, b = domain
    fb = sym_transform(FunctionSpec(source="<generated>", ast=ast), HInterval(a, b))
    ts = [a + r * (b - a) for r in fractions]
    batch, per_node = _values(fb.batch, ts), _values(lambda ts: [fb(t) for t in ts], ts)
    # the batch visits base at every node before any reflection, so it may
    # meet another node's error first (the rule then evaluates node by node)
    if isinstance(per_node, list):
        assert batch == per_node
    else:
        assert not isinstance(batch, list)


def test_rule_falls_back_when_a_reflected_node_fails_first():
    # f fails on [1.86, 1.91].  Node by node, sym(f) meets the reflection of
    # node 1 there before it meets node 11; its batch meets node 11 first.
    fb = sym_transform(parse("ln(abs(x - 1.885) - 0.025)"), HInterval(1.0, 2.0))
    ts = [1.5 + 0.5 * x for x, _, _ in GK15]
    first = "evaluation failed at t={!r}: math domain error"
    assert _values(fb.batch, ts) == (EvalDomainError, first.format(ts[11]))
    per_node = (EvalDomainError, first.format(fb.interval.reflect(ts[1])))
    assert _values(lambda ts: [fb(t) for t in ts], ts) == per_node
    assert _outcome(partial(_gk15, fb), 1.0, 2.0) == per_node
    assert_rule_is_per_node(fb, 1.0, 2.0)


def test_rule_evaluates_a_batch_in_one_call():
    f = parse("exp(x) - 1/x")
    batches = []

    def per_node_call(t):
        raise AssertionError("per-node call")

    def batch(ts):
        batches.append(len(ts))
        return f.batch(ts)

    assert repr(_gk15(Function(per_node_call, batch), 1.0, 2.0)) == repr(_gk15(_per_node(f), 1.0, 2.0))
    assert batches == [15]


def test_piecewise_symmetric_part_rule_is_per_node():
    # random_harmonic_convex functions publish no batch: sym(f) falls back to
    # one call of f per node and reflection
    rng = random.Random(11)
    for seed in range(20):
        for a, b in KINKED_INTERVALS:
            f = random_harmonic_convex(seed, HInterval(a, b))
            fb = sym_transform(f, HInterval(a, b))
            for lo, hi in _piecewise_segments(f, a, b, rng):
                assert_rule_is_per_node(fb, lo, hi)


# --- the batch path end to end -------------------------------------------------------


@pytest.fixture
def node_by_node(monkeypatch):
    """Hide every integrand's batch from the generic rule."""

    def hide():
        gk15 = quad._gk15
        monkeypatch.setattr(quad, "_gk15", lambda f, lo, hi: gk15(_per_node(f), lo, hi))

    return hide


_CHAIN_FUNCTIONS = {
    "parsed": lambda interval: parse("exp(x) - 1/x"),
    "piecewise": lambda interval: random_harmonic_convex(3, interval),
}


@pytest.mark.parametrize("kind", _CHAIN_FUNCTIONS)
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (-2.0, -1.0)])
def test_batched_chains_equal_per_node_chains(kind, a, b, node_by_node):
    interval = HInterval(a, b)
    f = _CHAIN_FUNCTIONS[kind](interval)
    h, w = HFunction.from_source("x^0.5"), parse("x^2 + 1")

    def reports():
        return repr((
            product_inequalities(f, f, interval),
            product_inequalities(f, parse("1/x - x"), interval, variant="as_printed"),
            weighted_bounds(f, h, w, interval),
            weighted_bounds(f, h, w, interval, variant="as_printed"),
            chain_refinement(f, interval, quad_tol=1e-6),
            chain_refinement(f, interval, h=h, quad_tol=1e-6),
        ))

    batched = reports()
    node_by_node()
    assert reports() == batched


def test_batched_sweep_bytes_equal_per_node_bytes(node_by_node):
    batched = cli.format_json(cli.run_sweep())
    node_by_node()
    assert cli.format_json(cli.run_sweep()) == batched
