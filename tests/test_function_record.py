"""The function record of :mod:`hhverify.hmean`: derived integrands keep
the batch, kinks and rule of what they are built on, their batches and
rules give the node-by-node values bit for bit, and ``batch_else_each``
raises what the first failing item raises.
"""

from functools import partial

import pytest

from hhverify import ineq, quad
from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import EvalDomainError, parse
from hhverify.hmean import Function, HInterval, as_function, batch_else_each, kinks_of, sym_transform
from hhverify.ineq import HFunction, product_inequalities, weighted_bounds
from hhverify.quad import GK15, _gk15, weighted_integral

from test_rules import _outcome, _values

I12 = HInterval(1.0, 2.0)


def _nodes(lo, hi):
    return [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for x, _, _ in GK15]


# The segment [1.4, 1.7] is not one that an integral over [1, 2] visits.
# FAILS is x, except at node 11 of that segment and at the reflection of its
# node 1, where it divides by zero.  A batch that takes f at every node
# before any reflection meets node 11 first; node by node, the reflection of
# node 1 comes first.
SEGMENT = (1.4, 1.7)
_TS = _nodes(*SEGMENT)
FAILS = f"x + 0/(x - {_TS[11]!r}) + 0/(x - {I12.reflect(_TS[1])!r})"
FIRST_FAILURE = (EvalDomainError, f"evaluation failed at t={I12.reflect(_TS[1])!r}: float division by zero")


def _per_node(record):
    """The record called node by node: no batch, no rule."""
    return lambda t: record(t)


def assert_record_is_per_node(record, lo, hi):
    """The values and the rule of ``record`` on [lo, hi] and on [hi, lo]
    against one call per node: the same floats, or the same exception at
    the same first failing node."""
    per_node = _per_node(record)
    rule = record.rule or partial(_gk15, record)
    for ts in (_nodes(lo, hi), _nodes(hi, lo)):
        assert _values(record.values_at, ts) == _values(lambda ts: [per_node(t) for t in ts], ts)
    for a, b in ((lo, hi), (hi, lo)):
        assert _outcome(rule, a, b) == _outcome(partial(_gk15, per_node), a, b)


@pytest.fixture
def integrands(monkeypatch):
    """The integrands that ``ineq`` and ``quad`` hand to ``integrate``."""
    seen = []
    for module in (ineq, quad):

        def recording(f, *args, _original=module.integrate, **kwargs):
            seen.append(f)
            return _original(f, *args, **kwargs)

        monkeypatch.setattr(module, "integrate", recording)
    return seen


def test_every_function_the_package_builds_is_its_own_record(integrands):
    f, g, h, kinked = parse("x^2 + 1"), parse("x + 1"), HFunction.from_source("x^0.5"), random_harmonic_convex(6, I12)
    integrands.clear()  # h's integral over [0, 1]
    product_inequalities(f, g, I12)
    weighted_bounds(f, h, g, I12)
    # int f/t^2, int g/t^2 and sym(f)*g/t^2 of t4; int w, w*(f + f(r)) and
    # the two h-weight integrands of c1
    assert len(integrands) == 7
    for record in (f, h, kinked, sym_transform(kinked, I12), *integrands):
        assert isinstance(record, Function) and as_function(record) is record
    # a plain callable is a record of its call alone: no attribute is read
    def plain(t):
        return t

    plain.kinks = (1.5,)
    assert kinks_of(plain) == ()
    assert as_function(plain).call is plain


def test_weight_is_the_record_of_its_function():
    for f in (parse("x^2 + 1"), random_harmonic_convex(6, I12)):
        h = HFunction(f, "h", 0.25, 0.5, 0.0)
        fn = as_function(f)
        assert as_function(h) is h
        assert (h.call, h.batch, h.rule, h.weighted, kinks_of(h), h.label) == (
            f, fn.batch, None, fn.weighted, fn.kinks, "h"
        )
        assert h(1.5) == f(1.5)
        assert h.values_at([1.2, 1.5]) == [f(1.2), f(1.5)]


def test_symmetric_part_keeps_the_kinks_and_the_batch():
    f = random_harmonic_convex(6, I12)
    fb = as_function(sym_transform(f, I12))
    assert fb.kinks == kinks_of(f) + tuple(I12.reflect(k) for k in kinks_of(f))
    assert fb.batch is not None
    assert_record_is_per_node(fb, 1.0, 2.0)


@pytest.mark.parametrize("source", ["exp(x) - 1/x", FAILS, "ln(x - 1.5)"])
def test_weighted_integrand_keeps_the_rule(source, integrands):
    f = parse(source)
    try:
        weighted_integral(f, 1.0, 2.0)
    except EvalDomainError:
        pass
    (integrand,) = integrands
    assert isinstance(integrand, Function)
    assert integrand.rule == f.weighted
    assert integrand(1.75) == f(1.75) / (1.75 * 1.75)
    assert_record_is_per_node(integrand, 1.0, 2.0)
    assert_record_is_per_node(integrand, *SEGMENT)


def test_piecewise_weighted_integrand_keeps_the_rule(integrands):
    f = random_harmonic_convex(6, I12)
    weighted_integral(f, 1.0, 2.0, breakpoints=kinks_of(f))
    (integrand,) = integrands
    assert integrand.rule == f.weighted
    for lo, hi in zip((1.0, *kinks_of(f)), (*kinks_of(f), 2.0)):
        assert_record_is_per_node(integrand, lo, hi)


@pytest.mark.parametrize(
    "make_f", [lambda: parse(FAILS), lambda: random_harmonic_convex(6, I12)], ids=["parsed", "piecewise"]
)
def test_t4_integrand_keeps_the_batches(make_f, integrands):
    product_inequalities(make_f(), parse("x^2 + 1"), I12)
    # int f/t^2 and int g/t^2, then sym(f)*g/t^2, whose own rule takes the
    # batches of f and g
    product = integrands[2]
    assert product.rule is not None and product.batch is None
    assert_record_is_per_node(product, 1.0, 2.0)
    assert_record_is_per_node(product, *SEGMENT)


def test_t4_integrand_raises_at_the_first_failing_node(integrands):
    product_inequalities(parse(FAILS), parse("x^2 + 1"), I12)
    product = integrands[2]
    assert _values(product.values_at, _TS) == FIRST_FAILURE
    assert _outcome(product.rule, *SEGMENT) == FIRST_FAILURE
    assert _outcome(partial(_gk15, product), *SEGMENT) == FIRST_FAILURE


def test_c1_integrands_keep_the_batches(integrands):
    h, w = HFunction.from_source("x^0.5"), parse("x + 1")
    weighted_bounds(parse(FAILS), h, w, I12)
    # int w, then w*(f + f(r)) in t, then the two h-weight integrals in theta
    int_w, mass, corrected, printed = integrands[-4:]
    assert int_w.batch == w.batch
    for record in (mass, corrected, printed):
        assert isinstance(record, Function) and record.batch is not None and record.rule is None
    assert_record_is_per_node(mass, 1.0, 2.0)
    assert_record_is_per_node(mass, *SEGMENT)
    assert _values(mass.values_at, _TS) == FIRST_FAILURE
    for record in (corrected, printed):
        assert_record_is_per_node(record, 0.0, 1.0)
        assert_record_is_per_node(record, 0.2, 0.3)


def test_batch_else_each_raises_the_first_error_in_item_order():
    def each(x):
        if x in (1, 3):
            raise ValueError(f"item {x}")
        return 10 * x

    def backwards(items):
        # meets item 3's error before item 1's
        return [each(x) for x in reversed(items)][::-1]

    with pytest.raises(ValueError, match="^item 3$"):
        backwards([0, 1, 2, 3])
    for batch in (backwards, None):
        with pytest.raises(ValueError, match="^item 1$"):
            batch_else_each(batch, each, [0, 1, 2, 3])
    assert batch_else_each(backwards, each, [0, 2]) == [0, 20]
    # a batch that does not raise is taken as it is
    assert batch_else_each(lambda items: ["batch"] * len(items), each, [1, 3]) == ["batch", "batch"]


def test_record_values_fall_back_in_node_order():
    # sym(f)'s batch takes f at every node before any reflection, so it
    # meets node 11 first; node by node, the reflection of node 1 fails first
    fb = as_function(sym_transform(parse(FAILS), I12))
    assert _values(fb.batch, _TS) == (EvalDomainError, f"evaluation failed at t={_TS[11]!r}: float division by zero")
    assert _values(fb.values_at, _TS) == FIRST_FAILURE


@pytest.mark.parametrize(
    "make_f", [lambda: parse(FAILS), lambda: random_harmonic_convex(6, I12)], ids=["parsed", "piecewise"]
)
def test_t4_integrand_with_g_is_f_keeps_the_batch(make_f, integrands):
    # one batch of f over the nodes and their reflections serves sym(f) and
    # g; on SEGMENT, FAILS raises at the reflection of node 1 node by node
    f = make_f()
    product_inequalities(f, f, I12)
    # int f/t^2 once, then sym(f)*f/t^2, whose own rule takes f's batch
    assert len(integrands) == 2
    product = integrands[1]
    assert product.rule is not None and product.batch is None
    assert_record_is_per_node(product, 1.0, 2.0)
    assert_record_is_per_node(product, *SEGMENT)


def test_c1_batches_fall_back_once(monkeypatch):
    # f fails at node 11 of the first segment of [1, 2].  The batches of the
    # c1 integrands call the batches of f, w and h with no fallback of their
    # own, so only the rule's one fallback evaluates node by node.  The sign
    # check of w takes w's batch too, so the scalar calls are f(a) and f(b)
    # alone: the fallback makes none, since the integrand's scalar call is
    # a batch of one
    node_11 = _nodes(1.0, 2.0)[11]
    f, h, w = parse(f"x + 0/(x - {node_11!r})"), HFunction.from_source("x^0.5"), parse("x + 1")
    calls = []
    call = type(f).__call__
    monkeypatch.setattr(type(f), "__call__", lambda self, t: calls.append(t) or call(self, t))
    with pytest.raises(EvalDomainError) as failure:
        weighted_bounds(f, h, w, I12)
    assert str(failure.value) == f"evaluation failed at t={node_11!r}: float division by zero"
    assert len(calls) == 2
