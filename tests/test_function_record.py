"""The function record of :mod:`hhverify.hmean`: derived integrands keep
the batch, kinks and rule of what they are built on, their batches and
rules give the node-by-node values bit for bit (the claims of the rows of
``fastpaths.ROWS``, here on the records a chain hands to ``integrate``),
and ``batch_else_each`` raises what the first failing item raises.
"""

import pytest

from fastpaths import (
    FAILS,
    FIRST_FAILURE,
    I12,
    ROWS,
    SEGMENT,
    TS,
    assert_calls,
    assert_claims,
    c1,
    claims,
    integrands,
    nodes,
    outcome,
)
from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import EvalDomainError, parse
from hhverify.hmean import Function, as_function, batch_else_each, kinks_of, sym_transform
from hhverify.ineq import HFunction, product_inequalities, weighted_bounds
from hhverify.quad import _gk15, weighted_integral

# [1, 2] and SEGMENT, each either way
_SEGMENTS = [(1.0, 2.0), (2.0, 1.0), SEGMENT, SEGMENT[::-1]]


def test_every_function_the_package_builds_is_its_own_record():
    f, g, h, kinked = parse("x^2 + 1"), parse("x + 1"), HFunction.from_source("x^0.5"), random_harmonic_convex(6, I12)
    # int f/t^2, int g/t^2 and sym(f)*g/t^2 of t4; int w, w*(f + f(r)) and
    # the two h-weight integrands of c1
    built = integrands(lambda: product_inequalities(f, g, I12)) + integrands(lambda: weighted_bounds(f, h, g, I12))
    assert len(built) == 7
    for record in (f, h, kinked, sym_transform(kinked, I12), *built):
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
    assert_claims(ROWS["sym(piecewise) batch"].claims(f, I12, [], [nodes(lo, hi) for lo, hi in _SEGMENTS]))


@pytest.mark.parametrize("source", ["exp(x) - 1/x", FAILS, "ln(x - 1.5)"])
def test_weighted_integrand_keeps_the_rule(source):
    f = parse(source)
    (integrand,) = integrands(lambda: weighted_integral(f, 1.0, 2.0))
    assert integrand(1.75) == f(1.75) / (1.75 * 1.75)
    assert_claims(ROWS["f/t^2 rule"].claims(f, I12, _SEGMENTS, []))


def test_piecewise_weighted_integrand_keeps_the_rule():
    f = random_harmonic_convex(6, I12)
    segments = list(zip((1.0, *kinks_of(f)), (*kinks_of(f), 2.0)))
    assert_claims(ROWS["f/t^2 rule"].claims(f, I12, segments + [(hi, lo) for lo, hi in segments], []))


def _product(f, g):
    """The record of sym(f)*g/t^2 that ``product_inequalities`` hands to
    ``integrate``, after int f/t^2 (and int g/t^2 when g is not f): its own
    rule takes the batches of f and g."""
    *others, product = integrands(lambda: product_inequalities(f, g, I12))
    assert len(others) == (1 if g is f else 2)
    assert product.rule is not None and product.batch is None
    return product


@pytest.mark.parametrize(
    "make_f", [lambda: parse(FAILS), lambda: random_harmonic_convex(6, I12)], ids=["parsed", "piecewise"]
)
def test_t4_integrand_keeps_the_batches(make_f):
    assert_claims(claims(_product(make_f(), parse("x^2 + 1")), "rule", _SEGMENTS, ()))


def test_t4_integrand_raises_at_the_first_failing_node():
    product = _product(parse(FAILS), parse("x^2 + 1"))
    assert outcome(product.values_at, TS) == FIRST_FAILURE
    assert outcome(product.rule, *SEGMENT) == FIRST_FAILURE
    assert outcome(_gk15, product, *SEGMENT) == FIRST_FAILURE


def test_c1_integrands_keep_the_batches():
    # int w, then w*(f + f(r)) in t, then the two h-weight integrals in theta
    int_w, mass, corrected, printed = c1(parse(FAILS), I12)
    assert all(record.batch is not None for record in (int_w, mass, corrected, printed))
    assert_claims(claims(mass, "batch", [], [nodes(lo, hi) for lo, hi in _SEGMENTS], weak=True))
    assert outcome(mass.values_at, TS) == FIRST_FAILURE
    for record in (corrected, printed):
        thetas = [nodes(0.0, 1.0), nodes(1.0, 0.0), nodes(0.2, 0.3), nodes(0.3, 0.2)]
        assert_claims(claims(record, "batch", [], thetas, weak=True))


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
    assert_calls("batch_else_each")


def test_record_values_fall_back_in_node_order():
    # sym(f)'s batch takes f at every node before any reflection, so it
    # meets node 11 first; node by node, the reflection of node 1 fails first
    fb = as_function(sym_transform(parse(FAILS), I12))
    assert outcome(fb.batch, TS) == (EvalDomainError, f"evaluation failed at t={TS[11]!r}: float division by zero")
    assert outcome(fb.values_at, TS) == FIRST_FAILURE


@pytest.mark.parametrize(
    "make_f", [lambda: parse(FAILS), lambda: random_harmonic_convex(6, I12)], ids=["parsed", "piecewise"]
)
def test_t4_integrand_with_g_is_f_keeps_the_batch(make_f):
    # one batch of f over the nodes and their reflections serves sym(f) and
    # g; on SEGMENT, FAILS raises at the reflection of node 1 node by node
    f = make_f()
    assert_claims(claims(_product(f, f), "rule", _SEGMENTS, ()))


def test_c1_batches_fall_back_once():
    assert_calls("c1 mass batch")
