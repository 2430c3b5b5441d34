"""Compiled Gauss-Kronrod rules of t -> f(t)/t^2 against the generic rule.

Parsed expressions and ``random_harmonic_convex`` functions publish a
``weighted_gk15`` rule that :func:`hhverify.quad.weighted_integral` hands to
``integrate`` in place of ``quad._gk15``.  Each must return, bit for bit,
what the generic rule returns on ``lambda t: f(t) / (t * t)``, and raise the
same exception with the same message (the message of an expression's error
names the node ``t`` at which it was raised).
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import BinOp, Call1, Call2, Neg, Num, Pow, Var, parse, to_source
from hhverify.hmean import HInterval
from hhverify.quad import _gk15


def _outcome(rule, lo, hi):
    """``repr`` of the rule's result, or the type and message it raised."""
    try:
        return repr(rule(lo, hi))
    except Exception as exc:  # the comparison covers every exception type
        return (type(exc), str(exc))


def _generic(f):
    return lambda lo, hi: _gk15(lambda t: f(t) / (t * t), lo, hi)


def assert_rule_is_generic(f, lo, hi):
    assert _outcome(f.weighted_gk15, lo, hi) == _outcome(_generic(f), lo, hi)


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
    f = parse(to_source(ast))
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
        parse("1").weighted_gk15(1e-170, 2e-170)


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
