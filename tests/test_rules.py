"""The rows of the fast-path table, ``fastpaths.ROWS``, on the shared inputs
and on generated ones, and the batch path end to end.

``test_row`` runs each row on the shared base functions and segments.  The
rows that took over the cases of one older test (the piecewise weighted
rule, the batch of sym(piecewise), the ``t4`` rules) run under that test's
name instead, as do the generated trees and the cases pinned to one input.
The report-level tests at the end hide every fast path at once.
"""

import math
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastpaths import I12, INTERVALS, ROWS, assert_calls, assert_claims, check_row, claims, nodes, outcome
from hhverify import cli, ineq, quad
from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import BinOp, Call1, Call2, EvalDomainError, FunctionSpec, Neg, Num, Pow, Var, parse
from hhverify.hmean import Function, HInterval, sym_transform
from hhverify.ineq import HFunction, chain_refinement, product_inequalities, weighted_bounds
from hhverify.quad import _gk15

# run by the tests named after the older tests whose cases they took over
_NAMED_ROWS = ("piecewise weighted", "sym(piecewise) batch", "t4 rule, g is f", "t4 rule, g distinct")


@pytest.mark.parametrize("name", [name for name in ROWS if name not in _NAMED_ROWS])
def test_row(name):
    check_row(name)


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
    assert_claims(ROWS["parsed weighted"].claims(f, HInterval(a, b), [(a + p * (b - a), a + q * (b - a))], []))


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
    assert_claims(ROWS["parsed weighted"].claims(parse(source), None, [(lo, hi)], []))


def test_expression_rule_raises_zero_division_bare():
    with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
        parse("1").weighted(1e-170, 2e-170)


@settings(max_examples=400, deadline=None)
@given(_trees, st.sampled_from(DOMAINS), st.lists(_fractions, max_size=16), _fractions, _fractions)
# a domain error at a middle node, not the first, with nodes out of order
@example(Call1("ln", BinOp("-", Num(1.5), Var())), (1.0, 2.0), [0.1, 0.4, 0.9, 0.2, 0.6], 0.0, 1.0)
# a value past the largest double at the last node only
@example(BinOp("/", Num(1e300), Var()), (1e-6, 2e-6), [1.0, 0.5, 0.0], 1.0, 0.0)
def test_expression_batch_is_per_node(ast, domain, fractions, p, q):
    a, b = domain
    f, interval = FunctionSpec(source="<generated>", ast=ast), HInterval(a, b)
    ts = nodes(a + p * (b - a), a + q * (b - a))
    assert_claims(ROWS["parsed batch"].claims(f, interval, [], [[a + r * (b - a) for r in fractions], ts]))
    assert_claims(ROWS["sym(parsed) batch"].claims(f, interval, [], [ts]))


@settings(max_examples=200, deadline=None)
@given(_trees, st.sampled_from(DOMAINS), st.lists(_fractions, max_size=16))
def test_symmetric_part_batch_raises_where_per_node_raises(ast, domain, fractions):
    # the batch visits base at every node before any reflection, so it may
    # meet another node's error first (the rule then evaluates node by node)
    a, b = domain
    f = FunctionSpec(source="<generated>", ast=ast)
    assert_claims(ROWS["sym(parsed) batch"].claims(f, HInterval(a, b), [], [[a + r * (b - a) for r in fractions]]))


def test_rule_falls_back_when_a_reflected_node_fails_first():
    # f fails on [1.86, 1.91].  Node by node, sym(f) meets the reflection of
    # node 1 there before it meets node 11; its batch meets node 11 first.
    fb, ts = sym_transform(parse("ln(abs(x - 1.885) - 0.025)"), I12), nodes(1.0, 2.0)
    first = "evaluation failed at t={!r}: math domain error"
    assert outcome(fb.batch, ts) == (EvalDomainError, first.format(ts[11]))
    per_node = (EvalDomainError, first.format(I12.reflect(ts[1])))
    assert outcome(fb.values_at, ts) == per_node
    assert outcome(lambda ts: [fb(t) for t in ts], ts) == per_node
    assert outcome(partial(_gk15, fb), 1.0, 2.0) == per_node


def test_rule_evaluates_a_batch_in_one_call():
    assert_calls("parsed batch")


# --- piecewise functions --------------------------------------------------------


def test_piecewise_rule_is_generic_rule():
    check_row("piecewise weighted")


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
    f = random_harmonic_convex(5, I12)
    assert_claims(ROWS["piecewise weighted"].claims(f, None, [(lo, hi)], []))


def test_piecewise_symmetric_part_rule_is_per_node():
    # random_harmonic_convex functions publish no batch: sym(f)'s batch takes
    # one call of f per node and reflection
    check_row("sym(piecewise) batch")


# --- the t4 product integrand ---------------------------------------------------------


@pytest.mark.parametrize("a, b", [(interval.a, interval.b) for interval in INTERVALS])
def test_product_rule_is_generic_rule(a, b):
    # g is f (one batch for both), and g distinct, of each kind
    check_row("t4 rule, g is f", [HInterval(a, b)])
    check_row("t4 rule, g distinct", [HInterval(a, b)])


def test_product_rule_raises_zero_division_bare():
    # t*t underflows to zero at every node: every batch succeeds, and the
    # rule raises where the integrand divides
    interval = HInterval(1e-170, 2e-170)
    for f in (parse("1"), lambda t: 1.0):
        for g in (f, parse("2")):
            product = ineq._product_integrand(f, g, interval)
            assert_claims(claims(product, "rule", [(1e-170, 2e-170)], ()))
            with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
                product.rule(1e-170, 2e-170)


def test_product_rule_evaluates_each_batch_once():
    # f over the nodes and their reflections, then g over the nodes; with g
    # is f, g's values come from f's batch
    assert_calls("t4 rule, g distinct")
    assert_calls("t4 rule, g is f")


# --- the batch path end to end -------------------------------------------------------


@pytest.fixture
def node_by_node(monkeypatch):
    """Hide every integrand's batch from the generic rule, and the ``t4``
    product integrand's own rule, so that it takes the generic rule too."""

    def hide():
        gk15 = quad._gk15
        monkeypatch.setattr(quad, "_gk15", lambda f, lo, hi: gk15(Function(f), lo, hi))
        product_integrand = ineq._product_integrand
        monkeypatch.setattr(ineq, "_product_integrand", lambda *args: Function(product_integrand(*args).call))

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
