import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastpaths import ROWS, SWALLOWED_NAN, assert_claims, nodes
from hhverify.fnspec import (
    BinOp,
    Call1,
    Call2,
    EvalDomainError,
    ExpressionError,
    FunctionSpec,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    parse,
)


class TestParse:
    def test_neg_log(self):
        spec = parse("-ln(x)")
        assert spec.ast == Neg(Call1("ln", Var()))

    def test_reciprocal(self):
        spec = parse("1/x")
        assert spec.ast == BinOp("/", Num(1.0), Var())

    @pytest.mark.parametrize(
        "source, message, offset",
        [
            (".x", "unexpected character '.'", 0),
            ("\u00a0$", "unexpected character '$'", 2),
            ("1e", "unexpected trailing input", 1),
            ("1 2", "unexpected trailing input", 2),
            ("2\u00b2", "unexpected trailing input", 1),
            ("ln(", "expected an expression", 3),
            ("(x", "expected ')'", 2),
            ("x)", "unexpected trailing input", 1),
            ("foo(x)", "unknown identifier 'foo'", 0),
            ("y + 1", "unknown identifier 'y'", 0),
            ("x\u00d7y + 1", "unknown identifier 'y'", 3),
            ("ln(1, 2)", "ln takes exactly one argument", 4),
            ("min(1)", "min takes exactly two arguments", 5),
            ("x^-x", "power exponent must be a constant expression", 2),
            ("2^(1+ln(x))", "power exponent must be a constant expression", 2),
        ],
    )
    def test_error_message_and_byte_offset(self, source, message, offset):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == f"{message} (byte offset {offset})"
        assert exc.value.offset == offset

    @pytest.mark.parametrize(
        "source, ast",
        [
            ("1.", Num(1.0)),
            (".5", Num(0.5)),
            ("1.e1", Num(10.0)),
            ("x**2", Pow(Var(), Num(2.0))),
            ("6\u00f73\u00d72", BinOp("*", BinOp("/", Num(6.0), Num(3.0)), Num(2.0))),
            ("\u00a0x\t", Var()),
            ("\u0663*x", BinOp("*", Num(3.0), Var())),
        ],
    )
    def test_accepted_forms(self, source, ast):
        assert parse(source).ast == ast

    def test_power_requires_constant_exponent(self):
        parse("x^2")
        parse("x^-0.5")
        parse("x^(1/3)")
        with pytest.raises(ParseError, match="constant"):
            parse("2^x")
        with pytest.raises(ParseError, match="constant"):
            parse("x^x")

    def test_precedence(self):
        # pow > unary minus > mul > add
        assert parse("-2^2")(0.0) == -4.0
        assert parse("-x^2")(3.0) == -9.0
        assert parse("2+3*4")(0.0) == 14.0
        assert parse("(2+3)*4")(0.0) == 20.0
        assert parse("2*x**2")(3.0) == 18.0

    def test_unicode_operators(self):
        assert parse("6÷3×2")(0.0) == 4.0

    def test_empty(self):
        with pytest.raises(ParseError) as exc:
            parse("")
        assert exc.value.offset == 0

    def test_rational_literal_stays_a_division(self):
        assert parse("1/3").ast == BinOp("/", Num(1.0), Num(3.0))


class TestEvaluate:
    def test_neg_log_at_e(self):
        assert parse("-ln(x)")(math.e) == pytest.approx(-1.0, abs=1e-15)

    def test_reciprocal(self):
        assert parse("1/x")(2.0) == 0.5

    def test_log_domain_error(self):
        with pytest.raises(EvalDomainError):
            parse("ln(x)")(-1.0)
        with pytest.raises(EvalDomainError):
            parse("ln(x)")(0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            parse("1/x")(0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            parse("x^-1")(0.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalDomainError):
            parse("x^0.5")(-4.0)

    def test_overflow_is_an_error(self):
        with pytest.raises(EvalDomainError):
            parse("exp(x)")(1e6)

    def test_silent_infinity_is_an_error(self):
        with pytest.raises(EvalDomainError):
            parse("1e308 + 1e308")(0.0)

    def test_nan_cannot_hide_inside_min(self):
        # inf - inf is NaN; Python's min would silently drop it
        with pytest.raises(EvalDomainError):
            parse("min((1e308 + 1e308) - (1e308 + 1e308), 5)")(0.0)

    def test_nan_cannot_hide_under_pow(self):
        with pytest.raises(EvalDomainError):
            parse("((1e308 + 1e308) - (1e308 + 1e308))^0")(0.0)

    def test_min_max(self):
        assert parse("min(x, 2)")(5.0) == 2.0
        assert parse("max(x, 2)")(5.0) == 5.0
        assert parse("abs(x)")(-3.0) == 3.0


# random AST generation for the round-trip property
_RNG_FUNCS = ("ln", "exp", "abs")


def _random_ast(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice([Var(), Num(round(rng.uniform(-3, 3), 3))])
    kind = rng.randrange(8)
    if kind == 0:
        return Num(round(rng.uniform(-3, 3), 3))
    if kind == 1:
        return Var()
    if kind == 2:
        return Neg(_random_ast(rng, depth - 1))
    if kind == 3:
        return Pow(_random_ast(rng, depth - 1), Num(rng.choice([-2.0, -1.0, 0.5, 2.0, 3.0])))
    if kind == 4:
        return Call1(rng.choice(_RNG_FUNCS), _random_ast(rng, depth - 1))
    if kind == 5:
        return Call2(rng.choice(("min", "max")), _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    op = rng.choice("+-*/")
    return BinOp(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_no_silent_nan_fuzz():
    rng = random.Random(99)
    from hhverify.fnspec import FunctionSpec

    for _ in range(300):
        ast = _random_ast(rng, rng.randint(1, 5))
        spec = FunctionSpec(source="<generated>", ast=ast)
        t = rng.uniform(-5.0, 5.0)
        try:
            value = spec(t)
        except EvalDomainError:
            continue
        assert math.isfinite(value)


@settings(max_examples=200)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_parse_evaluate_agrees_with_math(t):
    assert parse("ln(x) + x^2 - 1/x")(t) == math.log(t) + t**2 - 1 / t


def test_concurrent_evaluation():
    # specs are immutable after parse; workers share one instance freely
    from concurrent.futures import ThreadPoolExecutor

    spec = parse("ln(x) + x^2 - 1/x")
    ts = [0.1 + 0.01 * k for k in range(200)]
    expected = [spec(t) for t in ts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(spec, ts))
    assert results == expected


# --- the generated evaluator against an independent tree walk ----------------

_REFERENCE_CALLS = {"ln": math.log, "exp": math.exp, "abs": abs, "min": min, "max": max}


def _walk(node, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_walk(node.arg, t)
    if isinstance(node, BinOp):
        left = _walk(node.left, t)
        right = _walk(node.right, t)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        base = _walk(node.base, t)
        if math.isnan(base):
            raise EvalDomainError("NaN reached a power")
        exponent = _walk(node.exponent, t)
        if math.isnan(exponent):
            raise EvalDomainError("NaN reached a power")
        return math.pow(base, exponent)
    if isinstance(node, Call1):
        return _REFERENCE_CALLS[node.name](_walk(node.arg, t))
    left, right = _walk(node.left, t), _walk(node.right, t)
    if math.isnan(left) or math.isnan(right):
        raise EvalDomainError("NaN reached min/max")
    return _REFERENCE_CALLS[node.name](left, right)


def _reference(node, t):
    try:
        value = _walk(node, t)
    except EvalDomainError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalDomainError(f"evaluation failed at t={t!r}: {exc}") from None
    if not math.isfinite(value):
        raise EvalDomainError(f"evaluation at t={t!r} left the finite reals")
    return value


def _outcome(fn, *args):
    """The value's bits, or the message of the EvalDomainError raised."""
    try:
        return ("value", struct.pack("<d", fn(*args)))
    except EvalDomainError as exc:
        return ("error", str(exc))


# special values often, so that errors of different kinds meet in one tree
_SPECIAL = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
_numbers = (st.sampled_from(_SPECIAL) | st.floats(width=64)).map(Num)
_constants = st.recursive(
    _numbers,
    lambda kids: kids.map(Neg) | st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
    max_leaves=3,
)
_trees = st.recursive(
    st.just(Var()) | _numbers,
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
        st.builds(Pow, kids, _constants),
        st.builds(Call1, st.sampled_from(("ln", "exp", "abs")), kids),
        st.builds(Call2, st.sampled_from(("min", "max")), kids, kids),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_trees, st.sampled_from(_SPECIAL) | st.floats(-5.0, 5.0) | st.floats(width=64))
# the first error raised decides the message: left operand before right, a
# power's NaN guard before its exponent
@example(BinOp("+", Call1("ln", Var()), BinOp("/", Num(1.0), Num(0.0))), -1.0)
@example(Pow(BinOp("-", Num(math.inf), Num(math.inf)), BinOp("/", Num(1.0), Num(0.0))), 1.0)
def test_generated_evaluator_is_exact(ast, t):
    spec = FunctionSpec(source="<generated>", ast=ast)
    assert _outcome(spec, t) == _outcome(_reference, ast, t)


# ``unused`` is always None; it keeps the case ids stable
@pytest.mark.parametrize(
    "source, unused, t, message",
    [
        ("ln(x)", None, -1.0, "evaluation failed at t=-1.0: math domain error"),
        ("ln(x - 1)", None, 1.0, "evaluation failed at t=1.0: math domain error"),
        ("1/(x - 2)", None, 2.0, "evaluation failed at t=2.0: float division by zero"),
        ("exp(x)", None, 1e6, "evaluation failed at t=1000000.0: math range error"),
        ("x*1e308*10", None, 2.0, "evaluation at t=2.0 left the finite reals"),
        ("(x*1e308*10 - x*1e308*10)^0", None, 2.0, "NaN reached a power"),
        ("1^(1e308*10 - 1e308*10)", None, 2.0, "NaN reached a power"),
        ("1^(1e308*10 - 1e308*10) * x", None, 2.0, "NaN reached a power"),
        ("x^(1e308*10 - 1e308*10)", None, 2.0, "NaN reached a power"),
        ("(x*1e308*10 - x*1e308*10)^(1e308*10 - 1e308*10)", None, 2.0, "NaN reached a power"),
        ("min(x*1e308*10 - x*1e308*10, 5)", None, 2.0, "NaN reached min/max"),
        ("max(1, x*1e308*10 - x*1e308*10)", None, 2.0, "NaN reached min/max"),
        # pow(nan, y) is NaN for a nonzero literal y, yet the base is checked
        ("(x*1e308*10 - x*1e308*10)^2", None, 2.0, "NaN reached a power"),
        ("(x*1e308*10 - x*1e308*10)^-0.5", None, 2.0, "NaN reached a power"),
        # both operands are evaluated before the check
        ("min(x*1e308*10 - x*1e308*10, 1/(x-x))", None, 2.0, "evaluation failed at t=2.0: float division by zero"),
        ("max(1/(x-x), x*1e308*10 - x*1e308*10)", None, 2.0, "evaluation failed at t=2.0: float division by zero"),
        # the base is checked before the exponent is evaluated
        ("(x*1e308*10 - x*1e308*10)^(1/0)", None, 2.0, "NaN reached a power"),
    ],
)
def test_generated_evaluator_errors_match_reference(source, unused, t, message):
    spec = parse(source)
    assert _outcome(spec, t) == _outcome(_reference, spec.ast, t) == ("error", message)


# input that nests deeper than the parser, or Python's compiler of the
# generated code, can follow is refused when parsed, not when first evaluated
_LONG_SUM = "+".join(["x"] * 301)
_DEEP_PARENTHESES = "(" * 300 + "x" + ")" * 300


@pytest.mark.parametrize("source", [_LONG_SUM, _DEEP_PARENTHESES], ids=["301-term sum", "300 parentheses"])
def test_over_deep_input_is_a_parse_error(source):
    with pytest.raises(ParseError, match=r"^expression nests too deeply \(byte offset \d+\)$"):
        parse(source)


def _nested(wrap, depth):
    node = Var()
    for _ in range(depth):
        node = wrap(node)
    return node


@pytest.mark.parametrize(
    "ast",
    [
        _nested(lambda node: BinOp("+", node, Var()), 200),
        _nested(lambda node: Pow(node, Num(0.0)), 200),
        # deeper than the translation recurses
        _nested(Neg, 5000),
    ],
    ids=["left-nested sum of 200", "200 powers of 0", "5000 negations"],
)
def test_over_deep_tree_is_an_expression_error(ast):
    # a tree built without the parser has no byte offset to report
    with pytest.raises(ExpressionError, match="^expression nests too deeply$") as info:
        FunctionSpec(source="<generated>", ast=ast)
    assert type(info.value) is ExpressionError


def test_long_sum_within_the_limits_is_exact():
    spec = parse("+".join(["x"] * 151))
    for t in (0.1, 1.0, 3.7, 1e306):
        assert _outcome(spec, t) == _outcome(_reference, spec.ast, t)
    _assert_batch_and_rule_are_scalar(spec, [0.1, 1.0, 3.7], 1.0, 2.0)
    _assert_batch_and_rule_are_scalar(spec, [0.1, 1e306], 1e305, 1e306)


# --- the compiled batch and rule: the parsed rows of fastpaths.ROWS ------------


def _assert_batch_and_rule_are_scalar(spec, ts, lo, hi):
    # the same values bit for bit, or the same exception at the same first
    # node: the batch on ts and on the nodes of [lo, hi], the rule on [lo, hi]
    for name in ("parsed batch", "parsed weighted"):
        assert_claims(ROWS[name].claims(spec, None, [(lo, hi)], [ts, nodes(lo, hi)]))


# nodes where errors of each kind are met: zero (a zero t*t), t*t underflowing
# to zero or overflowing, values past the largest double, and non-finite nodes
_NODES = _SPECIAL + [1e-170, -1e-170, 1e160, 1e200, 3.0, 1e-300]
_node = st.sampled_from(_NODES) | st.floats(-5.0, 5.0) | st.floats(width=64)


@settings(max_examples=400, deadline=None)
@given(_trees, st.lists(_node, max_size=16), _node, _node)
# inf - inf at some nodes only, under min and under a zero power
@example(Call2("min", BinOp("-", BinOp("*", Var(), Num(1e308)), Num(math.inf)), Num(5.0)), [1.0, -1.0, 2.0], -2.0, 1.0)
@example(Pow(BinOp("*", BinOp("*", Var(), Num(1e308)), Num(0.0)), Num(0.0)), [0.0, 1e300, math.inf], 1e160, 1e200)
def test_batch_and_rule_are_the_scalar_evaluator(ast, ts, lo, hi):
    _assert_batch_and_rule_are_scalar(FunctionSpec(source="<generated>", ast=ast), ts, lo, hi)


@pytest.mark.parametrize("source", SWALLOWED_NAN)
@pytest.mark.parametrize(
    "ts, lo, hi",
    [
        ([0.0, 1.0, 2.0], -1.0, 1.0),
        ([1.0, math.inf, 2.0], 1.0, 2.0),
        ([0.0, 0.0, math.nan], 1e-170, 2e-170),
        ([math.nan], math.inf, 1.0),
    ],
)
def test_batch_and_rule_keep_a_swallowed_nan(source, ts, lo, hi):
    _assert_batch_and_rule_are_scalar(parse(source), ts, lo, hi)
