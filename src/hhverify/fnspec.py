"""Expression DSL for one-variable real functions.

Grammar, lowest precedence first: ``+ -``, then ``* /``, then unary ``-``,
then ``^`` (whose exponent must be a constant expression, keeping the
evaluation domain decidable).  Atoms are decimal literals (in any Unicode
decimal digits), the variable ``x``, ``ln(e)``, ``exp(e)``, ``abs(e)`` and
two-argument ``min``/``max``.
``**`` is accepted as a synonym for ``^`` and the unicode signs for
multiplication and division are normalised to ``*`` and ``/``.

Evaluation follows the IEEE double path of the tree node by node and never
lets a NaN (or an infinity) escape: every invalid operation surfaces as an
:class:`EvalDomainError` instead, which names the expression's source.

:func:`compile_ast` translates a tree into one Python expression, whose NaN
guards raise in place, and generates three functions around it.  The scalar
evaluator is that expression with its errors translated and its result
checked.  The batch and the weighted Gauss-Kronrod rule of a parsed
expression's record evaluate it at each node, without the guard of a base
under a nonzero literal exponent, and check finiteness once per call, on
the sums of their values.  When that check fails, or a node raises, they
evaluate again from the first node through the scalar evaluator.  So they
return its values bit for bit and raise what it raises, at the same node.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Sequence

from .hmean import _FrozenFunction
from .quad import GK15, _gk15

__all__ = [
    "ExpressionError",
    "ParseError",
    "EvalDomainError",
    "Node",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call1",
    "Call2",
    "FunctionSpec",
    "parse",
    "compile_ast",
]


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExpressionError):
    """Syntax or validation error; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvalDomainError(ExpressionError):
    """Evaluation left the reals: log of a non-positive value, division by
    zero, a negative base under a fractional power, overflow, ...

    ``expression`` is the source of the expression that failed, when known;
    it is not part of the message.
    """

    def __init__(self, message: str, expression: str | None = None):
        super().__init__(message)
        self.expression = expression


# --- AST -------------------------------------------------------------------


class Node:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Num(Node):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Node):
    pass


@dataclass(frozen=True, slots=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True, slots=True)
class BinOp(Node):
    op: str  # one of "+", "-", "*", "/"
    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class Pow(Node):
    base: Node
    exponent: Node  # constant subtree; enforced by the parser


@dataclass(frozen=True, slots=True)
class Call1(Node):
    name: str  # "ln" | "exp" | "abs"
    arg: Node


@dataclass(frozen=True, slots=True)
class Call2(Node):
    name: str  # "min" | "max"
    left: Node
    right: Node


_UNARY_FUNCS = ("ln", "exp", "abs")
_BINARY_FUNCS = ("min", "max")


# --- tokenizer -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "lparen" | "rparen" | "comma" | "end"
    text: str
    pos: int  # character index into the source


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


# one token after optional whitespace; ``bad`` catches any other character
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[^\W\d]\w*)
      | (?P<op>\*\*|[-+*/^×÷])
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<end>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE,
)
_OP_ALIASES = {"**": "^", "×": "*", "÷": "/"}


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", _byte_offset(text, m.start(kind)))
        toks.append(_Token(kind, _OP_ALIASES.get(m[kind], m[kind]), m.start(kind)))
        if kind == "end":
            return toks


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self) -> _Token:
        return self.toks[self.i]

    def _take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _err(self, message: str, tok: _Token):
        raise ParseError(message, _byte_offset(self.text, tok.pos))

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            self._err(f"expected {what}", tok)
        return self._take()

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok.kind != "end":
            self._err("unexpected trailing input", tok)
        return node

    def _left_assoc(self, ops: str, operand: Callable[[], Node]) -> Node:
        node = operand()
        while self._peek().kind == "op" and self._peek().text in ops:
            op = self._take().text
            node = BinOp(op, node, operand())
        return node

    def expr(self) -> Node:
        return self._left_assoc("+-", self.term)

    def term(self) -> Node:
        return self._left_assoc("*/", self.unary)

    def unary(self) -> Node:
        tok = self._peek()
        if tok.kind == "op" and tok.text == "-":
            self._take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self._peek()
        if tok.kind == "op" and tok.text == "^":
            self._take()
            first = self.i
            exponent = self.unary()
            if any(t.kind == "ident" and t.text == "x" for t in self.toks[first : self.i]):
                self._err("power exponent must be a constant expression", self.toks[first])
            node = Pow(node, exponent)
        return node

    def atom(self) -> Node:
        tok = self._peek()
        if tok.kind == "num":
            self._take()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self._take()
            name = tok.text
            if name == "x":
                return Var()
            if name in _UNARY_FUNCS:
                self._expect("lparen", f"'(' after {name}")
                arg = self.expr()
                nxt = self._peek()
                if nxt.kind == "comma":
                    self._err(f"{name} takes exactly one argument", nxt)
                self._expect("rparen", "')'")
                return Call1(name, arg)
            if name in _BINARY_FUNCS:
                self._expect("lparen", f"'(' after {name}")
                left = self.expr()
                nxt = self._peek()
                if nxt.kind == "rparen":
                    self._err(f"{name} takes exactly two arguments", nxt)
                self._expect("comma", "','")
                right = self.expr()
                self._expect("rparen", "')'")
                return Call2(name, left, right)
            self._err(f"unknown identifier {name!r}", tok)
        if tok.kind == "lparen":
            self._take()
            node = self.expr()
            self._expect("rparen", "')'")
            return node
        self._err("expected an expression", tok)


# --- compilation and evaluation ---------------------------------------------


def _nan(message: str, source: str | None) -> NoReturn:
    """Raise the error of a NaN that reached a guard."""
    raise EvalDomainError(message, source)


# names the generated functions see; a function's constants are added as _c<k>
_RUNTIME = {
    "_ln": math.log, "_exp": math.exp, "_abs": abs, "_pow": math.pow, "_isfinite": math.isfinite,
    "_nan": _nan, "_EvalDomainError": EvalDomainError, "_GK15": GK15, "_gk15": _gk15,
}

# the three functions around the expression of ``t``: ``{checked}``, which
# checks every power's base, and ``{fast}``, which skips that check under a
# nonzero literal exponent.  On any exception or a non-finite sum, ``_batch``
# and ``_weighted`` start again through ``_evaluate`` node by node, which
# raises at the first failing node.  ``_make`` builds and returns the three,
# so that the namespace, their globals, does not hold them
_TEMPLATE = """
def _make():
    def _evaluate(t):
        try:
            value = {checked}
        except _EvalDomainError:
            raise
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _EvalDomainError('evaluation failed at t=%r: %s' % (t, exc), _source) from None
        if not _isfinite(value):
            raise _EvalDomainError('evaluation at t=%r left the finite reals' % (t,), _source)
        return value
    def _batch(ts):
        try:
            values = [{fast} for t in ts]
            s = sum(values)
            if s - s == 0.0:
                return values
        except Exception:
            pass
        return list(map(_evaluate, ts))
    def _weighted(lo, hi):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        k = 0.0
        g = 0.0
        try:
            for x, wk, wg in _GK15:
                t = c + h * x
                fv = {fast} / (t * t)
                k += wk * fv
                g += wg * fv
            if k - k == 0.0 == g - g:
                return h * k, _abs(h) * _abs(k - g)
        except Exception:
            pass
        return _gk15(lambda t: _evaluate(t) / (t * t), lo, hi)
    return _evaluate, _batch, _weighted
"""


def _literal(node: Node) -> float | None:
    """The value of ``node`` if it is a number other than NaN, negated or
    not, else None.  Such an exponent ``y`` needs no NaN check, and
    ``pow(nan, y)`` is NaN for every nonzero one."""
    sign = 1.0
    while isinstance(node, Neg):
        node, sign = node.arg, -sign
    return sign * node.value if isinstance(node, Num) and node.value == node.value else None


def _bound(expr: str, name: str) -> tuple[str, str]:
    """``expr`` assigned to ``name`` where it is evaluated, and the name that
    holds its value after; a name is itself."""
    return (expr, expr) if expr.isidentifier() else (f"{name} := {expr}", name)


def _translate(node: Node, namespace: dict, check_every_base: bool, count=None) -> str:
    """One Python expression of ``t`` that evaluates ``node``, binding its
    constants in ``namespace``.  Every string it returns is a name, a call,
    parenthesised or the negation of one of those, so it may stand as an
    operand of ``+ - * /``.  The names of constants and of the values a
    guard reads count the nodes in walk order (``count``, one counter for
    the whole tree), so both translations of a tree bind the same
    constants.  It recurses through itself, not through a closure, so a
    translation leaves no reference cycle behind."""
    if count is None:
        count = itertools.count()
    k = next(count)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Num):
        namespace[f"_c{k}"] = node.value
        return f"_c{k}"
    rest = (namespace, check_every_base, count)
    if isinstance(node, Neg):
        return f"-{_translate(node.arg, *rest)}"
    if isinstance(node, BinOp):
        return f"({_translate(node.left, *rest)} {node.op} {_translate(node.right, *rest)})"
    if isinstance(node, Call1):
        return f"_{node.name}({_translate(node.arg, *rest)})"
    if isinstance(node, Pow):
        base, exponent = _translate(node.base, *rest), _translate(node.exponent, *rest)
        literal = _literal(node.exponent)
        if literal and not check_every_base:
            return f"_pow({base}, {exponent})"
        # math.pow(nan, 0) and math.pow(1, nan) would silently absorb a NaN
        # produced upstream; the base is checked before the exponent is
        # evaluated, and a literal exponent needs no check
        base, b = _bound(base, f"b{k}")
        check = f"{b} == {b}"
        if literal is None:
            assign, exponent = _bound(exponent, f"e{k}")
            check += f" and ({assign}) == {exponent}"
        return f"_pow({base}, {exponent} if {check} else _nan('NaN reached a power', _source))"
    if isinstance(node, Call2):
        # Python's min and max could drop a NaN operand.  Both operands are
        # evaluated before the comparisons, which are false for a NaN: min
        # is q if q < p else p, and max q if q > p else p
        left, p = _bound(_translate(node.left, *rest), f"p{k}")
        right, q = _bound(_translate(node.right, *rest), f"q{k}")
        first, second = (">", "<=") if node.name == "min" else ("<", ">=")
        pick = f"{q} if ({left}) {first} ({right}) else {p} if {p} {second} {q}"
        return f"({pick} else _nan('NaN reached min/max', _source))"
    raise TypeError(f"unknown node {node!r}")


def compile_ast(
    node: Node, source: str | None = None
) -> tuple[
    Callable[[float], float],
    Callable[[Sequence[float]], list[float]],
    Callable[[float, float], tuple[float, float]],
]:
    """Generate three Python functions from the tree:
    ``(evaluate, batch, weighted)``.

    The tree is translated into one Python expression of ``t``: the IEEE
    operations of a recursive walk in its order, left operand before right.
    Leaves are ``t`` and the constants, bound by name.  NaN guards raise
    :class:`EvalDomainError` in place: a power's base is checked before its
    exponent is evaluated and the exponent after (a literal exponent, a
    number other than NaN, goes without), and both operands of a ``min`` or
    ``max`` are evaluated before their check, since ``min``, ``max``,
    ``pow(nan, 0)`` and ``pow(1, nan)`` could drop a NaN.

    ``evaluate(t)`` is that expression inside the translation of arithmetic
    errors into :class:`EvalDomainError` and a check that the result is
    finite, so it is the whole of evaluation.  Its errors carry ``source``
    as their ``expression``.

    ``batch(ts)`` and ``weighted(lo, hi)`` evaluate the same expression,
    except that a power under a nonzero literal exponent skips its base's
    check (``pow(nan, y)`` is NaN): a comprehension over ``ts``, and the 15
    nodes of the Gauss-Kronrod rule of ``t -> evaluate(t) / (t*t)`` on one
    segment, summed in the order of :data:`hhverify.quad.GK15`.  Each checks
    finiteness once per call: ``s - s == 0.0`` for the sum ``s`` of the
    values, or for both sums of the rule (every Kronrod weight is positive,
    so a non-finite value makes them non-finite).  On any exception or
    non-finite result they start again from the first node through
    ``evaluate``.  So ``batch`` returns ``[evaluate(t) for t in ts]`` bit
    for bit, and ``weighted`` what the generic rule ``quad._gk15`` returns
    on that integrand; each raises what those raise, at the same node, and
    a zero ``t*t`` raises a bare ``ZeroDivisionError``, as the integrand
    does.  All three functions come from one template and one ``compile``
    call, which defines a factory that builds them.  The factory is called
    once and popped from the namespace the code ran in: that namespace is
    the functions' globals, so if it held them, each parsed expression
    would be a reference cycle, freed only by the cyclic collector once
    dropped.  A tree that nests deeper than the translation or Python's
    compiler follows raises :class:`ExpressionError` ("expression nests too
    deeply").
    """
    namespace = dict(_RUNTIME, _source=source)
    try:
        checked, fast = _translate(node, namespace, True), _translate(node, namespace, False)
        code = compile(_TEMPLATE.format(checked=checked, fast=fast), "<hhverify expression>", "exec")
    except (RecursionError, SyntaxError):  # the translation's or Python's compiler's
        raise ExpressionError("expression nests too deeply") from None
    exec(code, namespace)
    return namespace.pop("_make")()


@dataclass(frozen=True)
class FunctionSpec(_FrozenFunction):
    """A parsed function of one real variable.

    Immutable after construction, hence safe to share between concurrent
    workers.  Instances are callable.  An instance is its own function
    record (see :mod:`hhverify.hmean`), built once: its batch and weighted
    rule are compiled with the evaluator (see :func:`compile_ast`), its
    label is the source, it has no kinks, and its scalar call is the
    instance itself, so that every call goes through :meth:`__call__`.
    """

    source: str
    ast: Node
    _compiled: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        evaluate, batch, weighted = compile_ast(self.ast, self.source)
        self._set_slots(
            _compiled=evaluate, batch=batch, rule=None, weighted=weighted, kinks=(), label=self.source or None
        )

    def __call__(self, t: float) -> float:
        return self._compiled(t)


def parse(text: str) -> FunctionSpec:
    """Parse ``text`` into a :class:`FunctionSpec`.

    Raises :class:`ParseError` with a byte offset on syntax errors, unknown
    identifiers, arity mismatches, non-constant power exponents, and input
    that nests deeper than the parser or Python's compiler of the generated
    code follows (the offset is where parsing stopped).
    """
    parser = _Parser(text)
    try:
        return FunctionSpec(source=text, ast=parser.parse())
    except ParseError:
        raise
    except (RecursionError, ExpressionError):  # the parser's, or compile_ast's nesting error
        raise ParseError("expression nests too deeply", _byte_offset(text, parser._peek().pos)) from None
