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

:func:`compile_ast` generates three functions from a tree.  The scalar
evaluator is guarded: it checks each node that could hide a NaN, and its
result.  The batch and the weighted Gauss-Kronrod rule of a parsed
expression's record compute the bare arithmetic of the tree at each node and
check finiteness once per call, on the sums of their values.  When that
check fails, or the arithmetic raises, they evaluate again from the first
node through the scalar evaluator.  So they return its values bit for bit
and raise what it raises, at the same node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    "to_source",
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


# --- printer ---------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def to_source(node: Node) -> str:
    """Render the tree back to source.

    Grouping is fully parenthesised where precedence alone would not
    reconstruct the same tree, so re-parsing reproduces the exact IEEE
    evaluation order; numeric literals use ``repr`` and round-trip exactly.
    """
    return _format(node, 0)


def _format(node: Node, min_prec: int) -> str:
    if isinstance(node, Num):
        s = repr(node.value)
        prec = _PREC_NEG if node.value < 0 else _PREC_ATOM
    elif isinstance(node, Var):
        s, prec = "x", _PREC_ATOM
    elif isinstance(node, Neg):
        s, prec = "-" + _format(node.arg, _PREC_NEG), _PREC_NEG
    elif isinstance(node, BinOp):
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        s = _format(node.left, prec) + node.op + _format(node.right, prec + 1)
    elif isinstance(node, Pow):
        s = _format(node.base, _PREC_ATOM) + "^" + _format(node.exponent, _PREC_NEG)
        prec = _PREC_POW
    elif isinstance(node, Call1):
        s, prec = f"{node.name}({_format(node.arg, 0)})", _PREC_ATOM
    elif isinstance(node, Call2):
        s = f"{node.name}({_format(node.left, 0)}, {_format(node.right, 0)})"
        prec = _PREC_ATOM
    else:
        raise TypeError(f"unknown node {node!r}")
    return f"({s})" if prec < min_prec else s


# --- compilation and evaluation ---------------------------------------------


def _weighted_each(evaluate: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """The generic rule of ``t -> evaluate(t) / (t*t)``, node by node."""
    return _gk15(lambda t: evaluate(t) / (t * t), lo, hi)


# names the generated functions see; a function's constants are added as _c<k>
_RUNTIME = {
    "_ln": math.log, "_exp": math.exp, "_abs": abs, "_min": min, "_max": max, "_pow": math.pow,
    "_isfinite": math.isfinite, "_nan": math.nan, "_EvalDomainError": EvalDomainError, "_GK15": GK15,
    "_weighted_each": _weighted_each,
}

# ``batch`` and ``weighted`` around the bare expression ``{fast}`` of ``t``.
# On any exception or a non-finite sum, each starts again through the
# guarded ``_evaluate`` node by node, which raises at the first failing node
_FAST = """
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
    return _weighted_each(_evaluate, lo, hi)
"""


def _literal(node: Node) -> float | None:
    """The value of ``node`` if it is a number other than NaN, negated or
    not, else None.  Such an exponent ``y`` needs no NaN check, and
    ``pow(nan, y)`` is NaN for every nonzero one."""
    sign = 1.0
    while isinstance(node, Neg):
        node, sign = node.arg, -sign
    return sign * node.value if isinstance(node, Num) and node.value == node.value else None


def compile_ast(
    node: Node, source: str | None = None
) -> tuple[
    Callable[[float], float],
    Callable[[Sequence[float]], list[float]],
    Callable[[float, float], tuple[float, float]],
]:
    """Generate three Python functions from the tree:
    ``(evaluate, batch, weighted)``.

    ``evaluate(t)`` has one statement per operator node, in the order a
    recursive walk evaluates them: left operand before right, and a power's
    base and its NaN guard before its exponent and the exponent's guard
    (which a literal exponent, a number other than NaN, goes without).
    Leaves are operands: ``t``, and the constants bound by name.  It turns
    arithmetic errors into :class:`EvalDomainError` and rejects a non-finite
    result, so it is the whole of evaluation.  Its errors carry ``source``
    as their ``expression``.

    ``batch(ts)`` and ``weighted(lo, hi)`` evaluate the tree as one bare
    expression, the same IEEE operations in the same order with no check
    per node: a comprehension over ``ts``, and the 15 nodes of the
    Gauss-Kronrod rule of ``t -> evaluate(t) / (t*t)`` on one segment,
    summed in the order of :data:`hhverify.quad.GK15`.  Each checks
    finiteness once per call: ``s - s == 0.0`` for the sum ``s`` of the
    values, or for both sums of the rule (every Kronrod weight is positive,
    so a non-finite value makes them non-finite).  A ``min``, a ``max`` or a
    power whose exponent is not a nonzero literal returns NaN there when an
    operand (a power's base, or an exponent that is not a literal) is NaN,
    since ``min``, ``max``, ``pow(nan, 0)`` and ``pow(1, nan)`` could drop
    it.  On any exception or non-finite result they start again from the
    first node through ``evaluate``.  So ``batch`` returns ``[evaluate(t)
    for t in ts]`` bit for bit, and ``weighted`` what the generic rule
    ``quad._gk15`` returns on that integrand; each raises
    what those raise, at the same node, and a zero ``t*t`` raises a bare
    ``ZeroDivisionError``, as the integrand does.  All three functions come
    from one ``compile`` call.
    """
    namespace = dict(_RUNTIME, _source=source)
    body: list[str] = []

    def once(fast: str, name: str) -> tuple[str, str]:
        """A bare expression that evaluates ``fast``, and a name that holds
        its value after it."""
        return (fast, fast) if fast.isidentifier() else (f"({name} := {fast})", name)

    def operand(node: Node) -> tuple[str, str]:
        """Emit the guarded statements of ``node`` into ``body``; return the
        name that holds its value there, and its bare expression."""
        if isinstance(node, Var):
            return "t", "t"
        if isinstance(node, Num):
            name = f"_c{len(namespace)}"
            namespace[name] = node.value
            return name, name
        if isinstance(node, Neg):
            arg, fast_arg = operand(node.arg)
            expr, fast = f"-{arg}", f"-{fast_arg}"
        elif isinstance(node, BinOp):
            (left, fast_left), (right, fast_right) = operand(node.left), operand(node.right)
            expr = f"{left} {node.op} {right}"
            fast = f"({fast_left} {node.op} {fast_right})"
        elif isinstance(node, Pow):
            base, fast_base = operand(node.base)
            # math.pow(nan, 0) and math.pow(1, nan) would silently absorb a
            # NaN produced upstream; a literal exponent needs no check
            body.append(f"if {base} != {base}: raise _EvalDomainError('NaN reached a power', _source)")
            exponent, fast_exponent = operand(node.exponent)
            literal = _literal(node.exponent)
            if literal is None:
                body.append(f"if {exponent} != {exponent}: raise _EvalDomainError('NaN reached a power', _source)")
            expr = f"_pow({base}, {exponent})"
            if literal:  # nonzero
                fast = f"_pow({fast_base}, {fast_exponent})"
            else:
                first, b = once(fast_base, f"b{len(body)}")
                nan_checks = [f"{first} != {b}"]
                if literal is None:
                    second, fast_exponent = once(fast_exponent, f"e{len(body)}")
                    nan_checks.append(f"{second} != {fast_exponent}")
                fast = f"(_nan if {' or '.join(nan_checks)} else _pow({b}, {fast_exponent}))"
        elif isinstance(node, Call1):
            arg, fast_arg = operand(node.arg)
            expr, fast = f"_{node.name}({arg})", f"_{node.name}({fast_arg})"
        elif isinstance(node, Call2):
            (left, fast_left), (right, fast_right) = operand(node.left), operand(node.right)
            # Python's min/max can silently drop a NaN operand
            body.append(
                f"if {left} != {left} or {right} != {right}: "
                "raise _EvalDomainError('NaN reached min/max', _source)"
            )
            expr = f"_{node.name}({left}, {right})"
            (first, p), (second, q) = once(fast_left, f"p{len(body)}"), once(fast_right, f"q{len(body)}")
            fast = f"(_nan if {first} != {p} or {second} != {q} else _{node.name}({p}, {q}))"
        else:
            raise TypeError(f"unknown node {node!r}")
        name = f"v{len(body)}"
        body.append(f"{name} = {expr}")
        return name, fast

    value, fast = operand(node)
    body.append(f"value = {value}")
    lines = [
        "def _evaluate(t):",
        "    try:",
        *(f"        {stmt}" for stmt in body),
        "    except _EvalDomainError:",
        "        raise",
        "    except (ValueError, ZeroDivisionError, OverflowError) as exc:",
        "        raise _EvalDomainError(f'evaluation failed at t={t!r}: {exc}', _source) from None",
        "    if not _isfinite(value):",
        "        raise _EvalDomainError(f'evaluation at t={t!r} left the finite reals', _source)",
        "    return value",
    ]
    code = "\n".join(lines) + _FAST.format(fast=fast)
    exec(compile(code, "<hhverify expression>", "exec"), namespace)
    return namespace["_evaluate"], namespace["_batch"], namespace["_weighted"]


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
    identifiers, arity mismatches and non-constant power exponents.
    """
    ast = _Parser(text).parse()
    return FunctionSpec(source=text, ast=ast)
