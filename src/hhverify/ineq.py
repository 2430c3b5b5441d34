"""Inequality chains as numeric term sequences with quadrature error bars.

Each evaluator returns a :class:`ChainReport`: an ordered list of terms, the
pairwise slacks (right minus left, sign-flipped for the concave direction),
and a pass/fail flag that only trips when a slack is negative beyond the
relative tolerance (times the largest |term|) plus the adjacent error bars.
Reports and their terms (:class:`ChainTerm`) are frozen dataclasses, not
tuples, so ``isinstance(result, tuple)`` tells one report from several;
``dataclasses.replace`` makes a changed copy of either.

Several of the displays these chains verify circulate in print with
coefficient slips that contradict their own derivations (an extra 1/2 on a
reflected integral, a missing weight application, a swapped coefficient in a
product bound).  Every affected evaluator therefore supports
``variant="as_printed"`` (the display as commonly printed) and
``variant="derived_corrected"`` (the form forced by the derivation, and the
only one under which constant functions give all-equal terms).  The default
is always ``derived_corrected`` and reports name their variant.

Every integral of f, of its symmetric part or of a product with them gets
their kinks as quadrature breakpoints, and every integrand built on them
is a function record (see :mod:`hhverify.hmean`), so it keeps their
batches and rules.  The ``t4`` product integrand sym(f)*g/t^2 carries a
Gauss-Kronrod rule of its own, built on the batches of f and g.  The
nested ``r4`` double integral splits its outer integral at the kinks of
sym(f) and passes none to its inner integrals.

``r4`` and ``c1`` also have an evaluator of several ``(h, direction)``
cases (:func:`refinement_reports`, :func:`weighted_reports`, named in
:data:`CHAINS`), which computes what does not depend on the case once;
``c1`` then integrates only its two h-weight integrals per case.

Error bars.  Each quadrature term is built as a value with a bar
(``_Barred``): the quadrature error estimates of its integrals, each scaled
by the absolute value of its coefficient, and summed.  The integral of h
over [0, 1] is a quadrature too: :class:`HFunction` keeps its estimate, and
the terms it scales (``t5``'s ``h_scaled_four_point_avg`` and the weighted
``r4``'s ``scaled_sym_mean``) add it times their point factor.  Point
values (f at a point, h(1/2)) carry no bar.  A bar does not cover the
rounding in the arithmetic that combines terms.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import fnspec
from .hmean import Function, HInterval, as_function, first_negative, kinks_of, sym_kinks, sym_transform
from .quad import (
    GK15,
    QuadResult,
    _gk15,
    integrate,
    refinement_double_integral,
    reflected_weighted_integral,
    weighted_integral,
)

__all__ = [
    "HFunction",
    "IDENTITY_H",
    "ChainTerm",
    "ChainReport",
    "VARIANTS",
    "chain_hh_classic",
    "chain_harmonic_hh",
    "bounds_pointwise",
    "chain_subinterval",
    "chain_reflected_pair",
    "chain_refinement",
    "refinement_reports",
    "chain_harmonic_full",
    "product_inequalities",
    "chain_h_subinterval",
    "bounds_h_pointwise",
    "weighted_bounds",
    "weighted_reports",
    "Chain",
    "CHAINS",
    "run_chain",
]

# the default of every evaluator, of ``verify`` and of ``sweep``, and the
# variant that the chains with no printed form report
DEFAULT_VARIANT = "derived_corrected"
VARIANTS = (DEFAULT_VARIANT, "as_printed")
DEFAULT_TOL = 1e-8
DEFAULT_QUAD_TOL = 1e-10
# the default quad_tol of r4, whose middle term is a nested double integral
DEFAULT_REFINEMENT_QUAD_TOL = 1e-9


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, not {variant!r}")
    return variant


@dataclass(frozen=True)
class HFunction(Function):
    """A nonnegative weight function on (0, 1) with its two derived scalars:
    the value at 1/2 (every lower bound divides by 2*h(1/2)) and the integral
    over [0, 1] (every upper bound multiplies by it), with that integral's
    quadrature error estimate.  It is the function record of ``fn``,
    labelled with ``name``."""

    fn: Callable[[float], float] = field(compare=False)
    name: str
    h_half: float
    h_int: float
    h_int_error: float

    def __post_init__(self):
        # the record's slots, set as a frozen dataclass sets its own fields
        fn = as_function(self.fn)
        for slot in Function.__slots__:
            object.__setattr__(self, slot, self.name if slot == "label" else getattr(fn, slot))

    @functools.cached_property
    def identity_order(self) -> tuple[bool, bool]:
        """Whether h >= id and whether h <= id on the lattice k/64 of (0, 1),
        up to 1e-12; evaluated once per instance, not per equal instance."""
        ts = [k / 64.0 for k in range(1, 64)]
        pairs = list(zip(ts, self.values_at(ts)))
        return tuple(all(sign * v >= sign * t - 1e-12 for t, v in pairs) for sign in (1.0, -1.0))

    @classmethod
    def from_source(cls, text: str, name: Optional[str] = None) -> "HFunction":
        spec = fnspec.parse(text)
        return cls.from_callable(spec, name=name or text)

    @classmethod
    def from_callable(cls, fn: Callable[[float], float], name: str) -> "HFunction":
        for k in range(1, 32):
            v = fn(k / 32.0)
            if not v >= 0.0:
                raise ValueError(f"weight function is negative or NaN at {k / 32.0}: {v!r}")
        h_half = fn(0.5)
        if not h_half > 0.0:
            raise ValueError(f"h(1/2) must be positive, got {h_half!r}")
        h_int = integrate(fn, 0.0, 1.0, tol=1e-12)
        if not h_int.value > 0.0:
            raise ValueError("weight function must not be identically zero")
        return cls(fn=fn, name=name, h_half=h_half, h_int=h_int.value, h_int_error=h_int.abs_error_estimate)


IDENTITY_H = HFunction.from_source("x", name="t")


@dataclass(frozen=True, slots=True)
class ChainTerm:
    """One term of a chain: its label, its value and its error bar."""

    label: str
    value: float
    abs_error: float = 0.0

    # Written by hand, as QuadResult's is: the generated frozen __init__
    # pays one object.__setattr__ per field.
    def __init__(self, label: str, value: float, abs_error: float = 0.0):
        _set_label(self, label)
        _set_value(self, value)
        _set_abs_error(self, abs_error)


# the slot descriptors' setters, which bypass the frozen __setattr__
_set_label = ChainTerm.label.__set__
_set_value = ChainTerm.value.__set__
_set_abs_error = ChainTerm.abs_error.__set__


class _Barred:
    """A value with its absolute error bar (see "Error bars" above); point
    values carry no bar and enter only as the point operand of ``-`` and ``*``.
    The product of two barred values bounds the error of each factor times
    the other's value, plus the product of the errors."""

    __slots__ = ("value", "error")

    def __init__(self, value: float, error: float):
        self.value, self.error = value, error

    @classmethod
    def of(cls, result: QuadResult) -> "_Barred":
        return cls(result.value, result.abs_error_estimate)

    def __add__(self, other: "_Barred") -> "_Barred":
        return _Barred(self.value + other.value, self.error + other.error)

    def __sub__(self, point: float) -> "_Barred":
        return _Barred(self.value - point, self.error)

    def __mul__(self, other) -> "_Barred":
        if isinstance(other, _Barred):
            return _Barred(
                self.value * other.value,
                abs(other.value) * self.error + abs(self.value) * other.error + self.error * other.error,
            )
        return _Barred(self.value * other, abs(other) * self.error)

    __rmul__ = __mul__

    def term(self, label: str) -> ChainTerm:
        return ChainTerm(label, self.value, self.error)


@dataclass(frozen=True)
class ChainReport:
    """An evaluated chain: its terms in order, and for each adjacent pair
    the slack (right minus left, sign-flipped in the concave direction) and
    its bar (the sum of the two terms' bars).

    ``tol`` is relative, with no absolute floor: ``passed`` holds when every
    term is finite and every slack ``s`` has ``s >= -(tol * M + bar)``,
    with ``M`` the largest |value| among the terms.  The allowance scales
    with the terms, so a chain on a small f cannot pass under it.
    """

    chain_id: str
    variant: str
    direction: str  # "convex" | "concave"
    terms: tuple[ChainTerm, ...]
    slacks: tuple[float, ...]
    slack_errors: tuple[float, ...]
    tol: float
    passed: bool
    metadata: dict

    # Written by hand: one update of the instance dict in place of the
    # generated frozen __init__'s nine object.__setattr__ calls.
    def __init__(
        self,
        chain_id: str,
        variant: str,
        direction: str,
        terms: tuple[ChainTerm, ...],
        slacks: tuple[float, ...],
        slack_errors: tuple[float, ...],
        tol: float,
        passed: bool,
        metadata: dict,
    ):
        self.__dict__.update(
            chain_id=chain_id, variant=variant, direction=direction, terms=terms, slacks=slacks,
            slack_errors=slack_errors, tol=tol, passed=passed, metadata=metadata,
        )

    @classmethod
    def build(
        cls,
        chain_id: str,
        variant: str,
        direction: str,
        terms: list[ChainTerm],
        tol: float,
        metadata: Optional[dict] = None,
    ) -> "ChainReport":
        if direction == "convex":
            sign = 1.0
        elif direction == "concave":
            sign = -1.0
        else:
            raise ValueError(f"direction must be 'convex' or 'concave', not {direction!r}")
        terms = tuple(terms)
        scale = max(map(abs, [t.value for t in terms]), default=0.0)
        # scale is infinite when a term overflowed, and NaN when the first
        # term is NaN; a later NaN term makes a slack next to it NaN
        passed = scale < math.inf
        allowance = tol * scale
        slacks = []
        errors = []
        for left, right in zip(terms, terms[1:]):
            s = sign * (right.value - left.value)
            e = left.abs_error + right.abs_error
            slacks.append(s)
            errors.append(e)
            if not s >= -(allowance + e):
                passed = False
        return cls(chain_id, variant, direction, terms, tuple(slacks), tuple(errors), tol, passed,
                   metadata or {})

    def to_dict(self) -> dict:
        return {
            "chain": self.chain_id,
            "variant": self.variant,
            "direction": self.direction,
            "terms": [
                {"label": t.label, "value": t.value, "abs_error": t.abs_error}
                for t in self.terms
            ],
            "slacks": list(self.slacks),
            "slack_error_bars": list(self.slack_errors),
            "tol": self.tol,
            "passed": self.passed,
            "metadata": self.metadata,
        }


def _meta(f, interval: Optional[HInterval] = None, **extra) -> dict:
    label = as_function(f).label
    meta: dict = {} if label is None else {"f": label}
    if interval is not None:
        meta["a"] = interval.a
        meta["b"] = interval.b
    for key, value in extra.items():
        if value is not None:
            meta[key] = (as_function(value).label or "<callable>") if callable(value) else value
    return meta


def _endpoint_avg(f, interval: HInterval) -> float:
    return 0.5 * (f(interval.a) + f(interval.b))


# --- plain and harmonic Hermite-Hadamard chains ------------------------------


def chain_hh_classic(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    direction: str = "convex",
) -> ChainReport:
    """Classic three-term chain for plain convexity:
    f((lo+hi)/2)  <=  mean of f  <=  (f(lo)+f(hi))/2."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo!r}, {hi!r}")
    fn = as_function(f)
    mean = _Barred.of(integrate(fn, lo, hi, tol=quad_tol, breakpoints=kinks_of(fn)))
    scale = 1.0 / (hi - lo)
    terms = [
        ChainTerm("midpoint", f(0.5 * (lo + hi))),
        (scale * mean).term("integral_mean"),
        ChainTerm("endpoint_avg", 0.5 * (f(lo) + f(hi))),
    ]
    return ChainReport.build(
        "hh_classic", DEFAULT_VARIANT, direction, terms, tol, _meta(fn, lo=lo, hi=hi)
    )


def chain_harmonic_hh(
    f: Callable[[float], float],
    interval: HInterval,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    direction: str = "convex",
) -> ChainReport:
    """Harmonic Hermite-Hadamard chain (chain id t1):
    f(2ab/(a+b))  <=  (ab/(b-a)) * int_a^b f/t^2  <=  (f(a)+f(b))/2."""
    a, b = interval.a, interval.b
    fn = as_function(f)
    wi = _Barred.of(weighted_integral(fn, a, b, tol=quad_tol, breakpoints=kinks_of(fn)))
    scale = a * b / (b - a)
    terms = [
        ChainTerm("midpoint", f(interval.harmonic_midpoint)),
        (scale * wi).term("weighted_mean"),
        ChainTerm("endpoint_avg", _endpoint_avg(f, interval)),
    ]
    return ChainReport.build("t1", DEFAULT_VARIANT, direction, terms, tol, _meta(fn, interval))


def bounds_pointwise(
    f: Callable[[float], float],
    interval: HInterval,
    x: float,
    tol: float = DEFAULT_TOL,
    direction: str = "convex",
) -> ChainReport:
    """Pointwise sandwich for the symmetric part (chain id t2):
    f(2ab/(a+b))  <=  sym(f)(x)  <=  (f(a)+f(b))/2."""
    fb = sym_transform(f, interval)
    terms = [
        ChainTerm("midpoint", f(interval.harmonic_midpoint)),
        ChainTerm("symmetric_value", fb(x)),
        ChainTerm("endpoint_avg", _endpoint_avg(f, interval)),
    ]
    return ChainReport.build("t2", DEFAULT_VARIANT, direction, terms, tol, _meta(f, interval, x=x))


def _split_terms(
    fn: Function, interval: HInterval, x: float, y: float, quad_tol: float, w2: float
) -> tuple[float, ChainTerm, float]:
    """The t3 and t5 terms before their point scalings: f(m) + f(r(m)) at the
    harmonic midpoint m of {x, y}; the middle term with its error bar,
    (xy/(2(y-x))) * [int_x^y f/t^2  +  w2 * int_{r(y)}^{r(x)} f/t^2]; and
    f(x) + f(r(x)) + f(y) + f(r(y)), with ``fn`` the record of f."""
    if x == y:
        raise ValueError("need x != y")
    f, kinks = fn.call, kinks_of(fn)
    i_plain = _Barred.of(weighted_integral(fn, x, y, tol=quad_tol, breakpoints=kinks))
    i_refl = _Barred.of(reflected_weighted_integral(fn, interval, x, y, tol=quad_tol, breakpoints=kinks))
    coef = x * y / (2.0 * (y - x))
    mid_xy = 2.0 * x * y / (x + y)
    return (
        f(mid_xy) + f(interval.reflect(mid_xy)),
        (coef * (i_plain + w2 * i_refl)).term("split_weighted_mean"),
        f(x) + f(interval.reflect(x)) + f(y) + f(interval.reflect(y)),
    )


def _subinterval_terms(
    fn: Function, interval: HInterval, x: float, y: float, quad_tol: float, w2: float
) -> list[ChainTerm]:
    """The three terms of t3, whose as_printed variant has ``w2`` 0.5."""
    pair, middle, four = _split_terms(fn, interval, x, y, quad_tol, w2)
    return [ChainTerm("sym_midpoint_pair", 0.5 * pair), middle, ChainTerm("four_point_avg", 0.25 * four)]


def chain_subinterval(
    f: Callable[[float], float],
    interval: HInterval,
    x: float,
    y: float,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    variant: str = DEFAULT_VARIANT,
    direction: str = "convex",
) -> ChainReport:
    """Subinterval chain for the symmetric part (chain id t3).

    Left: the symmetric part at the harmonic midpoint of {x, y}, written out
    as a two-point average of f.  Right: the four-point endpoint average.
    Middle: (xy/(2(y-x))) * [int_x^y f/t^2  +  int_{r(y)}^{r(x)} f/t^2].

    The derivation forces both integrals unweighted (the symmetric part
    contributes exactly half of each), and constants then give all-equal
    terms.  The as_printed variant carries the extra 1/2 some displays put on
    the reflected integral, which already breaks f == const.
    """
    _check_variant(variant)
    fn = as_function(f)
    terms = _subinterval_terms(fn, interval, x, y, quad_tol, 0.5 if variant == "as_printed" else 1.0)
    return ChainReport.build("t3", variant, direction, terms, tol, _meta(fn, interval, x=x, y=y))


def chain_reflected_pair(
    f: Callable[[float], float],
    interval: HInterval,
    x: float,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    variant: str = DEFAULT_VARIANT,
    direction: str = "convex",
) -> ChainReport:
    """Chain id r2: the subinterval chain with y = r(x).

    f(2ab/(a+b))  <=  [abx/(2ab-(a+b)x)] * int_x^{r(x)} f/t^2
                  <=  (f(x)+f(r(x)))/2.

    Constants force the middle coefficient shown above; the as_printed
    variant halves it.  x must avoid the harmonic midpoint, where the
    coefficient denominator vanishes.
    """
    _check_variant(variant)
    a, b = interval.a, interval.b
    xstar = interval.harmonic_midpoint
    if abs(x - xstar) <= 1e-12 * interval.width:
        raise ValueError(f"x={x!r} coincides with the excluded harmonic midpoint")
    rx = interval.reflect(x)
    coef = a * b * x / (2.0 * a * b - (a + b) * x)
    if variant == "as_printed":
        coef *= 0.5
    fn = as_function(f)
    inner = _Barred.of(weighted_integral(fn, x, rx, tol=quad_tol, breakpoints=kinks_of(fn)))
    terms = [
        ChainTerm("midpoint", f(xstar)),
        (coef * inner).term("reflected_span_mean"),
        ChainTerm("pair_avg", 0.5 * (f(x) + f(rx))),
    ]
    return ChainReport.build("r2", variant, direction, terms, tol, _meta(fn, interval, x=x))


def chain_refinement(
    f: Callable[[float], float],
    interval: HInterval,
    h: Optional[HFunction] = None,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_REFINEMENT_QUAD_TOL,
    variant: str = DEFAULT_VARIANT,
    direction: str = "convex",
) -> ChainReport:
    """Chain id r4: the reflected-pair chain averaged over x in [a, b].

    f(2ab/(a+b))  <=  mean_x G(x)  <=  mean_x sym(f)(x),

    with G as in :func:`hhverify.quad.refinement_double_integral`.  This
    refines the first link of the t1 chain.  With a weight function h the
    left term is scaled by 1/(2h(1/2)) and the right one by 2*int_0^1 h.

    as_printed halves the double-integral mean (plain form), or halves the
    left and right scalings and quarters the middle (weighted form).
    """
    return refinement_reports(f, interval, ((h, direction),), tol, quad_tol, variant)[0]


def refinement_reports(
    f: Callable[[float], float],
    interval: HInterval,
    cases: Sequence[tuple[Optional[HFunction], str]],
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_REFINEMENT_QUAD_TOL,
    variant: str = DEFAULT_VARIANT,
) -> tuple[ChainReport, ...]:
    """One r4 report (see :func:`chain_refinement`) per ``(h, direction)``
    in ``cases``, ``h`` None for the unweighted chain.

    The three terms do not depend on the case before their scalings, so the
    double integral, the mean of sym(f) and f(2ab/(a+b)) are computed once
    for all cases; each report equals the one :func:`chain_refinement`
    gives for its case.
    """
    _check_variant(variant)
    fb = sym_transform(f, interval)
    dbl = _Barred.of(refinement_double_integral(f, interval, tol=quad_tol))
    mean_fb = _Barred.of(integrate(fb, interval.a, interval.b, tol=quad_tol, breakpoints=kinks_of(fb)))
    sym_mean = 1.0 / interval.width * mean_fb
    midpoint = f(interval.harmonic_midpoint)
    reports = []
    for h, direction in cases:
        left, middle, right = midpoint, dbl, sym_mean
        if h is not None:
            left = left / (2.0 * h.h_half)
            right = 2.0 * _Barred(h.h_int, h.h_int_error) * right
        if variant == "as_printed":
            if h is None:
                middle = 0.5 * middle
            else:
                left, middle, right = 0.5 * left, 0.25 * middle, 0.5 * right
        terms = [
            ChainTerm("scaled_midpoint", left),
            middle.term("double_integral_mean"),
            right.term("scaled_sym_mean"),
        ]
        reports.append(ChainReport.build("r4", variant, direction, terms, tol, _meta(f, interval, h=h)))
    return tuple(reports)


def chain_harmonic_full(
    f: Callable[[float], float],
    interval: HInterval,
    x: float,
    y: float,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    direction: str = "convex",
) -> ChainReport:
    """Chain id r3: for plainly harmonic convex f the global midpoint value
    also sits below the t3 chain, giving four terms."""
    fn = as_function(f)
    t3_terms = _subinterval_terms(fn, interval, x, y, quad_tol, 1.0)
    terms = [ChainTerm("midpoint", f(interval.harmonic_midpoint))] + t3_terms
    return ChainReport.build("r3", DEFAULT_VARIANT, direction, terms, tol, _meta(fn, interval, x=x, y=y))


# --- product of a harmonic convex and a symmetrized harmonic convex function -


def _product_integrand(f, g, interval: HInterval) -> Function:
    """The record of t -> sym(f)(t) * g(t) / t^2, with :func:`_product_rule`
    as its rule.  Neither its scalar call nor its rule refers to the
    record: a cycle would keep every ``t4`` call's record alive until the
    cyclic collector runs."""
    fb = sym_transform(f, interval)

    def call(t: float) -> float:
        return fb(t) * g(t) / (t * t)

    gn = None if g is f else as_function(g)
    return Function(call, rule=functools.partial(_product_rule, call, as_function(f), gn, interval.reflect_all))


def _product_rule(
    call, fn: Function, gn: Optional[Function], reflect_all, lo: float, hi: float
) -> tuple[float, float]:
    """The Gauss-Kronrod rule of the ``t4`` product integrand ``call`` on
    [lo, hi]: what ``quad._gk15`` returns on ``call``, bit for bit.

    It forms the 15 nodes as ``_gk15`` does, takes f over the nodes and then
    their reflections ``reflect_all(nodes)`` in one batch, and g's values
    from that batch when ``gn`` is None (g is f), else from ``gn``'s one
    batch; each node's value 0.5 * (u + v) * q / t^2 is formed in the loop
    that sums K15 and G7.  When a batch raises, the segment goes to
    ``_gk15`` on ``call``, node by node, which raises what the first
    failing node raises.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    ts = [c + h * x for x, _, _ in GK15]
    try:
        values = fn.batch_values([*ts, *reflect_all(ts)])
        gs = values if gn is None else gn.batch_values(ts)
    except Exception:  # the first failing node decides
        return _gk15(call, lo, hi)
    k = 0.0
    g = 0.0
    for (_, wk, wg), t, u, v, q in zip(GK15, ts, values, values[15:], gs):
        fv = 0.5 * (u + v) * q / (t * t)
        k += wk * fv
        g += wg * fv
    return h * k, abs(h) * abs(k - g)


def product_inequalities(
    f: Callable[[float], float],
    g: Callable[[float], float],
    interval: HInterval,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    variant: str = DEFAULT_VARIANT,
) -> tuple[ChainReport, ChainReport]:
    """Chain id t4: two-sided bounds on W = (ab/(b-a)) int sym(f)*g/t^2.

    Lower report:  Af*Ig + Ag*If - Af*Ag  <=  W   with Af = (f(a)+f(b))/2,
    Ag likewise, and If, Ig the weighted means of f and g.

    Upper report:  W  <=  Ag*If + f(m)*Ig - f(m)*Ag,  m the harmonic
    midpoint.  Expanding the underlying product of nonnegative factors
    forces the first coefficient to be Ag; the as_printed variant uses f(m)
    there as some displays do (constants mask the difference, affine f
    exposes it).

    Both hold with the same orientation when f and g are both convex-type or
    both concave-type for their classes, so reports carry direction
    "convex" either way.

    The product integrand sym(f)*g/t^2 carries its own rule
    (:func:`_product_rule`): each segment takes f in one batch over its
    nodes and their reflections, and g in one batch over its nodes, and
    returns what the generic rule returns on the integrand, bit for bit.
    When ``g is f``, int f/t^2 is integrated once and serves as Ig too, and
    the product takes g's values from f's batch; the reports are those of
    a g equal to f but distinct from it.
    """
    _check_variant(variant)
    a, b = interval.a, interval.b
    scale = a * b / (b - a)
    avg_f = _endpoint_avg(f, interval)
    avg_g = _endpoint_avg(g, interval)
    f_mid = f(interval.harmonic_midpoint)
    fn, gn = as_function(f), as_function(g)
    i_f = _Barred.of(weighted_integral(fn, a, b, tol=quad_tol, breakpoints=kinks_of(fn)))
    i_g = i_f if g is f else _Barred.of(weighted_integral(gn, a, b, tol=quad_tol, breakpoints=kinks_of(gn)))
    product = _product_integrand(f, g, interval)
    i_fg = _Barred.of(integrate(product, a, b, tol=quad_tol, breakpoints=sym_kinks(fn, interval) + kinks_of(gn)))
    w = scale * i_fg

    lower_combo = avg_f * scale * i_g + avg_g * scale * i_f - avg_f * avg_g
    lower = ChainReport.build(
        "t4_lower", variant, "convex", [lower_combo.term("cross_combination"), w.term("weighted_product_mean")],
        tol, _meta(fn, interval, g=gn),
    )

    first_coef = f_mid if variant == "as_printed" else avg_g
    upper_combo = first_coef * scale * i_f + f_mid * scale * i_g - f_mid * avg_g
    upper = ChainReport.build(
        "t4_upper", variant, "convex", [w.term("weighted_product_mean"), upper_combo.term("upper_combination")],
        tol, _meta(fn, interval, g=gn),
    )
    return lower, upper


# --- weighted (h-convex) chains ----------------------------------------------


def chain_h_subinterval(
    f: Callable[[float], float],
    h: HFunction,
    interval: HInterval,
    x: float,
    y: float,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    direction: str = "convex",
) -> ChainReport:
    """Chain id t5: the subinterval chain for h-convex symmetric parts.

    Left term scaled by 1/(4h(1/2)), right term by the integral of h; the
    middle is identical to the t3 middle with both integrals unweighted.
    With h(t) = t this reduces exactly to the corrected t3 chain.
    """
    fn = as_function(f)
    pair, middle, four = _split_terms(fn, interval, x, y, quad_tol, 1.0)
    terms = [
        ChainTerm("h_scaled_midpoint_pair", pair / (4.0 * h.h_half)),
        middle,
        (0.5 * four * _Barred(h.h_int, h.h_int_error)).term("h_scaled_four_point_avg"),
    ]
    return ChainReport.build(
        "t5", DEFAULT_VARIANT, direction, terms, tol, _meta(fn, interval, x=x, y=y, h=h)
    )


def _barycentric_weights(interval: HInterval, xs: Sequence[float]) -> tuple[list[float], list[float]]:
    """The weights w1 and w2 of each x in ``xs``, as two lists: w1 + w2 = 1,
    and x is the harmonic combination of (a, b) carrying weight w1 on the
    value at b."""
    a, b = interval.a, interval.b
    d = a - b
    return [b * (a - x) / (x * d) for x in xs], [a * (x - b) / (x * d) for x in xs]


def bounds_h_pointwise(
    f: Callable[[float], float],
    h: HFunction,
    interval: HInterval,
    x: float,
    tol: float = DEFAULT_TOL,
    variant: str = DEFAULT_VARIANT,
    direction: str = "convex",
) -> ChainReport:
    """Chain id t6: pointwise h-weighted sandwich for the symmetric part.

    f(2ab/(a+b)) / (2h(1/2))  <=  sym(f)(x)  <=  [h(w1) + h(w2)] * (f(a)+f(b))/2

    where (w1, w2) are the harmonic barycentric weights of x.  The
    derivation applies h to both weights; the as_printed variant leaves the
    first weight bare, as one circulated display does.  With h(t) = t the
    weights sum to one and the t2 chain reappears.
    """
    _check_variant(variant)
    fb = sym_transform(f, interval)
    (w1,), (w2,) = _barycentric_weights(interval, [x])
    first = w1 if variant == "as_printed" else h(w1)
    upper = (first + h(w2)) * _endpoint_avg(f, interval)
    terms = [
        ChainTerm("h_scaled_midpoint", f(interval.harmonic_midpoint) / (2.0 * h.h_half)),
        ChainTerm("symmetric_value", fb(x)),
        ChainTerm("h_weighted_endpoint_avg", upper),
    ]
    return ChainReport.build("t6", variant, direction, terms, tol, _meta(f, interval, x=x, h=h))


def weighted_bounds(
    f: Callable[[float], float],
    h: HFunction,
    w: Callable[[float], float],
    interval: HInterval,
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    variant: str = DEFAULT_VARIANT,
    direction: str = "convex",
) -> ChainReport:
    """Chain id c1: the t6 sandwich integrated against a weight w >= 0.

    f(m)/(2h(1/2)) * int w  <=  (1/2) int w(t) [f(t) + f(r(t))] dt
                             <=  (f(a)+f(b))/2 * int [h(w1(t)) + h(w2(t))] w(t) dt.

    The derived right-hand side keeps both weight evaluations under the
    integral (Jacobian-safe).  The as_printed variant instead uses
    int h(w1(t)) [w(t) + w(r(t))] dt, whose change of variables silently
    drops the factor r(t)^2/t^2; both right-hand values and their deviation
    are recorded in the metadata either way.

    w1 vanishes at a and w2 at b, so h(w1(t)) and h(w2(t)) can have
    algebraic singularities there (like sqrt(t - a) for h = sqrt).  These
    two h-weight integrals therefore run in theta over [0, 1], with
    t = a + (b-a)(1 - cos(pi*theta))/2 and dt = (b-a)(pi/2) sin(pi*theta)
    dtheta (Davis & Rabinowitz, *Methods of Numerical Integration*), which
    makes the integrand smooth; int w and the middle term run in t.  Every
    integral takes the kinks of w (and, where w(r(t)) appears, their
    reflections) as breakpoints, mapped to theta for the two h-weight ones.
    """
    return weighted_reports(f, w, interval, ((h, direction),), tol, quad_tol, variant)[0]


def _batched(batch: Callable[[Sequence[float]], list[float]]) -> Function:
    """The record of ``batch``, whose scalar call is a batch of one."""
    return Function(lambda t: batch([t])[0], batch)


def weighted_reports(
    f: Callable[[float], float],
    w: Callable[[float], float],
    interval: HInterval,
    cases: Sequence[tuple[HFunction, str]],
    tol: float = DEFAULT_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    variant: str = DEFAULT_VARIANT,
) -> tuple[ChainReport, ...]:
    """One c1 report (see :func:`weighted_bounds`) per ``(h, direction)``
    in ``cases``.

    Only the two h-weight integrals depend on the case, so the check of w,
    int w, the middle term, f(a), f(b) and f(2ab/(a+b)) are computed once
    for all cases; each report equals the one :func:`weighted_bounds` gives
    for its case.  The integrands are records whose batches take a
    segment's nodes through the batches of f, w and h, with no fallback of
    their own (f, or w, over the nodes and their reflections in one call),
    and whose scalar call is a batch of one, which evaluates in the order
    of the formula.  The h-weight batches form all their barycentric
    weights in one call of the helper t6 uses, and apply the Jacobian in
    the comprehension that forms each value.  The check of w is
    :func:`hhverify.hmean.first_negative`.
    """
    _check_variant(variant)
    a, b = interval.a, interval.b
    fn, wn = as_function(f), as_function(w)
    negative = first_negative(wn, interval)
    if negative is not None:
        raise ValueError(f"weight w is negative or NaN at t={negative!r}")
    avg_f = _endpoint_avg(f, interval)
    w_kinks = kinks_of(wn)
    int_w = _Barred.of(integrate(wn, a, b, tol=quad_tol, breakpoints=w_kinks))

    def mass(ts: Sequence[float]) -> list[float]:
        ws = wn.batch_values(ts)
        values = fn.batch_values([*ts, *interval.reflect_all(ts)])
        return [u * (p + q) for u, p, q in zip(ws, values, values[len(ts) :])]

    mid_mass = 0.5 * _Barred.of(integrate(
        _batched(mass), a, b, tol=quad_tol,
        breakpoints=sym_kinks(fn, interval) + w_kinks,
    ))
    half = 0.5 * (b - a)
    pi, cos, sin = math.pi, math.cos, math.sin

    def nodes(thetas: Sequence[float]) -> tuple[list[float], list[float]]:
        """The points t of ``thetas`` and the angles pi*theta."""
        us = [pi * theta for theta in thetas]
        return [a + half * (1.0 - cos(u)) for u in us], us

    def graded_kinks(kinks: tuple[float, ...]) -> list[float]:
        """The kinks in ``(a, b)`` as values of theta."""
        return [math.acos(1.0 - (t - a) / half) / math.pi for t in kinks if a < t < b]

    corrected_kinks = graded_kinks(w_kinks)
    printed_kinks = graded_kinks(sym_kinks(wn, interval))

    def right_integrals(h: HFunction) -> tuple[QuadResult, QuadResult]:
        """int [h(w1) + h(w2)] w, derived, and int h(w1) [w + w(r)], as
        printed, in theta (times dt/dtheta = half * pi * sin(pi*theta))."""

        def corrected(thetas: Sequence[float]) -> list[float]:
            ts, us = nodes(thetas)
            w1, w2 = _barycentric_weights(interval, ts)
            hv = h.batch_values(w1 + w2)
            return [
                (p + q) * v * half * pi * sin(u)
                for p, q, v, u in zip(hv, hv[len(ts) :], wn.batch_values(ts), us)
            ]

        def printed(thetas: Sequence[float]) -> list[float]:
            ts, us = nodes(thetas)
            hv = h.batch_values(_barycentric_weights(interval, ts)[0])
            ws = wn.batch_values([*ts, *interval.reflect_all(ts)])
            return [p * (v + vr) * half * pi * sin(u) for p, v, vr, u in zip(hv, ws, ws[len(ts) :], us)]

        return (
            integrate(_batched(corrected), 0.0, 1.0, tol=quad_tol, breakpoints=corrected_kinks),
            integrate(_batched(printed), 0.0, 1.0, tol=quad_tol, breakpoints=printed_kinks),
        )

    rights = [right_integrals(h) for h, _ in cases]
    f_mid = f(interval.harmonic_midpoint)
    reports = []
    for (h, direction), (int_corr, int_printed) in zip(cases, rights):
        right = _Barred.of(int_printed if variant == "as_printed" else int_corr)
        meta = _meta(fn, interval, h=h, w=wn)
        meta["right_derived_corrected"] = avg_f * int_corr.value
        meta["right_as_printed"] = avg_f * int_printed.value
        meta["printed_right_deviation"] = avg_f * (int_printed.value - int_corr.value)
        terms = [
            (f_mid / (2.0 * h.h_half) * int_w).term("scaled_midpoint_mass"),
            mid_mass.term("weighted_sym_mean"),
            (avg_f * right).term("h_weighted_endpoint_bound"),
        ]
        reports.append(ChainReport.build("c1", variant, direction, terms, tol, meta))
    return tuple(reports)


# --- the chain table ------------------------------------------------------------


class Chain(NamedTuple):
    """One chain: its id, the name of its evaluator in this module, and the
    class its hypothesis asks of f, a ``convexity.check_class`` kind:
    ``"symmetrized"`` (the symmetric part harmonic convex or concave),
    ``"harmonic"`` (f itself) or ``"symmetrized_h"`` (the symmetric part
    harmonic h-convex or h-concave, f >= 0).

    ``cases_evaluator`` names, for a chain that has one, the evaluator of
    several ``(h, direction)`` cases in one call, sharing the work that does
    not depend on the case.  It takes the parameters of ``evaluator`` with
    ``cases`` in place of ``h`` and ``direction``, and returns one report
    per case."""

    id: str
    evaluator: str
    hypothesis: str
    cases_evaluator: Optional[str] = None

    def parameters(self) -> Mapping[str, inspect.Parameter]:
        """The evaluator's parameters, in signature order, as read once when
        this module is imported.  :func:`run_chain` still looks the evaluator
        up by name at each call, so that a wrapper put in its place at run
        time is the one called; such a wrapper must keep the signature."""
        return _PARAMETERS[self.evaluator]


CHAINS = {
    chain.id: chain
    for chain in (
        Chain("t1", "chain_harmonic_hh", "symmetrized"),
        Chain("t2", "bounds_pointwise", "symmetrized"),
        Chain("t3", "chain_subinterval", "symmetrized"),
        Chain("t4", "product_inequalities", "symmetrized"),
        Chain("t5", "chain_h_subinterval", "symmetrized_h"),
        Chain("t6", "bounds_h_pointwise", "symmetrized_h"),
        Chain("c1", "weighted_bounds", "symmetrized_h", "weighted_reports"),
        Chain("r2", "chain_reflected_pair", "symmetrized"),
        Chain("r3", "chain_harmonic_full", "harmonic"),
        Chain("r4", "chain_refinement", "symmetrized", "refinement_reports"),
    )
}

_PARAMETERS = {
    chain.evaluator: inspect.signature(globals()[chain.evaluator]).parameters for chain in CHAINS.values()
}

_CHAIN_KEYWORDS = frozenset("f interval tol quad_tol variant direction x y g h w".split())


def run_chain(chain_id: str, **kwargs) -> tuple[ChainReport, ...]:
    """Evaluate the chain ``chain_id``, passing its evaluator those keyword
    arguments its signature takes, out of f, interval, tol, quad_tol,
    variant, direction, x, y, g, h and w.  Always returns a tuple of
    reports: two for t4, one otherwise."""
    if chain_id not in CHAINS:
        raise ValueError(f"unknown chain {chain_id!r}; one of {tuple(CHAINS)}")
    unknown = kwargs.keys() - _CHAIN_KEYWORDS
    if unknown:
        raise TypeError(f"run_chain got unknown keywords {sorted(unknown)}")
    chain = CHAINS[chain_id]
    params = chain.parameters()
    result = globals()[chain.evaluator](
        **{name: value for name, value in kwargs.items() if name in params}
    )
    return result if isinstance(result, tuple) else (result,)
