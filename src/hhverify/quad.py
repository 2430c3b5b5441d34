"""Adaptive quadrature with explicit error estimates.

A Gauss(7)/Kronrod(15) embedded pair drives plain adaptive bisection in
:func:`integrate`, the one adaptive loop here: a segment is accepted once the
Kronrod-Gauss discrepancy drops below the share of the tolerance proportional
to the segment's width.  All integrals are signed, so reversed limits need no
special casing by callers.  ``integrate`` enforces an evaluation budget and
raises instead of silently truncating; the other routines are integrands
handed to it.  A lone starting segment that meets the tolerance is returned
at once.  The refinement double integral nests it: its error estimate is
the outer estimate plus the largest error any inner integral passes on to
the outer integrand.

A Gauss-Kronrod pair cannot see a kink (a jump in the first derivative)
that falls between its nodes, so its error estimate can be far too small
there.  Callers that know where the integrand kinks pass those points as
``breakpoints``: ``integrate`` then starts from the segments between them.
Every caller passes them explicitly, and ``integrate`` never reads them off
its integrand: a wrapper that replaces the integrand to count its
evaluations (as ``perfbench/tracing.py`` does) is a plain callable, with
no kinks, and an integral must split at the same points whether or not it is counted.
``refinement_double_integral`` passes the kinks of sym(f) to its outer
integral and none to its inner ones.

Rules.  ``integrate`` applies the integrand's own rule when it has one,
and the generic rule ``_gk15`` otherwise; :func:`weighted_integral` builds
its integrand f(t)/t^2 with f's weighted rule as its rule (the function
records of :mod:`hhverify.hmean`).  Nodes, segments, evaluation counts and
results are the same on either path, bit for bit.  Every rule sums K15 and
G7 over :data:`GK15` in its order.  ``refinement_double_integral`` builds
that integrand once for all its inner integrals; its outer integrand is a
plain function, called node by node.

Results.  Every routine returns a :class:`QuadResult`, a frozen dataclass
rather than a tuple: it neither unpacks nor compares equal to one.  Its
value must be finite and its error estimate a nonnegative number; a NaN
estimate is rejected as a negative one is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .hmean import Function, HInterval, as_function, sym_kinks

__all__ = [
    "QuadResult",
    "QuadratureBudgetError",
    "integrate",
    "weighted_integral",
    "reflected_weighted_integral",
    "refinement_double_integral",
]


class QuadratureBudgetError(RuntimeError):
    """The evaluation budget was exhausted before the tolerance was met."""


@dataclass(frozen=True, slots=True)
class QuadResult:
    """A signed integral, its absolute error estimate, and the number of
    segments accepted.  A frozen dataclass, not a tuple: it neither unpacks
    nor compares equal to one.  The value must be finite and the estimate a
    nonnegative number (not NaN), or construction raises ``ValueError``."""

    value: float
    abs_error_estimate: float
    subdivisions: int

    # Written by hand: the generated frozen __init__ pays one
    # object.__setattr__ per field, and one result is built per integral.
    def __init__(self, value: float, abs_error_estimate: float, subdivisions: int):
        if not math.isfinite(value):
            raise ValueError("integral value is not finite")
        if not abs_error_estimate >= 0.0:
            raise ValueError("error estimate must be a nonnegative number")
        _set_value(self, value)
        _set_abs_error_estimate(self, abs_error_estimate)
        _set_subdivisions(self, subdivisions)


# the slot descriptors' setters, which bypass the frozen __setattr__
_set_value = QuadResult.value.__set__
_set_abs_error_estimate = QuadResult.abs_error_estimate.__set__
_set_subdivisions = QuadResult.subdivisions.__set__


# Gauss(7)/Kronrod(15) abscissae and weights on [-1, 1].
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_NODES = tuple(-x for x in _XGK) + (0.0,) + tuple(reversed(_XGK))
_KWEIGHTS = _WGK[:7] + (_WGK[7],) + tuple(reversed(_WGK[:7]))
# Gauss weights sit on nodes 1, 3, ..., 13; zero elsewhere.
_GWEIGHTS = tuple(
    _WG[min(i, 14 - i) // 2] if i % 2 == 1 else 0.0 for i in range(15)
)
# (node, Kronrod weight, Gauss weight), in the order every GK15 rule visits
# the nodes and sums K15 and G7: the generic rule below and the compiled
# ones of hhverify.fnspec and hhverify.corpus alike.
GK15 = tuple(zip(_NODES, _KWEIGHTS, _GWEIGHTS))


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Kronrod-15 application on [lo, hi]; returns (value, |K15 - G7|).

    The generic rule, and the reference for every other: an integrand's own
    rule returns what this returns, bit for bit, and raises what it raises.
    The 15 nodes are evaluated through the batch of ``f``, if it has one
    (:meth:`hhverify.hmean.Function.values_at`), so the exception is the one
    the first failing node raises.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    k = 0.0
    g = 0.0
    for fv, wk, wg in zip(as_function(f).values_at([c + h * x for x in _NODES]), _KWEIGHTS, _GWEIGHTS):
        k += wk * fv
        g += wg * fv
    return h * k, abs(h) * abs(k - g)


# the default evaluation budget of one integral
DEFAULT_MAX_EVALS = 1_000_000


def _exhausted(max_evals, lo: float, hi: float) -> QuadratureBudgetError:
    return QuadratureBudgetError(f"budget of {max_evals} evaluations exhausted on [{lo!r}, {hi!r}]")


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_evals: int = DEFAULT_MAX_EVALS,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Signed adaptive integral of ``f`` from ``lo`` to ``hi``.

    ``[lo, hi]`` is first split at the ``breakpoints`` that lie strictly
    inside it (the rest are ignored, repeats count once), as QUADPACK's QAGP
    does: a kink of ``f`` placed there sits at a segment end, where the
    Gauss-Kronrod nodes cannot straddle it and the error estimate cannot
    miss it.  Without breakpoints the loop starts from ``(lo, hi)`` alone,
    with no sorting; breakpoints that all lie outside give the same start.
    A segment of width w is accepted once its local error estimate is below
    ``tol * w / |hi - lo|``, so the accumulated estimate stays below ``tol``
    on success.

    Every rule application counts as 15 evaluations, added before the rule
    runs: the first application that would take the count past
    ``max_evals`` raises :class:`QuadratureBudgetError` instead of running,
    whether it is on a starting segment or on a half of a bisected one.
    Evaluation errors from ``f`` propagate.

    If ``f`` has its own rule (see "Rules" above), each segment takes one
    call of it; it still counts as 15 evaluations, and the result is bit for
    bit the same.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if breakpoints and not all(map(math.isfinite, breakpoints)):
        raise ValueError("breakpoints must be finite")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0)
    if lo > hi:
        res = integrate(f, hi, lo, tol, max_evals, breakpoints)
        return QuadResult(-res.value, res.abs_error_estimate, res.subdivisions)

    span = hi - lo
    fn = as_function(f)
    gk15 = fn.rule or partial(_gk15, fn)
    if not breakpoints:
        if max_evals < 15:
            raise _exhausted(max_evals, lo, hi)
        v, e = gk15(lo, hi)
        # the loop's accept test for w = span, and its sums: a lone segment
        # that passes is returned without building the work list
        if e <= tol * (span / span) or span <= 1e-14 * max(abs(lo), abs(hi), 1.0):
            return QuadResult(0.0 + v, 0.0 + e, 1)
        evals, work = 15, [(lo, hi, v, e)]
    else:
        edges = [lo, *sorted({p for p in breakpoints if lo < p < hi}), hi]
        evals, work = 0, []
        for l, r in zip(edges, edges[1:]):
            evals += 15
            if evals > max_evals:
                raise _exhausted(max_evals, lo, hi)
            v, e = gk15(l, r)
            work.append((l, r, v, e))

    total = 0.0
    err_total = 0.0
    accepted = 0
    while work:
        l, r, v, e = work.pop()
        w = r - l
        # the width floor is computed only for a segment that fails the
        # tolerance; the lone-segment return above repeats this test
        if e <= tol * (w / span) or w <= 1e-14 * max(abs(lo), abs(hi), 1.0):
            total += v
            err_total += e
            accepted += 1
            continue
        m = 0.5 * (l + r)
        evals += 15
        if evals > max_evals:
            raise _exhausted(max_evals, lo, hi)
        v, e = gk15(l, m)
        work.append((l, m, v, e))
        evals += 15
        if evals > max_evals:
            raise _exhausted(max_evals, lo, hi)
        v, e = gk15(m, r)
        work.append((m, r, v, e))
    return QuadResult(total, err_total, accepted)


def weighted_integral(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """The raw ``integral of f(t)/t^2`` from ``lo`` to ``hi`` (callers apply
    any ``ab/(b-a)`` prefactor themselves).  ``breakpoints``, typically the
    kinks of ``f``, go to :func:`integrate`.

    The integrand carries the weighted rule of ``f``'s record, if any
    (parsed expressions and ``random_harmonic_convex`` functions have one),
    as its rule.
    """
    integrand = Function(lambda t: f(t) / (t * t), None, as_function(f).weighted)
    return integrate(integrand, lo, hi, tol, DEFAULT_MAX_EVALS, breakpoints)


def reflected_weighted_integral(
    f: Callable[[float], float],
    interval: HInterval,
    x: float,
    y: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """``integral of f(t)/t^2`` from r(y) to r(x), r the interval reflection.

    By the substitution u = r(t) (du/u^2 = -dt/t^2) this equals the integral
    of f(r(t))/t^2 over [x, y], which is how it enters the split chains.
    The integral runs in t over [r(y), r(x)], so ``breakpoints`` are the
    kinks of ``f`` itself, not their reflections.
    """
    return weighted_integral(
        f, interval.reflect(y), interval.reflect(x), tol=tol, breakpoints=breakpoints
    )


def refinement_double_integral(
    f: Callable[[float], float],
    interval: HInterval,
    tol: float = 1e-9,
) -> QuadResult:
    """Mean over x in [a, b] of  G(x) = [abx/(2ab-(a+b)x)] * int_x^{r(x)} f/t^2.

    G has a removable singularity at the harmonic midpoint x* = 2ab/(a+b):
    the coefficient blows up while the inner integral shrinks, and the
    product tends to f(x*) (from r(x) - x = x(2ab-(a+b)x)/((a+b)x-ab)).
    Nodes within 1e-8 of the relative width of x* use that continuity value.

    G is continuous with a continuous first derivative, but its second
    derivative jumps wherever x or r(x) crosses a kink of f: at the kinks of
    sym(f), ``hmean.sym_kinks(f, interval)``, which are f's kinks and the
    reflections of those inside (a, b).  The outer integral of G runs through
    :func:`integrate` from the segments between those points, with a budget
    of 100 000 evaluations of G.  The inner integrals take no breakpoints.

    G is called node by node.  Every inner integral takes one f(t)/t^2
    record, built once with f's weighted rule, and runs over ascending
    limits: where r(x) < x, G takes -int_{r(x)}^x.

    The reported error estimate is the outer estimate divided by b - a, plus
    the largest amount by which an inner quadrature error can move G at any
    node: the mean of G cannot move by more than G does anywhere.
    """
    a, b = interval.a, interval.b
    span = b - a
    xstar = interval.harmonic_midpoint
    near = 1e-8 * span
    f_star = f(xstar)
    ab = a * b
    s = a + b
    inner_err = 0.0
    inner = Function(lambda t: f(t) / (t * t), None, as_function(f).weighted)

    def g(x: float) -> float:
        nonlocal inner_err
        if abs(x - xstar) <= near:
            return f_star
        r = interval.reflect(x)
        coef = ab * x / (2.0 * ab - s * x)
        # keep |coef| * inner error bounded by tol pointwise
        inner_tol = max(tol * abs(r - x) / abs(x * r), 1e-15)
        # int_x^r over ascending limits, sparing integrate its delegation
        res = integrate(inner, r, x, inner_tol) if r < x else integrate(inner, x, r, inner_tol)
        inner_err = max(inner_err, abs(coef) * res.abs_error_estimate)
        return coef * -res.value if r < x else coef * res.value

    outer = integrate(g, a, b, tol=tol, max_evals=100_000, breakpoints=sym_kinks(f, interval))
    err = (outer.abs_error_estimate + inner_err * span) / span
    return QuadResult(outer.value / span, err, outer.subdivisions)
