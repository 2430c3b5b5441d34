"""Interval geometry on sign-definite intervals, and the function record.

An :class:`HInterval` ``[a, b]`` has ``a < b``, both of one sign, which keeps
the reflection denominator ``(a+b)t - ab`` bounded away from zero (it is at
least ``min(a^2, b^2)`` on the interval).  On top of that sit the harmonic
midpoint, the endpoint-swapping reflection, and the reflection-symmetric
part of a function.  The reflection and the harmonic midpoint are computed
on the interval scaled by a power of two, so their accuracy does not depend
on the interval's scale (tested from 1e-300 to 1e300).
:meth:`HInterval.reflect_all` reflects a list of nodes in one pass, bit for
bit as :meth:`HInterval.reflect` reflects each.

Function records.  Every function the package builds is a
:class:`Function` record: its scalar call, and what else it knows about
itself, each slot None (``()`` for the kinks) where it knows nothing.
:func:`as_function` resolves a record to itself and wraps any other
callable of one float in a record that holds its call alone: no attribute
of a plain callable is read.  A caller passes kinks, a batch or a rule by
building the record, ``Function(call, batch=..., weighted=..., kinks=...,
label=...)``.

- ``kinks``: the points where its first derivative jumps, a tuple of floats
  in t (points outside an interval are allowed and ignored there).
  :func:`kinks_of` reads them.  The chain evaluators of
  :mod:`hhverify.ineq` pass them to the quadrature as explicit breakpoints
  (:mod:`hhverify.quad` says why an integral does not read them itself).
- ``batch(ts)``: the list of its values at the nodes ``ts``, equal bit for
  bit to ``[f(t) for t in ts]`` and raising only where that raises (not
  necessarily the same exception: a batch may visit its evaluations in
  another order).  A parsed expression's batch checks finiteness once per
  call, not per node, and evaluates again node by node through its scalar
  evaluator when the check fails or a node raises, so it raises the
  exception of the first failing node.
- ``weighted(lo, hi)``: its own Gauss-Kronrod rule for t -> f(t)/t^2 on
  one segment, which returns what the generic rule ``quad._gk15`` returns
  on that integrand, bit for bit, and raises what that raises;
  ``weighted_integral`` applies it.  A parsed expression's rule checks its
  two sums once, and applies the rule again through the scalar evaluator
  when they are not finite.
- ``rule``: a Gauss-Kronrod rule of the record's own values, which only the
  integrand of ``weighted_integral`` and the product integrand of the
  ``t4`` chain fill.
- ``label``: the label that reports carry.

Parsed expressions (``fnspec.FunctionSpec``) are records built once when
they are parsed, with a compiled batch, a compiled weighted rule, their
source as label, and no kinks: the kinks of ``abs``, ``min`` and ``max``
are not guessed.  ``corpus.PiecewiseConvexReciprocal`` is a record with its
kinks (a tuple built once), a hand-written weighted rule and its name.  A
:class:`TransformedFunction`, the symmetric part sym(f), is a record whose
kinks are :func:`sym_kinks` of its base, computed when read, and whose
batch, a method looked up when read, evaluates its base in one batch over
the nodes and then their reflections.  Each of these three is its own
scalar call, so every call goes through its ``__call__``.  Derived
functions are records too: ``ineq.HFunction`` weights are the record of
their function, labelled with their name; the integrand f(t)/t^2 of
``weighted_integral`` carries f's weighted rule as its rule; the product
integrand sym(f)*g/t^2 of the ``t4`` chain carries a rule of its own,
which takes f over a segment's nodes and their reflections in one batch
(and g's values from it too, when g is the same object as f); and the
integrands of the ``c1`` chain carry batches built on those of f, w and
h, which take f, or w, over the nodes and their reflections in one batch.
A wrapper that replaces a function (a counting wrapper, say) is a plain
callable, so it is called once per node and sees every evaluation, with
the same results.

Batches.  A list of values goes through :func:`batch_else_each`: the batch
in one call, and, should it raise, one call per item in order, so that the
exception is the one the first failing item raises.
:meth:`Function.values_at` applies it to a record.  The generic
Gauss-Kronrod rule evaluates a segment's 15 nodes so, and the class scans
of :mod:`hhverify.convexity` their lattice and each chunk of their random
samples.  The batch of a derived function calls those of its parts through
:meth:`Function.batch_values`, which has no fallback, so that when a part
raises, the rule's one fallback is the only one that evaluates node by
node.  :func:`first_negative`, the sign check of f >= 0 on 65 points,
takes its points through the batch and falls back one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

__all__ = [
    "HInterval",
    "Function",
    "as_function",
    "batch_else_each",
    "TransformedFunction",
    "sym_transform",
    "kinks_of",
    "sym_kinks",
    "first_negative",
]

# a point within this share of the width of an endpoint is that endpoint
_SNAP_REL = 1e-12


@dataclass(frozen=True, slots=True)
class HInterval:
    a: float
    b: float
    # (a'b', a'+b', snap pad, harmonic midpoint, 2**e, 2**-e, a', b'), fixed
    # at construction, where a' = a * 2**-e and b' = b * 2**-e
    _geometry: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a!r}, {self.b!r}]")
        # the signs themselves: a*b underflows to 0 for tiny endpoints
        if not (self.a > 0.0 or self.b < 0.0):
            raise ValueError("endpoints must be nonzero and share a sign")
        # The geometry is computed on the interval scaled by 2**-e, with e
        # chosen so that |a'b'| is near 1.  Scaling by a power of two is
        # exact, so every result is bit for bit that of the unscaled
        # formulas wherever those neither underflow nor overflow, and the
        # products ab, (a+b)t and abt stay in range at any scale.
        e = (math.frexp(self.a)[1] + math.frexp(self.b)[1]) // 2
        e = max(-1022, min(1022, e))  # 2**e and 2**-e stay normal floats
        up, down = math.ldexp(1.0, e), math.ldexp(1.0, -e)
        a, b = self.a * down, self.b * down
        # the snap pad is rounded at full scale, where it may be subnormal,
        # and then scaled, so a snap in the scaled frame makes the comparison
        # one at full scale would
        pad = _SNAP_REL * (b - a) * up * down
        object.__setattr__(
            self, "_geometry", (a * b, a + b, pad, 2.0 * a * b / (a + b) * up, up, down, a, b)
        )

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def harmonic_midpoint(self) -> float:
        """2ab/(a+b), the unique fixed point of the reflection."""
        return self._geometry[3]

    def reflect(self, t: float) -> float:
        """Map ``t`` to ``abt/((a+b)t - ab)``.

        An involution of the interval: swaps ``a`` and ``b`` (exactly, by
        special-casing) and fixes the harmonic midpoint.  A ``t`` within
        1e-12 of the relative width of an endpoint is taken as that endpoint,
        so quadrature nodes at interval ends never spuriously fail; any other
        ``t`` outside ``[a, b]`` raises ``ValueError``.  The snap, the range
        check and the formula all work on ``t`` scaled like the geometry
        fixed at construction.
        """
        ab, s, pad, midpoint, up, down, a, b = self._geometry
        u = t * down
        if abs(u - a) <= pad:
            return self.b
        if abs(u - b) <= pad:
            return self.a
        if not a <= u <= b:
            raise ValueError(f"t={t!r} outside [{self.a!r}, {self.b!r}]")
        if t == midpoint:
            return t
        return ab * u / (s * u - ab) * up

    def reflect_all(self, ts: Sequence[float]) -> list[float]:
        """``[self.reflect(t) for t in ts]``, bit for bit, raising at the
        first ``t`` where :meth:`reflect` raises.

        When every ``t`` lies inside the interval clear of both snap pads,
        none is NaN and none is the harmonic midpoint, each takes
        :meth:`reflect`'s formula, and the list is that formula in one
        comprehension; otherwise :meth:`reflect` is mapped over ``ts``.
        """
        ab, s, pad, midpoint, up, down, a, b = self._geometry
        # Rounding is monotonic, so every t clears the pads when the least
        # and the greatest do.  A NaN can slip past min and max, not the sum.
        if ts and min(ts) * down - a > pad and b - max(ts) * down > pad and midpoint not in ts:
            total = sum(ts)
            if total == total:
                return [ab * u / (s * u - ab) * up for t in ts for u in [t * down]]
        return list(map(self.reflect, ts))


def batch_else_each(batch: Optional[Callable[[Sequence], list]], each: Callable, items: Sequence) -> list:
    """``batch(items)``; or, when ``batch`` is None or raises, ``[each(x) for
    x in items]``, which raises what the first failing item raises."""
    if batch is not None:
        try:
            return batch(items)
        except Exception:  # a batch may meet another item's error first
            pass
    return [each(x) for x in items]


class Function:
    """A function of one float and what it knows about itself (see the
    module docstring): ``call``, its scalar call; ``batch``, ``weighted``
    and ``label``, each None where it knows none; its ``kinks``; and
    ``rule``, a Gauss-Kronrod rule of its own, which only the integrands of
    ``weighted_integral`` and of the ``t4`` product fill (else None).
    Calling the record calls ``call``."""

    __slots__ = ("call", "batch", "rule", "weighted", "kinks", "label")

    def __init__(self, call, batch=None, rule=None, weighted=None, kinks=(), label=None):
        self.call, self.batch, self.rule, self.weighted, self.kinks, self.label = call, batch, rule, weighted, kinks, label

    def __call__(self, t: float) -> float:
        return self.call(t)

    def values_at(self, ts: Sequence[float]) -> list[float]:
        """``[self(t) for t in ts]``, bit for bit, through the batch, raising
        what the first failing ``t`` raises."""
        return batch_else_each(self.batch, self.call, ts)

    def batch_values(self, ts: Sequence[float]) -> list[float]:
        """``[self(t) for t in ts]``, bit for bit: one call of the batch, with
        no fallback, or else one call per ``t``.  It raises only where that
        list raises, but not necessarily what the first failing ``t``
        raises, so it is for the parts of a batch that falls back as a
        whole."""
        batch = self.batch
        return list(map(self.call, ts)) if batch is None else batch(ts)


class _FrozenFunction(Function):
    """A record that is a frozen dataclass (a parsed expression, a piecewise
    function, a symmetric part) and its own scalar call, so that every call
    goes through its ``__call__``.  It sets the slots that vary between its
    instances once, in its ``__post_init__``, with :meth:`_set_slots`."""

    __slots__ = ()

    @property
    def call(self) -> "_FrozenFunction":
        return self

    def _set_slots(self, **slots) -> None:
        """Set slots as a frozen dataclass sets its own fields."""
        for slot, value in slots.items():
            object.__setattr__(self, slot, value)


def as_function(f: Callable[[float], float]) -> Function:
    """``f`` if it is a :class:`Function`, or else the record whose scalar
    call is ``f`` and which holds nothing else."""
    return f if isinstance(f, Function) else Function(f)


def kinks_of(f: Callable[[float], float]) -> tuple[float, ...]:
    """The kinks of ``f``'s record: ``()`` for a plain callable."""
    return as_function(f).kinks


def sym_kinks(f: Callable[[float], float], interval: HInterval) -> tuple[float, ...]:
    """The kinks of sym(f) on ``interval``: the kinks of ``f``, then the
    reflections of those that lie inside the interval."""
    kinks = kinks_of(f)
    return kinks + tuple(interval.reflect(k) for k in kinks if interval.a < k < interval.b)


def first_negative(f: Callable[[float], float], interval: HInterval) -> Optional[float]:
    """The first t of ``a + (b-a)k/64``, k = 0..64, at which ``f`` is
    negative or NaN, or None.

    The 65 points go through ``f``'s batch in one call (one call each
    without a batch).  Should that raise, ``f`` is called again one point at
    a time, up to the first t where it is negative or raises.
    """
    a, b = interval.a, interval.b
    grid = [a + (b - a) * k / 64.0 for k in range(65)]
    fn = as_function(f)
    try:
        values = fn.batch_values(grid)
    except Exception:  # the first failing t decides
        values = map(fn.call, grid)
    return next((t for t, v in zip(grid, values) if not v >= 0.0), None)


@dataclass(frozen=True)
class TransformedFunction(_FrozenFunction):
    """The reflection-symmetric part of ``base``,
    t -> (base(t) + base(r(t))) / 2.

    Nothing is memoised: each call evaluates ``base`` twice.  It kinks where
    ``base`` does and at the reflections of those kinks, which :attr:`kinks`
    lists when read.  Its batch is the method :meth:`batch`, looked up when
    read, so that an instance built to be called at one point (as the
    pointwise chains build one) builds nothing more.  It has no rule,
    weighted rule or label, for every instance alike.
    """

    base: Callable[[float], float]
    interval: HInterval
    rule = weighted = label = None

    def __call__(self, t: float) -> float:
        return 0.5 * (self.base(t) + self.base(self.interval.reflect(t)))

    def batch(self, ts: Sequence[float]) -> list[float]:
        """One batch of ``base`` over ``ts`` and then their reflections, with
        no fallback of its own."""
        values = as_function(self.base).batch_values([*ts, *self.interval.reflect_all(ts)])
        return [0.5 * (u + v) for u, v in zip(values, values[len(ts) :])]

    @property
    def kinks(self) -> tuple[float, ...]:
        """:func:`sym_kinks` of ``base``."""
        return sym_kinks(self.base, self.interval)


def sym_transform(f: Callable[[float], float], interval: HInterval) -> TransformedFunction:
    """Symmetric part of ``f`` under the interval's reflection.

    Pins the midpoint (value f(2ab/(a+b)) there) and takes the value
    (f(a)+f(b))/2 at both endpoints.
    """
    return TransformedFunction(f, interval)
