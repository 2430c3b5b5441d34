"""Interval geometry on sign-definite intervals.

An :class:`HInterval` ``[a, b]`` has ``a < b``, both of one sign, which keeps
the reflection denominator ``(a+b)t - ab`` bounded away from zero (it is at
least ``min(a^2, b^2)`` on the interval).  On top of that sit the harmonic
midpoint, the endpoint-swapping reflection, and the reflection-symmetric
part of a function.  The reflection and the harmonic midpoint are computed
on the interval scaled by a power of two, so their accuracy does not depend
on the interval's scale (tested from 1e-300 to 1e300).

Protocols.  Functions here are plain callables of one float; two optional
attributes tell the layers above more about them.

- Kinks.  A function whose first derivative jumps at known points publishes
  them as a ``kinks`` attribute, a tuple of floats in t (points outside an
  interval are allowed and ignored there); :func:`kinks_of` reads it,
  giving ``()`` for functions that publish none.  The chain evaluators in
  :mod:`hhverify.ineq` pass these points to the quadrature as breakpoints.
  ``PiecewiseConvexReciprocal`` publishes its kinks, and a
  :class:`TransformedFunction` adds their reflections.  Parsed expressions
  publish none: the kinks of ``abs``, ``min`` and ``max`` are not guessed,
  and their integrals rely on adaptive subdivision alone.
- Batches.  A function may publish ``evaluate_all(ts)``: the list of its
  values at the nodes ``ts``, equal bit for bit to ``[f(t) for t in ts]``,
  and raising only where that raises (not necessarily the same exception:
  the order in which a batch visits its evaluations may differ).
  :func:`evaluate_all_of` reads it, falling back to one call per node for
  functions that publish none.  Parsed expressions compile one, a
  :class:`TransformedFunction` and an ``ineq.HFunction`` publish one built
  on their base's, and so do the integrands of the ``t4`` and ``c1``
  chains.  The generic Gauss-Kronrod rule of :mod:`hhverify.quad`
  evaluates a segment's 15 nodes through it in one call, and the class
  scans of :mod:`hhverify.convexity` their lattice and chunks of their
  random samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "HInterval",
    "TransformedFunction",
    "sym_transform",
    "kinks_of",
    "evaluate_all_of",
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
        """``[self.reflect(t) for t in ts]``, raising at the first ``t`` where
        :meth:`reflect` raises."""
        return list(map(self.reflect, ts))


def kinks_of(f: Callable[[float], float]) -> tuple[float, ...]:
    """The kinks ``f`` publishes (see the module docstring), or ``()``."""
    return tuple(getattr(f, "kinks", ()))


def evaluate_all_of(f: Callable[[float], float]) -> Callable[[Sequence[float]], list[float]]:
    """The ``evaluate_all`` that ``f`` publishes (see the module docstring),
    or one that calls ``f`` once per node, in order."""
    batch = getattr(f, "evaluate_all", None)
    if batch is not None:
        return batch
    return lambda ts: [f(t) for t in ts]


@dataclass(frozen=True)
class TransformedFunction:
    """The reflection-symmetric part of ``base``,
    t -> (base(t) + base(r(t))) / 2.

    Nothing is memoised: each call evaluates ``base`` twice.  It kinks where
    ``base`` does and at the reflections of those kinks, which :attr:`kinks`
    lists.  :meth:`evaluate_all` publishes the batch protocol.
    """

    base: Callable[[float], float]
    interval: HInterval

    def __call__(self, t: float) -> float:
        return 0.5 * (self.base(t) + self.base(self.interval.reflect(t)))

    def evaluate_all(self, ts: Sequence[float]) -> list[float]:
        """``[self(t) for t in ts]``, bit for bit: ``base`` at the nodes and
        then at their reflections, each in one batch of ``base``."""
        batch = evaluate_all_of(self.base)
        return [0.5 * (u + v) for u, v in zip(batch(ts), batch(self.interval.reflect_all(ts)))]

    @property
    def kinks(self) -> tuple[float, ...]:
        """The kinks of ``base``, then the reflections of those that lie
        inside the interval."""
        base = kinks_of(self.base)
        iv = self.interval
        return base + tuple(iv.reflect(k) for k in base if iv.a < k < iv.b)


def sym_transform(f: Callable[[float], float], interval: HInterval) -> TransformedFunction:
    """Symmetric part of ``f`` under the interval's reflection.

    Pins the midpoint (value f(2ab/(a+b)) there) and takes the value
    (f(a)+f(b))/2 at both endpoints.
    """
    return TransformedFunction(f, interval)

