"""Interval geometry on sign-definite intervals.

An :class:`HInterval` ``[a, b]`` has ``a < b`` and ``a*b > 0``, which keeps
the reflection denominator ``(a+b)t - ab`` bounded away from zero (it is at
least ``min(a^2, b^2)`` on the interval).  On top of that sit the harmonic
combination, the endpoint-swapping reflection, and the splitting of a
function into its reflection-symmetric and antisymmetric parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "HInterval",
    "TransformedFunction",
    "hcomb",
    "reflect",
    "harmonic_midpoint",
    "sym_transform",
    "antisym_transform",
]

_CLAMP_REL = 1e-12


@dataclass(frozen=True, slots=True)
class HInterval:
    a: float
    b: float
    # (a*b, a+b, clamp pad, harmonic midpoint), fixed at construction
    _geometry: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a!r}, {self.b!r}]")
        if not self.a * self.b > 0.0:
            raise ValueError("endpoints must be nonzero and share a sign")
        a, b = self.a, self.b
        object.__setattr__(
            self, "_geometry", (a * b, a + b, _CLAMP_REL * (b - a), 2.0 * a * b / (a + b))
        )

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def harmonic_midpoint(self) -> float:
        """2ab/(a+b), the unique fixed point of the reflection."""
        return self._geometry[3]

    def clamp(self, t: float) -> float:
        """Snap values within 1e-12 of the relative width onto the endpoints,
        so quadrature nodes at interval ends never spuriously fail."""
        pad = self._geometry[2]
        if abs(t - self.a) <= pad:
            return self.a
        if abs(t - self.b) <= pad:
            return self.b
        return t

    def reflect(self, t: float) -> float:
        """Map ``t`` to ``abt/((a+b)t - ab)``.

        An involution of the interval: swaps ``a`` and ``b`` (exactly, by
        special-casing) and fixes the harmonic midpoint.  ``t`` is clamped
        first; ``ab``, ``a+b`` and the midpoint are fixed at construction.
        """
        ab, s, _, midpoint = self._geometry
        t = self.clamp(t)
        if not self.a <= t <= self.b:
            raise ValueError(f"t={t!r} outside [{self.a!r}, {self.b!r}]")
        if t == self.a:
            return self.b
        if t == self.b:
            return self.a
        if t == midpoint:
            return t
        return ab * t / (s * t - ab)


def hcomb(x: float, y: float, alpha: float) -> float:
    """Harmonic combination ``xy/(alpha*x + (1-alpha)*y)``.

    ``alpha = 1`` gives ``y``: in convexity margins the weight ``alpha``
    multiplies the function value at ``y``.  The result always lies between
    min(x, y) and max(x, y).
    """
    if x == 0.0 or y == 0.0:
        raise ValueError("hcomb needs nonzero arguments")
    if (x > 0.0) != (y > 0.0):
        raise ValueError(f"hcomb arguments must share a sign, got {x!r}, {y!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"weight {alpha!r} outside [0, 1]")
    return x * y / (alpha * x + (1.0 - alpha) * y)


def reflect(interval: HInterval, t: float) -> float:
    return interval.reflect(t)


def harmonic_midpoint(interval: HInterval) -> float:
    return interval.harmonic_midpoint


@dataclass(frozen=True)
class TransformedFunction:
    """The reflection-symmetric or antisymmetric part of ``base``.

    symmetric:      t -> (base(t) + base(r(t))) / 2
    antisymmetric:  t -> (base(t) - base(r(t))) / 2

    The two parts add back to ``base`` pointwise; nothing is memoised, each
    call re-evaluates ``base`` twice.
    """

    base: Callable[[float], float]
    interval: HInterval
    kind: str  # "symmetric" | "antisymmetric"

    def __post_init__(self):
        if self.kind not in ("symmetric", "antisymmetric"):
            raise ValueError(f"unknown transform kind {self.kind!r}")

    def __call__(self, t: float) -> float:
        ft = self.base(t)
        fr = self.base(self.interval.reflect(t))
        if self.kind == "symmetric":
            return 0.5 * (ft + fr)
        return 0.5 * (ft - fr)


def sym_transform(f: Callable[[float], float], interval: HInterval) -> TransformedFunction:
    """Symmetric part of ``f`` under the interval's reflection.

    Pins the midpoint (value f(2ab/(a+b)) there) and takes the value
    (f(a)+f(b))/2 at both endpoints.
    """
    return TransformedFunction(f, interval, "symmetric")


def antisym_transform(f: Callable[[float], float], interval: HInterval) -> TransformedFunction:
    """Antisymmetric part of ``f``; vanishes at the harmonic midpoint."""
    return TransformedFunction(f, interval, "antisymmetric")
