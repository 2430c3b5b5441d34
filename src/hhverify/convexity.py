"""Sample-based certification and refutation of convexity-class membership.

Every check sweeps a deterministic grid of (x, y, weight) triples plus a
seeded random spillover, records the worst margin of the defining
inequality, and returns a verdict with a reproducible witness.  A "passed"
verdict is always of the "no sampled violation" kind; the sample count is
part of the record so reports never overclaim.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .fnspec import FunctionSpec, parse
from .hmean import HInterval, hcomb, sym_transform

__all__ = [
    "SampleGrid",
    "ConvexityVerdict",
    "StrictInclusionWitness",
    "DEFAULT_GRID",
    "check_convex",
    "check_harmonic_convex",
    "check_harmonic_h_convex",
    "check_symmetrized",
    "find_strict_inclusion_witness",
    "second_derivative",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class SampleGrid:
    """Deterministic abscissa/weight grid plus a seeded random spillover.

    The deterministic core is Chebyshev-spaced abscissae together with both
    endpoints and any caller-supplied special points; weights are k/16.  The
    random triples catch asymmetric violations the structured grid misses.
    """

    abscissa_count: int = 64
    weight_denominator: int = 16
    random_triples: int = 512
    seed: int = 0

    def weights(self) -> tuple[float, ...]:
        d = self.weight_denominator
        return tuple(k / d for k in range(1, d))

    def abscissae(self, lo: float, hi: float, extras: Iterable[float] = ()) -> tuple[float, ...]:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = {lo, hi}
        pts.update(extras)
        n = self.abscissa_count
        for k in range(n):
            pts.add(mid + half * math.cos(math.pi * (2 * k + 1) / (2 * n)))
        return tuple(sorted(pts))

    def random_triple_stream(self, lo: float, hi: float) -> list[tuple[float, float, float]]:
        rng = random.Random(self.seed)
        out: list[tuple[float, float, float]] = []
        while len(out) < self.random_triples:
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            if x == y:
                continue
            out.append((x, y, rng.uniform(0.0, 1.0)))
        return out


DEFAULT_GRID = SampleGrid()


@dataclass(frozen=True, slots=True)
class ConvexityVerdict:
    """Outcome of one class check; ``opposite`` is the other direction's
    verdict from the same scan, and is left out of :meth:`to_dict`."""

    class_tested: str
    passed: bool
    worst_margin: float
    witness: Optional[tuple[float, float, float]]  # (x, y, alpha) attaining worst_margin
    samples_used: int
    tol: float
    opposite: Optional["ConvexityVerdict"] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = {"x": self.witness[0], "y": self.witness[1], "alpha": self.witness[2]}
        return {
            "class_tested": self.class_tested,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "witness": wit,
            "samples_used": self.samples_used,
            "tol": self.tol,
        }


def _scan(
    f: Callable[[float], float],
    combine: Callable[[float, float, float], float],
    pair_fn: Callable[[float], tuple[float, float]],
    weights: tuple[float, ...],
    xs: tuple[float, ...],
    randoms: list[tuple[float, float, float]],
):
    """One streaming pass over the grid pairs and the random triples.

    With  d = f(combine(x,y,a)) - [wy*f(y) + wx*f(x)],  returns the largest d
    (the convex margin) with the first triple attaining it, the smallest d
    (minus the concave margin) with its first triple, the sample count, and
    max(1, largest |f| evaluated), the scale of the tolerance.
    """
    fx = [f(x) for x in xs]
    rows = [(al, *pair_fn(al)) for al in weights]
    top, bottom = -math.inf, math.inf
    top_witness = bottom_witness = (xs[0], xs[-1], 0.5)
    # max/min keep their first argument against a NaN: the scale is never NaN
    f_hi, f_lo = max(1.0, *fx), min(-1.0, *fx)
    n = len(xs)
    for i in range(n):
        xi, fxi = xs[i], fx[i]
        for j in range(i + 1, n):
            yj, fyj = xs[j], fx[j]
            for al, wy, wx in rows:
                fc = f(combine(xi, yj, al))
                d = fc - (wy * fyj + wx * fxi)
                if fc > f_hi:
                    f_hi = fc
                elif fc < f_lo:
                    f_lo = fc
                if d > top:
                    top, top_witness = d, (xi, yj, al)
                if d < bottom:
                    bottom, bottom_witness = d, (xi, yj, al)
    for x, y, al in randoms:
        wy, wx = pair_fn(al)
        fc, fy, fxr = f(combine(x, y, al)), f(y), f(x)
        d = fc - (wy * fy + wx * fxr)
        f_hi, f_lo = max(f_hi, fc, fy, fxr), min(f_lo, fc, fy, fxr)
        if d > top:
            top, top_witness = d, (x, y, al)
        if d < bottom:
            bottom, bottom_witness = d, (x, y, al)
    count = n * (n - 1) // 2 * len(rows) + len(randoms)
    return top, top_witness, bottom, bottom_witness, count, max(f_hi, -f_lo)


def _check(f, combine, pair_fn, lo, hi, extra, grid, tol, names, direction) -> ConvexityVerdict:
    """Scan ``f`` on [lo, hi] once; the verdict for ``direction`` carries the
    other as ``opposite``.  A margin passes up to ``tol`` times the scan's
    scale, so that verdicts do not depend on the units of ``f``."""
    if direction not in ("convex", "concave"):
        raise ValueError(f"direction must be 'convex' or 'concave', not {direction!r}")
    grid = grid or DEFAULT_GRID
    xs = grid.abscissae(lo, hi, extras=(extra,))
    top, top_witness, bottom, bottom_witness, count, scale = _scan(
        f, combine, pair_fn, grid.weights(), xs, grid.random_triple_stream(lo, hi)
    )
    bound = tol * scale
    convex = (names[0], top <= bound, top, top_witness, count, tol)
    concave = (names[1], -bottom <= bound, -bottom, bottom_witness, count, tol)
    if direction == "concave":
        convex, concave = concave, convex
    return ConvexityVerdict(*convex, opposite=ConvexityVerdict(*concave))


def _check_harmonic(f, interval, h, grid, tol, kind, direction) -> ConvexityVerdict:
    """:func:`_check` on the interval with harmonic combinations, weighted
    (a, 1-a), or (h(a), h(1-a)) when ``h`` is given."""
    pair_fn = (lambda al: (al, 1.0 - al)) if h is None else (lambda al: (h(al), h(1.0 - al)))
    return _check(
        f, hcomb, pair_fn, interval.a, interval.b, interval.harmonic_midpoint,
        grid, tol, (f"{kind}_convex", f"{kind}_concave"), direction,
    )


def check_harmonic_convex(
    f: Callable[[float], float],
    interval: HInterval,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
    direction: str = "convex",
) -> ConvexityVerdict:
    """Margin sweep of  f(xy/(ax + (1-a)y)) <= a f(y) + (1-a) f(x).

    The concave verdict comes from the same scan with the margin negated.
    """
    return _check_harmonic(f, interval, None, grid, tol, "harmonic", direction)


def check_harmonic_h_convex(
    f: Callable[[float], float],
    h: Callable[[float], float],
    interval: HInterval,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
    direction: str = "convex",
) -> ConvexityVerdict:
    """As :func:`check_harmonic_convex` with weights (h(a), h(1-a))."""
    return _check_harmonic(f, interval, h, grid, tol, "harmonic_h", direction)


def check_convex(
    F: Callable[[float], float],
    lo: float,
    hi: float,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
    direction: str = "convex",
) -> ConvexityVerdict:
    """Plain secant-above-graph margin sweep of F on [lo, hi]."""

    def combine(x: float, y: float, al: float) -> float:
        return al * x + (1.0 - al) * y

    # plain convexity pairs the weight alpha with F(x)
    return _check(
        F, combine, lambda al: (1.0 - al, al), lo, hi, 0.5 * (lo + hi),
        grid, tol, ("convex", "concave"), direction,
    )


def check_symmetrized(
    f: Callable[[float], float],
    interval: HInterval,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
    h: Optional[Callable[[float], float]] = None,
    direction: str = "convex",
) -> ConvexityVerdict:
    """Check the symmetric part of ``f`` for (h-)convexity on the interval."""
    kind = "symmetrized_harmonic" if h is None else "symmetrized_harmonic_h"
    return _check_harmonic(sym_transform(f, interval), interval, h, grid, tol, kind, direction)


def margin_harmonic(
    f: Callable[[float], float], x: float, y: float, alpha: float
) -> float:
    """Single-triple margin f(hcomb) - [alpha f(y) + (1-alpha) f(x)];
    used to re-verify witnesses independently of any grid."""
    return f(hcomb(x, y, alpha)) - (alpha * f(y) + (1.0 - alpha) * f(x))


def second_derivative(
    F: Callable[[float], float], x: float, step: Optional[float] = None, levels: int = 3
) -> float:
    """Central second difference with Richardson extrapolation.

    ``levels`` halvings give an O(step^(2*levels)) truncation error; the
    default step balances truncation against double-precision rounding.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    h = step if step is not None else 0.05 * max(1.0, abs(x))
    fx2 = 2.0 * F(x)
    d = []
    for k in range(levels):
        hk = h / (2.0 ** k)
        d.append((F(x + hk) - fx2 + F(x - hk)) / (hk * hk))
    for m in range(1, levels):
        fac = 4.0 ** m
        d = [(fac * d[i + 1] - d[i]) / (fac - 1.0) for i in range(len(d) - 1)]
    return d[0]


@dataclass(frozen=True)
class StrictInclusionWitness:
    """A function that fails the harmonic-convexity check while its symmetric
    part passes it with an (up to rounding) zero margin."""

    coefficient: float
    spec: FunctionSpec
    base_verdict: ConvexityVerdict
    symmetrized_verdict: ConvexityVerdict

    def to_dict(self) -> dict:
        return {
            "coefficient": self.coefficient,
            "source": self.spec.source,
            "harmonic_convexity": self.base_verdict.to_dict(),
            "symmetrized": self.symmetrized_verdict.to_dict(),
        }


def inclusion_family_source(interval: HInterval, c: float) -> str:
    """Source text of 1/t + c*(t - r(t)) with the reflection inlined."""
    ab = interval.a * interval.b
    s = interval.a + interval.b
    return f"1/x + {c!r}*(x - {ab!r}*x/({s!r}*x - {ab!r}))"


_DEFAULT_LADDER = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


def find_strict_inclusion_witness(
    interval: HInterval,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    min_margin: float = 1e-3,
    ladder: tuple[float, ...] = _DEFAULT_LADDER,
    grid: Optional[SampleGrid] = None,
) -> Optional[StrictInclusionWitness]:
    """Search the family f_c(t) = 1/t + c*(t - r(t)) for a separation witness.

    t - r(t) is reflection-antisymmetric and 1/t symmetrises to the constant
    (a+b)/(2ab), so the symmetric part of every f_c is that same constant and
    passes the symmetrized check with margin at the rounding floor.  The
    smallest ladder coefficient whose f_c fails the plain harmonic-convexity
    check with margin above ``min_margin`` wins; returns None if none does.
    """
    grid = grid or SampleGrid(seed=seed)
    for c in sorted(ladder):
        spec = parse(inclusion_family_source(interval, c))
        base = check_harmonic_convex(spec, interval, grid=grid, tol=tol)
        if base.passed or base.worst_margin <= min_margin:
            continue
        symmetrized = check_symmetrized(spec, interval, grid=grid, tol=tol)
        if symmetrized.passed:
            return StrictInclusionWitness(c, spec, base, symmetrized)
    return None
