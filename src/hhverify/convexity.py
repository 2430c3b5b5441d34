"""Sample-based certification and refutation of convexity-class membership.

f is harmonic convex on [a, b] exactly when f(1/s) is convex in s: there a
harmonic combination is affine and the reflection is s -> 1/a + 1/b - s.
Every check tabulates f once on a lattice uniform in s = 1/t (s = t for
plain convexity), reads the margin of every weighted pair of coarse nodes
off that table, adds a seeded random spillover, and returns the worst
margin with a reproducible witness.  A "passed" verdict is always of the
"no sampled violation" kind; the sample count is part of the record.

A scan evaluates f through its batch (the batch protocol of
:mod:`hhverify.hmean`): the lattice in one call, and the random triples in
chunks of :data:`CHUNK`, one call for f and one for h per chunk.  The
values are bit for bit those of one evaluation at a time.  If a batch
raises, the lattice, or the chunk, is evaluated again one point (one
triple: h, then g(c), g(y), g(x)) at a time, so a scan raises what that
order meets first.

:func:`check_class` is the one map from a class kind to its checker; the
command line and :func:`find_strict_inclusion_witness` scan through it, and
so does the test suite's corpus gate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .fnspec import FunctionSpec, parse
from .hmean import HInterval, evaluate_all_of

__all__ = [
    "SampleGrid",
    "ConvexityVerdict",
    "StrictInclusionWitness",
    "DEFAULT_GRID",
    "check_class",
    "check_convex",
    "check_harmonic_convex",
    "check_harmonic_h_convex",
    "check_symmetrized",
    "find_strict_inclusion_witness",
]

DEFAULT_TOL = 1e-9
# the plain harmonic-convexity margin a strict-inclusion witness must fail by
DEFAULT_MIN_MARGIN = 1e-3
# fine lattice steps per coarse interval, and the denominator of the weights
STEPS = 16
# random triples evaluated per batch call: one call per chunk, not per scan,
# keeps the scan's memory bounded
CHUNK = 64


@dataclass(frozen=True, slots=True)
class SampleGrid:
    """A lattice of ``abscissa_count`` coarse intervals of STEPS fine steps
    each, uniform in the check's coordinate s with the ends and the centre
    exact, whose coarse nodes are paired with weights k/STEPS; plus seeded
    random triples, uniform in s, that catch violations off the lattice."""

    abscissa_count: int = 64
    random_triples: int = 512
    seed: int = 0

    def __post_init__(self):
        # a scan's work grows with the square of the count: 4096 takes seconds
        if not 1 <= self.abscissa_count <= 4096:
            raise ValueError(f"abscissa_count must be from 1 to 4096, got {self.abscissa_count!r}")
        if self.random_triples < 0:
            raise ValueError(f"random_triples must be at least 0, got {self.random_triples!r}")

    def random_triple_stream(self, lo: float, hi: float) -> list[tuple[float, float, float]]:
        rng = random.Random(self.seed)
        out: list[tuple[float, float, float]] = []
        while len(out) < self.random_triples:
            x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
            if x != y:
                out.append((x, y, rng.uniform(0.0, 1.0)))
        return out


DEFAULT_GRID = SampleGrid()


@dataclass(frozen=True, slots=True)
class ConvexityVerdict:
    """Outcome of one class check.  A check returns the convex verdict, which
    carries the concave one from the same scan as ``opposite``; the concave
    verdict's ``opposite`` is None.  ``opposite`` is left out of
    :meth:`to_dict`."""

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


def _scan(ts: list[float], G: list[float], rows: list[tuple], randoms: Iterable[tuple], mirrored: bool):
    """One pass over the coarse node pairs of the table ``G`` on ``ts``, with
    (alpha, wy, wx) ``rows`` for the weights k/STEPS, and over the
    ``randoms`` (x, y, row, g(c), g(y), g(x)).  With d = g(c) - [wy*g(y) +
    wx*g(x)], returns the largest d (the convex margin) and the smallest
    (minus the concave margin), each with the first triple attaining it, the
    sample count, and the largest |g| sampled.

    A ``mirrored`` table has G[m] == G[M - m] bit for bit, and rows always
    have row(STEPS - k) == (., wx_k, wy_k); then pair (i, j) with weight k
    and pair (M - j, M - i) with weight STEPS - k have the same margin bit
    for bit, so only the pairs with i + j <= M are visited.  The mirror of a
    skipped pair comes earlier in scan order, so the witnesses are the
    first ones of the full loop, and skipped pairs still count as samples."""
    M = len(G) - 1
    top, bottom = -math.inf, math.inf
    top_witness = bottom_witness = (ts[0], ts[-1], 0.5)
    for i in range(0, M, STEPS):
        gx = G[i]
        for j in range(i + STEPS, (M - i if mirrored else M) + 1, STEPS):
            gy, step = G[j], (j - i) // STEPS
            # the combination of nodes i and j with weight k/STEPS is point i + k*step
            for gc, (al, wy, wx) in zip(G[i + step : j : step], rows):
                d = gc - (wy * gy + wx * gx)
                if d > top:
                    top, top_witness = d, (ts[i], ts[j], al)
                if d < bottom:
                    bottom, bottom_witness = d, (ts[i], ts[j], al)
    n = M // STEPS + 1
    count = n * (n - 1) // 2 * len(rows)
    # max/min keep their first argument against a NaN: the scale is never NaN
    f_hi, f_lo = max(0.0, *G), min(-0.0, *G)
    for x, y, (al, wy, wx), gc, gy, gx in randoms:
        d = gc - (wy * gy + wx * gx)
        f_hi, f_lo = max(f_hi, gc, gy, gx), min(f_lo, gc, gy, gx)
        count += 1
        if d > top:
            top, top_witness = d, (x, y, al)
        if d < bottom:
            bottom, bottom_witness = d, (x, y, al)
    return top, top_witness, bottom, bottom_witness, count, max(f_hi, -f_lo)


def _check(f, lo, hi, reciprocal, h, symmetrized, grid, tol) -> ConvexityVerdict:
    """Scan ``f``, or its symmetric part, once on the lattice of [lo, hi]; the
    convex verdict carries the concave one as ``opposite``.  Nodes s_x,
    s_y with weight a combine to (1-a)s_x + a s_y, weighted (a, 1-a) or
    (h(a), h(1-a)); plain convexity (not ``reciprocal``) reports the weight
    as 1-a.  The lattice is centred on the harmonic midpoint 2ab/(a+b), or on
    (a+b)/2 for plain convexity.  The symmetric part's table is its own
    mirror image, so its scan visits only half the pairs.  A margin passes
    up to ``tol`` times the largest |f| the scan evaluated, with no floor,
    so that verdicts do not depend on units; for the symmetric part that is
    the larger of its own largest sampled value and the largest |f| on the
    lattice, as the rounding of (f(t) + f(r(t)))/2 is relative to |f|."""
    grid = grid or DEFAULT_GRID
    if reciprocal:
        kind = ("symmetrized_" if symmetrized else "") + ("harmonic_" if h is None else "harmonic_h_")
        centre = HInterval(lo, hi).harmonic_midpoint
    else:
        kind, centre = "", 0.5 * (lo + hi)

    def row(al):
        wy, wx = (al, 1.0 - al) if h is None else (h(al), h(1.0 - al))
        return (al if reciprocal else 1.0 - al, wy, wx)

    def t(s):
        return 1.0 / s if reciprocal else s

    def g(s):  # the reflection is s -> s0 + s1 - s
        return 0.5 * (f(t(s)) + f(t(s0 + s1 - s))) if symmetrized else f(t(s))

    s0, s1 = (1.0 / lo, 1.0 / hi) if reciprocal else (lo, hi)
    if not (lo < hi and math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"need lo < hi with finite {'1/lo, 1/hi' if reciprocal else 'lo, hi'}, got [{lo!r}, {hi!r}]")
    M = STEPS * grid.abscissa_count
    # this s_m puts lattices whose sizes differ by a power of two on common points
    # bit for bit; the ends are set, as s_M rounds to 0 when 1/hi << 1/lo
    ts = [lo, *(t(s0 + (s1 - s0) * m / M) for m in range(1, M)), hi]
    ts[M // 2] = centre
    f_all = evaluate_all_of(f)
    try:
        G = f_all(ts)
    except Exception:  # a batch may raise another point's error first
        G = [f(x) for x in ts]
    f_scale = max(0.0, *map(abs, G))  # max keeps 0.0 against a NaN
    if symmetrized:
        G = [0.5 * (u + v) for u, v in zip(G, reversed(G))]
    h_all = (lambda als: als) if h is None else evaluate_all_of(h)

    def samples(chunk):
        """The random samples of ``chunk``: f at its points c, y and x in one
        call, with their reflections when symmetrized, and h in one call."""
        ss = [s for sx, sy, al in chunk for s in (sx + al * (sy - sx), sy, sx)]
        xs = [t(s) for s in ss]
        gs = f_all(xs + [t(s0 + s1 - s) for s in ss] if symmetrized else xs)
        if symmetrized:
            gs = [0.5 * (u + v) for u, v in zip(gs, gs[len(ss):])]
        hs = h_all([v for _, _, al in chunk for v in (al, 1.0 - al)])
        return [
            (xs[i + 2], xs[i + 1], (al if reciprocal else 1.0 - al, hs[k], hs[k + 1]), gs[i], gs[i + 1], gs[i + 2])
            for (_, _, al), i, k in zip(chunk, range(0, len(ss), 3), range(0, len(hs), 2))
        ]

    def randoms():
        triples = grid.random_triple_stream(s0, s1)
        for start in range(0, len(triples), CHUNK):
            chunk = triples[start : start + CHUNK]
            try:
                batch = samples(chunk)
            except Exception:  # again one triple at a time, h before g(c), g(y), g(x)
                batch = [(t(sx), t(sy), row(al), g(sx + al * (sy - sx)), g(sy), g(sx)) for sx, sy, al in chunk]
            yield from batch

    rows = [row(k / STEPS) for k in range(1, STEPS)]
    top, top_witness, bottom, bottom_witness, count, scale = _scan(ts, G, rows, randoms(), symmetrized)
    bound = tol * max(scale, f_scale)
    concave = ConvexityVerdict(f"{kind}concave", -bottom <= bound, -bottom, bottom_witness, count, tol)
    return ConvexityVerdict(f"{kind}convex", top <= bound, top, top_witness, count, tol, opposite=concave)


def check_harmonic_convex(
    f: Callable[[float], float],
    interval: HInterval,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
) -> ConvexityVerdict:
    """Margin sweep of  f(xy/(ax + (1-a)y)) <= a f(y) + (1-a) f(x).

    The concave verdict, its ``opposite``, comes from the same scan with the
    margin negated.
    """
    return _check(f, interval.a, interval.b, True, None, False, grid, tol)


def check_harmonic_h_convex(
    f: Callable[[float], float],
    h: Callable[[float], float],
    interval: HInterval,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
) -> ConvexityVerdict:
    """As :func:`check_harmonic_convex` with weights (h(a), h(1-a))."""
    return _check(f, interval.a, interval.b, True, h, False, grid, tol)


def check_convex(
    F: Callable[[float], float],
    lo: float,
    hi: float,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
) -> ConvexityVerdict:
    """Plain margin sweep of  F(ax + (1-a)y) <= a F(x) + (1-a) F(y)  on
    [lo, hi], which must be finite with lo < hi."""
    return _check(F, lo, hi, False, None, False, grid, tol)


def check_symmetrized(
    f: Callable[[float], float],
    interval: HInterval,
    grid: Optional[SampleGrid] = None,
    tol: float = DEFAULT_TOL,
    h: Optional[Callable[[float], float]] = None,
) -> ConvexityVerdict:
    """Check the symmetric part of ``f`` for (h-)convexity on the interval."""
    return _check(f, interval.a, interval.b, True, h, True, grid, tol)


_KINDS = ("convex", "harmonic", "harmonic_h", "symmetrized", "symmetrized_h")


def check_class(
    kind: str, f: Callable[[float], float], lo: float, hi: float, h: Optional[Callable[[float], float]] = None,
    grid: Optional[SampleGrid] = None, tol: float = DEFAULT_TOL,
) -> ConvexityVerdict:
    """One class scan of ``f`` on [lo, hi] by kind: ``"convex"`` (plain
    convexity, on any finite lo < hi), ``"harmonic"``, ``"harmonic_h"``,
    ``"symmetrized"`` or ``"symmetrized_h"``; the ``_h`` kinds need the
    weight ``h`` and the others take none.  The checker is called by its
    module-level name, so a wrapper put over it sees the scan."""
    if kind not in _KINDS:
        raise ValueError(f"unknown class kind {kind!r}; one of {_KINDS}")
    if (h is None) == kind.endswith("_h"):
        raise ValueError(f"class kind {kind!r} {'needs' if h is None else 'takes no'} h")
    if kind == "convex":
        return check_convex(f, lo, hi, grid=grid, tol=tol)
    interval = HInterval(lo, hi)
    if kind == "harmonic":
        return check_harmonic_convex(f, interval, grid=grid, tol=tol)
    if kind == "harmonic_h":
        return check_harmonic_h_convex(f, h, interval, grid=grid, tol=tol)
    return check_symmetrized(f, interval, grid=grid, tol=tol, h=h)


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
    tol: float = DEFAULT_TOL,
    min_margin: float = DEFAULT_MIN_MARGIN,
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
    for c in sorted(ladder):
        spec = parse(inclusion_family_source(interval, c))
        base = check_class("harmonic", spec, interval.a, interval.b, grid=grid, tol=tol)
        if base.passed or base.worst_margin <= min_margin:
            continue
        symmetrized = check_class("symmetrized", spec, interval.a, interval.b, grid=grid, tol=tol)
        if symmetrized.passed:
            return StrictInclusionWitness(c, spec, base, symmetrized)
    return None
