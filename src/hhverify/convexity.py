"""Sample-based certification and refutation of convexity-class membership.

f is harmonic convex on [a, b] exactly when f(1/s) is convex in s: there a
harmonic combination is affine and the reflection is s -> 1/a + 1/b - s.
Every check tabulates f once on a lattice uniform in s = 1/t (s = t for
plain convexity), reads the margin of every weighted pair of coarse nodes
off that table, adds a seeded random spillover, and returns the worst
margin with a reproducible witness.  A "passed" verdict is always of the
"no sampled violation" kind; the sample count is part of the record.

A scan evaluates f and h through their batches (the function records of
:mod:`hhverify.hmean`): the lattice in one call, with
:func:`hhverify.hmean.batch_else_each`, and the random triples in chunks of
:data:`CHUNK`, one call for f and one for h per chunk.  A chunk is a few
flat lists, built by comprehension, and one pass over them takes its
margins in one comprehension, and its extremes, their first witnesses and
its largest |g| with ``max``, ``min`` and ``list.index``, with no Python
step per triple.  The values are bit for bit those of one evaluation at a
time, and the margins, witnesses and scale those of a loop over the
triples.  If either call of a chunk raises, the chunk is evaluated again
one triple (h, then g(c), g(y), g(x)) at a time, so a scan raises what
that order meets first.

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
from .hmean import HInterval, as_function

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
        for name, count in (("abscissa_count", self.abscissa_count), ("random_triples", self.random_triples)):
            # a float or a bool would fail inside the scan, or draw a rounded count
            if type(count) is not int:
                raise ValueError(f"{name} must be an int, got {count!r}")
        # a scan's work grows with the square of the count: 4096 takes seconds
        if not 1 <= self.abscissa_count <= 4096:
            raise ValueError(f"abscissa_count must be from 1 to 4096, got {self.abscissa_count!r}")
        if self.random_triples < 0:
            raise ValueError(f"random_triples must be at least 0, got {self.random_triples!r}")

    def random_triple_stream(self, lo: float, hi: float) -> list[tuple[float, float, float]]:
        """``random_triples`` triples (x, y, alpha), x != y uniform between
        lo and hi and alpha in [0, 1), drawn as ``Random(seed).uniform`` draws
        them, bit for bit: ``uniform(a, b)`` is ``a + (b - a) * random()``."""
        if lo == hi:  # every x would equal its y
            raise ValueError(f"need lo != hi to draw distinct points, got {lo!r} twice")
        draw, width = random.Random(self.seed).random, hi - lo
        out: list[tuple[float, float, float]] = []
        while len(out) < self.random_triples:
            x, y = lo + width * draw(), lo + width * draw()
            if x != y:
                out.append((x, y, draw()))
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


def _scan(ts: list[float], G: list[float], rows: list[tuple], chunks: Iterable[tuple], mirrored: bool):
    """One pass over the coarse node pairs of the table ``G`` on ``ts``, with
    (alpha, wy, wx) ``rows`` for the weights k/STEPS, and over the random
    ``chunks``.  A chunk is four flat lists over its n triples in order:
    ``points``, the t of the triples' points c, then of their y, then of
    their x; ``alphas``, the weight each triple reports; ``gs``, g at the
    points; and ``ws``, the triples' wy, then their wx.  With d = g(c) - [wy*g(y) + wx*g(x)], returns the largest d (the
    convex margin) and the smallest (minus the concave margin), each with the
    first triple (x, y, alpha) attaining it, the sample count, and the
    largest |g| sampled.

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
    nodes = M // STEPS + 1
    count = nodes * (nodes - 1) // 2 * len(rows)
    # max/min keep their first argument against a NaN: the scale is never NaN
    f_hi, f_lo = max(0.0, *G), min(-0.0, *G)
    for points, alphas, gs, ws in chunks:
        n = len(alphas)
        ds = [gc - (wy * gy + wx * gx) for gc, gy, gx, wy, wx in zip(gs[:n], gs[n : 2 * n], gs[2 * n :], ws[:n], ws[n:])]
        count += n
        # max/min return the first of equal extremes and skip every NaN after
        # their first argument, which is never NaN: as the pair loop's strict
        # comparisons do.  index finds that first extreme
        f_hi, f_lo = max(f_hi, *gs), min(f_lo, *gs)
        hi, lo = max(top, *ds), min(bottom, *ds)
        if hi > top:
            k = ds.index(hi)
            top, top_witness = hi, (points[2 * n + k], points[n + k], alphas[k])
        if lo < bottom:
            k = ds.index(lo)
            bottom, bottom_witness = lo, (points[2 * n + k], points[n + k], alphas[k])
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

    def weights(al):
        return (al, 1.0 - al) if h is None else (h(al), h(1.0 - al))

    def t(s):
        return 1.0 / s if reciprocal else s

    def t_all(ss):
        return [1.0 / s for s in ss] if reciprocal else ss

    def g(s):  # the reflection is s -> s0 + s1 - s
        return 0.5 * (f(t(s)) + f(t(s0 + s1 - s))) if symmetrized else f(t(s))

    s0, s1 = (1.0 / lo, 1.0 / hi) if reciprocal else (lo, hi)
    if not (lo < hi and math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"need lo < hi with finite {'1/lo, 1/hi' if reciprocal else 'lo, hi'}, got [{lo!r}, {hi!r}]")
    if s0 == s1:  # a reciprocal scan of an interval a few ulps wide
        raise ValueError(f"1/lo and 1/hi are the same float on [{lo!r}, {hi!r}]: there is nothing to scan")
    M = STEPS * grid.abscissa_count
    # this s_m puts lattices whose sizes differ by a power of two on common points
    # bit for bit; the ends are set, as s_M rounds to 0 when 1/hi << 1/lo
    ts = [lo, *t_all([s0 + (s1 - s0) * m / M for m in range(1, M)]), hi]
    ts[M // 2] = centre
    fn = as_function(f)
    G = fn.values_at(ts)
    f_scale = max(0.0, *map(abs, G))  # max keeps 0.0 against a NaN
    if symmetrized:
        G = [0.5 * (u + v) for u, v in zip(G, reversed(G))]
    h_all = None if h is None else as_function(h).batch_values

    def chunks():
        """Each chunk of CHUNK random triples as :func:`_scan` takes it: f at
        its points c, y and x in one call, with their reflections when
        symmetrized, and h in one call.  If either call raises, the chunk is
        evaluated again one triple (h, then g(c), g(y), g(x)) at a time."""
        triples, mirror = grid.random_triple_stream(s0, s1), s0 + s1
        for start in range(0, len(triples), CHUNK):
            chunk = triples[start : start + CHUNK]
            xs, ys, als = zip(*chunk)
            ss = [*[sx + al * (sy - sx) for sx, sy, al in chunk], *ys, *xs]
            points, rest = t_all(ss), [1.0 - al for al in als]
            try:
                if symmetrized:
                    gs = fn.batch_values(points + t_all([mirror - s for s in ss]))
                    gs = [0.5 * (u + v) for u, v in zip(gs, gs[len(ss) :])]
                else:
                    gs = fn.batch_values(points)
                ws = [*als, *rest] if h_all is None else h_all([*als, *rest])
            except Exception:  # a batch may meet another triple's error first
                samples = [(*weights(al), g(sx + al * (sy - sx)), g(sy), g(sx)) for sx, sy, al in chunk]
                wys, wxs, gcs, gys, gxs = zip(*samples)
                ws, gs = [*wys, *wxs], [*gcs, *gys, *gxs]
            yield points, als if reciprocal else rest, gs, ws

    rows = [(k / STEPS if reciprocal else 1.0 - k / STEPS, *weights(k / STEPS)) for k in range(1, STEPS)]
    top, top_witness, bottom, bottom_witness, count, scale = _scan(ts, G, rows, chunks(), symmetrized)
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
