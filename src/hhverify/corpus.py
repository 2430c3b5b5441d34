"""Curated test functions with known class memberships and closed forms.

The built-in declarations are constants of the source, proved by the
convexity checkers in ``tests/test_corpus.py``, so building the corpus runs
no scan.

Also hosts the seeded generator of harmonic convex functions built as
G(1/t) for a convex piecewise-linear G, which are harmonic convex by
construction and drive the randomized validity sweeps.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .convexity import inclusion_family_source
from .fnspec import FunctionSpec, parse
from .hmean import HInterval
from .ineq import IDENTITY_H, HFunction
from .quad import GK15, _gk15

__all__ = [
    "CorpusEntry",
    "PiecewiseConvexReciprocal",
    "builtin_functions",
    "builtin_h",
    "random_harmonic_convex",
]

CLASS_TAGS = (
    "convex",
    "concave",
    "harmonic_convex",
    "harmonic_concave",
    "symmetrized_harmonic_convex",
    "symmetrized_harmonic_concave",
)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: FunctionSpec
    interval: HInterval
    classes: Mapping[str, bool]
    closed_forms: Mapping[str, float]
    notes: str = ""


def _entry(name, source, a, b, classes, closed_forms=None, notes=""):
    return CorpusEntry(
        name=name,
        spec=parse(source),
        interval=HInterval(a, b),
        classes=classes,
        closed_forms=closed_forms or {},
        notes=notes,
    )


_LN2 = math.log(2.0)


def _build_entries() -> tuple[CorpusEntry, ...]:
    # closed_forms["weighted_integral"] is the raw int_a^b f(t)/t^2 dt.
    entries = [
        _entry(
            "const_one",
            "1",
            1.0,
            2.0,
            {tag: True for tag in CLASS_TAGS},
            {"weighted_integral": 0.5},
        ),
        _entry(
            "const_three",
            "3",
            1.0,
            2.0,
            {tag: True for tag in CLASS_TAGS},
            {"weighted_integral": 1.5},
        ),
        _entry(
            "reciprocal",
            "1/x",
            1.0,
            2.0,
            {
                "convex": True,
                "concave": False,
                "harmonic_convex": True,
                "harmonic_concave": True,
                "symmetrized_harmonic_convex": True,
                "symmetrized_harmonic_concave": True,
            },
            {"weighted_integral": 0.375},
            notes="harmonic-affine: equality case of every chain",
        ),
        _entry(
            "linear",
            "x",
            1.0,
            2.0,
            {
                "convex": True,
                "concave": True,
                "harmonic_convex": True,
                "harmonic_concave": False,
                "symmetrized_harmonic_convex": True,
                "symmetrized_harmonic_concave": False,
            },
            {"weighted_integral": _LN2},
        ),
        _entry(
            "square",
            "x^2",
            1.0,
            2.0,
            {
                "convex": True,
                "concave": False,
                "harmonic_convex": True,
                "harmonic_concave": False,
                "symmetrized_harmonic_convex": True,
                "symmetrized_harmonic_concave": False,
            },
            {"weighted_integral": 1.0},
        ),
        _entry(
            "neg_log",
            "-ln(x)",
            1.0,
            2.0,
            {
                "convex": True,
                "concave": False,
                "harmonic_convex": False,
                "harmonic_concave": True,
                "symmetrized_harmonic_convex": False,
                "symmetrized_harmonic_concave": True,
            },
            {"weighted_integral": 0.5 * (_LN2 - 1.0)},
            notes=(
                "plainly convex but harmonic concave; its symmetric part is "
                "harmonic concave as well (second derivative of sym(f)(1/x) "
                "is strictly negative), so it separates plain convexity from "
                "the harmonic classes"
            ),
        ),
        _entry(
            "exponential",
            "exp(x)",
            1.0,
            2.0,
            {
                "convex": True,
                "concave": False,
                "harmonic_convex": True,
                "harmonic_concave": False,
                "symmetrized_harmonic_convex": True,
                "symmetrized_harmonic_concave": False,
            },
        ),
        _entry(
            "neg_reciprocal_interval",
            "1/x",
            -2.0,
            -1.0,
            {
                "convex": False,
                "concave": True,
                "harmonic_convex": True,
                "harmonic_concave": True,
                "symmetrized_harmonic_convex": True,
                "symmetrized_harmonic_concave": True,
            },
            {"weighted_integral": -0.375},
            notes="harmonic-affine on a negative interval",
        ),
    ]
    # 1/t plus a reflection-antisymmetric bump: the antisymmetric part drops
    # out under symmetrisation, so sym(f_c) is the constant (a+b)/(2ab) for
    # every c while f_c itself leaves the harmonic classes as c grows.
    incl_classes = {
        0.0: {
            "convex": True,
            "concave": False,
            "harmonic_convex": True,
            "harmonic_concave": True,
            "symmetrized_harmonic_convex": True,
            "symmetrized_harmonic_concave": True,
        },
        1.0: {
            "convex": False,
            "concave": True,
            "harmonic_convex": False,
            "harmonic_concave": False,
            "symmetrized_harmonic_convex": True,
            "symmetrized_harmonic_concave": True,
        },
        10.0: {
            "convex": False,
            "concave": True,
            "harmonic_convex": False,
            "harmonic_concave": False,
            "symmetrized_harmonic_convex": True,
            "symmetrized_harmonic_concave": True,
        },
    }
    for c, classes in incl_classes.items():
        entries.append(
            _entry(
                f"sym_affine_c{c:g}",
                inclusion_family_source(HInterval(1.0, 2.0), c),
                1.0,
                2.0,
                classes,
                # the antisymmetric bump integrates to zero against dt/t^2
                {"weighted_integral": 0.375},
                notes="strict-inclusion family member",
            )
        )
    return tuple(entries)


@lru_cache(maxsize=1)
def builtin_functions() -> tuple[CorpusEntry, ...]:
    """The built-in corpus, built once per process without any class scan:
    its declared memberships are proved by the checkers in the test suite."""
    return _build_entries()


@lru_cache(maxsize=1)
def builtin_h() -> tuple[HFunction, ...]:
    """Standard weight-function family: t, t^2, sqrt(t) and the constant 1."""
    return (
        IDENTITY_H,
        HFunction.from_source("x^2", name="t^2"),
        HFunction.from_source("x^0.5", name="sqrt(t)"),
        HFunction.from_source("1", name="1"),
    )


# --- seeded random harmonic convex functions ---------------------------------


@dataclass(frozen=True)
class PiecewiseConvexReciprocal:
    """f(t) = G(1/t) with G convex piecewise linear (nondecreasing slopes).

    Harmonic convexity is exact by construction: the harmonic combination
    xy/(alpha*x + (1-alpha)*y) has the reciprocal alpha/y + (1-alpha)/x, the
    matching affine combination of 1/x and 1/y, so the defining inequality
    for f is the ordinary convexity of G at that combination.  Outside the
    knot span G continues with the nearest segment's slope, which preserves
    convexity.

    :meth:`weighted_gk15` is the hand-written Gauss-Kronrod rule of
    ``t -> f(t)/t^2``, which :func:`hhverify.quad.weighted_integral` applies
    through the rule protocol of :mod:`hhverify.quad`; an integrand that
    wraps the instance takes the generic rule, with the same result.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]
    name: str = "piecewise_reciprocal"

    @property
    def kinks(self) -> tuple[float, ...]:
        """1/knot for the interior knots, where G changes slope (see the kink
        protocol in :mod:`hhverify.hmean`); a knot at 0 is no kink in t."""
        return tuple(1.0 / u for u in self.knots[1:-1] if u != 0.0)

    def g(self, u: float) -> float:
        i = min(max(bisect_right(self.knots, u) - 1, 0), len(self.slopes) - 1)
        return self.values[i] + self.slopes[i] * (u - self.knots[i])

    def __call__(self, t: float) -> float:
        return self.g(1.0 / t)

    def weighted_gk15(self, lo: float, hi: float) -> tuple[float, float]:
        """The Gauss-Kronrod rule of ``t -> f(t)/t^2`` on one segment (the
        rule protocol of :mod:`hhverify.quad`), in one frame.

        It returns what the generic rule ``quad._gk15`` returns on that
        integrand, bit for bit, and raises what it raises.  On a segment
        with ``lo < hi`` and no zero inside, the nodes rise from first to
        last, so 1/t and the index of its piece of G fall: the first node's
        piece is found by bisection, and each later node steps down from the
        previous one's piece, no further than the last node's.  Any other
        segment (reversed, or not of one sign) takes the generic rule.
        """
        knots, values, slopes = self.knots, self.values, self.slopes
        last = len(slopes) - 1
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        k = 0.0
        g = 0.0
        first = c + h * GK15[0][0]
        end = c + h * GK15[-1][0]
        if h > 0.0 and (first > 0.0 or end < 0.0):
            i = min(max(bisect_right(knots, 1.0 / first) - 1, 0), last)
            j = min(max(bisect_right(knots, 1.0 / end) - 1, 0), last)
            for x, wk, wg in GK15:
                t = c + h * x
                u = 1.0 / t
                while i > j and u < knots[i]:
                    i -= 1
                fv = (values[i] + slopes[i] * (u - knots[i])) / (t * t)
                k += wk * fv
                g += wg * fv
            return h * k, abs(h) * abs(k - g)
        return _gk15(lambda t: self(t) / (t * t), lo, hi)


def random_harmonic_convex(seed: int, interval: HInterval) -> PiecewiseConvexReciprocal:
    """Deterministic-by-seed harmonic convex function on ``interval``.

    The underlying G is convex piecewise linear on the reciprocal interval,
    with 2 to 6 pieces and strictly increasing slopes, shifted so the function stays >= 0.05
    (keeping the weighted chains applicable, which need f >= 0).
    """
    rng = random.Random(seed)
    u_lo, u_hi = sorted((1.0 / interval.b, 1.0 / interval.a))
    pieces = rng.randint(2, 6)
    cuts = sorted(rng.uniform(u_lo, u_hi) for _ in range(pieces - 1))
    knots = [u_lo, *cuts, u_hi]
    slope = rng.uniform(-4.0, 1.0)
    slopes = []
    for _ in range(pieces):
        slopes.append(slope)
        slope += rng.uniform(0.1, 3.0)
    values = [rng.uniform(0.0, 2.0)]
    for i in range(pieces):
        values.append(values[-1] + slopes[i] * (knots[i + 1] - knots[i]))
    # convex piecewise linear attains its minimum at a knot
    shift = max(0.0, 0.05 - min(values))
    values = [v + shift for v in values]
    return PiecewiseConvexReciprocal(
        knots=tuple(knots),
        values=tuple(values[:-1]),
        slopes=tuple(slopes),
        name=f"random_hc_{seed}",
    )
