"""Curated test functions with known class memberships and closed forms.

Every declared membership is re-verified by the convexity checkers the first
time the corpus is built (and the result cached for the process); a mismatch
raises :class:`CorpusError` instead of silently poisoning downstream tests.

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
from typing import Mapping, Optional

from .convexity import (
    DEFAULT_GRID,
    check_convex,
    check_harmonic_convex,
    check_symmetrized,
    inclusion_family_source,
)
from .fnspec import FunctionSpec, parse
from .hmean import HInterval
from .ineq import IDENTITY_H, HFunction
from .quad import GK15, _gk15

__all__ = [
    "CorpusError",
    "CorpusEntry",
    "PiecewiseConvexReciprocal",
    "builtin_functions",
    "builtin_h",
    "export_json",
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


class CorpusError(RuntimeError):
    """A declared class membership failed its load-time re-verification."""


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: FunctionSpec
    interval: HInterval
    classes: Mapping[str, bool]
    closed_forms: Mapping[str, float]
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "source": self.spec.source,
            "interval": {"a": self.interval.a, "b": self.interval.b},
            "classes": dict(self.classes),
            "closed_forms": dict(self.closed_forms),
            "notes": self.notes,
        }


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


# by kind of class (a tag without its direction): one scan decides both tags
_GATE_CHECKS = {
    "": lambda f, interval: check_convex(f, interval.a, interval.b, grid=DEFAULT_GRID),
    "harmonic": lambda f, interval: check_harmonic_convex(f, interval, grid=DEFAULT_GRID),
    "symmetrized_harmonic": lambda f, interval: check_symmetrized(f, interval, grid=DEFAULT_GRID),
}


def _verify_entry(entry: CorpusEntry) -> None:
    verdicts = {}
    for tag, declared in entry.classes.items():
        if tag not in CLASS_TAGS:
            raise CorpusError(f"{entry.name}: unknown class tag {tag!r}")
        kind, _, direction = tag.rpartition("_")
        if kind not in verdicts:
            verdicts[kind] = _GATE_CHECKS[kind](entry.spec, entry.interval)
        verdict = verdicts[kind] if direction == "convex" else verdicts[kind].opposite
        if verdict.passed != declared:
            raise CorpusError(
                f"{entry.name}: declared {tag}={declared} but the checker found "
                f"passed={verdict.passed} (worst margin {verdict.worst_margin!r} "
                f"at {verdict.witness})"
            )


@lru_cache(maxsize=1)
def builtin_functions() -> tuple[CorpusEntry, ...]:
    """The built-in corpus; every declared membership is checker-verified on
    first access and the verified tuple is cached for the process."""
    entries = _build_entries()
    for entry in entries:
        _verify_entry(entry)
    return entries


@lru_cache(maxsize=1)
def builtin_h() -> tuple[HFunction, ...]:
    """Standard weight-function family: t, t^2, sqrt(t) and the constant 1."""
    return (
        IDENTITY_H,
        HFunction.from_source("x^2", name="t^2"),
        HFunction.from_source("x^0.5", name="sqrt(t)"),
        HFunction.from_source("1", name="1"),
    )


def export_json(entries: Optional[tuple[CorpusEntry, ...]] = None) -> dict:
    """Corpus as a plain JSON-ready document for external tooling."""
    if entries is None:
        entries = builtin_functions()
    return {"schema": 1, "entries": [e.to_dict() for e in entries]}


def import_json(doc: dict) -> tuple[CorpusEntry, ...]:
    """Rebuild corpus entries from an :func:`export_json` document.

    Declared memberships go through the same checker gate as the built-in
    corpus.
    """
    if doc.get("schema") != 1:
        raise CorpusError(f"unsupported corpus schema {doc.get('schema')!r}")
    entries = []
    for item in doc["entries"]:
        entry = CorpusEntry(
            name=item["name"],
            spec=parse(item["source"]),
            interval=HInterval(item["interval"]["a"], item["interval"]["b"]),
            classes=dict(item.get("classes", {})),
            closed_forms=dict(item.get("closed_forms", {})),
            notes=item.get("notes", ""),
        )
        _verify_entry(entry)
        entries.append(entry)
    return tuple(entries)


# --- seeded random harmonic convex functions ---------------------------------


@dataclass(frozen=True)
class PiecewiseConvexReciprocal:
    """f(t) = G(1/t) with G convex piecewise linear (nondecreasing slopes).

    Harmonic convexity is exact by construction: 1/hcomb(x, y, alpha) is the
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
        i = bisect_right(self.knots, u) - 1
        if i < 0:
            i = 0
        elif i >= len(self.slopes):
            i = len(self.slopes) - 1
        return self.values[i] + self.slopes[i] * (u - self.knots[i])

    def __call__(self, t: float) -> float:
        return self.g(1.0 / t)

    def weighted_gk15(self, lo: float, hi: float) -> tuple[float, float]:
        """The Gauss-Kronrod rule of ``t -> f(t)/t^2`` on one segment (the
        rule protocol of :mod:`hhverify.quad`), in one frame.

        It returns what the generic rule ``quad._gk15`` returns on that
        integrand, bit for bit, and raises what it raises.  On a segment
        with ``lo < hi`` and no zero inside, the nodes rise from first to
        last, so 1/t and the index of its piece of G fall: when the first
        and last node share a piece, every node is in it and the piece is
        found once; otherwise each node steps down from the previous one's
        piece.  Any other segment (reversed, or not of one sign) takes the
        generic rule.
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
            if i == j:
                v, s, q = values[i], slopes[i], knots[i]
                for x, wk, wg in GK15:
                    t = c + h * x
                    fv = (v + s * (1.0 / t - q)) / (t * t)
                    k += wk * fv
                    g += wg * fv
                return h * k, abs(h) * abs(k - g)
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
