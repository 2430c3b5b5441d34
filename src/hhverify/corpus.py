"""Curated test functions with known class memberships and closed forms.

The built-in declarations are constants of the source, proved by the
convexity checkers in ``tests/test_corpus.py``, so building the corpus runs
no scan.
Documents read by :func:`import_json` are outside data: each declared
membership is re-verified there, by one :func:`~hhverify.convexity.check_class`
scan per kind of class, and a mismatch or a malformed field raises
:class:`CorpusError` instead of silently poisoning downstream results.

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

from .convexity import check_class, inclusion_family_source
from .fnspec import ExpressionError, FunctionSpec, parse
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
    "import_json",
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
    """An imported corpus document is malformed, or one of its declared class
    memberships failed re-verification."""


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


# the check_class kind of a tag without its direction: one scan decides both tags
_GATE_KINDS = {"": "convex", "harmonic": "harmonic", "symmetrized_harmonic": "symmetrized"}


def _verify_entry(entry: CorpusEntry) -> None:
    verdicts = {}
    for tag, declared in entry.classes.items():
        if tag not in CLASS_TAGS:
            raise CorpusError(f"{entry.name}: unknown class tag {tag!r}")
        kind, _, direction = tag.rpartition("_")
        if kind not in verdicts:
            verdicts[kind] = check_class(_GATE_KINDS[kind], entry.spec, entry.interval.a, entry.interval.b)
        verdict = verdicts[kind] if direction == "convex" else verdicts[kind].opposite
        if verdict.passed != declared:
            raise CorpusError(
                f"{entry.name}: declared {tag}={declared} but the checker found "
                f"passed={verdict.passed} (worst margin {verdict.worst_margin!r} "
                f"at {verdict.witness})"
            )


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


def export_json(entries: Optional[tuple[CorpusEntry, ...]] = None) -> dict:
    """Corpus as a plain JSON-ready document for external tooling."""
    if entries is None:
        entries = builtin_functions()
    return {"schema": 1, "entries": [e.to_dict() for e in entries]}


# marks an absent field of an imported document
_MISSING = object()


def import_json(doc: dict) -> tuple[CorpusEntry, ...]:
    """Rebuild corpus entries from an :func:`export_json` document.

    A missing or mistyped field, a name that an earlier entry has, or a
    closed form that is not finite raises :class:`CorpusError` naming the
    entry and the field, and so does a declared membership that the checkers
    refute.
    """
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != 1:
        raise CorpusError(f"unsupported corpus schema {schema!r}")
    items = doc.get("entries", _MISSING)
    if not isinstance(items, list):
        got = "it is missing" if items is _MISSING else f"got {items!r}"
        raise CorpusError(f"corpus document: entries must be a list, {got}")
    taken: dict[str, int] = {}
    return tuple(_import_entry(index, item, taken) for index, item in enumerate(items))


# what an imported field must be, by the type JSON decodes it to
_EXPECTED = {str: "a string", dict: "an object", bool: "true or false", float: "a number"}


def _import_entry(index: int, item, taken: dict[str, int]) -> CorpusEntry:
    """The entry ``item`` describes; ``taken`` maps the names of the entries
    before it to their indices, and gets this one's."""
    where = f"corpus entry {index}"

    def need(path, value, kind):
        if kind is float:  # a JSON number decodes to int or float, never bool
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind)
        if not ok:
            got = "it is missing" if value is _MISSING else f"got {value!r}"
            raise CorpusError(f"{where}: {path} must be {_EXPECTED[kind]}, {got}")
        return value

    if not isinstance(item, dict):
        raise CorpusError(f"{where}: must be an object, got {item!r}")
    name = need("name", item.get("name", _MISSING), str)
    if name in taken:
        raise CorpusError(f"{where}: name must be unique, got {name!r}, the name of corpus entry {taken[name]}")
    taken[name] = index
    where = f"corpus entry {name!r}"
    source = need("source", item.get("source", _MISSING), str)
    interval = need("interval", item.get("interval", _MISSING), dict)
    a, b = (need(f"interval.{k}", interval.get(k, _MISSING), float) for k in "ab")
    classes = need("classes", item.get("classes", {}), dict)
    for tag, declared in classes.items():
        need(f"classes.{tag}", declared, bool)
    closed_forms = need("closed_forms", item.get("closed_forms", {}), dict)
    for key, value in closed_forms.items():
        need(f"closed_forms.{key}", value, float)
        # json.loads reads NaN, Infinity and -Infinity, and ints of any size
        try:
            finite = math.isfinite(value)
        except OverflowError as exc:
            raise CorpusError(f"{where}: closed_forms.{key}: {exc}") from exc
        if not finite:
            raise CorpusError(f"{where}: closed_forms.{key} must be finite, got {value!r}")
    notes = need("notes", item.get("notes", ""), str)
    try:
        hinterval = HInterval(a, b)
    except (ValueError, OverflowError) as exc:
        raise CorpusError(f"{where}: interval: {exc}") from exc
    try:
        entry = CorpusEntry(name, parse(source), hinterval, dict(classes), dict(closed_forms), notes)
        _verify_entry(entry)
    except ExpressionError as exc:
        raise CorpusError(f"{where}: source {source!r}: {exc}") from exc
    return entry


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
