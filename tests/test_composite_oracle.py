"""The composite integrals of ``r4`` and ``c1`` against reference values.

``perfbench/refs.py`` computes the terms of every chain apart from the
package: exactly from the antiderivatives of f/t^2 where it has them, else
in mpmath at 30 digits, split at every kink.  The ``r4`` reports (no weight,
and the weights t and sqrt(t)) and the ``c1`` reports (w = 1, with the
weights t, sqrt(t) and 1) of both variants must hold every reference within
the term's error bar, plus 8 eps times the report's largest |term|, since
the bars leave rounding out.  The grid is the corpus, seven smooth
expressions on five intervals and 24 seeded kinked functions, at quad_tol
1e-6 and 1e-9.  The ``as_printed`` terms are checked at quad_tol 1e-6:
each is a fixed multiple of a derived one, except c1's right term, whose
reference the ``c1_printed_right`` fixture computes, as the
``c1_terms_with_kinked_weight`` fixture does the c1 terms for a kinked w.
The ``sym_affine_c*`` entries take the reference of 1/x: their
antisymmetric bump integrates to 0 against dt/t^2 over [x, r(x)] and leaves
f(m), (f(a)+f(b))/2 and sym(f) unchanged.

The grid tests keep the names, and each row its id, of the per-node
comparisons they replace.  Their last rows, and the tests of failing
functions, take functions built to fail at one node of a batch: each must
raise there, with the message an evaluation node by node gives.
"""

import functools
import math
import sys

import pytest

from hhverify import ineq, quad
from hhverify.corpus import _build_entries, random_harmonic_convex
from hhverify.fnspec import EvalDomainError, parse
from hhverify.hmean import HInterval
from hhverify.ineq import DEFAULT_VARIANT, VARIANTS, HFunction
from hhverify.quad import _NODES

SMOOTH_EXPRESSIONS = ("1", "3", "1/x", "x", "x^2", "exp(x)", "-ln(x)")
SMOOTH_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (1.0, 10.0), (-2.0, -1.0), (1e-6, 2e-6))
KINKED_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (-2.0, -1.0))
I12 = HInterval(1.0, 2.0)
ROUNDING = 8 * sys.float_info.epsilon

WEIGHTS = (
    HFunction.from_source("x", name="t"),
    HFunction.from_source("x^0.5", name="sqrt(t)"),
    HFunction.from_source("1", name="1"),
)
R4_CASES = ((None, "convex"), (WEIGHTS[0], "convex"), (WEIGHTS[1], "concave"))
C1_CASES = tuple((h, "convex") for h in WEIGHTS)


def _functions():
    """id -> (f, interval, the source or kinked function its reference is
    built from): the corpus, the smooth expressions and the kinked
    functions, each on its interval."""
    out = {}
    for e in _build_entries():
        source = "1/x" if e.name.startswith("sym_affine_c") else e.spec.source
        out[f"corpus-{e.name}"] = (e.spec, e.interval, source)
    for lo, hi in SMOOTH_INTERVALS:
        for source in SMOOTH_EXPRESSIONS:
            if not (source == "-ln(x)" and lo < 0):
                out[f"{source} [{lo:g},{hi:g}]"] = (parse(source), HInterval(lo, hi), source)
    for seed in range(24):
        interval = HInterval(*KINKED_INTERVALS[seed % 3])
        f = random_harmonic_convex(seed, interval)
        out[f"random_hc_{seed}"] = (f, interval, f)
    return out


FUNCTIONS = _functions()


def _nodes(lo, hi):
    return [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for x in _NODES]


def _failing(*points):
    """x, but dividing by zero at each of ``points``."""
    return parse("x" + "".join(f" + 0/(x - {p!r})" for p in points))


def _theta_point(interval, theta):
    half = 0.5 * (interval.b - interval.a)
    return interval.a + half * (1.0 - math.cos(math.pi * theta))


def _raises_at(point, call):
    with pytest.raises(EvalDomainError) as failure:
        call()
    assert str(failure.value) == f"evaluation failed at t={point!r}: float division by zero"


_T = _nodes(1.0, 2.0)
_THETA = _nodes(0.0, 1.0)
# r4 on [1, 2]: the middle node of the inner integral at outer node 11 (its
# limits ascend from r(x) to x), and the reflection of node 1, which only
# the mean of sym(f) visits
R4_FAILING = {
    "inner_at_outer_node_11": 0.5 * (I12.reflect(_T[11]) + _T[11]),
    "reflection_of_node_1": I12.reflect(_T[1]),
}


def _c1_failing(fails, point):
    """(f, w, point): f or else w failing at ``point``, the other not."""
    return (_failing(point), lambda t: 1.0, point) if fails == "f" else (parse("x^2"), _failing(point), point)


# c1 on [1, 2]: f at node 11 of the middle term, or at the reflection of its
# node 1; w at the theta node 11 of the derived h-weight integrand, or at the
# reflection of theta node 1 in the printed one
C1_FAILING = {
    "f_at_node_11": _c1_failing("f", _T[11]),
    "f_at_reflection_of_node_1": _c1_failing("f", I12.reflect(_T[1])),
    "w_at_theta_node_11": _c1_failing("w", _theta_point(I12, _THETA[11])),
    "w_at_reflected_theta_node_1": _c1_failing("w", I12.reflect(_theta_point(I12, _THETA[1]))),
}


def _variants(tol):
    """The variants checked at ``tol``: as_printed scales derived terms by
    constants, or leaves them, whatever the quad_tol, so once is enough."""
    return VARIANTS if tol == 1e-6 else (DEFAULT_VARIANT,)


def _uncovered(reports, expected):
    """The terms whose reference (None: not checked) lies outside their
    error bar plus the rounding slack."""
    out = []
    for rep, row in zip(reports, expected):
        slack = ROUNDING * max(abs(term.value) for term in rep.terms)
        out += [
            f"{rep.variant} h={rep.metadata.get('h')} {term.label}: {term.value!r} vs {float(ref)!r}, "
            f"bar {term.abs_error!r}"
            for term, ref in zip(rep.terms, row)
            if ref is not None and not abs(term.value - float(ref)) <= term.abs_error + slack
        ]
    return out


# --- r4 --------------------------------------------------------------------------

# r4 at quad_tol 1e-9 on a kinked function takes up to seconds, and on
# random_hc_13 over [0.5, 3] it exhausts its budget after about 40 s;
# these seeds span the three intervals
R4_STRICT_KINKED = {f"random_hc_{seed}" for seed in (0, 2, 3, 5, 11, 19)}
# At quad_tol 1e-9 the inner integrals of the nested r4 integral, which take
# no breakpoints, miss kinks between their nodes on these functions, and the
# double integral misses its reference by 1.1 to 63 times its bar
INNER_KINK_MISSES = ("random_hc_0", "random_hc_2", "random_hc_3", "random_hc_5", "random_hc_19")
# as_printed scales the (left, middle, right) terms of r4 by these
R4_PRINTED = {False: (1.0, 0.5, 1.0), True: (0.5, 0.25, 0.5)}


def _r4_references(refs, ref_of, name):
    _, interval, key = FUNCTIONS[name]
    return [refs.chain_reference("r4", ref_of(key), interval, h=h and h.name)[0] for h, _ in R4_CASES]


@pytest.fixture(scope="module")
def r4_reports():
    """The r4 reports of a function of the grid at a quad_tol, in a variant:
    computed once for the tests of the grid and of its known misses."""

    @functools.cache
    def reports(name, tol, variant):
        f, interval, _ = FUNCTIONS[name]
        return ineq.refinement_reports(f, interval, R4_CASES, quad_tol=tol, variant=variant)

    return reports


def _r4_params():
    for name in FUNCTIONS:
        for tol in (1e-6, 1e-9):
            if tol == 1e-9 and name.startswith("random_hc_") and name not in R4_STRICT_KINKED:
                continue
            yield pytest.param(name, tol, id=f"{name}-{tol:g}")
    for name in R4_FAILING:
        yield pytest.param(name, 1e-9, id=name)


@pytest.mark.parametrize("name, tol", _r4_params())
def test_r4_reports_match_the_per_node_copy(refs, ref_of, r4_reports, name, tol):
    if name in R4_FAILING:
        point = R4_FAILING[name]
        for variant in VARIANTS:
            _raises_at(point, lambda: ineq.refinement_reports(_failing(point), I12, R4_CASES, quad_tol=tol,
                                                              variant=variant))
        return
    expected = _r4_references(refs, ref_of, name)
    # the double integral of a known miss is left to the strict xfail below
    if tol == 1e-9 and name in INNER_KINK_MISSES:
        expected = [[left, None, right] for left, _, right in expected]
    printed = [
        [None if ref is None else k * ref for ref, k in zip(row, R4_PRINTED[h is not None])]
        for row, (h, _) in zip(expected, R4_CASES)
    ]
    uncovered = []
    for variant in _variants(tol):
        uncovered += _uncovered(r4_reports(name, tol, variant), expected if variant == DEFAULT_VARIANT else printed)
    assert not uncovered


@pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="inner integrals of the nested r4 integral take no breakpoints"
)
@pytest.mark.parametrize("name", INNER_KINK_MISSES)
def test_r4_double_integral_covers_the_reference_on_inner_kinks(refs, ref_of, r4_reports, name):
    _, double, _ = _r4_references(refs, ref_of, name)[0]
    assert not _uncovered(r4_reports(name, 1e-9, DEFAULT_VARIANT)[:1], [[None, double, None]])


def test_r4_failing_functions_fail_where_meant():
    # one fails in the double integral, the other after it
    inner, reflection = R4_FAILING.values()
    _raises_at(inner, lambda: quad.refinement_double_integral(_failing(inner), I12))
    quad.refinement_double_integral(_failing(reflection), I12)
    _raises_at(reflection, lambda: ineq.chain_refinement(_failing(reflection), I12))


# --- c1 --------------------------------------------------------------------------


def _c1_params():
    for name in FUNCTIONS:
        for tol in (1e-6, 1e-9):
            yield pytest.param(name, tol, id=f"{name}-{tol:g}")
    for name in C1_FAILING:
        yield pytest.param(name, 1e-9, id=name)


@pytest.mark.parametrize("name, tol", _c1_params())
def test_c1_reports_match_the_per_node_copy(refs, ref_of, c1_printed_right, name, tol):
    if name in C1_FAILING:
        f, w, point = C1_FAILING[name]
        for variant in VARIANTS:
            _raises_at(point, lambda: ineq.weighted_reports(f, w, I12, C1_CASES, quad_tol=tol, variant=variant))
        return
    f, interval, key = FUNCTIONS[name]
    expected = [refs.chain_reference("c1", ref_of(key), interval, h=h.name)[0] for h, _ in C1_CASES]
    # as printed, the right term is (f(a)+f(b))/2 * 2 int h(w1) for w = 1
    printed = [
        [left, middle, c1_printed_right(ref_of(key), ref_of("1"), interval, h.name)]
        for (left, middle, _), (h, _) in zip(expected, C1_CASES)
    ]
    uncovered = []
    for variant in _variants(tol):
        reports = ineq.weighted_reports(f, lambda t: 1.0, interval, C1_CASES, quad_tol=tol, variant=variant)
        uncovered += _uncovered(reports, expected if variant == DEFAULT_VARIANT else printed)
    assert not uncovered


def test_c1_with_a_kinked_weight_matches_the_per_node_copy(ref_of, c1_terms_with_kinked_weight):
    # w publishes kinks: the h-weight integrals split in theta at them, and
    # the printed one also at their reflections
    f = parse("x^2")
    for seed in range(3):
        interval = HInterval(*KINKED_INTERVALS[seed])
        w = random_harmonic_convex(seed, interval)
        for variant in VARIANTS:
            expected = c1_terms_with_kinked_weight(ref_of("x^2"), ref_of(w), interval, [h.name for h in WEIGHTS],
                                                   variant=variant)
            assert not _uncovered(ineq.weighted_reports(f, w, interval, C1_CASES, variant=variant), expected)


@pytest.mark.parametrize("name", C1_FAILING)
def test_c1_failing_inputs_raise(name):
    f, w, point = C1_FAILING[name]
    _raises_at(point, lambda: ineq.weighted_bounds(f, WEIGHTS[1], w, I12))


def test_c1_check_of_w_names_its_first_failing_point():
    # w is negative at t = 1 and divides by zero at t = 1.75, both points of
    # the check's grid: its batch raises at 1.75, and the check then calls w
    # point by point, so it stops at t = 1
    w = parse("x - 1.5 + 0/(x - 1.75)")
    with pytest.raises(ValueError, match=r"^weight w is negative or NaN at t=1\.0$"):
        ineq.weighted_reports(parse("x^2"), w, I12, C1_CASES)
