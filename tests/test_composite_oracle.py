"""The composite integrands of ``r4`` and ``c1`` against per-node copies
of them.

``quad.refinement_double_integral`` takes every inner integral of its
outer integrand G over ascending limits through one f(t)/t^2 record, and
``ineq.weighted_reports`` forms its barycentric weights, its theta map and
its Jacobian a batch at a time.  The copies below do each node on its own:
G calls ``weighted_integral`` from x to r(x) once per node, and the
``c1`` integrands take one barycentric pair per node and apply the
Jacobian to the finished weight.  Each pair must give the same reports,
``repr`` for ``repr``, or raise the same exception with the same message.
"""

import math
from typing import Sequence

import pytest

from hhverify import ineq, quad
from hhverify.corpus import _build_entries, random_harmonic_convex
from hhverify.fnspec import EvalDomainError, parse
from hhverify.hmean import Function, HInterval, as_function, kinks_of, sym_transform
from hhverify.ineq import (
    VARIANTS,
    ChainReport,
    ChainTerm,
    HFunction,
    _Barred,
    _check_variant,
    _endpoint_avg,
    _meta,
)
from hhverify.quad import _NODES, QuadResult, integrate, weighted_integral

SMOOTH_EXPRESSIONS = ("1", "3", "1/x", "x", "x^2", "exp(x)", "-ln(x)")
SMOOTH_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (1.0, 10.0), (-2.0, -1.0), (1e-6, 2e-6))
KINKED_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (-2.0, -1.0))
I12 = HInterval(1.0, 2.0)

WEIGHTS = (
    HFunction.from_source("x", name="t"),
    HFunction.from_source("x^0.5", name="sqrt(t)"),
    HFunction.from_source("1", name="1"),
)
R4_CASES = ((None, "convex"), (WEIGHTS[0], "convex"), (WEIGHTS[1], "concave"))
C1_CASES = tuple((h, "convex") for h in WEIGHTS)


# --- the per-node copies -------------------------------------------------------


def per_node_double_integral(f, interval: HInterval, tol: float = 1e-9) -> QuadResult:
    """``refinement_double_integral`` with G called node by node, each
    inner integral through ``weighted_integral``."""
    a, b = interval.a, interval.b
    span = b - a
    xstar = interval.harmonic_midpoint
    near = 1e-8 * span
    f_star = f(xstar)
    ab = a * b
    s = a + b
    inner_err = 0.0
    fn = as_function(f)

    def g(x: float) -> float:
        nonlocal inner_err
        if abs(x - xstar) <= near:
            return f_star
        r = interval.reflect(x)
        coef = ab * x / (2.0 * ab - s * x)
        inner_tol = max(tol * abs(r - x) / abs(x * r), 1e-15)
        inner = weighted_integral(fn, x, r, tol=inner_tol)
        inner_err = max(inner_err, abs(coef) * inner.abs_error_estimate)
        return coef * inner.value

    kinks = kinks_of(sym_transform(f, interval))
    outer = integrate(g, a, b, tol=tol, max_evals=100_000, breakpoints=kinks)
    err = (outer.abs_error_estimate + inner_err * span) / span
    return QuadResult(outer.value / span, err, outer.subdivisions)


def _per_node_barycentric_weights(interval: HInterval, x: float) -> tuple[float, float]:
    a, b = interval.a, interval.b
    den = x * (a - b)
    return b * (a - x) / den, a * (x - b) / den


def per_node_weighted_reports(f, w, interval, cases, tol=ineq.DEFAULT_TOL, quad_tol=ineq.DEFAULT_QUAD_TOL,
                              variant=ineq.DEFAULT_VARIANT):
    """``weighted_reports`` with w checked point by point, one barycentric
    pair per node, and the Jacobian applied to each finished weight."""
    _check_variant(variant)
    a, b = interval.a, interval.b
    for k in range(65):
        t = a + (b - a) * k / 64.0
        if not w(t) >= 0.0:
            raise ValueError(f"weight w is negative or NaN at t={t!r}")
    avg_f = _endpoint_avg(f, interval)
    fn, wn = as_function(f), as_function(w)
    w_kinks = kinks_of(wn)
    int_w = _Barred.of(integrate(wn, a, b, tol=quad_tol, breakpoints=w_kinks))

    def mass(ts: Sequence[float]) -> list[float]:
        ws = wn.batch_values(ts)
        values = fn.batch_values([*ts, *interval.reflect_all(ts)])
        return [u * (p + q) for u, p, q in zip(ws, values, values[len(ts) :])]

    mid_mass = 0.5 * _Barred.of(integrate(
        Function(lambda t: mass([t])[0], mass), a, b, tol=quad_tol,
        breakpoints=kinks_of(sym_transform(f, interval)) + w_kinks,
    ))
    half = 0.5 * (b - a)

    def graded(weight):
        def integrand(thetas):
            us = [math.pi * theta for theta in thetas]
            values = weight([a + half * (1.0 - math.cos(u)) for u in us])
            return [v * half * math.pi * math.sin(u) for v, u in zip(values, us)]

        return Function(lambda theta: integrand([theta])[0], integrand)

    def graded_kinks(kinks):
        return [math.acos(1.0 - (t - a) / half) / math.pi for t in kinks if a < t < b]

    corrected_kinks = graded_kinks(w_kinks)
    printed_kinks = graded_kinks(kinks_of(sym_transform(w, interval)))

    def right_integrals(h):
        def corrected(ts):
            hv = h.batch_values([v for t in ts for v in _per_node_barycentric_weights(interval, t)])
            return [(p + q) * u for p, q, u in zip(hv[::2], hv[1::2], wn.batch_values(ts))]

        def printed(ts):
            hv = h.batch_values([_per_node_barycentric_weights(interval, t)[0] for t in ts])
            ws = wn.batch_values([*ts, *interval.reflect_all(ts)])
            return [p * (u + v) for p, u, v in zip(hv, ws, ws[len(ts) :])]

        return (
            integrate(graded(corrected), 0.0, 1.0, tol=quad_tol, breakpoints=corrected_kinks),
            integrate(graded(printed), 0.0, 1.0, tol=quad_tol, breakpoints=printed_kinks),
        )

    rights = [right_integrals(h) for h, _ in cases]
    f_mid = f(interval.harmonic_midpoint)
    reports = []
    for (h, direction), (int_corr, int_printed) in zip(cases, rights):
        right = _Barred.of(int_printed if variant == "as_printed" else int_corr)
        meta = _meta(fn, interval, h=h, w=wn)
        meta["right_derived_corrected"] = avg_f * int_corr.value
        meta["right_as_printed"] = avg_f * int_printed.value
        meta["printed_right_deviation"] = avg_f * (int_printed.value - int_corr.value)
        terms = [
            (f_mid / (2.0 * h.h_half) * int_w).term("scaled_midpoint_mass"),
            mid_mass.term("weighted_sym_mean"),
            (avg_f * right).term("h_weighted_endpoint_bound"),
        ]
        reports.append(ChainReport.build("c1", variant, direction, terms, tol, meta))
    return tuple(reports)


# --- the inputs ----------------------------------------------------------------


def _nodes(lo, hi):
    return [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for x in _NODES]


def _failing(*points):
    """x, but dividing by zero at each of ``points``."""
    return parse("x" + "".join(f" + 0/(x - {p!r})" for p in points))


def _theta_point(interval, theta):
    half = 0.5 * (interval.b - interval.a)
    return interval.a + half * (1.0 - math.cos(math.pi * theta))


_T = _nodes(1.0, 2.0)
_THETA = _nodes(0.0, 1.0)
_X11, _R11 = _T[11], I12.reflect(_T[11])
# r4 on [1, 2]: the middle node of the inner integral at outer node 11 (its
# limits ascend from r(x) to x), and the reflection of node 1, which only
# the mean of sym(f) visits
R4_FAILING = {
    "inner_at_outer_node_11": _failing(0.5 * (_R11 + _X11)),
    "reflection_of_node_1": _failing(I12.reflect(_T[1])),
}
# c1 on [1, 2]: f at node 11 of the middle term, or at the reflection of its
# node 1; w at the theta node 11 of the derived h-weight integrand, or at the
# reflection of theta node 1 in the printed one
C1_FAILING = {
    "f_at_node_11": (_failing(_T[11]), lambda t: 1.0),
    "f_at_reflection_of_node_1": (_failing(I12.reflect(_T[1])), lambda t: 1.0),
    "w_at_theta_node_11": (parse("x^2"), _failing(_theta_point(I12, _THETA[11]))),
    "w_at_reflected_theta_node_1": (parse("x^2"), _failing(I12.reflect(_theta_point(I12, _THETA[1])))),
}


def _functions():
    """(id, f, interval): the corpus, the smooth expressions and the kinked
    functions, each on its interval."""
    out = [(f"corpus-{e.name}", e.spec, e.interval) for e in _build_entries()]
    for lo, hi in SMOOTH_INTERVALS:
        for source in SMOOTH_EXPRESSIONS:
            if not (source == "-ln(x)" and lo < 0):
                out.append((f"{source} [{lo:g},{hi:g}]", parse(source), HInterval(lo, hi)))
    for seed in range(24):
        interval = HInterval(*KINKED_INTERVALS[seed % 3])
        out.append((f"random_hc_{seed}", random_harmonic_convex(seed, interval), interval))
    return out


FUNCTIONS = _functions()


def _outcome(call):
    """``repr`` of what ``call()`` returns, or the type and message it raised."""
    try:
        return repr(call())
    except Exception as exc:  # the comparison covers every exception type
        return (type(exc), str(exc))


def _r4_outcomes(monkeypatch, double, f, interval, tol):
    """The double integral and the r4 reports of both variants, with
    ``double`` as the double integral, computed once for both."""
    memo = []

    def once(*args, **kwargs):
        if not memo:
            try:
                memo.append(double(*args, **kwargs))
            except Exception as exc:  # raised again for every report
                memo.append(exc)
        if isinstance(memo[0], Exception):
            raise memo[0]
        return memo[0]

    monkeypatch.setattr(ineq, "refinement_double_integral", once)
    reports = [
        _outcome(lambda: ineq.refinement_reports(f, interval, R4_CASES, quad_tol=tol, variant=variant))
        for variant in VARIANTS
    ]
    return _outcome(lambda: once(f, interval, tol=tol)), reports


# r4 at quad_tol 1e-9 on a kinked function takes up to seconds, and on
# random_hc_13 over [0.5, 3] it exhausts its budget after about 40 s, per
# copy; these seeds span the three intervals
R4_STRICT_KINKED = {f"random_hc_{seed}" for seed in (0, 2, 3, 5, 11, 19)}


def _r4_params():
    for name, f, interval in FUNCTIONS:
        for tol in (1e-6, 1e-9):
            if tol == 1e-9 and name.startswith("random_hc_") and name not in R4_STRICT_KINKED:
                continue
            yield pytest.param(f, interval, tol, id=f"{name}-{tol:g}")
    for name, f in R4_FAILING.items():
        yield pytest.param(f, I12, 1e-9, id=name)


@pytest.mark.parametrize("f, interval, tol", _r4_params())
def test_r4_reports_match_the_per_node_copy(monkeypatch, f, interval, tol):
    got = _r4_outcomes(monkeypatch, quad.refinement_double_integral, f, interval, tol)
    expected = _r4_outcomes(monkeypatch, per_node_double_integral, f, interval, tol)
    assert got == expected


def test_r4_failing_functions_fail_where_meant():
    # the inputs above fail, one in the double integral and one after it
    inner, reflection = R4_FAILING.values()
    with pytest.raises(EvalDomainError) as failure:
        quad.refinement_double_integral(inner, I12)
    assert str(failure.value) == f"evaluation failed at t={0.5 * (_R11 + _X11)!r}: float division by zero"
    quad.refinement_double_integral(reflection, I12)
    with pytest.raises(EvalDomainError) as failure:
        ineq.chain_refinement(reflection, I12)
    assert str(failure.value) == f"evaluation failed at t={I12.reflect(_T[1])!r}: float division by zero"


def _c1_params():
    for name, f, interval in FUNCTIONS:
        for tol in (1e-6, 1e-9):
            yield pytest.param(f, lambda t: 1.0, interval, tol, id=f"{name}-{tol:g}")
    for name, (f, w) in C1_FAILING.items():
        yield pytest.param(f, w, I12, 1e-9, id=name)


@pytest.mark.parametrize("f, w, interval, tol", _c1_params())
def test_c1_reports_match_the_per_node_copy(f, w, interval, tol):
    for variant in VARIANTS:
        got = _outcome(lambda: ineq.weighted_reports(f, w, interval, C1_CASES, quad_tol=tol, variant=variant))
        expected = _outcome(lambda: per_node_weighted_reports(f, w, interval, C1_CASES, quad_tol=tol,
                                                              variant=variant))
        assert got == expected


@pytest.mark.parametrize("name", C1_FAILING)
def test_c1_failing_inputs_raise(name):
    f, w = C1_FAILING[name]
    with pytest.raises(EvalDomainError, match="float division by zero"):
        ineq.weighted_bounds(f, WEIGHTS[1], w, I12)


def test_c1_with_a_kinked_weight_matches_the_per_node_copy():
    # w publishes kinks: the h-weight integrals split at them in theta
    for seed in range(3):
        interval = HInterval(*KINKED_INTERVALS[seed])
        w = random_harmonic_convex(seed, interval)
        for variant in VARIANTS:
            got = _outcome(lambda: ineq.weighted_reports(parse("x^2"), w, interval, C1_CASES, variant=variant))
            expected = _outcome(lambda: per_node_weighted_reports(parse("x^2"), w, interval, C1_CASES,
                                                                  variant=variant))
            assert got == expected


def test_c1_check_of_w_names_its_first_failing_point():
    # w is negative at t = 1 and divides by zero at t = 1.75, both points of
    # the check's grid: its batch raises at 1.75, and the check then calls w
    # point by point, so it stops at t = 1 as the per-node copy does
    w = parse("x - 1.5 + 0/(x - 1.75)")
    for reports in (ineq.weighted_reports, per_node_weighted_reports):
        with pytest.raises(ValueError, match=r"^weight w is negative or NaN at t=1\.0$"):
            reports(parse("x^2"), w, I12, C1_CASES)
