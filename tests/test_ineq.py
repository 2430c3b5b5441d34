import dataclasses
import functools
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.corpus import builtin_functions, builtin_h, random_harmonic_convex
from hhverify.fnspec import parse
from hhverify.hmean import HInterval, sym_transform
from hhverify import ineq
from hhverify.ineq import (
    CHAINS,
    ChainReport,
    ChainTerm,
    HFunction,
    IDENTITY_H,
    bounds_h_pointwise,
    bounds_pointwise,
    chain_harmonic_full,
    chain_harmonic_hh,
    chain_hh_classic,
    chain_h_subinterval,
    chain_reflected_pair,
    chain_refinement,
    chain_subinterval,
    product_inequalities,
    refinement_reports,
    run_chain,
    weighted_bounds,
    weighted_reports,
)

I12 = HInterval(1.0, 2.0)
LN2 = math.log(2.0)


def assert_all_equal(report, value, tol=1e-10):
    for term in report.terms:
        assert term.value == pytest.approx(value, abs=tol), report


class TestHFunction:
    @pytest.mark.parametrize(
        "src,h_half,h_int",
        [
            ("x", 0.5, 0.5),
            ("x^2", 0.25, 1.0 / 3.0),
            ("x^0.5", math.sqrt(0.5), 2.0 / 3.0),
            ("1", 1.0, 1.0),
        ],
    )
    def test_builtin_scalars(self, src, h_half, h_int):
        h = HFunction.from_source(src)
        assert h.h_half == pytest.approx(h_half, rel=1e-12)
        assert h.h_int == pytest.approx(h_int, rel=1e-10)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            HFunction.from_source("x - 0.5")

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match=r"negative or NaN at 0\.25: nan"):
            HFunction.from_callable(lambda t: math.nan if t == 0.25 else t, name="bad")

    def test_zero_at_half_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            HFunction.from_source("abs(x - 0.5)")

    def test_identically_zero_rejected(self):
        # positive at 1/2 alone, so only its integral over [0, 1] shows it
        with pytest.raises(ValueError, match="^weight function must not be identically zero$"):
            HFunction.from_callable(lambda t: 1.0 if t == 0.5 else 0.0, "spike")

    def test_integral_error_enters_the_bars_it_scales(self):
        # the integral of 1/x over [0, 1] diverges, so its estimate is large
        h = HFunction.from_source("1/x")
        assert h.h_int_error > 1.0
        unbarred = dataclasses.replace(h, h_int_error=0.0)
        f = parse("1")
        t5, t5_unbarred = (chain_h_subinterval(f, w, I12, 1.2, 1.7) for w in (h, unbarred))
        # f = 1: the four-point sum is 4, and the point factor 0.5 * 4
        assert t5.terms[2].abs_error == t5_unbarred.terms[2].abs_error + 2.0 * h.h_int_error
        r4, r4_unbarred = (chain_refinement(f, I12, h=w) for w in (h, unbarred))
        # the mean of sym(f) is 1, so the point factor is 2; the bar of that
        # mean adds its own share and the product of the two errors
        assert r4.terms[2].abs_error >= r4_unbarred.terms[2].abs_error + 2.0 * h.h_int_error
        for barred, plain in ((t5, t5_unbarred), (r4, r4_unbarred)):
            assert repr(barred.terms[:2]) == repr(plain.terms[:2])
            assert barred.terms[2].value == plain.terms[2].value

    def test_identity_order_once_per_instance(self):
        # equal weights (fn does not take part in ==) can order differently
        calls = []

        def square(t):
            calls.append(t)
            return t * t

        identity, squared = (HFunction(fn, "h", 0.25, 0.5, 0.0) for fn in (lambda t: t, square))
        assert identity == squared
        assert identity.identity_order == (True, True)
        assert squared.identity_order == (False, True)
        assert squared.identity_order == (False, True)
        assert len(calls) == 63
        assert [h.identity_order for h in builtin_h()] == [(True, True), (False, True), (True, False), (True, False)]


class TestChainHHClassic:
    def test_square(self):
        r = chain_hh_classic(parse("x^2"), 0.0, 1.0, quad_tol=1e-12)
        assert r.term_values() == pytest.approx((0.25, 1.0 / 3.0, 0.5), abs=1e-11)
        assert r.passed

    def test_constant(self):
        r = chain_hh_classic(parse("4"), -2.0, 3.0)
        assert_all_equal(r, 4.0)
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in r.slacks)

    def test_absolute_value(self):
        r = chain_hh_classic(parse("abs(x)"), -1.0, 1.0, quad_tol=1e-11)
        assert r.term_values() == pytest.approx((0.0, 0.5, 1.0), abs=1e-9)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            chain_hh_classic(parse("x"), 2.0, 1.0)


class TestChainHarmonicHH:
    def test_reciprocal_equality(self):
        r = chain_harmonic_hh(parse("1/x"), I12, quad_tol=1e-12)
        assert_all_equal(r, 0.75, tol=1e-11)
        assert r.passed

    def test_identity_function(self):
        r = chain_harmonic_hh(parse("x"), I12, quad_tol=1e-12)
        assert r.term_values() == pytest.approx((4.0 / 3.0, 2.0 * LN2, 1.5), abs=1e-11)
        assert r.passed

    def test_concave_direction(self):
        r = chain_harmonic_hh(parse("-ln(x)"), I12, direction="concave")
        assert r.passed
        assert r.term_values()[0] > r.term_values()[2]

    def test_negative_interval(self):
        r = chain_harmonic_hh(parse("1/x"), HInterval(-2.0, -1.0), quad_tol=1e-12)
        assert_all_equal(r, -0.75, tol=1e-11)


class TestBoundsPointwise:
    def test_reciprocal(self):
        r = bounds_pointwise(parse("1/x"), I12, 1.5)
        assert_all_equal(r, 0.75, tol=1e-14)

    def test_right_link_tight_at_endpoint(self):
        f = parse("exp(x)")
        r = bounds_pointwise(f, I12, 1.0)
        assert r.terms[1].value == r.terms[2].value

    def test_left_link_tight_at_midpoint(self):
        f = parse("exp(x)")
        r = bounds_pointwise(f, I12, I12.harmonic_midpoint)
        assert r.terms[0].value == r.terms[1].value


class TestChainSubinterval:
    def test_full_range_reduces_to_t1(self):
        for src in ("exp(x)", "x^2", "1/x"):
            f = parse(src)
            t1 = chain_harmonic_hh(f, I12, quad_tol=1e-12)
            t3 = chain_subinterval(f, I12, 1.0, 2.0, quad_tol=1e-12)
            for u, v in zip(t1.term_values(), t3.term_values()):
                assert u == pytest.approx(v, abs=1e-10)

    def test_constant_corrected_vs_printed(self):
        f = parse("1")
        corrected = chain_subinterval(f, I12, 1.2, 1.7)
        assert_all_equal(corrected, 1.0)
        assert corrected.passed
        printed = chain_subinterval(f, I12, 1.2, 1.7, variant="as_printed")
        assert printed.terms[1].value == pytest.approx(0.75, abs=1e-10)
        assert not printed.passed

    def test_reciprocal_equality(self):
        r = chain_subinterval(parse("1/x"), I12, 1.2, 1.8, quad_tol=1e-12)
        assert_all_equal(r, 0.75, tol=1e-11)

    def test_swapped_parameters_agree(self):
        f = parse("exp(x)")
        fwd = chain_subinterval(f, I12, 1.2, 1.8, quad_tol=1e-12)
        rev = chain_subinterval(f, I12, 1.8, 1.2, quad_tol=1e-12)
        for u, v in zip(fwd.term_values(), rev.term_values()):
            assert u == pytest.approx(v, abs=1e-10)

    def test_equal_parameters_rejected(self):
        with pytest.raises(ValueError):
            chain_subinterval(parse("x"), I12, 1.5, 1.5)

    def test_concave_direction(self):
        # sym(-ln) is harmonic concave: the chain holds with reversed slacks
        r = chain_subinterval(parse("-ln(x)"), I12, 1.2, 1.8, quad_tol=1e-11, direction="concave")
        assert r.passed
        values = r.term_values()
        assert values[0] >= values[1] >= values[2]
        assert not chain_subinterval(parse("-ln(x)"), I12, 1.2, 1.8, quad_tol=1e-11).passed


class TestChainReflectedPair:
    def test_constant(self):
        r = chain_reflected_pair(parse("1"), I12, 1.1)
        assert_all_equal(r, 1.0)

    def test_reciprocal(self):
        r = chain_reflected_pair(parse("1/x"), I12, 1.1, quad_tol=1e-12)
        assert_all_equal(r, 0.75, tol=1e-11)

    def test_identity_function_slack_signs(self):
        r = chain_reflected_pair(parse("x"), I12, 1.1, quad_tol=1e-12)
        values = r.term_values()
        assert values[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert r.passed
        assert values[0] <= values[1] <= values[2]

    def test_printed_halves_middle(self):
        corrected = chain_reflected_pair(parse("1"), I12, 1.1)
        printed = chain_reflected_pair(parse("1"), I12, 1.1, variant="as_printed")
        assert printed.terms[1].value == pytest.approx(0.5 * corrected.terms[1].value, rel=1e-12)
        assert not printed.passed

    def test_beyond_midpoint_is_fine(self):
        # x > 2ab/(a+b): coefficient and inner integral both flip sign
        r = chain_reflected_pair(parse("exp(x)"), I12, 1.7, quad_tol=1e-11)
        assert r.passed

    def test_midpoint_excluded(self):
        with pytest.raises(ValueError, match="midpoint"):
            chain_reflected_pair(parse("x"), I12, I12.harmonic_midpoint)


class TestChainRefinement:
    def test_constant(self):
        assert_all_equal(chain_refinement(parse("1"), I12), 1.0)

    def test_reciprocal(self):
        r = chain_refinement(parse("1/x"), I12, quad_tol=1e-10)
        assert_all_equal(r, 0.75, tol=1e-9)

    def test_neg_log_reversed(self):
        r = chain_refinement(parse("-ln(x)"), I12, direction="concave", quad_tol=1e-10)
        values = r.term_values()
        assert values[0] == pytest.approx(-math.log(4.0 / 3.0), rel=1e-12)
        assert values[2] == pytest.approx(0.5 - 7.0 / 6.0 * LN2, abs=1e-9)
        assert values[0] >= values[1] >= values[2]
        assert r.passed

    def test_identity_weight_matches_plain(self):
        f = parse("exp(x)")
        plain = chain_refinement(f, I12, quad_tol=1e-10)
        weighted = chain_refinement(f, I12, h=IDENTITY_H, quad_tol=1e-10)
        for u, v in zip(plain.term_values(), weighted.term_values()):
            assert u == pytest.approx(v, rel=1e-10)

    def test_p_weight_scalings(self):
        h1 = HFunction.from_source("1")
        r = chain_refinement(parse("1"), I12, h=h1, quad_tol=1e-10)
        assert r.term_values() == pytest.approx((0.5, 1.0, 2.0), abs=1e-9)
        assert r.passed

    def test_printed_variant_fails_constants(self):
        r = chain_refinement(parse("1"), I12, variant="as_printed")
        assert r.terms[1].value == pytest.approx(0.5, abs=1e-9)
        assert not r.passed


_WEIGHTS = (None,) + builtin_h()


@settings(max_examples=20, deadline=None)
@given(
    source=st.one_of(
        st.sampled_from([e.name for e in builtin_functions()]), st.integers(min_value=0, max_value=11)
    ),
    variant=st.sampled_from(ineq.VARIANTS),
    cases=st.lists(
        st.tuples(st.sampled_from(_WEIGHTS), st.sampled_from(("convex", "concave"))),
        min_size=1,
        max_size=4,
    ),
)
def test_refinement_reports_match_chain_refinement(source, variant, cases):
    # one call for all cases shares the weight-independent terms; no case
    # may see another's scalings
    if isinstance(source, str):
        entry = next(e for e in builtin_functions() if e.name == source)
        f, interval, quad_tol = entry.spec, entry.interval, 1e-9
    else:
        # kinked, so coarser: the nested integral costs ~0.1 s at 1e-6
        f, interval, quad_tol = random_harmonic_convex(source, I12), I12, 1e-5
    batched = refinement_reports(f, interval, cases, quad_tol=quad_tol, variant=variant)
    separate = [
        chain_refinement(f, interval, h=h, quad_tol=quad_tol, variant=variant, direction=direction)
        for h, direction in cases
    ]
    # repr prints every float exactly, and tells -0.0 from 0.0
    assert [repr(r) for r in batched] == [repr(r) for r in separate]


_C1_CASES = [(h, direction) for h in builtin_h() for direction in ("convex", "concave")]


@pytest.mark.parametrize("variant", ineq.VARIANTS)
@pytest.mark.parametrize("source", [e.name for e in builtin_functions()] + [7])
def test_weighted_reports_match_weighted_bounds(source, variant):
    # one call for all cases shares the weight-independent terms; no case
    # may see another's h or direction
    if isinstance(source, str):
        entry = next(e for e in builtin_functions() if e.name == source)
        f, interval, w, cases = entry.spec, entry.interval, parse("x^2"), _C1_CASES
    else:
        # plain callables: no batch of their own, kinks in f and w
        f, interval = random_harmonic_convex(source, I12), I12
        w = random_harmonic_convex(source + 1, I12)
        h = HFunction.from_callable(lambda t: math.sqrt(t) + t * t, name="sqrt(t)+t^2")
        cases = [(h, "convex"), (IDENTITY_H, "concave"), (h, "concave")]
    batched = weighted_reports(f, w, interval, cases, quad_tol=1e-9, variant=variant)
    separate = [
        weighted_bounds(f, h, w, interval, quad_tol=1e-9, variant=variant, direction=direction)
        for h, direction in cases
    ]
    # repr prints every float exactly, and tells -0.0 from 0.0
    assert [repr(r) for r in batched] == [repr(r) for r in separate]


class TestChainHarmonicFull:
    def test_reciprocal_equality(self):
        r = chain_harmonic_full(parse("1/x"), I12, 1.3, 1.9, quad_tol=1e-12)
        assert_all_equal(r, 0.75, tol=1e-11)
        assert len(r.terms) == 4

    def test_full_range_collapses_first_link(self):
        r = chain_harmonic_full(parse("exp(x)"), I12, 1.0, 2.0, quad_tol=1e-11)
        assert r.terms[0].value == pytest.approx(r.terms[1].value, rel=1e-12)

    def test_identity_function(self):
        r = chain_harmonic_full(parse("x"), I12, 1.25, 1.75, quad_tol=1e-11)
        assert r.terms[0].value == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert r.passed

    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize(
        "f", [parse("exp(x) + abs(x - 1.5)"), random_harmonic_convex(3, I12)], ids=["parsed", "random_hc_3"]
    )
    def test_is_the_midpoint_before_the_t3_terms(self, f, direction):
        t3 = chain_subinterval(f, I12, 1.2, 1.7, direction=direction)
        terms = [ChainTerm("midpoint", f(I12.harmonic_midpoint)), *t3.terms]
        expected = ChainReport.build("r3", "derived_corrected", direction, terms, t3.tol, t3.metadata)
        assert repr(chain_harmonic_full(f, I12, 1.2, 1.7, direction=direction)) == repr(expected)


class TestProductInequalities:
    def test_reciprocal_pair_equality(self):
        lower, upper = product_inequalities(parse("1/x"), parse("1/x"), I12, quad_tol=1e-12)
        assert lower.term_values() == pytest.approx((9.0 / 16.0, 9.0 / 16.0), abs=1e-10)
        assert upper.term_values() == pytest.approx((9.0 / 16.0, 9.0 / 16.0), abs=1e-10)
        assert lower.passed and upper.passed

    def test_constants(self):
        lower, upper = product_inequalities(parse("2"), parse("2"), I12)
        assert_all_equal(lower, 4.0)
        assert_all_equal(upper, 4.0)

    def test_mixed_pair(self):
        lower, upper = product_inequalities(parse("1/x"), parse("x"), I12, quad_tol=1e-12)
        w = lower.terms[1].value
        assert w == pytest.approx(1.5 * LN2, abs=1e-10)
        assert lower.passed and upper.passed

    def test_printed_upper_coefficient_breaks(self):
        f = parse("x")
        _, corrected = product_inequalities(f, f, I12, quad_tol=1e-12)
        _, printed = product_inequalities(f, f, I12, quad_tol=1e-12, variant="as_printed")
        w = 1.0 + (4.0 / 3.0) * LN2
        assert corrected.terms[0].value == pytest.approx(w, abs=1e-10)
        assert corrected.terms[1].value == pytest.approx(17.0 / 3.0 * LN2 - 2.0, abs=1e-10)
        assert corrected.passed
        assert printed.terms[1].value == pytest.approx(16.0 / 3.0 * LN2 - 2.0, abs=1e-10)
        assert not printed.passed


def _t4_outcome(f, g, interval, **kwargs):
    """The repr of t4's reports, or the type and message of what it raises."""
    try:
        return repr(product_inequalities(f, g, interval, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("variant", ["derived_corrected", "as_printed"])
@pytest.mark.parametrize(
    "make_f, interval",
    [
        (lambda: parse("exp(x)"), I12),
        (lambda: parse("1/x"), HInterval(1e-6, 2e-6)),
        (lambda: parse("-ln(x)"), HInterval(1e-6, 2e-6)),
        (lambda: parse("x^2 + 1/x"), HInterval(-3.0, -0.5)),
        (lambda: parse("ln(x - 1.5)"), I12),
        (lambda: parse("x + 0/(x - 1.8707655927996971)"), I12),
        (lambda: parse("x + 0/(x - 1.9054347585233533)"), I12),
        (lambda: random_harmonic_convex(6, I12), I12),
    ],
    ids=[
        "exp", "reciprocal_tiny", "neg_log_tiny", "negative", "domain_error", "fails_at_a_node",
        "fails_at_a_reflection", "piecewise",
    ],
)
def test_t4_with_g_is_f_matches_a_distinct_g(make_f, interval, variant):
    # g is f takes one integral of f/t^2 and one batch of f per segment of
    # the product; an equal, distinct g takes two integrals and two batches.
    # The two failing f divide by zero at node 11 of [1, 2], in the integral
    # of f/t^2, and at the reflection of node 1, in the product
    f = make_f()
    assert _t4_outcome(f, f, interval, variant=variant) == _t4_outcome(f, make_f(), interval, variant=variant)


class TestChainHSubinterval:
    def test_identity_weight_reduces_to_t3(self):
        for src in ("1/x", "exp(x)", "x^2"):
            f = parse(src)
            t3 = chain_subinterval(f, I12, 1.2, 1.8, quad_tol=1e-12)
            t5 = chain_h_subinterval(f, IDENTITY_H, I12, 1.2, 1.8, quad_tol=1e-12)
            for u, v in zip(t3.term_values(), t5.term_values()):
                assert u == pytest.approx(v, abs=1e-12)

    def test_constant_identity_weight_full_range(self):
        r = chain_h_subinterval(parse("3"), IDENTITY_H, I12, 1.0, 2.0, quad_tol=1e-12)
        assert_all_equal(r, 3.0)

    def test_particular_case_p_weight(self):
        # x = a, y = b with h == 1 on f = 1/t
        h1 = HFunction.from_source("1")
        r = chain_h_subinterval(parse("1/x"), h1, I12, 1.0, 2.0, quad_tol=1e-12)
        assert r.term_values() == pytest.approx((0.375, 0.75, 1.5), abs=1e-10)
        assert r.passed


class TestBoundsHPointwise:
    def test_barycentric_weights_sum_to_one(self):
        from hhverify.ineq import _barycentric_weights

        weights = _barycentric_weights(I12, [1.0, 1.2, 4.0 / 3.0, 1.9, 2.0])
        assert list(map(len, weights)) == [5, 5]
        for w1, w2 in zip(*weights):
            assert w1 + w2 == pytest.approx(1.0, abs=1e-14)
            assert -1e-12 <= w1 <= 1.0 + 1e-12

    def test_identity_weight_recovers_t2(self):
        for src in ("1/x", "exp(x)"):
            f = parse(src)
            t2 = bounds_pointwise(f, I12, 1.4)
            t6 = bounds_h_pointwise(f, IDENTITY_H, I12, 1.4)
            for u, v in zip(t2.term_values(), t6.term_values()):
                assert u == pytest.approx(v, abs=1e-12)

    def test_reciprocal_equality(self):
        r = bounds_h_pointwise(parse("1/x"), IDENTITY_H, I12, 1.5)
        assert_all_equal(r, 0.75, tol=1e-12)

    def test_tight_at_endpoint(self):
        r = bounds_h_pointwise(parse("exp(x)"), IDENTITY_H, I12, 1.0)
        assert r.terms[1].value == pytest.approx(r.terms[2].value, rel=1e-14)

    def test_printed_skips_first_weight_application(self):
        h2 = HFunction.from_source("x^2")
        corrected = bounds_h_pointwise(parse("1/x"), h2, I12, 1.5)
        printed = bounds_h_pointwise(parse("1/x"), h2, I12, 1.5, variant="as_printed")
        assert printed.terms[2].value > corrected.terms[2].value  # w1 > w1^2 here


class TestWeightedBounds:
    def test_unit_weight_identity_h_reciprocal(self):
        r = weighted_bounds(parse("1/x"), IDENTITY_H, parse("1"), I12, quad_tol=1e-12)
        assert_all_equal(r, 0.75, tol=1e-10)
        assert r.passed

    def test_zero_weight(self):
        r = weighted_bounds(parse("1/x"), IDENTITY_H, parse("0"), I12)
        assert_all_equal(r, 0.0)

    def test_identity_function_slack_signs(self):
        r = weighted_bounds(parse("x"), IDENTITY_H, parse("1"), I12, quad_tol=1e-12)
        values = r.term_values()
        assert values[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert values[2] == pytest.approx(1.5, abs=1e-10)
        assert values[0] <= values[1] <= values[2]
        assert r.passed

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            weighted_bounds(parse("1/x"), IDENTITY_H, parse("x - 1.5"), I12)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match=r"negative or NaN at t=1\.5$"):
            weighted_bounds(parse("1/x"), IDENTITY_H, lambda t: math.nan if t == 1.5 else 1.0, I12)

    def test_printed_jacobian_slip_recorded(self):
        # for w == 1, h = id the printed right-hand side integrates
        # 2*w1(t) instead of w1(t) + w2(t) == 1: off by 4(1 - ln 2) - 1
        corrected = weighted_bounds(parse("1/x"), IDENTITY_H, parse("1"), I12, quad_tol=1e-12)
        printed = weighted_bounds(
            parse("1/x"), IDENTITY_H, parse("1"), I12, quad_tol=1e-12, variant="as_printed"
        )
        expected_printed = 0.75 * 4.0 * (1.0 - LN2)
        assert printed.terms[2].value == pytest.approx(expected_printed, abs=1e-10)
        assert corrected.terms[2].value == pytest.approx(0.75, abs=1e-10)
        for report in (corrected, printed):
            dev = report.metadata["printed_right_deviation"]
            assert dev == pytest.approx(expected_printed - 0.75, abs=1e-9)

    def test_printed_jacobian_slip_can_violate(self):
        # the deviation is int w2(s) w(s) (r(s)^2/s^2 - 1) ds, so a weight
        # supported right of the harmonic midpoint (where r(s) < s) drives
        # the printed right-hand side below the tight middle term
        w = parse("max(x - 1.3333333333333333, 0)^2")
        corrected = weighted_bounds(parse("1/x"), IDENTITY_H, w, I12, quad_tol=1e-12)
        printed = weighted_bounds(parse("1/x"), IDENTITY_H, w, I12, quad_tol=1e-12, variant="as_printed")
        assert corrected.passed
        assert printed.metadata["printed_right_deviation"] < 0.0
        assert not printed.passed

    @pytest.mark.parametrize("h_source", ["x", "x^2", "x^0.5", "x^0.25", "1"])
    @pytest.mark.parametrize(
        "lo,hi", [(1.0, 2.0), (0.5, 3.0), (1.0, 10.0), (-2.0, -1.0), (1e-6, 2e-6), (1e3, 2e3)]
    )
    def test_weight_integral_error_bars_cover_mpmath(self, h_source, lo, hi):
        # with f = 1 and w = 1 the right-hand term is the weight integral
        # itself: int h(w1) + h(w2) derived, int 2 h(w1) as printed; for
        # h = x^p, h(w1(t)) behaves like (t - a)^p at a, h(w2(t)) like (b - t)^p at b
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        exact_h = {
            "x": lambda u: u, "x^2": lambda u: u * u, "x^0.5": mp.sqrt,
            "x^0.25": lambda u: mp.root(u, 4), "1": lambda u: mp.mpf(1),
        }[h_source]
        a, b = mp.mpf(lo), mp.mpf(hi)

        def w1(t):
            return b * (a - t) / (t * (a - b))

        def w2(t):
            return a * (t - b) / (t * (a - b))

        references = {
            "derived_corrected": mp.quad(lambda t: exact_h(w1(t)) + exact_h(w2(t)), [a, b]),
            "as_printed": mp.quad(lambda t: 2 * exact_h(w1(t)), [a, b]),
        }
        h = HFunction.from_source(h_source)
        for variant, reference in references.items():
            term = weighted_bounds(parse("1"), h, parse("1"), HInterval(lo, hi), variant=variant).terms[2]
            assert abs(term.value - float(reference)) <= term.abs_error, variant


# the kinks each evaluator passes, one entry per integral it takes, on a
# kinked f: f's own, those of sym(f) (f's and their reflections), or none
# for integrals of a kink-free w and h alone; t4 with g = f integrates f/t^2
# once, and with another kinked g also g/t^2 at g's kinks; with f as c1's
# weight w, its h-weight integrals take them as values of theta
_KINKED_F = random_harmonic_convex(6, I12)
_KINKED_G = random_harmonic_convex(9, I12)
_F_KINKS = _KINKED_F.kinks
_G_KINKS = _KINKED_G.kinks
_SYM_KINKS = sym_transform(_KINKED_F, I12).kinks
_X, _Y = 1.31, 1.83


def _graded(kinks):
    """Kinks in t on I12 as the theta of c1's h-weight integrals, where
    t = 1 + (1 - cos(pi*theta))/2."""
    return tuple(math.acos(1.0 - 2.0 * (t - 1.0)) / math.pi for t in kinks)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda f: chain_hh_classic(f, 1.0, 2.0), [_F_KINKS]),
        (lambda f: chain_harmonic_hh(f, I12), [_F_KINKS]),
        (lambda f: chain_subinterval(f, I12, _X, _Y), [_F_KINKS, _F_KINKS]),
        (lambda f: chain_reflected_pair(f, I12, _X), [_F_KINKS]),
        (lambda f: chain_harmonic_full(f, I12, _X, _Y), [_F_KINKS, _F_KINKS]),
        (lambda f: chain_refinement(f, I12, quad_tol=1e-5), [_SYM_KINKS]),
        (lambda f: product_inequalities(f, f, I12), [_F_KINKS, _SYM_KINKS + _F_KINKS]),
        (lambda f: product_inequalities(f, _KINKED_G, I12), [_F_KINKS, _G_KINKS, _SYM_KINKS + _G_KINKS]),
        (lambda f: chain_h_subinterval(f, IDENTITY_H, I12, _X, _Y), [_F_KINKS, _F_KINKS]),
        (lambda f: weighted_bounds(f, IDENTITY_H, lambda t: 1.0, I12), [(), _SYM_KINKS, (), ()]),
        (
            lambda f: weighted_bounds(f, IDENTITY_H, f, I12),
            [_F_KINKS, _SYM_KINKS + _F_KINKS, _graded(_F_KINKS), _graded(_SYM_KINKS)],
        ),
    ],
    ids=["hh_classic", "t1", "t3", "r2", "r3", "r4", "t4", "t4_distinct_g", "t5", "c1", "c1_kinked_w"],
)
def test_evaluators_pass_kinks_as_breakpoints(monkeypatch, call, expected):
    # the nested r4 double integral calls the quadrature module's own
    # names, so it is not recorded here; test_quad records the kinks of
    # sym(f) at its outer level and none at its inner one
    seen = []
    for name in ("integrate", "weighted_integral", "reflected_weighted_integral"):

        def recording(*args, _original=getattr(ineq, name), **kwargs):
            seen.append(tuple(kwargs.get("breakpoints", ())))
            return _original(*args, **kwargs)

        monkeypatch.setattr(ineq, name, recording)
    call(_KINKED_F)
    assert seen == expected


class TestChainReportMechanics:
    def test_slack_layout(self):
        r = ChainReport.build(
            "demo", "derived_corrected", "convex",
            [ChainTerm("a", 1.0), ChainTerm("b", 2.0), ChainTerm("c", 1.5)],
            tol=1e-8,
        )
        assert r.slacks == (1.0, -0.5)
        assert len(r.slacks) == len(r.terms) - 1
        assert not r.passed

    def test_concave_reverses_slacks(self):
        r = ChainReport.build(
            "demo", "derived_corrected", "concave",
            [ChainTerm("a", 2.0), ChainTerm("b", 1.0)],
            tol=1e-8,
        )
        assert r.slacks == (1.0,)
        assert r.passed

    def test_error_bars_gate_pass(self):
        # a slack negative beyond tol + bars must fail; within bars must pass
        terms = [ChainTerm("a", 1.0, 0.0), ChainTerm("b", 1.0 - 5e-7, 1e-6)]
        assert ChainReport.build("demo", "derived_corrected", "convex", terms, tol=1e-8).passed
        terms = [ChainTerm("a", 1.0, 0.0), ChainTerm("b", 1.0 - 5e-6, 1e-6)]
        assert not ChainReport.build("demo", "derived_corrected", "convex", terms, tol=1e-8).passed

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_tolerance_is_relative(self, scale):
        def passed(drop):
            terms = [ChainTerm("a", scale), ChainTerm("b", scale * (1.0 - drop))]
            return ChainReport.build("demo", "derived_corrected", "convex", terms, tol=1e-8).passed

        assert passed(5e-9)
        assert not passed(5e-8)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                st.floats(min_value=0.0, allow_infinity=True),
            ),
            max_size=5,
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(["convex", "concave"]),
    )
    def test_build_matches_its_definition(self, pairs, tol, direction):
        terms = [ChainTerm(f"t{i}", v, e) for i, (v, e) in enumerate(pairs)]
        r = ChainReport.build("demo", "derived_corrected", direction, terms, tol)
        sign = 1.0 if direction == "convex" else -1.0
        values = [t.value for t in terms]
        slacks = [sign * (values[i + 1] - values[i]) for i in range(len(terms) - 1)]
        errors = [terms[i].abs_error + terms[i + 1].abs_error for i in range(len(terms) - 1)]
        finite = all(math.isfinite(v) for v in values)
        allowance = tol * max(map(abs, values)) if finite and values else 0.0
        passed = finite and all(s >= -(allowance + e) for s, e in zip(slacks, errors))
        # repr tells NaN from NaN and -0.0 from 0.0, which == does not
        assert list(map(repr, r.slacks)) == list(map(repr, slacks))
        assert list(map(repr, r.slack_errors)) == list(map(repr, errors))
        assert r.passed is passed
        assert r.terms == tuple(terms)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            ChainReport.build("demo", "derived_corrected", "sideways", [ChainTerm("a", 1.0)], 1e-8)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            chain_subinterval(parse("x"), I12, 1.2, 1.8, variant="misprinted")

    def test_to_dict_shape(self):
        r = chain_harmonic_hh(parse("1/x"), I12)
        d = r.to_dict()
        assert d["chain"] == "t1"
        assert len(d["terms"]) == 3
        assert len(d["slacks"]) == 2
        assert d["metadata"]["f"] == "1/x"


@pytest.mark.parametrize("c", [1e-10, 1e-8])
def test_small_harmonic_concave_function_violates_every_chain_but_t4(c):
    # c*(4 - x^2) is strictly harmonic concave on [1, 2] at every scale c > 0,
    # so in the convex direction every chain reports a violation, except t4,
    # whose g = f meets its own hypothesis
    f = parse(f"{c!r}*(4 - x^2)")
    passed = {
        chain_id: all(
            r.passed
            for r in run_chain(chain_id, f=f, interval=I12, x=1.2, y=1.7, g=f, h=IDENTITY_H,
                               w=parse("1"), direction="convex")
        )
        for chain_id in CHAINS
    }
    assert passed == {chain_id: chain_id == "t4" for chain_id in CHAINS}


class TestEqualityCharacterization:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, -1.0), (-0.5, 3.0)])
    def test_harmonic_affine_family(self, alpha, beta):
        # f(t) = alpha/t + beta gives all-equal terms in every plain chain
        f = parse(f"{alpha!r}/x + {beta!r}")
        expected = alpha * 0.75 + beta
        for report in (
            chain_harmonic_hh(f, I12, quad_tol=1e-12),
            bounds_pointwise(f, I12, 1.45),
            chain_subinterval(f, I12, 1.15, 1.85, quad_tol=1e-12),
            chain_reflected_pair(f, I12, 1.2, quad_tol=1e-12),
            chain_refinement(f, I12, quad_tol=1e-10),
            chain_h_subinterval(f, IDENTITY_H, I12, 1.15, 1.85, quad_tol=1e-12),
        ):
            assert_all_equal(report, expected, tol=1e-9)


class TestChainTable:
    ARGS = dict(
        f=parse("x^2"), interval=I12, x=1.2, y=1.7, g=parse("1/x"), h=IDENTITY_H,
        w=parse("1"), tol=1e-8, quad_tol=1e-10, variant="as_printed", direction="convex",
    )

    def test_evaluators_exist_and_take_f_and_interval(self):
        for chain in CHAINS.values():
            assert callable(getattr(ineq, chain.evaluator))
            assert {"f", "interval"} <= set(chain.parameters())
            assert chain.hypothesis in ("symmetrized", "harmonic", "symmetrized_h")

    def test_cases_evaluators_take_their_chains_parameters(self):
        # the sweep passes a cases evaluator the keywords of its chain's
        # evaluator, with cases in place of h and direction
        named = {chain.id: chain.cases_evaluator for chain in CHAINS.values() if chain.cases_evaluator}
        assert named == {"c1": "weighted_reports", "r4": "refinement_reports"}
        for chain_id, name in named.items():
            expected = set(CHAINS[chain_id].parameters()) - {"h", "direction"} | {"cases"}
            assert set(inspect.signature(getattr(ineq, name)).parameters) == expected

    @pytest.mark.parametrize("chain_id", list(CHAINS))
    def test_run_chain_matches_direct_call(self, chain_id):
        reports = run_chain(chain_id, **self.ARGS)
        params = CHAINS[chain_id].parameters()
        direct = getattr(ineq, CHAINS[chain_id].evaluator)(
            **{k: v for k, v in self.ARGS.items() if k in params}
        )
        assert reports == (direct if isinstance(direct, tuple) else (direct,))
        assert [r.chain_id for r in reports] == (
            ["t4_lower", "t4_upper"] if chain_id == "t4" else [chain_id]
        )

    def test_evaluator_looked_up_at_call_time(self, monkeypatch):
        # a wrapper that keeps the signature, as tracers put on module attributes
        calls = []
        original = ineq.chain_harmonic_hh

        @functools.wraps(original)
        def replaced(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(ineq, "chain_harmonic_hh", replaced)
        run_chain("t1", f=parse("1/x"), interval=I12)
        assert len(calls) == 1

    def test_rejects_unknown_chain_and_keywords(self):
        with pytest.raises(ValueError, match="unknown chain"):
            run_chain("t9", f=parse("1/x"), interval=I12)
        with pytest.raises(TypeError, match="quadtol"):
            run_chain("t1", f=parse("1/x"), interval=I12, quadtol=1e-9)
