import bisect
import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

from hhverify import quad
from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import EvalDomainError, parse
from hhverify.hmean import HInterval, sym_transform
from hhverify.ineq import chain_refinement
from hhverify.quad import (
    _XGK,
    QuadratureBudgetError,
    QuadResult,
    integrate,
    reflected_weighted_integral,
    refinement_double_integral,
    weighted_integral,
)


# the kinked intervals of acceptance criterion 6, by seed mod 3
KINKED_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (-2.0, -1.0))


def piecewise_oracle(f, mp):
    """G and its antiderivative, in ``mp`` arithmetic, for f(t) = G(1/t) a
    ``PiecewiseConvexReciprocal``: G continues past the end knots with the
    end slopes, and the antiderivative is exact piece by piece."""
    knots = [mp.mpf(k) for k in f.knots]
    values = [mp.mpf(v) for v in f.values]
    slopes = [mp.mpf(m) for m in f.slopes]
    # antiderivative of G at each knot, from the first one
    cumulative = [mp.mpf(0)]
    for i in range(len(slopes)):
        d = knots[i + 1] - knots[i]
        cumulative.append(cumulative[-1] + values[i] * d + slopes[i] * d * d / 2)

    def piece(u):
        return min(max(bisect.bisect_right(f.knots, float(u)) - 1, 0), len(slopes) - 1)

    def g(u):
        i = piece(u)
        return values[i] + slopes[i] * (u - knots[i])

    def antiderivative(u):
        i = piece(u)
        d = u - knots[i]
        return cumulative[i] + values[i] * d + slopes[i] * d * d / 2

    return g, antiderivative


def double_integral_reference(f, lo, hi):
    """The mean over x in [lo, hi] of G(x) = coef(x) * int_x^{r(x)} f/t^2 at
    30 digits, for f(t) = G(1/t) a ``PiecewiseConvexReciprocal``.  The inner
    integral is exact: the integral of G from 1/r(x) to 1/x.  The outer mean
    runs through mpmath, split at x* and at every point where 1/x or 1/r(x)
    crosses a knot of G."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    _, antiderivative = piecewise_oracle(f, mp)
    a, b = mp.mpf(lo), mp.mpf(hi)
    ab, s = a * b, a + b
    xstar = 2 * ab / s

    def reflect(t):
        return ab * t / (s * t - ab)

    def mean_integrand(x):  # tanh-sinh never evaluates x* itself
        coef = ab * x / (2 * ab - s * x)
        return coef * (antiderivative(1 / x) - antiderivative(1 / reflect(x)))

    kinks = {1 / mp.mpf(k) for k in f.knots[1:-1]}
    kinks |= {reflect(t) for t in kinks}
    points = sorted({a, b, xstar} | {t for t in kinks if a < t < b})
    return float(mp.quad(mean_integrand, points) / (b - a))


# The inner integrals of the nested r4 integral take no breakpoints, and at
# tight tolerances their Gauss-Kronrod estimates miss kinks lying between the
# nodes, so the bar misses the exact value (by 1.4 to 63 times on these seeds)
_INNER_KINK_MISS = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="inner integrals of the nested r4 integral take no breakpoints"
)


class TestIntegrate:
    def test_polynomial_exactness(self):
        # the embedded pair must nail low-degree monomials in one panel
        for k in range(6):
            exact = (2.0 ** (k + 1) - 1.0) / (k + 1)
            res = integrate(lambda t, k=k: t**k, 1.0, 2.0, tol=1e-12)
            assert res.value == pytest.approx(exact, rel=1e-13)

    def test_inverse_cube(self):
        res = integrate(lambda t: t**-3, 1.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(0.375, abs=1e-12)

    def test_constant(self):
        res = integrate(lambda t: 1.0, 1.0, 2.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_orientation_flip(self):
        res = integrate(lambda t: 1.0 / t, 2.0, 1.0, tol=1e-12)
        assert res.value == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_empty_range(self):
        res = integrate(lambda t: 1.0 / t, 1.5, 1.5)
        assert res.value == 0.0
        assert res.subdivisions == 0

    def test_additivity(self):
        f = parse("exp(x)")
        whole = integrate(f, 1.0, 2.0, tol=1e-11)
        left = integrate(f, 1.0, 1.37, tol=1e-11)
        right = integrate(f, 1.37, 2.0, tol=1e-11)
        combined_err = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
        assert abs(whole.value - (left.value + right.value)) <= 1e-12 + combined_err

    def test_kinked_integrand(self):
        res = integrate(parse("abs(x)"), -1.0, 1.0, tol=1e-11)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.subdivisions > 1

    def test_error_estimate_honest(self):
        cases = [
            (parse("exp(x)"), 0.0, 1.0, math.e - 1.0),
            (parse("1/x"), 1.0, 3.0, math.log(3.0)),
            (parse("x^4"), 0.0, 2.0, 32.0 / 5.0),
            (parse("abs(x - 0.3)"), 0.0, 1.0, 0.3**2 / 2 + 0.7**2 / 2),
        ]
        for f, lo, hi, exact in cases:
            res = integrate(f, lo, hi, tol=1e-10)
            assert abs(res.value - exact) <= max(1e-10, res.abs_error_estimate)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureBudgetError):
            integrate(lambda t: math.sin(1.0 / (t * t + 1e-8)), 0.0, 1.0, tol=1e-14, max_evals=600)

    def test_evaluation_error_propagates(self):
        with pytest.raises(EvalDomainError):
            integrate(parse("ln(x)"), -1.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_non_finite_limit(self, lo, hi):
        with pytest.raises(ValueError, match="^integration limits must be finite$"):
            integrate(lambda t: t, lo, hi)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 0.0, 1.0, tol=0.0)

    def test_nan_tol(self):
        # rejected at once, not after the evaluation budget is spent
        with pytest.raises(ValueError):
            integrate(lambda t: t, 0.0, 1.0, tol=math.nan)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            QuadResult(math.nan, 0.0, 1)
        with pytest.raises(ValueError):
            QuadResult(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            QuadResult(1.0, math.nan, 1)

    def test_deterministic(self):
        f = parse("exp(x)/x")
        first = integrate(f, 1.0, 2.0, tol=1e-11)
        second = integrate(f, 1.0, 2.0, tol=1e-11)
        assert first == second


class TestBreakpoints:
    @staticmethod
    def kink(t):
        return abs(t - 0.3)

    def test_kink_at_breakpoint_is_exact(self):
        # each side is linear, so one Kronrod panel per side integrates it
        # to rounding
        res = integrate(self.kink, 0.0, 1.0, tol=1e-12, breakpoints=(0.3,))
        assert res.value == pytest.approx(0.29, abs=1e-15)
        assert res.abs_error_estimate <= 1e-15
        assert res.subdivisions == 2

    def test_kink_between_nodes_random_hc_6(self):
        # random_hc_6 kinks at t = 1.99910, between the outermost node of a
        # segment and its end: without breakpoints the estimate is 8.9e-17
        # and the value off by 5.9e-8.  The exact value is int_{1/2}^1 G.
        f = random_harmonic_convex(6, HInterval(1.0, 2.0))
        knots, values, slopes = ([Fraction(v) for v in vs] for vs in (f.knots, f.values, f.slopes))
        exact = sum(
            values[i] * (knots[i + 1] - knots[i]) + slopes[i] * (knots[i + 1] - knots[i]) ** 2 / 2
            for i in range(len(slopes))
        )
        assert float(exact) == pytest.approx(0.67574316493, abs=1e-11)
        res = weighted_integral(f, 1.0, 2.0, breakpoints=f.kinks)
        # the error bar leaves out rounding, so allow a few units in the
        # last place
        rounding = 4 * sys.float_info.epsilon * float(exact)
        assert abs(Fraction(res.value) - exact) <= res.abs_error_estimate + rounding

    def test_reversed_limits(self):
        forward = integrate(self.kink, 0.0, 1.0, breakpoints=(0.3,))
        backward = integrate(self.kink, 1.0, 0.0, breakpoints=(0.3,))
        assert backward == QuadResult(-forward.value, forward.abs_error_estimate, forward.subdivisions)

    def test_points_outside_at_ends_or_repeated_are_ignored(self):
        once = integrate(self.kink, 0.0, 1.0, breakpoints=(0.3,))
        assert integrate(self.kink, 0.0, 1.0, breakpoints=(2.0, 0.3, 1.0, 0.3, 0.0, -5.0)) == once
        plain = integrate(self.kink, 0.0, 1.0)
        assert integrate(self.kink, 0.0, 1.0, breakpoints=(0.0, 1.0, 1.5, -0.5)) == plain

    @pytest.mark.parametrize(
        "f, lo, hi",
        [(kink.__func__, 0.0, 1.0), (kink.__func__, 1.0, 0.0), (parse("exp(x)/x"), 1.0, 2.0),
         (lambda t: math.sin(1.0 / (t * t + 1e-3)), 0.0, 1.0), (lambda t: -0.0, 0.0, 1.0)],
    )
    def test_no_breakpoints_or_all_outside_give_the_same_bits(self, f, lo, hi):
        def bits(res):
            return res.value.hex(), res.abs_error_estimate.hex(), res.subdivisions

        plain = bits(integrate(f, lo, hi, tol=1e-12))
        assert bits(integrate(f, lo, hi, tol=1e-12, breakpoints=())) == plain
        outside = (min(lo, hi) - 1.0, lo, hi, max(lo, hi) + 0.5)
        assert bits(integrate(f, lo, hi, tol=1e-12, breakpoints=outside)) == plain

    @pytest.mark.parametrize("points", [(), (0.25, 0.5)])
    @pytest.mark.parametrize("max_evals", [15, 30, 45])
    def test_budget_raises_before_the_first_rule_past_it(self, max_evals, points):
        # 15 evaluations per rule application, counted before it runs: with
        # the breakpoints the budget runs out on a starting segment (15, 30)
        # or on the first bisection (45); without them on the left (15, 45)
        # or the right (30) half of a bisection.  Either way exactly
        # max_evals evaluations run.
        calls = []

        def f(t):
            calls.append(t)
            return math.sin(1.0 / (t * t + 1e-8))

        message = rf"^budget of {max_evals} evaluations exhausted on \[0\.0, 1\.0\]$"
        with pytest.raises(QuadratureBudgetError, match=message):
            integrate(f, 0.0, 1.0, tol=1e-14, max_evals=max_evals, breakpoints=points)
        assert len(calls) == max_evals

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_breakpoint_raises(self, bad):
        with pytest.raises(ValueError):
            integrate(self.kink, 0.0, 1.0, breakpoints=(0.3, bad))

    def test_budget_counts_every_segment(self):
        # four linear segments need 60 evaluations and no subdivision
        points = (0.25, 0.5, 0.75)
        res = integrate(lambda t: t, 0.0, 1.0, max_evals=60, breakpoints=points)
        assert res.subdivisions == 4
        with pytest.raises(QuadratureBudgetError):
            integrate(lambda t: t, 0.0, 1.0, max_evals=59, breakpoints=points)


class TestWeightedIntegral:
    def test_reciprocal(self):
        res = weighted_integral(parse("1/x"), 1.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(0.375, abs=1e-12)

    def test_constant(self):
        res = weighted_integral(parse("1"), 1.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_identity(self):
        res = weighted_integral(parse("x"), 1.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-12)


class TestReflectedWeightedIntegral:
    def test_full_range_equals_plain(self):
        interval = HInterval(1.0, 2.0)
        for src in ("1/x", "exp(x)", "-ln(x)"):
            f = parse(src)
            plain = weighted_integral(f, 1.0, 2.0, tol=1e-12)
            refl = reflected_weighted_integral(f, interval, 1.0, 2.0, tol=1e-12)
            assert refl.value == pytest.approx(plain.value, abs=1e-11)

    def test_coincident_limits(self):
        interval = HInterval(1.0, 2.0)
        res = reflected_weighted_integral(parse("exp(x)"), interval, 1.3, 1.3)
        assert res.value == 0.0

    def test_substitution_identity(self):
        # int_x^y f(r(t))/t^2 dt  ==  int_{r(y)}^{r(x)} f(t)/t^2 dt
        rng = random.Random(31)
        interval = HInterval(1.0, 2.0)
        sources = ["1/x", "x", "x^2", "-ln(x)", "exp(x)", "abs(x - 1.4)", "x^-2", "min(x, 1.6)", "1", "x^3"]
        for src in sources:
            f = parse(src)
            for _ in range(3):
                x = rng.uniform(1.0, 2.0)
                y = rng.uniform(1.0, 2.0)
                direct = integrate(
                    lambda t: f(interval.reflect(t)) / (t * t), x, y, tol=1e-11
                )
                refl = reflected_weighted_integral(f, interval, x, y, tol=1e-11)
                tol = 1e-10 + direct.abs_error_estimate + refl.abs_error_estimate
                assert abs(direct.value - refl.value) <= tol

    def test_symmetric_integrand_needs_no_reflection(self):
        interval = HInterval(1.0, 2.0)
        from hhverify.hmean import sym_transform

        fb = sym_transform(parse("exp(x)"), interval)
        x, y = 1.2, 1.7
        refl = reflected_weighted_integral(fb, interval, x, y, tol=1e-11)
        plain = weighted_integral(fb, x, y, tol=1e-11)
        assert refl.value == pytest.approx(plain.value, abs=1e-9)


class TestRefinementDoubleIntegral:
    def test_constant(self):
        interval = HInterval(1.0, 2.0)
        res = refinement_double_integral(lambda t: 2.5, interval, tol=1e-10)
        assert res.value == pytest.approx(2.5, abs=1e-9)

    def test_reciprocal_collapses_to_constant(self):
        interval = HInterval(1.0, 2.0)
        res = refinement_double_integral(parse("1/x"), interval, tol=1e-10)
        assert res.value == pytest.approx(0.75, abs=1e-9)

    def test_neg_log_between_reversed_bounds(self):
        # sym(-ln) is harmonic concave, so the mean of G sits between the
        # plain mean of the symmetric part and the midpoint value
        interval = HInterval(1.0, 2.0)
        res = refinement_double_integral(parse("-ln(x)"), interval, tol=1e-10)
        upper = -math.log(4.0 / 3.0)
        lower = 0.5 - (7.0 / 6.0) * math.log(2.0)  # mean of sym(-ln), closed form
        assert lower - 1e-9 <= res.value <= upper + 1e-9
        # frozen against an independent composite-Simpson oracle with the
        # closed-form inner antiderivative (ln t + 1)/t
        assert res.value == pytest.approx(-0.2945773535939, abs=1e-9)

    def test_negative_interval(self):
        interval = HInterval(-2.0, -1.0)
        res = refinement_double_integral(parse("1/x"), interval, tol=1e-10)
        assert res.value == pytest.approx(-0.75, abs=1e-9)

    def test_error_estimate_honest(self):
        interval = HInterval(1.0, 2.0)
        res = refinement_double_integral(parse("1/x"), interval, tol=1e-8)
        assert abs(res.value - 0.75) <= max(1e-8, res.abs_error_estimate)

    def test_continuity_value_on_a_node(self):
        # on [1, (1+x7)/(1-x7)] the harmonic midpoint 2ab/(a+b) = 1 + x7 is
        # the Kronrod node c - h*x7 of the first outer segment, up to
        # rounding, so G is taken there as its limit f(x*)
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        x7 = _XGK[6]
        interval = HInterval(1.0, (1.0 + x7) / (1.0 - x7))
        a, b = interval.a, interval.b
        node = 0.5 * (a + b) - 0.5 * (b - a) * x7
        assert abs(node - interval.harmonic_midpoint) <= 4e-16 * interval.harmonic_midpoint

        a, b = mp.mpf(a), mp.mpf(b)
        ab, s = a * b, a + b

        def mean_integrand(x):  # -ln(t)/t^2 has the antiderivative (ln t + 1)/t
            r = ab * x / (s * x - ab)
            return ab * x / (2 * ab - s * x) * ((mp.log(r) + 1) / r - (mp.log(x) + 1) / x)

        reference = mp.quad(mean_integrand, [a, 2 * ab / s, b]) / (b - a)
        res = refinement_double_integral(parse("-ln(x)"), interval, tol=1e-10)
        assert abs(res.value - float(reference)) <= res.abs_error_estimate
        # x* is a Kronrod node only, so a wrong or ill-conditioned value there
        # moves K15 away from G7 and splits the segment
        assert res.subdivisions == 1

    @pytest.mark.parametrize(
        "seed, tol",
        [
            *(pytest.param(seed, 1e-6, id=str(seed)) for seed in (5, 9, 15, 19)),
            pytest.param(5, 1e-9, id="5-tol1e-9", marks=_INNER_KINK_MISS),
            pytest.param(9, 1e-9, id="9-tol1e-9"),
            pytest.param(15, 1e-9, id="15-tol1e-9", marks=_INNER_KINK_MISS),
            pytest.param(19, 1e-9, id="19-tol1e-9", marks=_INNER_KINK_MISS),
        ],
    )
    def test_error_estimate_honest_on_kinks(self, seed, tol):
        # seeds 9 and 15 on [1, 2], 19 on [0.5, 3], 5 on [-2, -1]
        lo, hi = KINKED_INTERVALS[seed % 3]
        interval = HInterval(lo, hi)
        f = random_harmonic_convex(seed, interval)
        res = refinement_double_integral(f, interval, tol=tol)
        assert abs(res.value - double_integral_reference(f, lo, hi)) <= res.abs_error_estimate

    def test_chain_at_quad_tol_1e7_on_random_hc_19(self):
        # without breakpoints at the outer level, the outer integral bisected
        # toward the kinks of G until its budget of 100 000 evaluations ran
        # out (about 21 s); split at them, it takes a few milliseconds
        interval = HInterval(0.5, 3.0)
        f = random_harmonic_convex(19, interval)
        report = chain_refinement(f, interval, quad_tol=1e-7)
        assert report.passed
        term = report.terms[1]
        assert term.label == "double_integral_mean"
        assert abs(term.value - double_integral_reference(f, 0.5, 3.0)) <= term.abs_error

    @pytest.mark.parametrize(
        "make_f", [lambda i: random_harmonic_convex(6, i), lambda i: parse("exp(x)")], ids=["random_hc_6", "exp"]
    )
    def test_kinks_at_the_outer_level_only(self, monkeypatch, make_f):
        # the outer integral starts from the kinks of sym(f) (none for a
        # parsed expression, whose call is then the one without breakpoints);
        # the inner integrals take none
        interval = HInterval(1.0, 2.0)
        f = make_f(interval)
        outer, inner, depth = [], [], [0]
        signature = inspect.signature(quad.integrate)

        def recording_integrate(*args, _original=quad.integrate, **kwargs):
            # breakpoints by keyword or by position
            breakpoints = tuple(signature.bind(*args, **kwargs).arguments.get("breakpoints", ()))
            (inner if depth[0] else outer).append(breakpoints)
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(quad, "integrate", recording_integrate)
        refinement_double_integral(f, interval, tol=1e-6)
        assert outer == [sym_transform(f, interval).kinks]
        assert inner and set(inner) == {()}

    def test_inner_integrals_run_over_ascending_limits(self, monkeypatch):
        # G takes int_x^r(x) as -int_r(x)^x where r(x) < x, so no integral
        # delegates to one over the limits reversed
        limits = []

        def recording_integrate(f, lo, hi, *args, _original=quad.integrate, **kwargs):
            limits.append((lo, hi))
            return _original(f, lo, hi, *args, **kwargs)

        monkeypatch.setattr(quad, "integrate", recording_integrate)
        interval = HInterval(1.0, 2.0)
        refinement_double_integral(parse("exp(x)"), interval, tol=1e-6)
        # the outer integral, then the inner ones of nodes on either side of x*
        assert limits[0] == (1.0, 2.0) and len(limits) > 15
        assert all(lo < hi for lo, hi in limits)


# weights of the kinked chains by seed mod 3: (name, h, h in mpmath, h(1/2),
# int_0^1 h), the last two exact
def _kinked_weights(mp):
    half = mp.mpf(1) / 2
    return (
        ("t", lambda s: s, lambda s: s, half, half),
        ("sqrt(t)", math.sqrt, mp.sqrt, mp.sqrt(half), mp.mpf(2) / 3),
        ("1", lambda s: 1.0, lambda s: mp.mpf(1), mp.mpf(1), mp.mpf(1)),
    )


@pytest.mark.parametrize("seed", range(24))
def test_kinked_chain_error_bars_cover_exact_values(seed):
    # Every t1, t3, t4 and c1 term, c1 with the kinked function as its
    # weight too, and the r4 mean of sym(f), on the kinked functions,
    # against exact values: with u = 1/t,
    # int_a^b k(1/t)/t^2 dt = int_{1/b}^{1/a} k(u) du, f(1/u) = G(u) and
    # f(r(1/u)) = G(1/a + 1/b - u), so the weighted integrals of f come from
    # the antiderivative of G, and the rest are integrals in u of piecewise
    # polynomial or rational integrands, split at every kink.
    from hhverify.ineq import (
        HFunction,
        chain_harmonic_hh,
        chain_subinterval,
        product_inequalities,
        refinement_reports,
        weighted_bounds,
    )

    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    lo, hi = KINKED_INTERVALS[seed % 3]
    interval = HInterval(lo, hi)
    f = random_harmonic_convex(seed, interval)
    g, antiderivative = piecewise_oracle(f, mp)
    h_name, h_fn, h_mp, h_half, h_int = _kinked_weights(mp)[seed % 3]
    h = HFunction.from_callable(h_fn, name=h_name)

    a, b = mp.mpf(lo), mp.mpf(hi)
    ab, s = a * b, a + b
    c = 1 / a + 1 / b  # the reflection in u = 1/t is u -> c - u
    u_lo, u_hi = 1 / b, 1 / a
    kinks = [mp.mpf(k) for k in f.knots[1:-1]]
    cuts = sorted({u_lo, u_hi} | {k for k in kinks + [c - k for k in kinks] if u_lo < k < u_hi})

    def f_mp(t):
        return g(1 / mp.mpf(t))

    def reflect(t):
        t = mp.mpf(t)
        return ab * t / (s * t - ab)

    def weighted(p, q):  # int_p^q f/t^2
        return antiderivative(1 / mp.mpf(p)) - antiderivative(1 / mp.mpf(q))

    def sym_u(u):  # sym(f)(1/u)
        return (g(u) + g(c - u)) / 2

    scale = ab / (b - a)
    m = 2 * ab / s
    avg = (f_mp(lo) + f_mp(hi)) / 2
    i_f = scale * weighted(lo, hi)
    product = scale * mp.quad(lambda u: sym_u(u) * g(u), cuts)
    sym_mass = mp.quad(lambda u: sym_u(u) / (u * u), cuts)  # int_a^b sym(f)
    f_mass = mp.quad(lambda u: g(u) / (u * u), cuts)  # int_a^b f
    t_cuts = sorted({a, b} | {1 / u for u in cuts[1:-1]})  # the cuts in t

    x, y = lo + 0.31 * (hi - lo), lo + 0.83 * (hi - lo)
    mid_xy = 2.0 * x * y / (x + y)

    def h_weights(t):
        w1 = b * (a - t) / (t * (a - b))
        return h_mp(w1) + h_mp(1 - w1)

    t4_lower, t4_upper = product_inequalities(f, f, interval)
    r4, r4_h = refinement_reports(f, interval, ((None, "convex"), (h, "convex")), quad_tol=1e-6)
    expected = [
        (chain_harmonic_hh(f, interval), [f_mp(m), i_f, avg]),
        (
            chain_subinterval(f, interval, x, y),
            [
                (f_mp(mid_xy) + f_mp(reflect(mid_xy))) / 2,
                x * y / (2 * (y - x)) * (weighted(x, y) + weighted(reflect(y), reflect(x))),
                (f_mp(x) + f_mp(reflect(x)) + f_mp(y) + f_mp(reflect(y))) / 4,
            ],
        ),
        (t4_lower, [2 * avg * i_f - avg * avg, product]),
        (t4_upper, [product, avg * i_f + f_mp(m) * i_f - f_mp(m) * avg]),
        (
            weighted_bounds(f, h, lambda t: 1.0, interval),
            [f_mp(m) / (2 * h_half) * (b - a), sym_mass, avg * mp.quad(h_weights, [a, b])],
        ),
        (
            # f as the weight w of the constant 1
            weighted_bounds(lambda t: 1.0, h, f, interval),
            [f_mass / (2 * h_half), f_mass, mp.quad(lambda t: h_weights(t) * f_mp(t), t_cuts)],
        ),
        (r4, [None, None, sym_mass / (b - a)]),
        (r4_h, [None, None, 2 * h_int * sym_mass / (b - a)]),
    ]
    uncovered = [
        f"{rep.chain_id} {term.label}: {term.value!r} vs {float(ref)!r}, bar {term.abs_error!r}"
        for rep, refs in expected
        for term, ref in zip(rep.terms, refs)
        if ref is not None and not abs(term.value - float(ref)) <= term.abs_error + rep.tol
    ]
    assert not uncovered
