import bisect
import math
import random

import pytest

from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import EvalDomainError, parse
from hhverify.hmean import HInterval
from hhverify.quad import (
    QuadratureBudgetError,
    QuadResult,
    integrate,
    reflected_weighted_integral,
    refinement_double_integral,
    weighted_integral,
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

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 0.0, 1.0, tol=0.0)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            QuadResult(math.nan, 0.0, 1)
        with pytest.raises(ValueError):
            QuadResult(1.0, -1.0, 1)

    def test_deterministic(self):
        f = parse("exp(x)/x")
        first = integrate(f, 1.0, 2.0, tol=1e-11)
        second = integrate(f, 1.0, 2.0, tol=1e-11)
        assert first == second


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

    @pytest.mark.parametrize("seed", [5, 9, 15, 19])
    def test_error_estimate_honest_on_kinks(self, seed):
        # f(t) = G(1/t) with G piecewise linear, so the inner integral is
        # exact: int_x^{r(x)} f/t^2 dt is the integral of G from 1/r(x) to
        # 1/x.  The outer mean runs through mpmath, split at x* and at every
        # point where 1/x or 1/r(x) crosses a knot of G.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        lo, hi = ((1.0, 2.0), (0.5, 3.0), (-2.0, -1.0))[seed % 3]
        interval = HInterval(lo, hi)
        f = random_harmonic_convex(seed, interval)
        knots = [mp.mpf(k) for k in f.knots]
        values = [mp.mpf(v) for v in f.values]
        slopes = [mp.mpf(m) for m in f.slopes]
        # antiderivative of G at each knot, from the first one
        cumulative = [mp.mpf(0)]
        for i in range(len(slopes)):
            d = knots[i + 1] - knots[i]
            cumulative.append(cumulative[-1] + values[i] * d + slopes[i] * d * d / 2)

        def antiderivative(u):
            i = min(max(bisect.bisect_right(f.knots, float(u)) - 1, 0), len(slopes) - 1)
            d = u - knots[i]
            return cumulative[i] + values[i] * d + slopes[i] * d * d / 2

        a, b = mp.mpf(lo), mp.mpf(hi)
        ab, s = a * b, a + b
        xstar = 2 * ab / s

        def reflect(t):
            return ab * t / (s * t - ab)

        def mean_integrand(x):  # tanh-sinh never evaluates x* itself
            coef = ab * x / (2 * ab - s * x)
            return coef * (antiderivative(1 / x) - antiderivative(1 / reflect(x)))

        kinks = {1 / k for k in knots[1:-1]}
        kinks |= {reflect(t) for t in kinks}
        points = sorted({a, b, xstar} | {t for t in kinks if a < t < b})
        reference = mp.quad(mean_integrand, points) / (b - a)

        res = refinement_double_integral(f, interval, tol=1e-6)
        assert abs(res.value - float(reference)) <= res.abs_error_estimate
