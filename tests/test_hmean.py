import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify.fnspec import parse
from hhverify.hmean import (
    HInterval,
    sym_transform,
)


def hcomb(x, y, alpha):
    """The harmonic combination xy/(alpha*x + (1-alpha)*y)."""
    return x * y / (alpha * x + (1.0 - alpha) * y)


def _random_interval(rng: random.Random) -> HInterval:
    a = rng.uniform(0.1, 5.0)
    b = a + rng.uniform(0.2, 5.0)
    if rng.random() < 0.5:
        return HInterval(-b, -a)
    return HInterval(a, b)


class TestHInterval:
    def test_valid(self):
        HInterval(1.0, 2.0)
        HInterval(-2.0, -1.0)
        HInterval(0.001, 1000.0)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (-1.0, 0.0)])
    def test_invalid(self, a, b):
        with pytest.raises(ValueError):
            HInterval(a, b)

    @pytest.mark.parametrize("a,b", [(1.0, math.inf), (-math.inf, -1.0), (math.nan, 2.0)])
    def test_non_finite_endpoint(self, a, b):
        with pytest.raises(ValueError, match="^interval endpoints must be finite$"):
            HInterval(a, b)

    def test_denominator_positivity(self):
        # (a+b)t - ab stays >= min(a^2, b^2) on the interval, both signs
        rng = random.Random(5)
        for _ in range(50):
            interval = _random_interval(rng)
            a, b = interval.a, interval.b
            floor = min(a * a, b * b)
            for _ in range(40):
                t = rng.uniform(a, b)
                assert (a + b) * t - a * b >= floor - 1e-12 * abs(floor)


class TestReflect:
    def test_endpoint_swap_exact(self):
        interval = HInterval(1.0, 2.0)
        assert interval.reflect(1.0) == 2.0
        assert interval.reflect(2.0) == 1.0

    def test_fixed_point(self):
        interval = HInterval(1.0, 2.0)
        assert interval.reflect(4.0 / 3.0) == 4.0 / 3.0

    def test_value(self):
        assert HInterval(1.0, 2.0).reflect(1.5) == pytest.approx(1.2, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            HInterval(1.0, 2.0).reflect(3.0)

    def test_clamps_tiny_overshoot(self):
        interval = HInterval(1.0, 2.0)
        assert interval.reflect(2.0 + 1e-13) == 1.0
        assert interval.reflect(1.0 - 1e-13) == 2.0

    def test_involution_seeded(self):
        rng = random.Random(17)
        for _ in range(20):
            interval = _random_interval(rng)
            for _ in range(50):
                t = rng.uniform(interval.a, interval.b)
                assert abs(interval.reflect(interval.reflect(t)) - t) <= 1e-12 * abs(t)

    def test_commutes_with_hcomb_seeded(self):
        # r(hcomb(x, y, a)) == hcomb(r(x), r(y), a): the algebraic fact that
        # makes symmetrisation preserve harmonic convexity
        rng = random.Random(23)
        for _ in range(25):
            interval = _random_interval(rng)
            for _ in range(40):
                x = rng.uniform(interval.a, interval.b)
                y = rng.uniform(interval.a, interval.b)
                al = rng.random()
                lhs = interval.reflect(hcomb(x, y, al))
                rhs = hcomb(interval.reflect(x), interval.reflect(y), al)
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestHarmonicMidpoint:
    def test_positive(self):
        assert HInterval(1.0, 2.0).harmonic_midpoint == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_negative(self):
        assert HInterval(-2.0, -1.0).harmonic_midpoint == pytest.approx(-4.0 / 3.0, rel=1e-15)

    def test_degenerate_limit_strictly_inside(self):
        for eps in (1e-3, 1e-6, 1e-9):
            interval = HInterval(1.0, 1.0 + eps)
            m = interval.harmonic_midpoint
            assert interval.a < m < interval.b
            assert m == pytest.approx(1.0 + eps / 2, abs=eps * eps)


class TestTransforms:
    def test_kinks_add_reflections_inside_the_interval(self):
        interval = HInterval(1.0, 2.0)

        class Kinked:
            kinks = (1.2, 3.0)

            def __call__(self, t):
                return abs(t - 1.2)

        fb = sym_transform(Kinked(), interval)
        assert fb.kinks == (1.2, 3.0, interval.reflect(1.2))
        # parsed expressions publish none
        assert sym_transform(parse("abs(x - 1.2)"), interval).kinks == ()

    def test_constant_symmetrises_to_itself(self):
        interval = HInterval(1.0, 2.0)
        fb = sym_transform(lambda t: 3.5, interval)
        for t in (1.0, 1.2, 4.0 / 3.0, 1.9, 2.0):
            assert fb(t) == 3.5
            assert 3.5 - fb(t) == 0.0  # the antisymmetric remainder

    def test_reciprocal_symmetrises_to_constant(self):
        # 1/t + 1/r(t) == (a+b)/(ab), so sym(1/t) == (a+b)/(2ab)
        interval = HInterval(1.0, 2.0)
        fb = sym_transform(parse("1/x"), interval)
        for k in range(10):
            t = 1.0 + k / 9.0
            assert fb(t) == pytest.approx(0.75, abs=1e-14)

    def test_neg_log_value(self):
        interval = HInterval(1.0, 2.0)
        fb = sym_transform(parse("-ln(x)"), interval)
        expected = 0.5 * (-math.log(1.5) - math.log(1.2))
        assert fb(1.5) == pytest.approx(expected, abs=1e-12)
        assert fb(1.5) == pytest.approx(-0.293893, abs=1e-6)

    # the antisymmetric remainder of f is f - sym(f)
    def test_antisym_identity_function(self):
        interval = HInterval(1.0, 2.0)
        fb = sym_transform(lambda t: t, interval)
        assert 1.0 - fb(1.0) == -0.5  # (1 - r(1))/2 = (1 - 2)/2

    def test_antisym_vanishes_at_midpoint_exactly(self):
        interval = HInterval(1.0, 2.0)
        f = parse("exp(x)")
        m = interval.harmonic_midpoint
        assert f(m) - sym_transform(f, interval)(m) == 0.0

    def test_midpoint_pinning_and_endpoints(self):
        interval = HInterval(1.0, 2.0)
        for src in ("exp(x)", "-ln(x)", "x^2"):
            f = parse(src)
            fb = sym_transform(f, interval)
            m = interval.harmonic_midpoint
            assert fb(m) == pytest.approx(f(m), rel=1e-14)
            avg = 0.5 * (f(1.0) + f(2.0))
            assert fb(1.0) == pytest.approx(avg, rel=1e-14)
            assert fb(2.0) == pytest.approx(avg, rel=1e-14)

    def test_decomposition(self):
        rng = random.Random(7)
        interval = HInterval(1.0, 2.0)
        for src in ("exp(x)", "-ln(x)", "x^2", "1/x"):
            f = parse(src)
            fb = sym_transform(f, interval)
            for _ in range(50):
                t = rng.uniform(1.0, 2.0)
                ftv, frv = f(t), f(interval.reflect(t))
                scale = max(1.0, abs(ftv), abs(frv))
                # sym(f) plus the antisymmetric part (f(t) - f(r(t)))/2 is f
                assert abs(fb(t) + 0.5 * (ftv - frv) - ftv) <= 1e-14 * scale

    def test_symmetry_kinds(self):
        rng = random.Random(11)
        interval = HInterval(0.5, 3.0)
        f = parse("exp(x)")
        fb = sym_transform(f, interval)

        def ft(t):  # the antisymmetric remainder
            return f(t) - fb(t)

        for _ in range(100):
            t = rng.uniform(0.5, 3.0)
            r = interval.reflect(t)
            scale = max(1.0, abs(fb(t)))
            assert abs(fb(r) - fb(t)) <= 1e-12 * scale
            assert abs(ft(r) + ft(t)) <= 1e-12 * scale


# --- geometry at extreme scales ------------------------------------------------

EXTREME_SCALES = (1e-300, 1e-150, 1e-110, 1e110, 1e150, 1e300)


def _ulps(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact)) / math.ulp(float(exact))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("scale", EXTREME_SCALES)
def test_geometry_at_extreme_scales(scale, sign):
    # [c, 2c] at every scale: the midpoint and reflections against exact
    # rational values; a*b over- or underflows at all of these scales
    a, b = sorted((sign * scale, sign * 2.0 * scale))
    interval = HInterval(a, b)
    fa, fb = Fraction(a), Fraction(b)
    assert _ulps(interval.harmonic_midpoint, 2 * fa * fb / (fa + fb)) <= 1.0
    for frac in (0.1, 0.25, 0.5, 0.9):
        t = a + frac * (b - a)
        ft = Fraction(t)
        exact = fa * fb * ft / ((fa + fb) * ft - fa * fb)
        r = interval.reflect(t)
        assert _ulps(r, exact) <= 8.0
        assert abs(interval.reflect(r) - t) <= 1e-14 * abs(t)
    assert interval.reflect(a) == b and interval.reflect(b) == a


@pytest.mark.parametrize(
    "a, b", [(1e-300, 2e-300), (-2e-300, -1e-300), (5e-324, 1e-323), (1e307, 1.5e308)]
)
def test_tiny_and_huge_intervals_are_accepted(a, b):
    interval = HInterval(a, b)
    assert a <= interval.harmonic_midpoint <= b


@settings(max_examples=300)
@given(
    st.floats(min_value=1e-60, max_value=1e60),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
)
def test_scaled_geometry_is_bit_identical_in_range(a, ratio, frac, negative):
    # scaling by a power of two is exact: where the unscaled formulas
    # neither under- nor overflow, they give the same bits
    b = a * (1.0 + ratio)
    if negative:
        a, b = -b, -a
    interval = HInterval(a, b)
    assert interval.harmonic_midpoint == 2.0 * a * b / (a + b)
    t = a + frac * (b - a)
    # points that reflect snaps to an end, or that it fixes, are not formula values
    if min(t - a, b - t) > 2e-12 * (b - a) and t != interval.harmonic_midpoint:
        assert interval.reflect(t) == a * b * t / ((a + b) * t - a * b)
