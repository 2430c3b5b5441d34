import math

import pytest

from hhverify.convexity import (
    SampleGrid,
    check_convex,
    check_harmonic_convex,
    check_harmonic_h_convex,
    check_symmetrized,
    find_strict_inclusion_witness,
    inclusion_family_source,
    margin_harmonic,
    second_derivative,
)
from hhverify.fnspec import parse
from hhverify.hmean import HInterval, sym_transform

I12 = HInterval(1.0, 2.0)


class TestHarmonicConvex:
    def test_reciprocal_is_harmonic_affine(self):
        v = check_harmonic_convex(parse("1/x"), I12)
        assert v.passed
        assert abs(v.worst_margin) <= 1e-12
        concave = check_harmonic_convex(parse("1/x"), I12, direction="concave")
        assert concave.passed

    def test_constant(self):
        v = check_harmonic_convex(parse("2"), I12)
        assert v.passed and abs(v.worst_margin) <= 1e-12

    def test_neg_log_fails_with_midpoint_margin(self):
        f = parse("-ln(x)")
        v = check_harmonic_convex(f, I12)
        assert not v.passed
        # the -ln margin is scale invariant, so the (1, 2, 1/2) triple carries
        # the same value as the classical (e, 2e, 1/2) witness
        assert margin_harmonic(f, 1.0, 2.0, 0.5) == pytest.approx(0.0588915178, abs=1e-9)
        assert v.worst_margin >= 0.0588915178 - 1e-9

    def test_scaled_witness_triple(self):
        f = parse("-ln(x)")
        e = math.e
        scaled = HInterval(e, 2 * e)
        m = margin_harmonic(f, e, 2 * e, 0.5)
        assert m == pytest.approx((math.log(3) - math.log(4) - 1) - (-1 - 0.5 * math.log(2)), abs=1e-12)
        v = check_harmonic_convex(f, scaled)
        assert not v.passed

    def test_witness_reproduces_margin(self):
        for src in ("-ln(x)", "x - 2*x/(3*x - 2) + 1/x"):
            f = parse(src)
            v = check_harmonic_convex(f, I12)
            if v.passed:
                continue
            x, y, al = v.witness
            assert margin_harmonic(f, x, y, al) == pytest.approx(v.worst_margin, abs=1e-12)
            assert v.worst_margin > v.tol / 2

    def test_monotone_grid_refinement(self):
        # more samples can only raise the worst margin of a failing function
        f = parse("-ln(x)")
        coarse = check_harmonic_convex(f, I12, grid=SampleGrid(abscissa_count=8, random_triples=0))
        fine = check_harmonic_convex(f, I12, grid=SampleGrid(abscissa_count=64, random_triples=0))
        finest = check_harmonic_convex(f, I12, grid=SampleGrid(abscissa_count=128, random_triples=64))
        assert not coarse.passed
        assert coarse.worst_margin <= fine.worst_margin + 1e-15
        assert fine.worst_margin <= finest.worst_margin + 1e-15

    def test_default_grid_shape(self):
        grid = SampleGrid()
        xs = grid.abscissae(1.0, 2.0, extras=(4.0 / 3.0,))
        assert 1.0 in xs and 2.0 in xs and 4.0 / 3.0 in xs
        assert len(xs) == 64 + 3
        assert grid.weights() == tuple(k / 16 for k in range(1, 16))
        assert len(grid.random_triple_stream(1.0, 2.0)) == 512

    def test_deterministic_under_seed(self):
        f = parse("-ln(x)")
        a = check_harmonic_convex(f, I12, grid=SampleGrid(seed=42))
        b = check_harmonic_convex(f, I12, grid=SampleGrid(seed=42))
        assert a == b


class TestHarmonicHConvex:
    def test_identity_weight_reduces_to_plain(self):
        ident = parse("x")
        for src in ("1/x", "x", "-ln(x)", "exp(x)"):
            f = parse(src)
            plain = check_harmonic_convex(f, I12)
            weighted = check_harmonic_h_convex(f, ident, I12)
            assert plain.passed == weighted.passed
            assert plain.worst_margin == pytest.approx(weighted.worst_margin, abs=1e-12)
            assert plain.witness == weighted.witness

    def test_p_function_regime(self):
        # h == 1 asks only f(comb) <= f(x) + f(y): bounded positive harmonic
        # convex functions satisfy it outright
        one = parse("1")
        v = check_harmonic_h_convex(parse("1/x"), one, I12)
        assert v.passed

    def test_neg_log_fails_identity_weight(self):
        v = check_harmonic_h_convex(parse("-ln(x)"), parse("x"), I12)
        assert not v.passed
        assert v.worst_margin >= 0.0588915178 - 1e-9

    def test_constant_fails_square_weight(self):
        # h(a) + h(1-a) < 1 for h = t^2, so even positive constants fail
        v = check_harmonic_h_convex(parse("1"), parse("x^2"), I12)
        assert not v.passed


class TestCheckConvex:
    def test_square(self):
        assert check_convex(parse("x^2"), 0.0, 1.0).passed

    def test_linear_margin_zero(self):
        v = check_convex(parse("2*x - 3"), 0.0, 1.0)
        assert v.passed and abs(v.worst_margin) <= 1e-12

    def test_corrected_transform_of_neg_log(self):
        # F(u) = sym(-ln)(1/u) = ln(u*(a+b-ab*u)/(ab))/2 is strictly concave
        a, b = 1.0, 2.0
        F = parse("0.5*ln(x*(3 - 2*x)/2)")
        assert not check_convex(F, 1.0 / b, 1.0 / a).passed
        assert check_convex(F, 1.0 / b, 1.0 / a, direction="concave").passed


class TestCheckSymmetrized:
    def test_harmonic_convex_corpus_stays_convex(self):
        # symmetrisation preserves harmonic convexity
        for src in ("1/x", "x", "x^2", "exp(x)"):
            v = check_symmetrized(parse(src), I12)
            assert v.passed, src

    def test_neg_log_is_symmetrized_concave_not_convex(self):
        f = parse("-ln(x)")
        assert not check_symmetrized(f, I12).passed
        assert check_symmetrized(f, I12, direction="concave").passed

    def test_h_variant_class_name(self):
        v = check_symmetrized(parse("1/x"), I12, h=parse("x"))
        assert v.class_tested == "symmetrized_harmonic_h_convex"
        assert v.passed

    def test_pointwise_sandwich_extremes_attained(self):
        # sampled symmetric part stays within [f(midpoint), endpoint average]
        import random

        rng = random.Random(8)
        for src in ("1/x", "x", "x^2", "exp(x)"):
            f = parse(src)
            fb = sym_transform(f, I12)
            lo = f(I12.harmonic_midpoint)
            hi = 0.5 * (f(1.0) + f(2.0))
            values = [fb(rng.uniform(1.0, 2.0)) for _ in range(500)]
            values += [fb(1.0), fb(2.0), fb(I12.harmonic_midpoint)]
            assert min(values) >= lo - 1e-9
            assert max(values) <= hi + 1e-9
            assert min(values) == pytest.approx(lo, abs=1e-9) or fb(I12.harmonic_midpoint) == pytest.approx(lo, abs=1e-9)
            assert fb(1.0) == pytest.approx(hi, rel=1e-14)


class TestSecondDerivative:
    def test_polynomial(self):
        assert second_derivative(lambda u: u**3, 2.0) == pytest.approx(12.0, abs=1e-8)

    def test_corrected_transform_curvature(self):
        # d^2/du^2 of sym(-ln)(1/u) at u = 0.7 on [1, 2]
        fb = sym_transform(parse("-ln(x)"), I12)
        F = lambda u: fb(1.0 / u)
        got = second_derivative(F, 0.7, step=0.02)
        exact = -0.5 * (1 / 0.7**2 + 4.0 / (3.0 - 1.4) ** 2)
        assert got == pytest.approx(exact, abs=1e-8)
        assert got == pytest.approx(-1.801658, abs=1e-4)

    def test_strictly_negative_across_domain(self):
        fb = sym_transform(parse("-ln(x)"), I12)
        F = lambda u: fb(1.0 / u)
        for k in range(49):
            u = 0.52 + k * (0.98 - 0.52) / 48.0
            assert second_derivative(F, u, step=0.005) < 0.0


class TestStrictInclusionWitness:
    def test_family_symmetrises_to_constant(self):
        # antisymmetric bump drops out: sym(f_c) == (a+b)/(2ab) for every c
        for c in (0.0, 1.0, 10.0):
            f = parse(inclusion_family_source(I12, c))
            fb = sym_transform(f, I12)
            for k in range(20):
                t = 1.0 + k / 19.0
                assert fb(t) == pytest.approx(0.75, abs=1e-13)

    def test_zero_coefficient_is_not_a_witness(self):
        f = parse(inclusion_family_source(I12, 0.0))
        assert check_harmonic_convex(f, I12).passed

    def test_large_coefficient_separates(self):
        f = parse(inclusion_family_source(I12, 10.0))
        base = check_harmonic_convex(f, I12)
        assert not base.passed and base.worst_margin > 1e-3
        assert check_symmetrized(f, I12).passed

    def test_search_positive_interval(self):
        w = find_strict_inclusion_witness(I12, seed=7)
        assert w is not None
        assert not w.base_verdict.passed
        assert w.base_verdict.worst_margin > 1e-3
        assert w.symmetrized_verdict.passed
        assert w.symmetrized_verdict.worst_margin <= 1e-12
        # winning coefficient is the smallest ladder rung that clears 1e-3
        assert w.coefficient == pytest.approx(0.1)

    def test_search_negative_interval(self):
        w = find_strict_inclusion_witness(HInterval(-2.0, -1.0), seed=3)
        assert w is not None
        assert not w.base_verdict.passed
        assert w.symmetrized_verdict.passed

    def test_search_deterministic(self):
        w1 = find_strict_inclusion_witness(I12, seed=5)
        w2 = find_strict_inclusion_witness(I12, seed=5)
        assert w1.coefficient == w2.coefficient
        assert w1.base_verdict == w2.base_verdict


class TestScaleInvariance:
    @pytest.mark.parametrize(
        "interval",
        [I12, HInterval(1e-6, 2e-6), HInterval(1e6, 2e6), HInterval(-2.0, -1.0)],
        ids=lambda i: f"[{i.a:g},{i.b:g}]",
    )
    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_harmonic_affine_passes_both_directions(self, interval, c):
        # the tolerance scales with the largest |f| the scan saw; the
        # reported tol stays the one asked for
        v = check_harmonic_convex(parse(f"{c!r}/x"), interval)
        assert v.passed, v.worst_margin
        assert v.opposite.passed, v.opposite.worst_margin
        assert v.tol == v.opposite.tol == 1e-9

    @pytest.mark.parametrize("c", [1.0, 1e4, 1e8])
    def test_scaled_violation_still_refuted(self, c):
        v = check_harmonic_convex(parse(f"{c!r}*-ln(x)"), I12)
        assert not v.passed
        assert v.opposite.passed


def _brute_force_scan(f, combine, pair_fn, xs, weights, randoms, sign):
    """Per-direction reference: the worst of sign*d over every triple, with
    the first triple that attains it."""
    triples = [(x, y, al) for i, x in enumerate(xs) for y in xs[i + 1 :] for al in weights]
    triples += randoms
    worst, witness = -math.inf, (xs[0], xs[-1], 0.5)
    for x, y, al in triples:
        wy, wx = pair_fn(al)
        m = sign * (f(combine(x, y, al)) - (wy * f(y) + wx * f(x)))
        if m > worst:
            worst, witness = m, (x, y, al)
    return worst, witness, len(triples)


def _memo(f):
    # the reference re-evaluates f at grid points; values are deterministic,
    # so a per-test memo changes nothing but the test's run time
    values = {}

    def g(t):
        if t not in values:
            values[t] = f(t)
        return values[t]

    return g


class TestOnePassScan:
    def test_both_directions_match_brute_force_on_corpus(self):
        from hhverify.corpus import builtin_functions
        from hhverify.hmean import hcomb

        # a smaller grid than the default keeps the reference quick; the scan
        # does not branch on grid size
        grid = SampleGrid(abscissa_count=16, random_triples=64)
        harmonic_pair = lambda al: (al, 1.0 - al)  # noqa: E731
        h = parse("x^2")
        for entry in builtin_functions():
            f, interval = entry.spec, entry.interval
            a, b = interval.a, interval.b
            harmonic_xs = grid.abscissae(a, b, extras=(interval.harmonic_midpoint,))
            randoms = grid.random_triple_stream(a, b)
            fb = _memo(sym_transform(f, interval))
            cases = [
                (
                    check_convex(f, a, b, grid=grid),
                    _memo(f),
                    lambda x, y, al: al * x + (1.0 - al) * y,
                    lambda al: (1.0 - al, al),
                    grid.abscissae(a, b, extras=(0.5 * (a + b),)),
                ),
                (check_harmonic_convex(f, interval, grid=grid), _memo(f), hcomb, harmonic_pair, harmonic_xs),
                (check_symmetrized(f, interval, grid=grid), fb, hcomb, harmonic_pair, harmonic_xs),
                (
                    check_symmetrized(f, interval, grid=grid, h=h),
                    fb,
                    hcomb,
                    lambda al: (h(al), h(1.0 - al)),
                    harmonic_xs,
                ),
            ]
            for verdict, g, combine, pair_fn, xs in cases:
                for v, sign in ((verdict, 1.0), (verdict.opposite, -1.0)):
                    expected = _brute_force_scan(g, combine, pair_fn, xs, grid.weights(), randoms, sign)
                    got = (v.worst_margin, v.witness, v.samples_used)
                    assert got == expected, (entry.name, v.class_tested)

    def test_concave_request_mirrors_convex(self):
        f = parse("-ln(x)")
        convex = check_symmetrized(f, I12)
        concave = check_symmetrized(f, I12, direction="concave")
        assert concave == convex.opposite
        assert concave.opposite == convex
        assert concave.class_tested == "symmetrized_harmonic_concave"
        assert concave.opposite.class_tested == "symmetrized_harmonic_convex"

    def test_invalid_direction(self):
        with pytest.raises(ValueError, match="direction"):
            check_harmonic_convex(parse("x"), I12, direction="up")
