import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify import cli, convexity
from hhverify.convexity import (
    SampleGrid,
    check_class,
    check_convex,
    check_harmonic_convex,
    check_harmonic_h_convex,
    check_symmetrized,
    find_strict_inclusion_witness,
    inclusion_family_source,
)
from hhverify.corpus import CorpusEntry, builtin_functions, builtin_h
from hhverify.fnspec import parse
from hhverify.hmean import HInterval, sym_transform
from hhverify.ineq import IDENTITY_H

I12 = HInterval(1.0, 2.0)


def margin_harmonic(f, x, y, alpha):
    """f at the harmonic combination xy/(alpha x + (1-alpha) y), minus the
    weighted mean alpha f(y) + (1-alpha) f(x)."""
    return f(x * y / (alpha * x + (1.0 - alpha) * y)) - (alpha * f(y) + (1.0 - alpha) * f(x))


def second_difference(F, x, step):
    """Central second difference of F at x with steps step, step/2 and
    step/4, Richardson-extrapolated to an O(step^6) truncation error."""
    fx2 = 2.0 * F(x)
    d = [(F(x + h) - fx2 + F(x - h)) / (h * h) for h in (step, step / 2.0, step / 4.0)]
    for fac in (4.0, 16.0):
        d = [(fac * d[i + 1] - d[i]) / (fac - 1.0) for i in range(len(d) - 1)]
    return d[0]


class TestHarmonicConvex:
    def test_reciprocal_is_harmonic_affine(self):
        v = check_harmonic_convex(parse("1/x"), I12)
        assert v.passed
        assert abs(v.worst_margin) <= 1e-12
        assert v.opposite.passed

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
        # every refuted corpus verdict re-evaluates to its margin at its
        # witness, independently of the lattice
        from hhverify.corpus import builtin_functions

        def plain_margin(f, x, y, al):
            return f(al * x + (1.0 - al) * y) - (al * f(x) + (1.0 - al) * f(y))

        refuted = 0
        for entry in builtin_functions():
            f, interval = entry.spec, entry.interval
            fb = sym_transform(f, interval)
            cases = [
                (check_convex(f, interval.a, interval.b), f, plain_margin),
                (check_harmonic_convex(f, interval), f, margin_harmonic),
                (check_symmetrized(f, interval), fb, margin_harmonic),
            ]
            for verdict, g, margin in cases:
                for v, sign in ((verdict, 1.0), (verdict.opposite, -1.0)):
                    if v.passed:
                        continue
                    refuted += 1
                    x, y, al = v.witness
                    scale = max(abs(g(x)), abs(g(y)))
                    assert sign * margin(g, x, y, al) == pytest.approx(v.worst_margin, abs=1e-12 * scale)
                    assert v.worst_margin > v.tol * scale
        assert refuted == 20

    def test_monotone_grid_refinement(self):
        # lattices whose sizes differ by a power of two share their points bit
        # for bit, so more samples can only raise the worst margin
        f = parse("-ln(x)")
        coarse = check_harmonic_convex(f, I12, grid=SampleGrid(abscissa_count=8, random_triples=0))
        fine = check_harmonic_convex(f, I12, grid=SampleGrid(abscissa_count=64, random_triples=0))
        finest = check_harmonic_convex(f, I12, grid=SampleGrid(abscissa_count=128, random_triples=64))
        assert not coarse.passed
        assert coarse.worst_margin <= fine.worst_margin <= finest.worst_margin

    def test_default_lattice(self, monkeypatch):
        lattices = []
        scan = convexity._scan

        def recording_scan(ts, *rest):
            lattices.append(ts)
            return scan(ts, *rest)

        monkeypatch.setattr(convexity, "_scan", recording_scan)
        # on these intervals the centre of the uniform lattice is an ulp off
        # the harmonic midpoint and the midpoint respectively
        interval = HInterval(1.1, 2.9)
        check_harmonic_convex(parse("x"), interval)
        check_convex(parse("x"), 0.7, 3.1)
        harmonic, plain = lattices
        assert len(harmonic) == len(plain) == 1025
        # a, b and the centre exactly, uniform in 1/t (in t) between
        assert (harmonic[0], harmonic[512], harmonic[1024]) == (1.1, interval.harmonic_midpoint, 2.9)
        s = [1 / 1.1 + (1 / 2.9 - 1 / 1.1) * m / 1024 for m in range(1025)]
        assert [1.0 / t for t in harmonic] == pytest.approx(s, rel=1e-15)
        assert (plain[0], plain[512], plain[1024]) == (0.7, 0.5 * (0.7 + 3.1), 3.1)
        assert plain == pytest.approx([0.7 + 2.4 * m / 1024 for m in range(1025)], rel=1e-15)
        assert len(SampleGrid().random_triple_stream(1.0, 2.0)) == 512

    @pytest.mark.parametrize(
        "kwargs", [{"abscissa_count": 0}, {"abscissa_count": -3}, {"abscissa_count": 4097}, {"random_triples": -1}]
    )
    def test_rejects_nonpositive_sizes(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SampleGrid(**kwargs)

    def test_deterministic_under_seed(self):
        f = parse("-ln(x)")
        a = check_harmonic_convex(f, I12, grid=SampleGrid(seed=42))
        b = check_harmonic_convex(f, I12, grid=SampleGrid(seed=42))
        assert a == b


def _verdicts(src, interval):
    f = parse(src)
    return [
        (v.passed, v.opposite.passed) for v in (check_harmonic_convex(f, interval), check_symmetrized(f, interval))
    ]


@pytest.mark.parametrize("src", ["1", "1/x", "x"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("e", [-300, -200, -160, 155, 200, 300])
def test_class_verdicts_are_scale_free(src, sign, e):
    # the lattice centre is the interval's scaled harmonic midpoint, which
    # neither underflows nor overflows where 2ab/(a+b) would
    def interval(e):
        lo, hi = sorted((sign * 10.0**e, sign * 2 * 10.0**e))
        return HInterval(lo, hi)

    assert _verdicts(src, interval(e)) == _verdicts(src, interval(0))


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

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_empty_reversed_and_infinite_intervals(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            check_convex(parse("x^2"), lo, hi)

    def test_corrected_transform_of_neg_log(self):
        # F(u) = sym(-ln)(1/u) = ln(u*(a+b-ab*u)/(ab))/2 is strictly concave
        a, b = 1.0, 2.0
        F = parse("0.5*ln(x*(3 - 2*x)/2)")
        assert not check_convex(F, 1.0 / b, 1.0 / a).passed
        assert check_convex(F, 1.0 / b, 1.0 / a).opposite.passed


# each class kind's public checker, called directly, on [1, 2]
_DIRECT_CHECKS = {
    "convex": lambda f, h: check_convex(f, 1.0, 2.0),
    "harmonic": lambda f, h: check_harmonic_convex(f, I12),
    "harmonic_h": lambda f, h: check_harmonic_h_convex(f, h, I12),
    "symmetrized": lambda f, h: check_symmetrized(f, I12),
    "symmetrized_h": lambda f, h: check_symmetrized(f, I12, h=h),
}


def _in_direction(verdict, direction):
    return verdict.opposite if direction == "concave" else verdict


class TestCheckClass:
    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize("src", ["-ln(x)", "x^2"])
    @pytest.mark.parametrize("kind", _DIRECT_CHECKS)
    def test_same_verdict_as_the_public_checker(self, kind, src, direction):
        f, h = parse(src), parse("x^2")
        got = _in_direction(check_class(kind, f, 1.0, 2.0, h=h if kind.endswith("_h") else None), direction)
        want = _in_direction(_DIRECT_CHECKS[kind](f, h), direction)
        assert repr(got) == repr(want)
        assert repr(got.opposite) == repr(want.opposite)

    @pytest.mark.parametrize(
        "kind, h, message",
        [("plain", None, "unknown class kind"), ("symmetrized_h", None, "needs h"), ("harmonic", parse("x"), "takes no h")],
    )
    def test_rejects_bad_calls(self, kind, h, message):
        with pytest.raises(ValueError, match=message):
            check_class(kind, parse("x"), 1.0, 2.0, h=h)


class TestCheckSymmetrized:
    def test_harmonic_convex_corpus_stays_convex(self):
        # symmetrisation preserves harmonic convexity
        for src in ("1/x", "x", "x^2", "exp(x)"):
            v = check_symmetrized(parse(src), I12)
            assert v.passed, src

    def test_neg_log_is_symmetrized_concave_not_convex(self):
        f = parse("-ln(x)")
        assert not check_symmetrized(f, I12).passed
        assert check_symmetrized(f, I12).opposite.passed

    def test_h_variant_class_name(self):
        v = check_symmetrized(parse("1/x"), I12, h=parse("x"))
        assert v.class_tested == "symmetrized_harmonic_h_convex"
        assert v.passed

    @pytest.mark.parametrize("c", [1e7, 1e10])
    @pytest.mark.parametrize("direction", ["convex", "concave"])
    def test_antisymmetric_part_dwarfing_the_symmetric(self, c, direction):
        # sym(f_c) is the constant 3/4 for every c, but its lattice values
        # carry the rounding of (f(t) + f(r(t)))/2, which grows with |f|
        f = parse(inclusion_family_source(I12, c))
        assert _in_direction(check_symmetrized(f, I12), direction).passed

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

    def test_sweep_skips_only_scans_that_pick_concave(self):
        # where the sweep takes a weighted direction from declared symmetrized
        # concavity (f >= 0, h <= id) instead of scanning, the scan it skips
        # would have picked concave too
        fired = []
        for entry in builtin_functions():
            for h in builtin_h():
                direction, basis = cli._h_direction(entry, cli._nonnegative_on(entry), h, SampleGrid())
                if basis != "corpus-declared symmetrized concavity, h below identity":
                    continue
                assert direction == "concave"
                verdict = check_symmetrized(entry.spec, entry.interval, grid=SampleGrid(), tol=1e-9, h=h)
                assert not verdict.passed, (entry.name, h.name)
                assert verdict.opposite.passed, (entry.name, h.name)
                fired.append((entry.name, h.name))
        assert fired == [
            (name, "t^2")
            for name in ("const_one", "const_three", "reciprocal", "sym_affine_c0", "sym_affine_c1")
        ]

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("x^2", ("convex", "weighted symmetrized check passed")),
            ("1+min(x,1.3)", (None, "weighted symmetrized checks failed both directions")),
        ],
        ids=["x^2", "1+min(x,1.3)"],
    )
    def test_sweep_scans_an_entry_that_declares_no_class(self, source, expected):
        entry = CorpusEntry(source, parse(source), I12, classes={}, closed_forms={})
        assert cli._h_direction(entry, cli._nonnegative_on(entry), IDENTITY_H, SampleGrid()) == expected


class TestSecondDerivative:
    def test_corrected_transform_curvature(self):
        # d^2/du^2 of sym(-ln)(1/u) at u = 0.7 on [1, 2]
        fb = sym_transform(parse("-ln(x)"), I12)
        F = lambda u: fb(1.0 / u)
        got = second_difference(F, 0.7, 0.02)
        exact = -0.5 * (1 / 0.7**2 + 4.0 / (3.0 - 1.4) ** 2)
        assert got == pytest.approx(exact, abs=1e-8)
        assert got == pytest.approx(-1.801658, abs=1e-4)

    def test_strictly_negative_across_domain(self):
        fb = sym_transform(parse("-ln(x)"), I12)
        F = lambda u: fb(1.0 / u)
        for k in range(49):
            u = 0.52 + k * (0.98 - 0.52) / 48.0
            assert second_difference(F, u, 0.005) < 0.0


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
        w = find_strict_inclusion_witness(I12, grid=SampleGrid(seed=7))
        assert w is not None
        assert not w.base_verdict.passed
        assert w.base_verdict.worst_margin > 1e-3
        assert w.symmetrized_verdict.passed
        assert w.symmetrized_verdict.worst_margin <= 1e-12
        # winning coefficient is the smallest ladder rung that clears 1e-3
        assert w.coefficient == pytest.approx(0.1)

    def test_search_negative_interval(self):
        w = find_strict_inclusion_witness(HInterval(-2.0, -1.0), grid=SampleGrid(seed=3))
        assert w is not None
        assert not w.base_verdict.passed
        assert w.symmetrized_verdict.passed

    def test_search_deterministic(self):
        w1 = find_strict_inclusion_witness(I12, grid=SampleGrid(seed=5))
        w2 = find_strict_inclusion_witness(I12, grid=SampleGrid(seed=5))
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

    def test_lattice_values_scale_the_tolerance(self):
        # without random triples the rounding margins of 1e8/x must still pass
        v = check_harmonic_convex(parse("1e8/x"), I12, grid=SampleGrid(random_triples=0))
        assert v.passed and v.opposite.passed
        assert max(v.worst_margin, v.opposite.worst_margin) > 0.0

    def test_reciprocal_range_beyond_rounding(self):
        # 1/b is negligible against 1/a, so the last lattice point in s = 1/t
        # would round to s = 0 if it were computed rather than set to b
        interval = HInterval(1e-300, 1e300)
        assert check_harmonic_convex(parse("x"), interval).passed
        assert check_symmetrized(parse("x"), interval).passed
        # 1/a overflows: no lattice in s = 1/t exists
        with pytest.raises(ValueError, match="finite 1/lo, 1/hi"):
            check_harmonic_convex(parse("x"), HInterval(1e-320, 1.0))

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_scaled_violation_still_refuted(self, c):
        v = check_harmonic_convex(parse(f"{c!r}*-ln(x)"), I12)
        assert not v.passed
        assert v.opposite.passed


def _lattice_reference(f, lo, hi, centre, reciprocal, symmetrized, weights, grid, sign):
    """Per-direction reference: the worst of sign*d over every (x, y, alpha)
    of coarse lattice nodes and every random triple, with the first triple
    that attains it, the number of triples, and the largest |g| sampled.

    In s = 1/t (s = t when not ``reciprocal``) node i is lattice point 16*i,
    the combination of nodes i < j with weight k/16 is point 16*i + k*(j-i),
    and the reflection is point m -> M - m; plain convexity reports the
    weight as 1 - k/16."""
    M = 16 * grid.abscissa_count
    s0, s1 = (1.0 / lo, 1.0 / hi) if reciprocal else (lo, hi)

    def t(s):
        return 1.0 / s if reciprocal else s

    def g(s):
        return 0.5 * (f(t(s)) + f(t(s0 + s1 - s))) if symmetrized else f(t(s))

    ts = [t(s0 + (s1 - s0) * m / M) for m in range(M + 1)]
    ts[0], ts[M // 2], ts[M] = lo, centre, hi
    F = [f(x) for x in ts]
    if symmetrized:
        F = [0.5 * (F[m] + F[M - m]) for m in range(M + 1)]
    samples = []  # (witness, g(c), g(y), g(x), alpha)
    for i in range(0, M + 1, 16):
        for j in range(i + 16, M + 1, 16):
            for k in range(1, 16):
                al = k / 16
                witness = (ts[i], ts[j], al if reciprocal else 1.0 - al)
                samples.append((witness, F[i + k * (j - i) // 16], F[j], F[i], al))
    for sx, sy, al in grid.random_triple_stream(s0, s1):
        witness = (t(sx), t(sy), al if reciprocal else 1.0 - al)
        samples.append((witness, g(sx + al * (sy - sx)), g(sy), g(sx), al))
    worst, worst_witness = -math.inf, (ts[0], ts[-1], 0.5)
    for witness, gc, gy, gx, al in samples:
        wy, wx = weights(al)
        m = sign * (gc - (wy * gy + wx * gx))
        if m > worst:
            worst, worst_witness = m, witness
    scale = max(abs(v) for sample in samples for v in sample[1:4])
    return worst, worst_witness, len(samples), scale


class TestOnePassScan:
    def test_both_directions_match_brute_force_on_corpus(self):
        from hhverify.corpus import builtin_functions

        # a smaller grid than the default keeps the reference quick; the scan
        # does not branch on grid size
        grid = SampleGrid(abscissa_count=16, random_triples=64)
        h = parse("x^2")
        unweighted = lambda al: (al, 1.0 - al)  # noqa: E731
        weighted = lambda al: (h(al), h(1.0 - al))  # noqa: E731
        for entry in builtin_functions():
            f, interval = entry.spec, entry.interval
            a, b, hm = interval.a, interval.b, interval.harmonic_midpoint
            cases = [
                (check_convex(f, a, b, grid=grid), (a, b, 0.5 * (a + b), False, False, unweighted)),
                (check_harmonic_convex(f, interval, grid=grid), (a, b, hm, True, False, unweighted)),
                (check_harmonic_h_convex(f, h, interval, grid=grid), (a, b, hm, True, False, weighted)),
                (check_symmetrized(f, interval, grid=grid), (a, b, hm, True, True, unweighted)),
                (check_symmetrized(f, interval, grid=grid, h=h), (a, b, hm, True, True, weighted)),
            ]
            for verdict, args in cases:
                for v, sign in ((verdict, 1.0), (verdict.opposite, -1.0)):
                    worst, witness, count, scale = _lattice_reference(f, *args, grid, sign)
                    got = (v.worst_margin, v.witness, v.samples_used, v.passed)
                    expected = (worst, witness, count, worst <= v.tol * scale)
                    assert got == expected, (entry.name, v.class_tested)

    def test_concave_request_mirrors_convex(self):
        convex = check_symmetrized(parse("-ln(x)"), I12)
        assert convex.class_tested == "symmetrized_harmonic_convex"
        assert convex.opposite.class_tested == "symmetrized_harmonic_concave"
        assert convex.opposite.opposite is None


# table values: small integers give many tied margins, wide floats few
_TABLE_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    coarse=st.integers(min_value=1, max_value=4),
    weight=st.sampled_from([None, "t^2", "sqrt"]),
    constant=st.booleans(),
    data=st.data(),
)
def test_mirrored_scan_matches_full_pair_loop(coarse, weight, constant, data):
    # a symmetrized table satisfies G[m] == G[M - m] bit for bit, and then
    # visiting only the pairs with i + j <= M changes nothing: same margins,
    # same first witnesses, same sample count and scale
    M = convexity.STEPS * coarse
    if constant:
        G = [data.draw(_TABLE_VALUES)] * (M + 1)
    else:
        values = data.draw(st.lists(_TABLE_VALUES, min_size=M + 1, max_size=M + 1))
        G = [0.5 * (u + v) for u, v in zip(values, reversed(values))]
    h = {None: None, "t^2": lambda t: t * t, "sqrt": math.sqrt}[weight]
    rows = []
    for k in range(1, convexity.STEPS):
        al = k / convexity.STEPS
        rows.append((al, al, 1.0 - al) if h is None else (al, h(al), h(1.0 - al)))
    ts = [float(m) for m in range(M + 1)]
    randoms = [(0.25, 0.75, rows[0], 1.0, 2.0, 3.0)]
    halved = convexity._scan(ts, G, rows, iter(randoms), True)
    full = convexity._scan(ts, G, rows, iter(randoms), False)
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert repr(halved) == repr(full)
