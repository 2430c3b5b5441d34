import math
import random

import pytest

from hhverify.convexity import SampleGrid, check_harmonic_convex
from hhverify.corpus import (
    CLASS_TAGS,
    CorpusEntry,
    builtin_functions,
    builtin_h,
    random_harmonic_convex,
    _build_entries,
)
from hhverify.fnspec import parse
from hhverify.hmean import HInterval
from hhverify.quad import weighted_integral

from corpus_gate import verify_entry


def margin_harmonic(f, x, y, alpha):
    """f at the harmonic combination xy/(alpha x + (1-alpha) y), minus the
    weighted mean alpha f(y) + (1-alpha) f(x)."""
    return f(x * y / (alpha * x + (1.0 - alpha) * y)) - (alpha * f(y) + (1.0 - alpha) * f(x))


@pytest.fixture(scope="module")
def entries():
    return builtin_functions()


def by_name(entries, name):
    return next(e for e in entries if e.name == name)


@pytest.mark.parametrize("entry", _build_entries(), ids=lambda e: e.name)
def test_builtin_declarations_pass_the_gate(entry):
    # builtin_functions() trusts these declarations, so this test is what
    # proves them: every entry declares all six tags, and the checkers agree
    assert set(entry.classes) == set(CLASS_TAGS)
    verify_entry(entry)


class TestBuiltinFunctions:
    def test_loads_and_has_enough_entries(self, entries):
        assert len(entries) >= 10
        names = {e.name for e in entries}
        assert {"reciprocal", "linear", "square", "neg_log", "exponential"} <= names

    def test_closed_forms_match_quadrature(self, entries):
        for entry in entries:
            expected = entry.closed_forms.get("weighted_integral")
            if expected is None:
                continue
            got = weighted_integral(entry.spec, entry.interval.a, entry.interval.b, tol=1e-12)
            assert got.value == pytest.approx(expected, abs=1e-10), entry.name

    def test_neg_log_memberships(self, entries):
        e = by_name(entries, "neg_log")
        assert e.classes["convex"] is True
        assert e.classes["harmonic_convex"] is False
        assert e.classes["symmetrized_harmonic_concave"] is True
        # the recorded refutation witness value
        assert margin_harmonic(e.spec, 1.0, 2.0, 0.5) == pytest.approx(0.0588915178, abs=1e-9)

    def test_inclusion_family_memberships(self, entries):
        for name in ("sym_affine_c1", "sym_affine_c10"):
            e = by_name(entries, name)
            assert e.classes["harmonic_convex"] is False
            assert e.classes["harmonic_concave"] is False
            assert e.classes["symmetrized_harmonic_convex"] is True
            assert e.classes["symmetrized_harmonic_concave"] is True

    def test_negative_interval_entry(self, entries):
        e = by_name(entries, "neg_reciprocal_interval")
        assert e.interval == HInterval(-2.0, -1.0)
        assert e.closed_forms["weighted_integral"] == pytest.approx(-0.375)

    def test_constant_entry_all_classes(self, entries):
        e = by_name(entries, "const_one")
        assert all(e.classes.values())

    def test_subinterval_chain_at_full_range_reduces_corpus_wide(self, entries):
        # t3 evaluated at (a, b) collapses onto the t1 chain for every entry
        from hhverify.ineq import chain_harmonic_hh, chain_subinterval

        for entry in entries:
            interval = entry.interval
            t1 = chain_harmonic_hh(entry.spec, interval, quad_tol=1e-12)
            t3 = chain_subinterval(entry.spec, interval, interval.a, interval.b, quad_tol=1e-12)
            for u, v in zip(t1.term_values(), t3.term_values()):
                assert u == pytest.approx(v, abs=1e-10), entry.name

    def test_gate_rejects_wrong_declaration(self):
        bad = CorpusEntry(
            name="bogus",
            spec=parse("-ln(x)"),
            interval=HInterval(1.0, 2.0),
            classes={"harmonic_convex": True},
            closed_forms={},
        )
        with pytest.raises(AssertionError, match="bogus: declared harmonic_convex=True"):
            verify_entry(bad)


class TestBuiltinH:
    def test_family(self):
        hs = builtin_h()
        table = {h.name: (h.h_half, h.h_int) for h in hs}
        assert table["t"] == (pytest.approx(0.5), pytest.approx(0.5, abs=1e-12))
        assert table["t^2"] == (pytest.approx(0.25), pytest.approx(1.0 / 3.0, abs=1e-10))
        assert table["sqrt(t)"] == (
            pytest.approx(math.sqrt(0.5)),
            pytest.approx(2.0 / 3.0, abs=1e-8),
        )
        assert table["1"] == (pytest.approx(1.0), pytest.approx(1.0, abs=1e-12))


class TestRandomHarmonicConvex:
    def test_deterministic(self):
        interval = HInterval(1.0, 2.0)
        f1 = random_harmonic_convex(11, interval)
        f2 = random_harmonic_convex(11, interval)
        assert f1 == f2

    def test_seeds_differ(self):
        interval = HInterval(1.0, 2.0)
        assert random_harmonic_convex(1, interval) != random_harmonic_convex(2, interval)

    def test_nonnegative_and_slopes_increasing(self):
        for seed in range(25):
            interval = HInterval(0.5, 3.0)
            f = random_harmonic_convex(seed, interval)
            assert all(s2 > s1 for s1, s2 in zip(f.slopes, f.slopes[1:]))
            rng = random.Random(seed)
            for _ in range(50):
                assert f(rng.uniform(0.5, 3.0)) >= 0.0

    def test_exactly_harmonic_convex_by_construction(self):
        interval = HInterval(1.0, 2.0)
        rng = random.Random(2)
        for seed in range(10):
            f = random_harmonic_convex(seed, interval)
            for _ in range(200):
                x, y = rng.uniform(1, 2), rng.uniform(1, 2)
                if x == y:
                    continue
                assert margin_harmonic(f, x, y, rng.random()) <= 1e-12

    def test_checker_agrees(self):
        interval = HInterval(1.0, 2.0)
        grid = SampleGrid(abscissa_count=16, random_triples=64)
        for seed in (0, 7, 42):
            f = random_harmonic_convex(seed, interval)
            assert check_harmonic_convex(f, interval, grid=grid).passed

    def test_kinks_are_reciprocal_interior_knots(self):
        for seed, interval in ((3, HInterval(1.0, 2.0)), (5, HInterval(-2.0, -1.0))):
            f = random_harmonic_convex(seed, interval)
            assert f.kinks == tuple(1.0 / u for u in f.knots[1:-1])
            assert all(interval.a < t < interval.b for t in f.kinks)

    def test_negative_interval_generation(self):
        interval = HInterval(-2.0, -1.0)
        f = random_harmonic_convex(5, interval)
        rng = random.Random(5)
        for _ in range(100):
            x, y = rng.uniform(-2, -1), rng.uniform(-2, -1)
            if x == y:
                continue
            assert margin_harmonic(f, x, y, rng.random()) <= 1e-12
