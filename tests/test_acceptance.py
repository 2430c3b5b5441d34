"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion timings are asserted against their stated budgets; the
corpus and the weight family are built in a warm-up fixture so every
criterion measures only its own work.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

import hhverify as hv
from hhverify.cli import main as cli_main, run_sweep
from hhverify.ineq import IDENTITY_H

I12 = hv.HInterval(1.0, 2.0)
LN2 = math.log(2.0)


def hcomb(x, y, alpha):
    """The harmonic combination xy/(alpha x + (1-alpha) y)."""
    return x * y / (alpha * x + (1.0 - alpha) * y)


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


@pytest.fixture(scope="module", autouse=True)
def _warm_corpus():
    hv.builtin_functions()
    hv.builtin_h()


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"[criterion {number}] {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_counterexample_numbers():
    with criterion(1, "midpoint-violation numbers for -ln", 1.0):
        f = hv.parse("-ln(x)")
        e = math.e
        endpoint_avg = 0.5 * (f(e) + f(2 * e))
        midpoint_value = f(hcomb(e, 2 * e, 0.5))
        assert endpoint_avg == pytest.approx(-1.3465735903, abs=1e-9)
        assert endpoint_avg == pytest.approx(-1.0 - 0.5 * LN2, abs=1e-12)
        assert midpoint_value == pytest.approx(-1.2876820724, abs=1e-9)
        assert midpoint_value == pytest.approx(math.log(3) - math.log(4) - 1.0, abs=1e-12)
        gap = midpoint_value - endpoint_avg
        assert gap == pytest.approx(0.0588915178, abs=1e-9)
        assert margin_harmonic(f, e, 2 * e, 0.5) == pytest.approx(gap, abs=1e-12)


def test_criterion_2_transform_curvature_detection():
    with criterion(2, "corrected transform of -ln is harmonic concave", 1.0):
        f = hv.parse("-ln(x)")
        fb = hv.sym_transform(f, I12)
        F = lambda u: fb(1.0 / u)
        d2 = second_difference(F, 0.7, 0.02)
        assert d2 == pytest.approx(-1.801658, abs=1e-4)
        # strictly negative across the reciprocal domain (interior sampling;
        # the difference stencil must stay inside [1/2, 1])
        for k in range(41):
            u = 0.515 + k * (0.985 - 0.515) / 40.0
            assert second_difference(F, u, 0.007) < 0.0
        assert hv.check_symmetrized(f, I12).opposite.passed
        assert not hv.check_symmetrized(f, I12).passed


def test_criterion_3_equality_cases():
    with criterion(3, "harmonic-affine equality across all chains", 5.0):
        f = hv.parse("1/x")
        sub = hv.weighted_integral(f, 1.0, 2.0, tol=1e-12)
        assert sub.value == pytest.approx(0.375, abs=1e-12)
        reports = [
            hv.chain_harmonic_hh(f, I12, quad_tol=1e-11),
            hv.bounds_pointwise(f, I12, 1.5),
            hv.chain_subinterval(f, I12, 1.2, 1.8, quad_tol=1e-11),
            hv.chain_reflected_pair(f, I12, 1.1, quad_tol=1e-11),
            hv.chain_refinement(f, I12, quad_tol=1e-10),
            hv.chain_h_subinterval(f, IDENTITY_H, I12, 1.2, 1.8, quad_tol=1e-11),
            hv.bounds_h_pointwise(f, IDENTITY_H, I12, 1.5),
            hv.weighted_bounds(f, IDENTITY_H, hv.parse("1"), I12, quad_tol=1e-11),
        ]
        for report in reports:
            for term in report.terms:
                assert term.value == pytest.approx(0.75, abs=1e-9), report.chain_id
            assert report.passed


def test_criterion_4_constant_regression():
    with criterion(4, "constants exact in derived chains, printed forms break", 5.0):
        one = hv.parse("1")
        derived = [
            hv.chain_harmonic_hh(one, I12, quad_tol=1e-11),
            hv.bounds_pointwise(one, I12, 1.4),
            hv.chain_subinterval(one, I12, 1.2, 1.7, quad_tol=1e-11),
            hv.chain_reflected_pair(one, I12, 1.2, quad_tol=1e-11),
            hv.chain_refinement(one, I12, quad_tol=1e-10),
            hv.chain_harmonic_full(one, I12, 1.2, 1.7, quad_tol=1e-11),
            hv.chain_h_subinterval(one, IDENTITY_H, I12, 1.2, 1.7, quad_tol=1e-11),
            hv.bounds_h_pointwise(one, IDENTITY_H, I12, 1.4),
            hv.weighted_bounds(one, IDENTITY_H, hv.parse("1"), I12, quad_tol=1e-11),
            *hv.product_inequalities(one, one, I12, quad_tol=1e-11),
        ]
        for report in derived:
            values = report.term_values()
            for v in values:
                assert v == pytest.approx(values[0], abs=1e-10), report.chain_id
            assert report.passed
        printed_t3 = hv.chain_subinterval(one, I12, 1.2, 1.7, variant="as_printed")
        assert printed_t3.terms[1].value == pytest.approx(0.75, abs=1e-10)
        assert not printed_t3.passed
        printed_r2 = hv.chain_reflected_pair(one, I12, 1.2, variant="as_printed")
        assert printed_r2.terms[1].value == pytest.approx(0.5, abs=1e-10)
        assert not printed_r2.passed


def test_criterion_5_product_bounds():
    with criterion(5, "product bounds tight at 9/16 for the affine pair", 5.0):
        f = hv.parse("1/x")
        lower, upper = hv.product_inequalities(f, f, I12, quad_tol=1e-11)
        for term in (*lower.terms, *upper.terms):
            assert term.value == pytest.approx(9.0 / 16.0, abs=1e-9)
        assert lower.passed and upper.passed


def _random_chain_reports(fn, interval, quad_tol, with_refinement):
    width = interval.width
    x = interval.a + 0.31 * width
    y = interval.a + 0.83 * width
    one = hv.parse("1")
    reports = [
        hv.chain_harmonic_hh(fn, interval, quad_tol=quad_tol),
        hv.bounds_pointwise(fn, interval, x),
        hv.chain_subinterval(fn, interval, x, y, quad_tol=quad_tol),
        hv.chain_reflected_pair(fn, interval, x, quad_tol=quad_tol),
        hv.chain_harmonic_full(fn, interval, x, y, quad_tol=quad_tol),
        *hv.product_inequalities(fn, fn, interval, quad_tol=quad_tol),
        hv.chain_h_subinterval(fn, IDENTITY_H, interval, x, y, quad_tol=quad_tol),
        hv.bounds_h_pointwise(fn, IDENTITY_H, interval, x),
        hv.weighted_bounds(fn, IDENTITY_H, one, interval, quad_tol=quad_tol),
    ]
    if with_refinement:
        reports.append(hv.chain_refinement(fn, interval, quad_tol=1e-5))
    return reports


def test_criterion_6_chain_validity_sweep():
    with criterion(6, "zero derived-variant violations: corpus + 200 random", 60.0):
        payload = run_sweep(variant="derived_corrected")
        assert payload["summary"]["violated"] == 0
        assert payload["summary"]["errors"] == 0

        intervals = (hv.HInterval(1.0, 2.0), hv.HInterval(0.5, 3.0), hv.HInterval(-2.0, -1.0))
        failures = []
        for seed in range(200):
            interval = intervals[seed % 3]
            fn = hv.random_harmonic_convex(seed, interval)
            reports = _random_chain_reports(
                fn, interval, quad_tol=1e-7, with_refinement=seed % 10 == 0
            )
            for report in reports:
                if not report.passed:
                    failures.append((seed, report.chain_id, report.slacks))
        assert failures == []


def test_criterion_7_invariant_suites():
    with criterion(7, "geometry and transform invariants over seeded samples", 10.0):
        rng = random.Random(20250810)

        def random_interval():
            a = rng.uniform(0.1, 5.0)
            b = a + rng.uniform(0.2, 5.0)
            return hv.HInterval(-b, -a) if rng.random() < 0.5 else hv.HInterval(a, b)

        # reflection involution: 1000 samples over 20 intervals
        for _ in range(20):
            interval = random_interval()
            for _ in range(50):
                t = rng.uniform(interval.a, interval.b)
                assert abs(interval.reflect(interval.reflect(t)) - t) <= 1e-12 * abs(t)

        # endpoint swap, exact: 1000 intervals
        for _ in range(1000):
            interval = random_interval()
            assert interval.reflect(interval.a) == interval.b
            assert interval.reflect(interval.b) == interval.a

        # reflection commutes with harmonic combination: 1000 samples
        for _ in range(1000):
            interval = random_interval()
            x = rng.uniform(interval.a, interval.b)
            y = rng.uniform(interval.a, interval.b)
            al = rng.random()
            lhs = interval.reflect(hcomb(x, y, al))
            rhs = hcomb(interval.reflect(x), interval.reflect(y), al)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

        # transform identities on corpus functions: 1000+ samples each
        specs = [hv.parse(src) for src in ("exp(x)", "-ln(x)", "x^2", "1/x")]
        for f in specs:
            fb = hv.sym_transform(f, I12)

            def ft(t):  # the antisymmetric part
                return 0.5 * (f(t) - f(I12.reflect(t)))

            for _ in range(250):
                t = rng.uniform(1.0, 2.0)
                r = I12.reflect(t)
                scale = max(1.0, abs(f(t)), abs(f(r)))
                assert abs(fb(t) + ft(t) - f(t)) <= 1e-14 * scale
                assert abs(fb(r) - fb(t)) <= 1e-12 * scale
                assert abs(ft(r) + ft(t)) <= 1e-12 * scale

        # pointwise sandwich extremes are attained (sampled inf/sup)
        for src in ("1/x", "x", "x^2", "exp(x)"):
            f = hv.parse(src)
            fb = hv.sym_transform(f, I12)
            lo = f(I12.harmonic_midpoint)
            hi = 0.5 * (f(1.0) + f(2.0))
            samples = [fb(rng.uniform(1.0, 2.0)) for _ in range(250)]
            samples += [fb(1.0), fb(2.0), fb(I12.harmonic_midpoint)]
            assert min(samples) >= lo - 1e-9
            assert max(samples) <= hi + 1e-9
            assert min(samples) == pytest.approx(lo, abs=1e-9)
            assert max(samples) == pytest.approx(hi, abs=1e-9)


def test_criterion_8_strict_inclusion_search(capsys):
    with criterion(8, "strict-inclusion witness via the search command", 10.0):
        args = ["search", "--a", "1", "--b", "2", "--seed", "7"]
        code = cli_main(args)
        out1 = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out1)
        witness = doc["witness"]
        assert witness["harmonic_convexity"]["passed"] is False
        assert witness["harmonic_convexity"]["worst_margin"] > 1e-3
        assert witness["symmetrized"]["passed"] is True
        assert witness["symmetrized"]["worst_margin"] <= 1e-12
        cli_main(args)
        out2 = capsys.readouterr().out
        assert out1 == out2


def test_criterion_9_reduction_web():
    with criterion(9, "weighted chains reduce to plain ones when h = id", 30.0):
        entries = hv.builtin_functions()
        assert len(entries) >= 10
        count = 0
        for entry in entries[:12]:
            interval = entry.interval
            width = interval.width
            x = interval.a + 0.37 * width
            y = interval.a + 0.78 * width
            t3 = hv.chain_subinterval(entry.spec, interval, x, y, quad_tol=1e-12)
            t5 = hv.chain_h_subinterval(entry.spec, IDENTITY_H, interval, x, y, quad_tol=1e-12)
            for u, v in zip(t3.term_values(), t5.term_values()):
                assert u == pytest.approx(v, abs=1e-10), entry.name
            t2 = hv.bounds_pointwise(entry.spec, interval, x)
            t6 = hv.bounds_h_pointwise(entry.spec, IDENTITY_H, interval, x)
            for u, v in zip(t2.term_values(), t6.term_values()):
                assert u == pytest.approx(v, abs=1e-10), entry.name
            count += 1
        assert count >= 10
