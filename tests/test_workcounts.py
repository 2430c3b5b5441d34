"""Deterministic work counts of the class checks, the sweep, the r4
double integral, the c1 weight integrals and the integrals of kinked
functions.

Evaluation and scan counts do not depend on the machine, so pinning them is
a performance-regression gate that cannot flake: a change that scans a grid
twice, or evaluates a function more often per sample, moves these numbers.
"""

import dataclasses

import pytest

from hhverify import cli, convexity, corpus, fnspec, ineq
from hhverify.convexity import SampleGrid
from hhverify.corpus import PiecewiseConvexReciprocal, random_harmonic_convex
from hhverify.fnspec import parse
from hhverify.hmean import Function, HInterval, kinks_of
from hhverify.ineq import HFunction, chain_refinement, weighted_bounds
from hhverify.quad import refinement_double_integral, weighted_integral

import corpus_gate

# one default-grid scan: f once at each of the 16*64 + 1 lattice points, on
# which every weighted pair of the 65 coarse nodes combines, and three times
# per random triple; a symmetrized scan evaluates f at the reflection of each
# random point too
SCAN_EVALS = 1025 + 3 * 512
SYM_SCAN_EVALS = 1025 + 6 * 512


class Counting:
    """A function wrapper that counts its evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


@pytest.fixture
def scans(monkeypatch):
    count = [0]
    scan = convexity._scan

    def counting_scan(*args):
        count[0] += 1
        return scan(*args)

    monkeypatch.setattr(convexity, "_scan", counting_scan)
    return count


@pytest.fixture
def counted_entries():
    return tuple(dataclasses.replace(e, spec=Counting(e.spec)) for e in corpus._build_entries())


def test_gate_scans_each_class_once(scans, counted_entries):
    for entry in counted_entries:
        corpus_gate.verify_entry(entry)
    # convex/concave, harmonic and symmetrized pairs: one scan each per entry
    assert scans[0] == 3 * len(counted_entries) == 33
    assert [e.spec.calls for e in counted_entries] == [2 * SCAN_EVALS + SYM_SCAN_EVALS] * 11
    assert sum(e.spec.calls for e in counted_entries) == 101_409


def test_builtin_corpus_runs_no_scan(scans):
    # the declarations are proved in tier 1 (test_corpus.py), not per process
    corpus.builtin_functions.cache_clear()
    assert len(corpus.builtin_functions()) == 11
    assert scans[0] == 0


def test_sweep_entry_evaluations(scans, counted_entries, monkeypatch):
    monkeypatch.setattr(cli, "builtin_functions", lambda: counted_entries)
    payload = cli.run_sweep(entry_names=["square"])
    assert payload["summary"]["violated"] == 0
    # only h = t^2 needs a weighted symmetrized scan; the other weights
    # dominate the identity
    assert scans[0] == 1
    square = next(e for e in counted_entries if e.name == "square")
    # f >= 0 is sampled once per entry (65 evaluations), not once per weight,
    # the r4 double integral once for the unweighted chain and every weight,
    # and the c1 middle integral, f(a), f(b) and f(2ab/(a+b)) once for all
    # four weights; t4, whose g is f, integrates f/t^2 once, and its
    # product takes f at a segment's nodes and their reflections, 30
    # evaluations per segment, not 45
    assert square.spec.calls == 5_590
    assert sum(e.spec.calls for e in counted_entries) == square.spec.calls


# entries declared symmetrized harmonic concave with f >= 0: h = t^2 lies
# below the identity, so their one weighted scan is decided by the corpus
DECLARED_CONCAVE = ("const_one", "const_three", "reciprocal", "sym_affine_c0", "sym_affine_c1")


def test_full_sweep_scans(scans):
    payload = cli.run_sweep()
    assert payload["summary"] == {"total": 253, "passed": 203, "violated": 0, "skipped": 50, "errors": 0}
    assert scans[0] == 3


@pytest.mark.parametrize("name", DECLARED_CONCAVE)
def test_declared_concave_entry_runs_no_scan(scans, name):
    payload = cli.run_sweep(entry_names=[name])
    assert payload["summary"]["violated"] == 0
    assert scans[0] == 0


@pytest.fixture
def double_integrals(monkeypatch):
    count = [0]
    original = ineq.refinement_double_integral

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(ineq, "refinement_double_integral", counting)
    return count


def test_full_sweep_double_integrals(double_integrals):
    # one per entry: the unweighted r4 job and its weighted ones share it
    cli.run_sweep()
    assert double_integrals[0] == len(corpus.builtin_functions()) == 11


@pytest.mark.parametrize("name", [e.name for e in corpus._build_entries()])
def test_entry_sweep_double_integrals(double_integrals, name):
    cli.run_sweep(entry_names=[name])
    assert double_integrals[0] == 1


def test_auto_direction_scans_once(scans):
    # verify's auto direction: one symmetrized scan settles both directions
    f = Counting(parse("-ln(x)"))
    verdict = convexity.check_class("symmetrized", f, 1.0, 2.0, grid=SampleGrid())
    assert cli._class_direction(verdict) == "concave"
    assert scans[0] == 1
    assert f.calls == SYM_SCAN_EVALS == 4_097


def test_verify_t4_runs_no_scan(scans, capsys):
    # t4 takes no direction, so verify settles none
    args = ["verify", "--chain", "t4", "--fn", "-ln(x)", "--g", "-ln(x)", "--a", "1", "--b", "2"]
    assert cli.main(args) == 0
    assert scans[0] == 0


_X_ON_12 = ["--fn", "x", "--a", "1", "--b", "2"]


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--chain", "t5", *_X_ON_12, "--x", "1.2", "--y", "1.8"],
        ["verify", "--chain", "t3", *_X_ON_12, "--x", "1.2"],
        ["verify", "--chain", "c1", *_X_ON_12, "--h", "x"],
        ["verify", "--chain", "t2", *_X_ON_12],
        ["check", "--class", "hc", *_X_ON_12, "--grid", "4097"],
    ],
    ids=["t5-without-h", "t3-without-y", "c1-without-w", "t2-without-x", "check-grid-4097"],
)
def test_usage_errors_run_no_scan(scans, capsys, args):
    # flags are bound and checked before a class scan settles the direction
    assert cli.main(args) == 2
    assert scans[0] == 0
    assert capsys.readouterr().err.startswith(f"hhverify {args[0]}: ")


@pytest.mark.parametrize(
    "make_f, tol, evals, subdivisions",
    [
        (lambda interval: parse("exp(x)"), 1e-9, 1_126, 3),
        (lambda interval: random_harmonic_convex(3, interval), 1e-6, 58_366, 8),
    ],
    ids=["exp", "random_hc_3"],
)
def test_refinement_double_integral_work(make_f, tol, evals, subdivisions):
    interval = HInterval(1.0, 2.0)
    f = Counting(make_f(interval))
    res = refinement_double_integral(f, interval, tol=tol)
    # f at x*, then 15 inner nodes per inner segment at every outer node.
    # Counting publishes no kinks, so the outer integral of random_hc_3 is
    # not split at them here, and bisects toward each one instead
    assert f.calls == evals
    assert res.subdivisions == subdivisions


def test_kinked_weighted_integral_evaluations():
    # random_hc_6 kinks five times inside [1, 2]; split there, each of the
    # six pieces takes one Kronrod panel (2 475 evaluations without the
    # breakpoints)
    f = random_harmonic_convex(6, HInterval(1.0, 2.0))
    counted = Counting(f)
    res = weighted_integral(counted, 1.0, 2.0, breakpoints=f.kinks)
    assert counted.calls == 90
    assert res.subdivisions == 6


def test_refinement_sym_mean_evaluations():
    interval = HInterval(1.0, 2.0)
    f = random_harmonic_convex(3, interval)
    counted = Counting(f)
    # a wrapper hides the kinks unless it is built as a record that has them
    chain_refinement(Function(counted, kinks=f.kinks), interval, quad_tol=1e-6)
    # the double integral with its outer level split at the kinks of sym(f)
    # (58 366 evaluations without them, as pinned above), f at x*, and the
    # mean of sym(f): f twice per node, one Kronrod panel on each of the
    # five pieces between the two kinks and their reflections (1 890
    # evaluations without the breakpoints)
    assert counted.calls == 20_116 + 1 + 2 * 15 * 5 == 20_267


@pytest.mark.parametrize(
    "h_source, evals",
    [("x^0.5", 135), ("x^2", 225), ("x", 105), ("1", 45)],
)
def test_weighted_bounds_h_evaluations(h_source, evals):
    # h enters the two c1 weight integrals, twice per node of the derived
    # one and once per node of the printed one; in theta, with t = a +
    # (b-a)(1 - cos pi*theta)/2, the sqrt(t - a) of h = sqrt is smooth
    h = HFunction.from_source(h_source)
    counted = Counting(h.fn)
    weighted_bounds(parse("x^2"), dataclasses.replace(h, fn=counted), parse("1"), HInterval(1.0, 2.0), quad_tol=1e-9)
    assert counted.calls == evals


# --- which Gauss-Kronrod rule an integral takes ---------------------------------
#
# weighted_integral hands f's compiled weighted rule to integrate, which
# applies it to whole segments; a wrapper such as Counting has no rule,
# so it takes the generic one and counts every evaluation.  Both paths visit
# the same segments, so the pins above hold on either.

_F_KINDS = {
    "expression": lambda interval: parse("exp(x) - 1/x"),
    "piecewise": lambda interval: random_harmonic_convex(6, interval),
}


def _no_scalar_calls(self, t):
    raise AssertionError("scalar call on the compiled-rule path")


def _no_rule(lo, hi):
    raise AssertionError("compiled rule applied through a wrapper")


@pytest.mark.parametrize("kind", _F_KINDS)
def test_weighted_integral_takes_the_compiled_rule(kind, monkeypatch):
    interval = HInterval(1.0, 2.0)
    f = _F_KINDS[kind](interval)
    generic = weighted_integral(Counting(f), 1.0, 2.0, breakpoints=kinks_of(f))
    monkeypatch.setattr(type(f), "__call__", _no_scalar_calls)
    compiled = weighted_integral(f, 1.0, 2.0, breakpoints=kinks_of(f))
    assert repr(compiled) == repr(generic)


@pytest.mark.parametrize("kind", _F_KINDS)
def test_wrapped_integrand_takes_the_generic_rule(kind, monkeypatch):
    compile_ast = fnspec.compile_ast
    monkeypatch.setattr(fnspec, "compile_ast", lambda *args: (*compile_ast(*args)[:2], _no_rule))
    monkeypatch.setattr(PiecewiseConvexReciprocal, "weighted_gk15", lambda self, lo, hi: _no_rule(lo, hi))
    interval = HInterval(1.0, 2.0)
    f = _F_KINDS[kind](interval)
    with pytest.raises(AssertionError, match="through a wrapper"):
        weighted_integral(f, 1.0, 2.0)
    counted = Counting(f)
    res = weighted_integral(counted, 1.0, 2.0, breakpoints=kinks_of(f))
    # one generic application on each starting segment (one more than the
    # kinks inside) and on both halves of every split
    assert counted.calls == 15 * (2 * res.subdivisions - len(kinks_of(f)) - 1)


@pytest.fixture
def piecewise_work(monkeypatch):
    """Applications of the piecewise rule and scalar calls of f."""
    counts = {"rule": 0, "scalar": 0}
    rule, scalar = PiecewiseConvexReciprocal.weighted_gk15, PiecewiseConvexReciprocal.__call__

    def counting_rule(self, lo, hi):
        counts["rule"] += 1
        return rule(self, lo, hi)

    def counting_scalar(self, t):
        counts["scalar"] += 1
        return scalar(self, t)

    monkeypatch.setattr(PiecewiseConvexReciprocal, "weighted_gk15", counting_rule)
    monkeypatch.setattr(PiecewiseConvexReciprocal, "__call__", counting_scalar)
    return counts


def test_kinked_weighted_integral_rule_applications(piecewise_work):
    # the pin of test_kinked_weighted_integral_evaluations, a rule per panel
    f = random_harmonic_convex(6, HInterval(1.0, 2.0))
    res = weighted_integral(f, 1.0, 2.0, breakpoints=f.kinks)
    assert piecewise_work == {"rule": 6, "scalar": 0}
    assert 15 * piecewise_work["rule"] == 90
    assert res.subdivisions == 6


def test_refinement_double_integral_rule_applications(piecewise_work):
    # random_hc_3 as in test_refinement_double_integral_work, but with its
    # kinks published, so the outer integral starts from the five segments
    # between them and their reflections: f at x*, then one rule
    # application per inner segment at every outer node
    interval = HInterval(1.0, 2.0)
    res = refinement_double_integral(random_harmonic_convex(3, interval), interval, tol=1e-6)
    assert piecewise_work == {"rule": 1_341, "scalar": 1}
    assert 15 * piecewise_work["rule"] + piecewise_work["scalar"] == 20_116
    assert res.subdivisions == 5

