"""Deterministic work counts of the class checks, the sweep, the r4
double integral and the c1 weight integrals.

Evaluation and scan counts do not depend on the machine, so pinning them is
a performance-regression gate that cannot flake: a change that scans a grid
twice, or evaluates a function more often per sample, moves these numbers.
"""

import dataclasses

import pytest

from hhverify import cli, convexity, corpus, ineq
from hhverify.convexity import SampleGrid
from hhverify.corpus import random_harmonic_convex
from hhverify.fnspec import parse
from hhverify.hmean import HInterval
from hhverify.ineq import HFunction, weighted_bounds
from hhverify.quad import refinement_double_integral

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
        corpus._verify_entry(entry)
    # convex/concave, harmonic and symmetrized pairs: one scan each per entry
    assert scans[0] == 3 * len(counted_entries) == 33
    assert [e.spec.calls for e in counted_entries] == [2 * SCAN_EVALS + SYM_SCAN_EVALS] * 11
    assert sum(e.spec.calls for e in counted_entries) == 101_409


def test_sweep_entry_evaluations(scans, counted_entries, monkeypatch):
    monkeypatch.setattr(cli, "builtin_functions", lambda: counted_entries)
    payload = cli.run_sweep(entry_names=["square"])
    assert payload["summary"]["violated"] == 0
    # only h = t^2 needs a weighted symmetrized scan; the other weights
    # dominate the identity
    assert scans[0] == 1
    square = next(e for e in counted_entries if e.name == "square")
    # f >= 0 is sampled once per entry (65 evaluations), not once per weight,
    # and the r4 double integral once for the unweighted chain and every weight
    assert square.spec.calls == 6_143
    assert sum(e.spec.calls for e in counted_entries) == square.spec.calls


# entries declared symmetrized harmonic concave with f >= 0: h = t^2 lies
# below the identity, so their one weighted scan is decided by the corpus
DECLARED_CONCAVE = ("const_one", "const_three", "reciprocal", "sym_affine_c0", "sym_affine_c1")


@pytest.fixture
def gated():
    # the corpus gate's own scans run once per process, before the sweep
    corpus.builtin_functions()


def test_full_sweep_scans(gated, scans):
    payload = cli.run_sweep()
    assert payload["summary"] == {"total": 253, "passed": 203, "violated": 0, "skipped": 50, "errors": 0}
    assert scans[0] == 3


@pytest.mark.parametrize("name", DECLARED_CONCAVE)
def test_declared_concave_entry_runs_no_scan(gated, scans, name):
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


def test_full_sweep_double_integrals(gated, double_integrals):
    # one per entry: the unweighted r4 job and its weighted ones share it
    cli.run_sweep()
    assert double_integrals[0] == len(corpus.builtin_functions()) == 11


@pytest.mark.parametrize("name", [e.name for e in corpus._build_entries()])
def test_entry_sweep_double_integrals(gated, double_integrals, name):
    cli.run_sweep(entry_names=[name])
    assert double_integrals[0] == 1


def test_auto_direction_scans_once(scans):
    f = Counting(parse("-ln(x)"))
    direction = cli._auto_direction(f, HInterval(1.0, 2.0), SampleGrid(), symmetrized=True)
    assert direction == "concave"
    assert scans[0] == 1
    assert f.calls == SYM_SCAN_EVALS == 4_097


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
    # f at x*, then 15 inner nodes per inner segment at every outer node
    assert f.calls == evals
    assert res.subdivisions == subdivisions


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
