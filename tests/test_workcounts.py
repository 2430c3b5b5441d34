"""Deterministic work counts of the class checks and the sweep.

Evaluation and scan counts do not depend on the machine, so pinning them is
a performance-regression gate that cannot flake: a change that scans a grid
twice, or evaluates a function more often per sample, moves these numbers.
"""

import dataclasses

import pytest

from hhverify import cli, convexity, corpus
from hhverify.convexity import SampleGrid
from hhverify.fnspec import parse
from hhverify.hmean import HInterval

# one default-grid scan: 67 abscissae, 67*66/2 pairs x 15 weights, 512
# random triples; f at each abscissa, each combination, and three times per
# random triple
SCAN_EVALS = 67 + 2211 * 15 + 3 * 512


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
    # the symmetrized scan evaluates f twice per point
    assert [e.spec.calls for e in counted_entries] == [4 * SCAN_EVALS] * 11
    assert sum(e.spec.calls for e in counted_entries) == 1_529_792


def test_sweep_entry_evaluations(scans, counted_entries, monkeypatch):
    monkeypatch.setattr(cli, "builtin_functions", lambda: counted_entries)
    payload = cli.run_sweep(entry_names=["square"])
    assert payload["summary"]["violated"] == 0
    # only h = t^2 needs a weighted symmetrized scan; the other weights
    # dominate the identity
    assert scans[0] == 1
    square = next(e for e in counted_entries if e.name == "square")
    assert square.spec.calls == 75_085
    assert sum(e.spec.calls for e in counted_entries) == square.spec.calls


def test_auto_direction_scans_once(scans):
    f = Counting(parse("-ln(x)"))
    direction = cli._auto_direction(f, HInterval(1.0, 2.0), SampleGrid(), symmetrized=True)
    assert direction == "concave"
    assert scans[0] == 1
    assert f.calls == 2 * SCAN_EVALS == 69_536
