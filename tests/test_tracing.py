"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps library names
from outside the package.  It must find every name it wraps, see every class
scan through them, and put every original back when uninstalled."""

import os

import pytest

import hhverify
import hhverify.cli

import corpus_gate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer(hhverify)  # raises AttributeError if a wrapped name is gone
    patches = tracer._patches
    assert patches
    tracer.install()
    try:
        assert all(getattr(owner, attr) is new for owner, attr, _, new in patches)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in patches)


@pytest.mark.parametrize(
    "run, scans",
    [
        (lambda: hhverify.cli.main(["check", "--class", "shh", "--fn", "x^2", "--h", "x", "--a", "1", "--b", "2"]), 1),
        (lambda: hhverify.cli.main(["verify", "--chain", "t1", "--fn", "-ln(x)", "--a", "1", "--b", "2"]), 1),
        (lambda: hhverify.cli.run_sweep(entry_names=["square"]), 1),
        (lambda: corpus_gate.verify_entry(hhverify.corpus._build_entries()[0]), 3),
        # the harmonic scan fails f_1, so the symmetrized one runs too
        (lambda: hhverify.cli.main(["search", "--a", "1", "--b", "2", "--c", "1"]), 2),
    ],
    ids=["check", "verify-auto-direction", "sweep-square", "corpus-gate", "search"],
)
def test_tracer_counts_every_scan(monkeypatch, capsys, run, scans):
    # every class scan goes through a public checker, the names the tracer wraps
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    count = [0]
    scan = hhverify.convexity._scan

    def counting_scan(*args):
        count[0] += 1
        return scan(*args)

    monkeypatch.setattr(hhverify.convexity, "_scan", counting_scan)
    tracer = tracing.Tracer(hhverify)
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    assert count[0] == scans
    assert tracer.counts["convexity.checks"] == scans
