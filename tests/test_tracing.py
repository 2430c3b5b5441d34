"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps library names
from outside the package.  It must find every name it wraps, and uninstalling
it must put every original back."""

import os

import hhverify
import hhverify.cli

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
