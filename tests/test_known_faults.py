"""The benchmark's ``KNOWN_FAULTS`` (perfbench/workloads.py) lists
operations whose failures do not make a run incorrect.  The ones listed for
``kinked_chains`` now pass, so a list that still names them would hide a
regression in them; this test runs each through the benchmark's own check."""

import os

import pytest

import hhverify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_listed_kinked_faults_pass_their_checks(monkeypatch, tmp_path):
    pytest.importorskip("mpmath")  # the reference values come from perfbench/refs.py
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    listed = workloads.KNOWN_FAULTS["kinked_chains"]
    ops = [op for op in workloads.build("kinked_chains", hhverify, str(tmp_path)).ops if op.name in listed]
    assert {op.name for op in ops} == listed
    problems = {op.name: op.check(op.finish(op.call())) for op in ops}
    assert {name: problem for name, problem in problems.items() if problem is not None} == {}
