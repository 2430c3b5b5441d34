"""The benchmark's checks catch wrong results, and pass right ones.

    python3 -m pytest -q perfbench/test_checks.py

Runs each workload on its reduced operation list, in process, and feeds
operations whose results are known to be wrong; each must be counted as a
failed operation.  Takes about 15 s, most of it the corpus gate.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

hv = run.import_program()


def _attempt(ops, passes=2):
    _, _, outcomes, done = run.run_passes(ops, math.inf, random.Random(0), max_passes=passes)
    assert done == passes
    return run.check_outcomes(ops, outcomes)


def _perturbed(op, report_index, term_index):
    """``op`` with one term of its result moved by twice its error bar plus
    the chain tolerance; the report's stored verdict is left as it was."""

    def call():
        result = op.call()
        reports = list(result) if isinstance(result, tuple) else [result]
        rep = reports[report_index]
        term = rep.terms[term_index]
        moved = dataclasses.replace(term, value=term.value + 2 * (term.abs_error + rep.tol) + 1e-6)
        terms = rep.terms[:term_index] + (moved,) + rep.terms[term_index + 1:]
        reports[report_index] = dataclasses.replace(rep, terms=terms)
        return tuple(reports) if isinstance(result, tuple) else reports[0]

    return dataclasses.replace(op, name=f"perturbed {op.name}", call=call)


def _raising(op):
    def call():
        raise hv.QuadratureBudgetError("injected")

    return dataclasses.replace(op, name=f"raising {op.name}", call=call)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reduced_workload_passes(name, tmp_path):
    wl = workloads.build(name, hv, str(tmp_path), reduced=True)
    attempted, failed, failing, messages = _attempt(wl.ops)
    assert attempted == 2 * len(wl.ops)
    assert failed == 0, messages


def _by_name(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


def test_smooth_wrong_results_fail(tmp_path):
    wl = workloads.build("smooth_chains", hv, str(tmp_path), reduced=True)
    interval = hv.HInterval(1.0, 2.0)
    x, y = workloads._points(1.0, 2.0)
    one = hv.parse("1")

    def reference():
        import refs

        return refs.chain_reference("t3", refs.SmoothRef("1"), interval, x=x, y=y)

    # the printed form's extra 1/2 on the reflected integral breaks f == 1
    as_printed = workloads._chain_op(
        hv.ineq, "t3 as_printed 1", "chain_subinterval", (one, interval, x, y),
        {"variant": "as_printed"}, reference,
    )
    bad = [
        as_printed,
        _perturbed(_by_name(wl.ops, "t1 x^2"), 0, 1),
        _perturbed(_by_name(wl.ops, "t4 x^2"), 1, 1),
        _perturbed(_by_name(wl.ops, "r4 1 [1,2] h="), 0, 1),
        _raising(_by_name(wl.ops, "c1 x^2")),
    ]
    attempted, failed, failing, _ = _attempt(bad + wl.ops)
    assert attempted == 2 * (len(bad) + len(wl.ops))
    assert failing == [op.name for op in bad]
    assert failed == 2 * len(bad)


def test_kinked_wrong_results_fail(tmp_path):
    wl = workloads.build("kinked_chains", hv, str(tmp_path), reduced=True)
    bad = [
        _perturbed(_by_name(wl.ops, "t1 random_hc_3"), 0, 1),
        _perturbed(_by_name(wl.ops, "t3 random_hc_4"), 0, 1),
        _perturbed(_by_name(wl.ops, "r4 random_hc_14"), 0, 2),
        _perturbed(_by_name(wl.ops, "c1 random_hc_4"), 0, 1),
    ]
    _, failed, failing, _ = _attempt(bad, passes=1)
    assert failing == [op.name for op in bad]
    assert failed == len(bad)


def test_corpus_wrong_results_fail(tmp_path):
    entries = {e.name: e for e in hv.builtin_functions()}

    def fresh(name):
        return workloads._sweep_op(hv, entries[name], str(tmp_path))

    # the printed displays break the all-equal terms of a constant
    printed = fresh("const_one")
    path = os.path.join(str(tmp_path), "sweep-const_one.json")
    printed = dataclasses.replace(
        printed, name="sweep as_printed",
        call=lambda: hv.cli.main(["sweep", "--entry", "const_one", "--variant", "as_printed",
                                  "--out", path]),
    )
    passes = []

    def drifting_finish(code):
        # the second pass writes different bytes than the first
        code, data = fresh("reciprocal").finish(code)
        passes.append(data)
        return code, data if len(passes) == 1 else data.replace(b'"seed": 0', b'"seed": 1')

    drifting = dataclasses.replace(fresh("reciprocal"), name="sweep drifting", finish=drifting_finish)

    def t1_off(code):
        code, data = fresh("reciprocal").finish(code)
        doc = json.loads(data)
        for job in doc["results"]:
            if job["chain"] == "t1":
                job["report"]["terms"][1]["value"] += 1e-3
        return code, json.dumps(doc).encode()

    moved = dataclasses.replace(fresh("reciprocal"), name="sweep t1 moved", finish=t1_off)
    _, _, failing, _ = _attempt([printed])
    assert failing == ["sweep as_printed"]
    _, failed, failing, _ = _attempt([drifting])
    assert (failed, failing) == (1, ["sweep drifting"])
    _, failed, failing, _ = _attempt([moved], passes=1)
    assert (failed, failing) == (1, ["sweep t1 moved"])


def test_command_reports_every_metric():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "kinked_chains",
         "--reduced", "--seconds", "1"],
        capture_output=True, text=True, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
