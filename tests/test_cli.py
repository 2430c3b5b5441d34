import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hhverify
from hhverify import ineq
from hhverify.cli import _fmt_float, format_json, main, run_sweep
from hhverify.corpus import builtin_functions, builtin_h
from hhverify.ineq import CHAINS
from hhverify.quad import QuadratureBudgetError


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def run_module(args, timeout=60):
    """``python -m hhverify.cli`` in a subprocess, killed after ``timeout`` s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hhverify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "hhverify.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _recursive_format_json(obj, indent=0):
    """The writer format_json replaced, one joined string per node: the
    byte-for-byte oracle of its output."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_recursive_format_json(str(k))}: {_recursive_format_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_recursive_format_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# strings with non-ASCII and control characters, ints, bools, None and every
# kind of float, nested in dicts (string keys), lists and tuples
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, -1e16, 5e-324])
    | st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


def test_module_runs_cli():
    # python -m hhverify.cli must run the CLI, not import it and exit 0
    proc = run_module(["--version"])
    assert proc.returncode == 0
    assert proc.stdout == "hhverify 0.1.0\n"


class TestFormatJson:
    def test_seventeen_significant_digits(self):
        text = format_json({"v": 2.0 * math.log(2.0)})
        assert "1.3862943611198906" in text

    def test_integral_floats_roundtrip(self):
        assert format_json(0.75) == "0.75"
        assert format_json(2.0) == "2.0"
        assert format_json(1 / 3) == "0.33333333333333331"
        assert json.loads(format_json(1 / 3)) == 1 / 3

    def test_nested(self):
        doc = {"a": [1, 2.5], "b": {"c": None, "d": True}}
        assert json.loads(format_json(doc)) == doc

    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    @example({"z": [0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, -1e16, 5e-324, 2.2250738585072014e-308]})
    @example(("\x00\x1f\x7f", "é\u2028", "\ud800", "\U0001f600", {"\n": []}, {}))
    def test_matches_recursive_writer(self, obj):
        assert format_json(obj) == _recursive_format_json(obj)

    def test_leaves_no_reference_cycles(self):
        payload = run_sweep(entry_names=["square"])
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            format_json(payload)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestCheck:
    def test_reciprocal_passes(self):
        code, out, _ = run_cli(["check", "--fn", "1/x", "--a", "1", "--b", "2", "--class", "hc"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["passed"] is True

    def test_neg_log_fails_with_witness(self):
        code, out, _ = run_cli(["check", "--fn", "-ln(x)", "--a", "1", "--b", "2", "--class", "hc"])
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"]["passed"] is False
        assert doc["verdict"]["worst_margin"] > 0.05
        assert doc["verdict"]["witness"] is not None

    def test_syntax_error_exits_2(self):
        code, _, err = run_cli(["check", "--fn", "ln(", "--a", "1", "--b", "2", "--class", "hc"])
        assert code == 2
        assert "offset 3" in err

    def test_h_class_requires_h(self):
        code, _, err = run_cli(["check", "--fn", "1/x", "--a", "1", "--b", "2", "--class", "shh"])
        assert code == 2
        assert "--h" in err

    def test_h_class(self):
        code, out, _ = run_cli(
            ["check", "--fn", "1/x", "--a", "1", "--b", "2", "--class", "shh", "--h", "x"]
        )
        assert code == 0

    @pytest.mark.parametrize("class_name", ["convex", "hc", "shconc"])
    def test_h_ignored_by_unweighted_class(self, class_name):
        args = ["check", "--fn", "1/x", "--a", "1", "--b", "2", "--class", class_name]
        code, out, err = run_cli(args + ["--h", "x"])
        assert err == f"hhverify check: class {class_name} takes no --h; ignored\n"
        assert (code, out) == run_cli(args)[:2]

    def test_symmetrized_concave_neg_log(self):
        code, out, _ = run_cli(
            ["check", "--fn", "-ln(x)", "--a", "1", "--b", "2", "--class", "shconc"]
        )
        assert code == 0

    def test_invalid_interval(self):
        code, _, err = run_cli(["check", "--fn", "1/x", "--a", "2", "--b", "1", "--class", "hc"])
        assert code == 2

    @pytest.mark.parametrize("a, b", [("1", "1"), ("1", "inf"), ("2", "1")])
    def test_invalid_plain_interval(self, a, b):
        # in a subprocess, so that a check that hangs on such an interval
        # fails the test instead of stalling the suite
        proc = run_module(["check", "--class", "convex", "--fn", "x^2", "--a", a, "--b", b], timeout=20)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "lo < hi" in proc.stderr

    def test_csv_rejected_for_check(self):
        code, _, err = run_cli(["check", "--fn", "x", "--class", "hc", "--a", "1", "--b", "2", "--format", "csv"])
        assert code == 2
        assert "csv" in err


@pytest.mark.parametrize("grid", ["0", "-3"])
@pytest.mark.parametrize(
    "args",
    [
        ["check", "--fn", "x", "--a", "1", "--b", "2", "--class", "hc"],
        ["verify", "--chain", "t1", "--fn", "1/x", "--a", "1", "--b", "2"],
        ["sweep", "--entry", "square"],
        ["search", "--a", "1", "--b", "2"],
    ],
    ids=lambda args: args[0],
)
def test_nonpositive_grid_exits_2(args, grid):
    code, out, err = run_cli(args + ["--grid", grid])
    assert code == 2
    assert out == ""
    assert "--grid" in err


_HC_RECIPROCAL = ["check", "--class", "hc", "--fn", "1/x", "--a", "1", "--b", "2"]
_T1_RECIPROCAL = ["verify", "--chain", "t1", "--fn", "1/x", "--a", "1", "--b", "2"]


@pytest.mark.parametrize(
    "args",
    [
        _HC_RECIPROCAL + ["--tol", "-1"],
        _HC_RECIPROCAL + ["--tol", "nan"],
        _T1_RECIPROCAL + ["--tol", "-1"],
        _T1_RECIPROCAL + ["--tol", "inf"],
        _T1_RECIPROCAL + ["--quad-tol", "nan"],
        ["sweep", "--entry", "square", "--tol", "-1"],
        ["sweep", "--entry", "square", "--quad-tol", "inf"],
        ["search", "--a", "1", "--b", "2", "--min-margin", "nan"],
        ["search", "--a", "1", "--b", "2", "--c", "nan"],
        ["search", "--a", "1", "--b", "2", "--c", "inf"],
        ["search", "--a", "1", "--b", "2", "--c", "-inf"],
    ],
    ids=lambda args: " ".join([args[0], *args[-2:]]),
)
def test_bad_tolerance_exits_2(args):
    # the flag is named, before any scan or quadrature runs
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"hhverify {args[0]}: {args[-2]} must be finite")


def test_negative_float_values_are_values():
    # argparse reads "-1e6" as a flag unless it is glued to its option
    glued = run_cli(["check", "--fn", "x", "--class", "hc", "--a=-1e6", "--b=-1"])
    spaced = run_cli(["check", "--fn", "x", "--class", "hc", "--a", "-1e6", "--b", "-1"])
    assert glued[1] != ""
    assert spaced == glued


# every parameter a chain cannot run without, in its evaluator's order
REQUIRED = {
    "t1": (), "t2": ("x",), "t3": ("x", "y"), "t4": ("g",), "t5": ("h", "x", "y"),
    "t6": ("h", "x"), "c1": ("h", "w"), "r2": ("x",), "r3": ("x", "y"), "r4": (),
}
ALL_PARAMS = {"x": "1.2", "y": "1.7", "g": "1/x", "h": "x", "w": "1"}


def _verify_args(chain, params):
    args = ["verify", "--chain", chain, "--fn", "1/x", "--a", "1", "--b", "2"]
    for name, value in params.items():
        args += [f"--{name}", value]
    return args


class TestChainTable:
    def test_required_table_covers_every_chain(self):
        assert set(REQUIRED) == set(CHAINS)

    @pytest.mark.parametrize("chain", [*CHAINS, "refinement"])
    def test_every_chain_verifies(self, chain):
        # 1/x is harmonic affine: every chain holds, with h(t) = t and w = 1
        code, out, err = run_cli(_verify_args(chain, ALL_PARAMS))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["chain"] == chain
        expected = {"t4": ["t4_lower", "t4_upper"], "refinement": ["r4"]}.get(chain, [chain])
        assert [r["chain"] for r in doc["reports"]] == expected
        assert all(r["passed"] for r in doc["reports"])

    @pytest.mark.parametrize(
        "chain,missing", [(c, name) for c, names in REQUIRED.items() for name in names]
    )
    def test_missing_parameter_exits_2(self, chain, missing):
        params = {k: v for k, v in ALL_PARAMS.items() if k != missing}
        code, out, err = run_cli(_verify_args(chain, params))
        assert code == 2
        assert out == ""
        assert err.strip() == f"hhverify verify: chain {chain} requires --{missing}"

    @pytest.mark.parametrize("chain", [*CHAINS, "refinement"])
    def test_ignored_parameters_named_on_stderr(self, chain):
        params = CHAINS["r4" if chain == "refinement" else chain].parameters()
        ignored = [f"--{name}" for name in ALL_PARAMS if name not in params]
        code, out, err = run_cli(_verify_args(chain, ALL_PARAMS))
        assert err == f"hhverify verify: chain {chain} takes no {', '.join(ignored)}; ignored\n"
        # the ignored flags change neither the report nor the exit code
        taken = {name: value for name, value in ALL_PARAMS.items() if name in params}
        assert (code, out) == run_cli(_verify_args(chain, taken))[:2]

    def test_no_stderr_when_every_flag_is_taken(self):
        code, _, err = run_cli(_verify_args("c1", {"h": "x", "w": "1"}))
        assert (code, err) == (0, "")

    def test_first_missing_parameter_in_signature_order(self):
        _, _, err = run_cli(_verify_args("c1", {}))
        assert "requires --h" in err
        _, _, err = run_cli(_verify_args("t5", {}))
        assert "requires --h" in err

    def test_sweep_runs_every_chain(self):
        code, out, _ = run_cli(["sweep", "--entry", "square"])
        assert code == 0
        results = json.loads(out)["results"]
        assert {r["chain"] for r in results} == set(CHAINS)
        for r in results:
            assert list(r) == ["entry", "chain", "h", "hypothesis", "status", "reason", "report"]


class TestVerify:
    def test_t1_equality(self):
        code, out, _ = run_cli(["verify", "--chain", "t1", "--fn", "1/x", "--a", "1", "--b", "2"])
        assert code == 0
        doc = json.loads(out)
        values = [t["value"] for t in doc["reports"][0]["terms"]]
        assert values == pytest.approx([0.75, 0.75, 0.75], abs=1e-9)

    def test_t4_product_equality(self):
        code, out, _ = run_cli(
            ["verify", "--chain", "t4", "--fn", "1/x", "--g", "1/x", "--a", "1", "--b", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 2
        for report in doc["reports"]:
            for term in report["terms"]:
                assert term["value"] == pytest.approx(9.0 / 16.0, abs=1e-9)

    def test_t3_printed_constant_violation(self):
        code, out, _ = run_cli(
            [
                "verify", "--chain", "t3", "--fn", "1", "--a", "1", "--b", "2",
                "--x", "1.2", "--y", "1.7", "--variant", "as_printed",
            ]
        )
        assert code == 1
        doc = json.loads(out)
        terms = doc["reports"][0]["terms"]
        assert terms[1]["value"] == pytest.approx(0.75, abs=1e-9)
        assert terms[0]["value"] == terms[2]["value"] == 1.0

    def test_missing_required_params(self):
        code, _, err = run_cli(["verify", "--chain", "t3", "--fn", "1", "--a", "1", "--b", "2"])
        assert code == 2
        assert "--x" in err
        code, _, err = run_cli(["verify", "--chain", "t4", "--fn", "1/x", "--a", "1", "--b", "2"])
        assert code == 2
        code, _, err = run_cli(
            ["verify", "--chain", "t5", "--fn", "1/x", "--a", "1", "--b", "2", "--x", "1.2", "--y", "1.7"]
        )
        assert code == 2
        assert "--h" in err

    def test_refinement_alias(self):
        code, out, _ = run_cli(["verify", "--chain", "refinement", "--fn", "1/x", "--a", "1", "--b", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["chain"] == "r4"

    def test_auto_direction_concave(self):
        code, out, _ = run_cli(["verify", "--chain", "t1", "--fn", "-ln(x)", "--a", "1", "--b", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["direction"] == "concave"

    @pytest.mark.parametrize(
        "chain, params",
        [("t5", ["--x", "1.2", "--y", "1.8"]), ("t6", ["--x", "1.2"]), ("c1", ["--w", "1"]), ("r4", [])],
    )
    def test_auto_direction_weighted(self, chain, params):
        # f = 1 is harmonic affine, yet h(t) + h(1-t) < 1 for h = t^2 makes
        # its symmetric part h-concave and not h-convex
        code, out, _ = run_cli(
            ["verify", "--chain", chain, "--fn", "1", "--h", "x^2", "--a", "1", "--b", "2", *params]
        )
        assert code == 0
        assert json.loads(out)["direction"] == "concave"

    def test_c1(self):
        code, out, _ = run_cli(
            [
                "verify", "--chain", "c1", "--fn", "1/x", "--h", "x", "--w", "1",
                "--a", "1", "--b", "2",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        values = [t["value"] for t in doc["reports"][0]["terms"]]
        assert values == pytest.approx([0.75, 0.75, 0.75], abs=1e-9)

    def test_csv_output(self):
        code, out, _ = run_cli(
            ["verify", "--chain", "t1", "--fn", "x", "--a", "1", "--b", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("entry,chain,h,variant,direction,status")
        assert len(lines) == 4  # header + three terms


class TestSweep:
    def test_restricted_sweep_passes(self):
        code, out, _ = run_cli(["sweep", "--entry", "reciprocal", "--entry", "neg_log"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["violated"] == 0
        assert doc["summary"]["errors"] == 0

    def test_unknown_entry(self):
        code, _, err = run_cli(["sweep", "--entry", "nonexistent"])
        assert code == 2

    def test_as_printed_restricted(self):
        code, out, _ = run_cli(
            ["sweep", "--entry", "const_one", "--variant", "as_printed"]
        )
        assert code == 1
        doc = json.loads(out)
        violated = {r["chain"] for r in doc["results"] if r["status"] == "violated"}
        assert "t3" in violated and "r2" in violated

    def test_deterministic_output(self):
        args = ["sweep", "--entry", "linear", "--seed", "3"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2

    def test_csv_includes_product_pair_rows(self):
        code, out, _ = run_cli(["sweep", "--entry", "reciprocal", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert sum("t4_lower" in line for line in lines) == 2
        assert sum("t4_upper" in line for line in lines) == 2

    def test_grid_refinement_keeps_verdicts(self):
        # smaller grids never flip in-hypothesis passes on the corpus
        _, out_small, _ = run_cli(["sweep", "--entry", "square", "--grid", "8"])
        _, out_default, _ = run_cli(["sweep", "--entry", "square"])
        small = json.loads(out_small)
        default = json.loads(out_default)
        statuses_small = {(r["entry"], r["chain"], r["h"]): r["status"] for r in small["results"]}
        statuses_default = {(r["entry"], r["chain"], r["h"]): r["status"] for r in default["results"]}
        assert statuses_small == statuses_default


class TestSearch:
    def test_witness_found(self):
        code, out, _ = run_cli(["search", "--a", "1", "--b", "2", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        witness = doc["witness"]
        assert witness is not None
        assert witness["harmonic_convexity"]["passed"] is False
        assert witness["harmonic_convexity"]["worst_margin"] > 1e-3
        assert witness["symmetrized"]["passed"] is True
        assert witness["symmetrized"]["worst_margin"] <= 1e-12

    def test_negative_interval(self):
        code, out, _ = run_cli(["search", "--a", "-2", "--b", "-1", "--seed", "3"])
        assert code == 0
        assert json.loads(out)["witness"] is not None

    def test_byte_identical_reruns(self):
        args = ["search", "--a", "1", "--b", "2", "--seed", "7"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2

    def test_invalid_interval(self):
        code, _, _ = run_cli(["search", "--a", "1", "--b", "1"])
        assert code == 2

    def test_forced_coefficient(self):
        code, out, _ = run_cli(["search", "--a", "1", "--b", "2", "--c", "10"])
        assert code == 0
        assert json.loads(out)["witness"]["coefficient"] == 10.0
        # a coefficient below the margin floor finds nothing
        code, out, _ = run_cli(["search", "--a", "1", "--b", "2", "--c", "0.0001"])
        assert code == 1
        assert json.loads(out)["witness"] is None

    def test_csv_rejected_for_search(self):
        code, _, err = run_cli(["search", "--a", "1", "--b", "2", "--format", "csv"])
        assert code == 2
        assert "csv" in err


class TestRunSweepLibrary:
    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["verify", "--chain", "t1", "--fn", "1/x", "--a", "1", "--b", "2", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["chain"] == "t1"

    def test_full_sweep_is_the_per_entry_sweeps(self):
        # results are sorted by entry first, so sorted names concatenate to
        # the full list
        names = sorted(e.name for e in builtin_functions())
        per_entry = [job for name in names for job in run_sweep(entry_names=[name])["results"]]
        assert format_json(run_sweep()["results"]) == format_json(per_entry)

    def test_double_integral_error_recorded_per_r4_job(self, monkeypatch):
        entry = next(e for e in builtin_functions() if e.name == "square")
        hs = {h.name: h for h in builtin_h()}
        r4_jobs = [
            job for job in run_sweep(entry_names=["square"])["results"]
            if job["chain"] == "r4" and job["status"] != "skipped"
        ]

        def exhausted(*args, **kwargs):
            raise QuadratureBudgetError("budget exhausted")

        monkeypatch.setattr(ineq, "refinement_double_integral", exhausted)
        # each r4 job on its own through run_chain, with the weight and
        # direction it ran with: the sweep shares one double integral
        # between them, and each records the error that call raises
        expected = []
        for job in r4_jobs:
            try:
                ineq.run_chain(
                    "r4", f=entry.spec, interval=entry.interval, h=hs.get(job["h"]),
                    direction=job["report"]["direction"], tol=1e-8, quad_tol=1e-9,
                )
            except QuadratureBudgetError as exc:
                expected.append(dict(job, status="error", reason=f"{type(exc).__name__}: {exc}", report=None))
        results = run_sweep(entry_names=["square"])["results"]
        assert [job for job in results if job["chain"] == "r4" and job["status"] != "skipped"] == expected
        assert len(expected) == 1 + len(builtin_h())
        assert {job["reason"] for job in expected} == {"QuadratureBudgetError: budget exhausted"}
        assert all(job["status"] != "error" for job in results if job["chain"] != "r4")


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_cli_lines():
    """A (line, exit code) param, with id ``README:<line number>``, for each
    ``hhverify ...`` line of the README's ``sh`` blocks; the code is the one
    its comment names as ``exits N``, or 0."""
    found, in_sh = [], False
    with open(README, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.startswith("```"):
                in_sh = line.strip() == "```sh"
            elif in_sh and line.startswith("hhverify "):
                code = re.search(r"#.*\bexits (\d+)", line)
                found.append(pytest.param(line.strip(), int(code.group(1)) if code else 0, id=f"README:{number}"))
    return found


def test_readme_has_cli_examples():
    assert _readme_cli_lines()


@pytest.mark.parametrize("line, code", _readme_cli_lines())
def test_readme_cli_example_exits_as_documented(line, code):
    got, out, err = run_cli(shlex.split(line, comments=True)[1:])
    assert got == code, f"{line!r} exited {got}\n{out[-2000:]}{err}"
