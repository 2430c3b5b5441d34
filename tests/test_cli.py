import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import hhverify
from hhverify.cli import format_json, main
from hhverify.ineq import CHAINS


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
    ],
    ids=lambda args: " ".join([args[0], *args[-2:]]),
)
def test_bad_tolerance_exits_2(args):
    # the flag is named, before any scan or quadrature runs
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"hhverify {args[0]}: {args[-2]} must be finite")


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
