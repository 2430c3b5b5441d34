import csv
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hhverify
from hhverify import convexity, ineq
from hhverify.cli import _fmt_float, format_json, run_sweep
from hhverify.corpus import builtin_functions, builtin_h
from hhverify.ineq import CHAINS
from hhverify.quad import QuadratureBudgetError

import golden
from golden import run_cli


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


_STDLIB_ONLY = """\
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
assert importlib.util.find_spec("mpmath") is None, "site-packages is on the path"
from hhverify.cli import main
codes = [
    main(["sweep", "--entry", "reciprocal", "--out", sys.argv[2]]),
    main(["verify", "--chain", "t1", "--fn", "1/x", "--a", "1", "--b", "2"]),
]
sys.stderr.write(repr(codes))
"""


def test_runs_on_the_standard_library_alone(tmp_path):
    # -I -S: neither site-packages nor PYTHONPATH, so an import under src of
    # anything outside the standard library fails here.  -I also ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps the run from caching bytecode
    # under src.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hhverify.__file__)))
    proc = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", _STDLIB_ONLY, src, str(tmp_path / "sweep.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "[0, 0]")


class _Dict(dict):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


class _Pair(NamedTuple):
    first: object
    second: object


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
    # subclasses of the JSON types, at the top and inside containers
    @example(_Dict(a=_Str("b\n"), c=[_Float(0.1), _Float(2.0)], d=_Pair(_Str("x"), _Dict())))
    @example(_Pair(_Float(1 / 3), [_Dict(k=_Pair("", 1.5))]))
    @example(_Str("é"))
    @example(_Float(-1e300))
    def test_matches_recursive_writer(self, obj):
        assert format_json(obj) == _recursive_format_json(obj)

    @pytest.mark.parametrize(
        "obj", [object(), {"a": [1, {2}]}, (b"x",), {"k": 1j}], ids=["object", "set", "bytes", "complex"]
    )
    def test_rejects_other_types(self, obj):
        with pytest.raises(TypeError, match=r"^cannot serialize (object|set|bytes|complex)$"):
            format_json(obj)

    def test_matches_recursive_writer_on_the_default_sweep(self):
        payload = run_sweep()
        assert format_json(payload) == _recursive_format_json(payload)

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


def _library_calls():
    """One call of each library entry point the CLI builds on, by name: the
    functions they take are built here, before any of them runs."""
    f, g, w = hhverify.parse("x^2 + 1"), hhverify.parse("1/x"), hhverify.parse("x^2 + 1")
    h, interval = ineq.HFunction.from_source("x^0.5"), hhverify.HInterval(1.0, 2.0)
    # a dropped parse result: only its source is kept
    calls = {"parse": lambda: hhverify.parse("x^2 + 1"), "parse_dropped": lambda: hhverify.parse("x^2 + 1").source}
    for chain in CHAINS.values():
        calls[chain.id] = partial(
            ineq.run_chain, chain.id, f=f, interval=interval, x=1.2, y=1.7, g=g, h=h, w=w, quad_tol=1e-8
        )
    calls["t4_g_is_f"] = partial(ineq.run_chain, "t4", f=f, interval=interval, g=f)
    calls["check_class"] = partial(convexity.check_class, "symmetrized", f, 1.0, 2.0)
    calls["run_sweep"] = partial(run_sweep, entry_names=["square"])
    return calls


@pytest.mark.parametrize("name", _library_calls())
def test_library_calls_leave_no_reference_cycles(name):
    # each result is held while the collector runs, and what a call drops
    # must go with its last reference, not wait for the collector
    call = _library_calls()[name]
    call()  # first-call caches are not this call's garbage
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert result is not None


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

    @pytest.mark.parametrize("class_name", ["hh", "hhconc"])
    def test_harmonic_h_class(self, class_name):
        # with h(t) = t the harmonic h-classes are the harmonic ones, and 1/x
        # is harmonic affine
        code, out, _ = run_cli(
            ["check", "--fn", "1/x", "--a", "1", "--b", "2", "--class", class_name, "--h", "x"]
        )
        assert code == 0
        assert json.loads(out)["verdict"]["passed"] is True

    @pytest.mark.parametrize("class_name", ["convex", "hc", "shconc"])
    def test_h_ignored_by_unweighted_class(self, class_name):
        args = ["check", "--fn", "1/x", "--a", "1", "--b", "2", "--class", class_name]
        code, out, err = run_cli(args + ["--h", "x"])
        assert err == f"hhverify check: class {class_name} takes no --h; ignored\n"
        assert (code, out) == run_cli(args)[:2]

    @pytest.mark.parametrize(
        "class_name, class_tested, passed",
        [
            ("convex", "convex", True),
            ("concave", "concave", False),
            ("hc", "harmonic_convex", False),
            ("hconc", "harmonic_concave", True),
            ("hh", "harmonic_h_convex", True),
            ("hhconc", "harmonic_h_concave", False),
            ("shc", "symmetrized_harmonic_convex", False),
            ("shconc", "symmetrized_harmonic_concave", True),
            ("shh", "symmetrized_harmonic_h_convex", True),
            ("shhconc", "symmetrized_harmonic_h_concave", False),
        ],
    )
    def test_every_alias_reports_its_class_and_direction(self, class_name, class_tested, passed):
        # -ln(x) on [1, 2], with h = t^2 for the h-classes
        args = ["check", "--fn", "-ln(x)", "--a", "1", "--b", "2", "--class", class_name]
        if "hh" in class_name:
            args += ["--h", "x^2"]
        code, out, err = run_cli(args)
        verdict = json.loads(out)["verdict"]
        assert (verdict["class_tested"], verdict["passed"], err) == (class_tested, passed, "")
        assert code == (0 if passed else 1)

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


_HH_X = ["check", "--class", "hh", "--fn", "x", "--a", "1", "--b", "2"]
_T5_POINTS = ["verify", "--chain", "t5", "--fn", "x", "--a", "1", "--b", "2", "--x", "1.2", "--y", "1.7"]


@pytest.mark.parametrize(
    "args, err",
    [
        (_HH_X + ["--h", "x^"], "cannot parse --h 'x^': expected an expression (byte offset 2)"),
        (_HH_X + ["--h", "-x"], "--h '-x': weight function is negative or NaN at 0.03125: -0.03125"),
        (_T5_POINTS + ["--h", "x^"], "cannot parse --h 'x^': expected an expression (byte offset 2)"),
        (_T5_POINTS + ["--h", "-x"], "--h '-x': weight function is negative or NaN at 0.03125: -0.03125"),
    ],
    ids=["check-syntax", "check-negative", "verify-syntax", "verify-negative"],
)
def test_bad_h_names_the_option(args, err):
    assert run_cli(args) == (2, "", f"hhverify {args[0]}: {err}\n")


_LONG_SUM = "+".join(["x"] * 301)
_DEEP_PARENTHESES = "(" * 300 + "x" + ")" * 300


@pytest.mark.parametrize(
    "args, option, text",
    [
        (["verify", "--chain", "t1", "--fn", _LONG_SUM, "--a", "1", "--b", "2"], "--fn", _LONG_SUM),
        (["check", "--class", "hc", "--fn", _DEEP_PARENTHESES, "--a", "1", "--b", "2"], "--fn", _DEEP_PARENTHESES),
        (_HH_X + ["--h", _LONG_SUM], "--h", _LONG_SUM),
    ],
    ids=["verify-sum", "check-parentheses", "check-h-sum"],
)
def test_over_deep_expression_exits_2(args, option, text):
    # one usage line, no traceback: exit 1 would claim a mathematical violation
    result = run_module(args)
    assert (result.returncode, result.stdout) == (2, "")
    assert "Traceback" not in result.stderr
    prefix = re.escape(f"hhverify {args[0]}: cannot parse {option} {text!r}: ")
    assert re.fullmatch(prefix + r"expression nests too deeply \(byte offset \d+\)\n", result.stderr)


_FAILS = "ln(x-1.5)"
_AT_1 = "evaluation failed at t=1.0: math domain error"
_C1 = ["verify", "--chain", "c1", "--a", "1", "--b", "2"]


@pytest.mark.parametrize(
    "args, err",
    [
        (["check", "--class", "hc", "--fn", _FAILS, "--a", "1", "--b", "2"], f"--fn {_FAILS!r}: {_AT_1}"),
        (_C1 + ["--fn", "1/x", "--h", "x", "--w", _FAILS], f"--w {_FAILS!r}: {_AT_1}"),
        (_C1 + ["--fn", _FAILS, "--h", "x", "--w", _FAILS], f"--fn/--w {_FAILS!r}: {_AT_1}"),
        (_C1 + ["--fn", "1/x", "--h", "x^-0.9", "--w", "1"], "--h 'x^-0.9': evaluation failed at t=-0.0: math domain error"),
        (["verify", "--chain", "t4", "--fn", "1/x", "--g", _FAILS, "--a", "1", "--b", "2"], f"--g {_FAILS!r}: {_AT_1}"),
        # verify binds a --g that reads as --fn to f itself
        (["verify", "--chain", "t4", "--fn", _FAILS, "--g", _FAILS, "--a", "1", "--b", "2"], f"--fn/--g {_FAILS!r}: {_AT_1}"),
    ],
    ids=["check-fn", "verify-w", "verify-fn-and-w", "verify-h", "verify-g", "verify-fn-and-g"],
)
def test_failed_evaluation_names_the_options(args, err):
    assert run_cli(args) == (2, "", f"hhverify {args[0]}: {err}\n")


@pytest.mark.parametrize(
    "chain, flags",
    [("t1", []), ("t3", ["--x", "1.5e-170", "--y", "1.6e-170"]), ("t4", ["--g", "x"]), ("r4", [])],
    ids=["t1", "t3", "t4", "r4"],
)
def test_underflowing_t_squared_exits_2(chain, flags):
    # the integrands f(t)/t^2 divide by a t*t that underflows to 0: one
    # line and exit 2, not a traceback and exit 1 (a violation)
    args = ["verify", "--chain", chain, "--fn", "1/x", "--a", "1e-170", "--b", "2e-170", *flags]
    line = "hhverify verify: t*t underflows to 0 at t=1e-170: float division by zero\n"
    assert run_cli(args) == (2, "", line)


@pytest.mark.parametrize("args", [_T1_RECIPROCAL, ["sweep", "--entry", "reciprocal"]], ids=lambda args: args[0])
def test_unwritable_out_exits_2(tmp_path, args):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        code, out, err = run_cli(args + ["--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"hhverify {args[0]}: cannot write --out: [Errno ")
        assert err.count("\n") == 1 and str(target) in err


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

    @pytest.mark.parametrize("fn", ["-x^2", "-1e-10*x^2"])
    def test_slack_tolerance_is_relative(self, fn):
        # -x^2 is harmonic concave on [1, 2]; its slacks are -9 % and -20 % of
        # its largest term at any scale, so a small one fails too
        code, out, _ = run_cli(
            ["verify", "--chain", "t1", "--fn", fn, "--a", "1", "--b", "2", "--direction", "convex"]
        )
        assert code == 1
        assert not json.loads(out)["reports"][0]["passed"]

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
        "chain, flags, code, err",
        [
            ("t1", ["--direction", "convex"], 1, ""),
            ("t4", ["--g", "-ln(x)"], 0, ""),
            ("t4", ["--g", "-ln(x)", "--direction", "concave"], 0, "hhverify verify: chain t4 takes no --direction; ignored\n"),
        ],
        ids=["t1-forced", "t4-auto", "t4-forced"],
    )
    def test_printed_direction_is_the_reports(self, chain, flags, code, err):
        # -ln(x) is symmetrized harmonic concave, so t1 forced convex fails;
        # t4 takes no direction, and its reports are convex-oriented when f
        # and g are both concave-type
        got, out, got_err = run_cli(["verify", "--chain", chain, "--fn", "-ln(x)", "--a", "1", "--b", "2", *flags])
        assert (got, got_err) == (code, err)
        doc = json.loads(out)
        assert doc["direction"] == "convex"
        assert {r["direction"] for r in doc["reports"]} == {"convex"}

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

    @pytest.mark.parametrize("h", ["-x", "1/x^2"])
    def test_untaken_h_is_not_parsed(self, h):
        # -x is negative and 1/x^2 has no integral on [0, 1], so neither is a
        # weight; t1 takes none, and ignores the flag
        code, _, err = run_cli(["verify", "--chain", "t1", "--fn", "1/x", "--a", "1", "--b", "2", "--h", h])
        assert (code, err) == (0, "hhverify verify: chain t1 takes no --h; ignored\n")

    @pytest.mark.parametrize(
        "chain, flags, code, err",
        [
            ("t3", ["--x", "1.2", "--y", "nan"], 2, "hhverify verify: --y must lie in [1.0, 2.0], got nan\n"),
            ("r2", ["--x", "nan"], 2, "hhverify verify: --x must lie in [1.0, 2.0], got nan\n"),
            ("t6", ["--h", "x", "--x", "nan"], 2, "hhverify verify: --x must lie in [1.0, 2.0], got nan\n"),
            ("t2", ["--x", "3"], 2, "hhverify verify: --x must lie in [1.0, 2.0], got 3.0\n"),
            ("r3", ["--x", "-inf", "--y", "1.5"], 2, "hhverify verify: --x must lie in [1.0, 2.0], got -inf\n"),
            ("t5", ["--h", "x", "--x", "1.2", "--y", "inf"], 2, "hhverify verify: --y must lie in [1.0, 2.0], got inf\n"),
            # within the reflection's snap to an end, as the evaluators take it
            ("t2", ["--x", "0.9999999999999999"], 0, ""),
            ("t1", ["--x", "nan"], 0, "hhverify verify: chain t1 takes no --x; ignored\n"),
        ],
        ids=["t3-y-nan", "r2-x-nan", "t6-x-nan", "t2-x-outside", "r3-x-ninf", "t5-y-inf", "t2-x-clamped", "t1-x-untaken"],
    )
    def test_point_outside_the_interval_is_named(self, chain, flags, code, err):
        got, out, got_err = run_cli(["verify", "--chain", chain, "--fn", "1/x", "--a", "1", "--b", "2", *flags])
        assert (got, got_err) == (code, err)
        assert (out == "") == (code == 2)

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

    def test_csv_rows_field_by_field(self):
        # a verify report is its own item: h comes from its metadata and the
        # status from its verdict; 1/x makes every term exactly 3/4
        code, out, _ = run_cli(
            ["verify", "--chain", "t6", "--fn", "1/x", "--h", "x", "--a", "1", "--b", "2", "--x", "1.2", "--format", "csv"]
        )
        assert code == 0
        common = {"entry": "", "chain": "t6", "h": "x", "variant": "derived_corrected", "direction": "convex",
                  "status": "passed", "value": "0.75", "abs_error": "0.0", "passed": "True"}
        assert list(csv.DictReader(io.StringIO(out))) == [
            common | {"term_index": "0", "label": "h_scaled_midpoint", "slack_to_next": "0.0"},
            common | {"term_index": "1", "label": "symmetric_value", "slack_to_next": "0.0"},
            common | {"term_index": "2", "label": "h_weighted_endpoint_avg", "slack_to_next": ""},
        ]


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

    def test_csv_skipped_row_field_by_field(self):
        # -ln(x) is negative on [1, 2], so every weighted chain is skipped
        code, out, _ = run_cli(["sweep", "--entry", "neg_log", "--format", "csv"])
        assert code == 0
        rows = [row for row in csv.DictReader(io.StringIO(out)) if row["chain"] == "c1" and row["h"] == "t"]
        assert rows == [
            dict.fromkeys(("variant", "direction", "term_index", "value", "abs_error", "slack_to_next", "passed"), "")
            | {"entry": "neg_log", "chain": "c1", "h": "t", "status": "skipped", "label": "h=t: f takes negative values"}
        ]

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

    def test_large_interval(self):
        # the family's antisymmetric bump dwarfs its symmetric part 3/(4e6)
        code, out, _ = run_cli(["search", "--a", "1e6", "--b", "2e6"])
        assert code == 0
        assert json.loads(out)["witness"]["coefficient"] == 0.001

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


def _readme_cli_lines():
    """A (line, exit code) param, with id ``README:<line number>``, for each
    ``hhverify ...`` line of the README's ``sh`` blocks (see :mod:`golden`)."""
    return [pytest.param(line, code, id=f"README:{number}") for number, line, code in golden.readme_cli_lines()]


def test_readme_has_cli_examples():
    assert _readme_cli_lines()


@pytest.mark.parametrize("line, code", _readme_cli_lines())
def test_readme_cli_example_exits_as_documented(line, code):
    # and prints its golden file: python tests/golden.py --update rewrites them
    args = golden.readme_args(line)
    got, out, err = run_cli(args)
    assert got == code, f"{line!r} exited {got}\n{out[-2000:]}{err}"
    with open(golden.golden_path(args), "rb") as fh:
        expected = fh.read()
    if out.encode("utf-8") != expected:
        pytest.fail(golden.describe_mismatch(expected, out.encode("utf-8"), line), pytrace=False)


@pytest.mark.parametrize("line", golden.ERROR_LINES, ids=[f"error:{i}" for i in range(len(golden.ERROR_LINES))])
def test_evaluation_failure_matches_golden(line):
    # exit code 2 and one stderr line naming the failing t, and no stdout;
    # the c1, r4 and sym(f) cases run the batch fallbacks
    args = shlex.split(line)
    assert run_cli(args)[1] == ""
    with open(golden.error_path(args), encoding="utf-8") as fh:
        expected = fh.read()
    assert expected.splitlines()[1] == "exit 2"
    assert golden.error_text(args) == expected


@pytest.mark.parametrize(
    "line", golden.ARGUMENT_ERROR_LINES, ids=[f"argument:{i}" for i in range(len(golden.ARGUMENT_ERROR_LINES))]
)
def test_argument_error_matches_golden(line):
    # exit code 2 and one stderr line naming the refused argument, and no
    # stdout
    args = shlex.split(line)
    assert run_cli(args)[1] == ""
    with open(golden.error_path(args), encoding="utf-8") as fh:
        expected = fh.read()
    assert expected.splitlines()[1] == "exit 2"
    assert len(expected.splitlines()) == 3
    assert golden.error_text(args) == expected


def test_every_golden_file_has_its_output():
    # one file per README line and per failing command, none shared, and
    # none left over
    paths = [golden.golden_path(golden.readme_args(line)) for _, line, _ in golden.readme_cli_lines()]
    paths += [golden.error_path(shlex.split(line)) for line in golden.ERROR_LINES + golden.ARGUMENT_ERROR_LINES]
    assert len(set(paths)) == len(paths)
    assert golden.SWEEP_PATH in paths
    assert sorted(os.listdir(golden.GOLDEN_DIR)) == sorted(os.path.basename(p) for p in paths)


@pytest.mark.parametrize("g, is_f", [("exp(x)", True), ("exp( x )", False)], ids=["same_text", "other_text"])
def test_verify_binds_a_g_that_reads_as_fn_to_f(monkeypatch, capsys, g, is_f):
    # a --g whose text is --fn's is the parsed --fn itself, so t4 takes its
    # path for g the same object as f; any other text is parsed on its own
    seen = []
    original = ineq.product_inequalities

    def recording(f, g, *args, **kwargs):
        seen.append(g is f)
        return original(f, g, *args, **kwargs)

    monkeypatch.setattr(ineq, "product_inequalities", recording)
    assert hhverify.cli.main(["verify", "--chain", "t4", "--fn", "exp(x)", "--g", g, "--a", "1", "--b", "2"]) == 0
    assert seen == [is_f]
