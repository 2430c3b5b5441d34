"""Command-line interface.

Commands:
  check    membership of a parsed function in a convexity class
  verify   one inequality chain at explicit parameters
  sweep    every chain over the built-in corpus and weight family
  search   strict-inclusion witness between the harmonic and symmetrized
           harmonic convex classes

Exit codes: 0 = everything holds, 1 = a mathematical violation (failed
verdict, violated chain link, witness not found), 2 = usage or evaluation
error.  Every class scan goes through :func:`hhverify.convexity.check_class`.
JSON output is deterministic for a fixed configuration and seed:
no timestamps, floats printed with 17 significant digits, stable ordering.
One recursive writer, ``_put_json``, writes every JSON value; CSV is one
row per report term, on one base row per item.  Option defaults are the
constants of :mod:`hhverify.ineq` and :mod:`hhverify.convexity`, and
:data:`SWEEP_QUAD_TOL` for the sweep.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional

from . import __version__, convexity, ineq
from .convexity import ConvexityVerdict, SampleGrid, check_class, find_strict_inclusion_witness
from .corpus import CorpusEntry, builtin_functions, builtin_h
from .fnspec import ExpressionError, parse
from .hmean import HInterval
from .ineq import CHAINS, ChainReport, HFunction, run_chain
from .quad import QuadratureBudgetError

__all__ = ["main", "entrypoint", "run_sweep", "format_json"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_CLASS_ALIASES = {
    "convex": ("convex", "convex"),
    "concave": ("convex", "concave"),
    "hc": ("harmonic", "convex"),
    "hconc": ("harmonic", "concave"),
    "hh": ("harmonic_h", "convex"),
    "hhconc": ("harmonic_h", "concave"),
    "shc": ("symmetrized", "convex"),
    "shconc": ("symmetrized", "concave"),
    "shh": ("symmetrized_h", "convex"),
    "shhconc": ("symmetrized_h", "concave"),
}


_CHAIN_TOL_HELP = (
    "relative slack tolerance: a link passes when its slack is at least "
    "-(tol * the chain's largest |term| + the bars of its two terms)"
)


class UsageError(Exception):
    pass


# --- deterministic serialization ---------------------------------------------


_INFINITIES = (math.inf, -math.inf)


def _fmt_float(v: float) -> str:
    if v != v or v in _INFINITIES:
        return "null"
    if v == int(v) and abs(v) < 1e16:
        # keep integral floats readable; still round-trips exactly
        return repr(v)
    return format(v, ".17g")


def format_json(obj) -> str:
    """Minimal JSON writer: floats at 17 significant digits, stable layout."""
    parts: list[str] = []
    _put_json(obj, "", parts.append)
    return "".join(parts)


def _put_json(obj, pad: str, put) -> None:
    """Hand the tokens of ``obj`` to ``put``, nested lines indented past
    ``pad``.  Module-level rather than a closure over ``put``: a closure that
    calls itself is a reference cycle that only the cyclic GC frees.

    None, True and False are tested by identity, every other type once by
    ``isinstance``, so subclasses of the JSON types come out as their bases
    do.  Inside a container an exact str or float, most of a report's
    values, is written in place rather than through a call."""
    if obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = pad + "  "
        opening = "{\n" + inner
        for k, v in obj.items():
            put(opening)
            put(_quote(str(k)))
            put(": ")
            kind = type(v)
            if kind is str:
                put(_quote(v))
            elif kind is float:
                put(_fmt_float(v))
            else:
                _put_json(v, inner, put)
            opening = ",\n" + inner
        put("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = pad + "  "
        opening = "[\n" + inner
        for v in obj:
            put(opening)
            kind = type(v)
            if kind is str:
                put(_quote(v))
            elif kind is float:
                put(_fmt_float(v))
            else:
                _put_json(v, inner, put)
            opening = ",\n" + inner
        put("\n" + pad + "]")
    elif isinstance(obj, str):
        put(_quote(obj))
    elif isinstance(obj, int):
        put(str(obj))
    elif isinstance(obj, float):
        put(_fmt_float(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_CSV_FIELDS = (
    "entry", "chain", "h", "variant", "direction", "status", "term_index", "label",
    "value", "abs_error", "slack_to_next", "passed",
)


def _chain_csv_rows(payload: dict) -> list[dict]:
    """One row per term of each report, and one per sweep item without a
    report (its reason as the label); a field a row lacks is written empty."""
    rows = []
    for item in payload.get("results") or payload.get("reports") or []:
        # a verify payload's items are its reports: h sits in their metadata,
        # and their status is their verdict
        base = {
            "entry": item.get("entry", ""),
            "chain": item.get("chain", ""),
            "h": item.get("h", item.get("metadata", {}).get("h", "")),
            "status": item.get("status") or ("passed" if item["passed"] else "violated"),
        }
        report = item.get("report", item)
        if report is None:
            rows.append(base | {"label": item.get("reason", "")})
            continue
        for rep in report if isinstance(report, list) else [report]:
            row = base | {key: rep[key] for key in ("chain", "variant", "direction", "passed")}
            slacks = rep["slacks"]
            for i, term in enumerate(rep["terms"]):
                rows.append(row | {
                    "term_index": i,
                    "label": term["label"],
                    "value": _fmt_float(term["value"]),
                    "abs_error": _fmt_float(term["abs_error"]),
                    "slack_to_next": _fmt_float(slacks[i]) if i < len(slacks) else "",
                })
    return rows


def _emit(payload: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = format_json(payload) + "\n"
    else:  # csv, the one other format argparse lets through
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_chain_csv_rows(payload))
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


# --- argument plumbing --------------------------------------------------------


# built once per process: parse_args leaves the parser as it was
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhverify",
        description="Verify harmonic-convexity inequality chains numerically.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # csv is a projection of chain reports, so only verify and sweep offer it
    def add_common(p, interval=True, formats=("json", "csv")):
        if interval:
            p.add_argument("--a", type=float, required=True, help="left interval endpoint")
            p.add_argument("--b", type=float, required=True, help="right interval endpoint")
        p.add_argument("--seed", type=int, default=convexity.DEFAULT_GRID.seed)
        p.add_argument("--grid", type=int, default=convexity.DEFAULT_GRID.abscissa_count, help="coarse lattice intervals")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=formats, default="json")

    p_check = sub.add_parser("check", help="test membership in a convexity class")
    p_check.add_argument("--fn", required=True, help="function expression in x")
    p_check.add_argument("--class", dest="class_name", required=True, choices=sorted(_CLASS_ALIASES))
    p_check.add_argument("--h", help="weight function expression (hh/shh classes)")
    p_check.add_argument("--tol", type=float, default=convexity.DEFAULT_TOL, help="margin tolerance")
    add_common(p_check, formats=("json",))

    p_verify = sub.add_parser("verify", help="evaluate one inequality chain")
    p_verify.add_argument("--chain", required=True, choices=tuple(CHAINS) + ("refinement",))
    p_verify.add_argument("--fn", required=True)
    p_verify.add_argument("--g", help="second function (t4)")
    p_verify.add_argument("--h", help="weight function (t5/t6/c1, optional for r4)")
    p_verify.add_argument("--w", help="integration weight (c1)")
    p_verify.add_argument("--x", type=float)
    p_verify.add_argument("--y", type=float)
    p_verify.add_argument("--tol", type=float, default=ineq.DEFAULT_TOL, help=_CHAIN_TOL_HELP)
    p_verify.add_argument("--quad-tol", type=float, default=ineq.DEFAULT_QUAD_TOL)
    p_verify.add_argument("--variant", choices=ineq.VARIANTS, default=ineq.DEFAULT_VARIANT)
    p_verify.add_argument(
        "--direction",
        choices=("convex", "concave", "auto"),
        default="auto",
        help="slack orientation; auto picks by the chain's class check, h-weighted when --h is given",
    )
    add_common(p_verify)

    p_sweep = sub.add_parser("sweep", help="run every chain across the corpus")
    p_sweep.add_argument("--variant", choices=ineq.VARIANTS, default=ineq.DEFAULT_VARIANT)
    p_sweep.add_argument("--tol", type=float, default=ineq.DEFAULT_TOL, help=_CHAIN_TOL_HELP)
    p_sweep.add_argument("--quad-tol", type=float, default=SWEEP_QUAD_TOL)
    p_sweep.add_argument("--entry", action="append", help="restrict to named corpus entries")
    add_common(p_sweep, interval=False)

    p_search = sub.add_parser("search", help="find a strict-inclusion witness")
    p_search.add_argument("--tol", type=float, default=convexity.DEFAULT_TOL)
    p_search.add_argument("--min-margin", type=float, default=convexity.DEFAULT_MIN_MARGIN)
    p_search.add_argument(
        "--c", type=float, help="try only this family coefficient instead of the ladder"
    )
    add_common(p_search, formats=("json",))
    return parser


def _parse_fn(text: str, what: str):
    try:
        return parse(text)
    except ExpressionError as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from None


def _parse_h(text: str) -> HFunction:
    fn = _parse_fn(text, "--h")
    try:
        return HFunction.from_callable(fn, name=text)
    except ValueError as exc:  # not a weight, or fails to evaluate on (0, 1)
        raise UsageError(f"--h {text!r}: {exc}") from None


def _grid(args) -> SampleGrid:
    try:
        return SampleGrid(abscissa_count=args.grid, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"--grid: {exc}") from None


def _stderr_line(command: str, message: str) -> None:
    print(f"hhverify {command}: {message}", file=sys.stderr)


def _check_tolerances(args) -> None:
    """Require --tol and --min-margin finite and >= 0, --quad-tol finite and
    > 0, and the search coefficient --c finite."""
    for flag in ("--tol", "--min-margin", "--quad-tol"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        positive = flag == "--quad-tol"
        if value is None or math.isfinite(value) and (value > 0.0 if positive else value >= 0.0):
            continue
        raise UsageError(f"{flag} must be finite and {'> 0' if positive else '>= 0'}, got {value!r}")
    c = getattr(args, "c", None)
    if c is not None and not math.isfinite(c):
        raise UsageError(f"--c must be finite, got {c!r}")


# --- check --------------------------------------------------------------------


def _cmd_check(args) -> int:
    kind, direction = _CLASS_ALIASES[args.class_name]
    fn = _parse_fn(args.fn, "--fn")
    grid = _grid(args)
    h = None
    if kind.endswith("_h"):
        if not args.h:
            raise UsageError(f"--class {args.class_name} requires --h")
        h = _parse_h(args.h)
    elif args.h:
        _stderr_line("check", f"class {args.class_name} takes no --h; ignored")
    verdict = check_class(kind, fn, args.a, args.b, h=h, grid=grid, tol=args.tol)
    if direction == "concave":
        verdict = verdict.opposite
    payload = {
        "schema": 1,
        "command": "check",
        "function": args.fn,
        "interval": {"a": args.a, "b": args.b},
        "class": args.class_name,
        "seed": args.seed,
        "verdict": verdict.to_dict(),
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if verdict.passed else EXIT_VIOLATION


# --- verify -------------------------------------------------------------------


def _class_direction(verdict: ConvexityVerdict) -> Optional[str]:
    """"convex" if a convex-first class verdict passed, "concave" if only its opposite did, else None."""
    if verdict.passed:
        return "convex"
    if verdict.opposite.passed:
        return "concave"
    return None


def _cmd_verify(args) -> int:
    chain = CHAINS["r4" if args.chain == "refinement" else args.chain]
    fn = _parse_fn(args.fn, "--fn")
    interval = HInterval(args.a, args.b)
    grid = _grid(args)
    params = chain.parameters()
    given = {"x": args.x, "y": args.y, "g": args.g or None, "h": args.h or None, "w": args.w or None}
    kwargs = {}
    # checked and parsed in the evaluator's signature order, before any scan
    for name, param in params.items():
        value = given.get(name)
        if value is not None:
            if name == "h":
                value = _parse_h(value)
            elif name == "g" and value == args.fn:
                value = fn  # f itself, so t4 takes its path for g the same object as f
            elif name in ("g", "w"):
                value = _parse_fn(value, f"--{name}")
            else:  # a point x or y: the evaluators reflect it, so reflect decides its range
                try:
                    interval.reflect(value)
                except ValueError:
                    raise UsageError(
                        f"--{name} must lie in [{interval.a!r}, {interval.b!r}], got {value!r}"
                    ) from None
            kwargs[name] = value
        elif name in given and param.default is param.empty:
            raise UsageError(f"chain {args.chain} requires --{name}")
    ignored = [f"--{name}" for name, value in given.items() if value is not None and name not in params]
    # a chain that takes no direction (t4) fixes the one its reports carry
    direction = args.direction if "direction" in params else None
    if direction is None and args.direction != "auto":
        ignored.append("--direction")
    if ignored:
        _stderr_line("verify", f"chain {args.chain} takes no {', '.join(ignored)}; ignored")
    if direction == "auto":
        # the chain's hypothesis, h-weighted when the call binds an h
        kind = "symmetrized_h" if "h" in kwargs else chain.hypothesis
        verdict = check_class(kind, fn, interval.a, interval.b, h=kwargs.get("h"), grid=grid)
        direction = _class_direction(verdict) or "convex"
    reports = run_chain(
        chain.id, f=fn, interval=interval, tol=args.tol, quad_tol=args.quad_tol,
        variant=args.variant, direction=direction, **kwargs,
    )

    payload = {
        "schema": 1,
        "command": "verify",
        "chain": args.chain,
        "variant": args.variant,
        "direction": direction or reports[0].direction,
        "seed": args.seed,
        "reports": [r.to_dict() for r in reports],
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


# --- sweep --------------------------------------------------------------------


def _declared_direction(entry: CorpusEntry, kind: str) -> tuple[Optional[str], Optional[str]]:
    """The direction the corpus declares for ``kind`` ("harmonic" or
    "symmetrized_harmonic"), convex first, with the tag it rests on; or
    (None, None)."""
    for direction in ("convex", "concave"):
        if entry.classes.get(f"{kind}_{direction}"):
            return direction, f"corpus-declared {kind}_{direction}"
    return None, None


def _nonnegative_on(entry: CorpusEntry) -> bool:
    a, b = entry.interval.a, entry.interval.b
    return all(entry.spec(a + (b - a) * k / 64) >= 0.0 for k in range(65))


def _h_direction(
    entry: CorpusEntry, nonnegative: bool, h: HFunction, grid: SampleGrid
) -> tuple[Optional[str], str]:
    """Direction (if any) in which the entry satisfies the weighted-chain
    hypotheses (f >= 0, as ``nonnegative`` says, and its symmetric part
    harmonic h-convex/h-concave), together with how that was established."""
    if not nonnegative:
        return None, "f takes negative values"
    # with f >= 0, h(t) f(x) + h(1-t) f(y) lies above t f(x) + (1-t) f(y)
    # when h >= id and below it when h <= id, so harmonic convexity implies
    # h-convexity in the first case and concavity implies h-concavity in
    # the second; convex is tried first
    above, below = h.identity_order
    if entry.classes.get("symmetrized_harmonic_convex") and above:
        return "convex", "corpus-declared symmetrized convexity, h dominates identity"
    if entry.classes.get("symmetrized_harmonic_concave") and below:
        return "concave", "corpus-declared symmetrized concavity, h below identity"
    direction = _class_direction(
        check_class("symmetrized_h", entry.spec, entry.interval.a, entry.interval.b, h=h, grid=grid)
    )
    if direction is None:
        return None, "weighted symmetrized checks failed both directions"
    return direction, f"weighted symmetrized {'check' if direction == 'convex' else 'concavity check'} passed"


_ONE = parse("1")
_RECIPROCAL = parse("1/x")


def _sweep_entry(
    entry: CorpusEntry,
    hs: tuple[HFunction, ...],
    grid: SampleGrid,
    tol: float,
    quad_tol: float,
    variant: str,
) -> list[dict]:
    """The sweep's items for one corpus entry, one per chain of
    :data:`CHAINS` and weight: a skip with its reason, or the chain's
    reports, or the error its evaluator raised.  The runnable jobs of a
    chain with a ``cases_evaluator`` (r4 and c1) differ only in h and
    direction, so they share one call of it, and with it the work that does
    not depend on the weight; if that call raises, each of them records the
    error."""
    f = entry.spec
    interval = entry.interval
    a, b = interval.a, interval.b
    width = b - a
    sym_dir, sym_basis = _declared_direction(entry, "symmetrized_harmonic")
    har_dir, har_basis = _declared_direction(entry, "harmonic")
    # the product bound needs a plainly harmonic partner in the same
    # direction; the entry itself when possible, else the harmonic-affine
    # 1/x which works for either direction
    g = f if har_dir == sym_dir else _RECIPROCAL
    common = dict(
        f=f, interval=interval, x=a + 0.3 * width, y=a + 0.8 * width, g=g, w=_ONE,
        tol=tol, quad_tol=quad_tol, variant=variant,
    )
    # (h, direction, hypothesis if it holds or else why the chain is skipped)
    unweighted = {
        "symmetrized": (None, sym_dir, sym_basis or "symmetric part is neither harmonic convex nor concave"),
        "harmonic": (None, har_dir, har_basis or "not harmonic convex or concave"),
    }
    nonnegative = _nonnegative_on(entry)
    weighted = []
    for h in hs:
        hdir, basis = _h_direction(entry, nonnegative, h, grid)
        weighted.append((h, hdir, basis if hdir else f"h={h.name}: {basis}"))

    items: list[dict] = []
    for chain in CHAINS.values():
        params = chain.parameters()
        cases = [unweighted[chain.hypothesis]] if chain.hypothesis in unweighted else []
        if "h" in params:
            cases += weighted
        runnable = []
        for h, direction, basis in cases:
            item: dict = {"entry": entry.name, "chain": chain.id, "h": h.name if h else None}
            items.append(item)
            if direction is None:
                item.update(hypothesis=None, status="skipped", reason=basis, report=None)
                continue
            if "g" in params:
                basis += f"; g={'entry itself' if g is f else '1/x'}"
            item["hypothesis"] = basis
            runnable.append((item, (h, direction)))
        if chain.cases_evaluator is None:
            for item, (h, direction) in runnable:
                _record([item], lambda: [run_chain(chain.id, **common, h=h, direction=direction)])
        elif runnable:
            evaluate = getattr(ineq, chain.cases_evaluator)
            shared = {name: value for name, value in common.items() if name in params}
            _record(
                [item for item, _ in runnable],
                lambda: [(report,) for report in evaluate(cases=[case for _, case in runnable], **shared)],
            )
    return items


def _record(items: list[dict], run: Callable[[], list[tuple[ChainReport, ...]]]) -> None:
    """Write onto each of ``items`` its reports from ``run()``, which returns
    one tuple of reports per item; or, if ``run`` raises, the exception."""
    try:
        results = run()
    except Exception as exc:  # recorded, sweep continues
        for item in items:
            item.update(status="error", reason=f"{type(exc).__name__}: {exc}", report=None)
        return
    for item, reports in zip(items, results):
        item.update(
            status="passed" if all(r.passed for r in reports) else "violated",
            reason=None,
            report=[r.to_dict() for r in reports] if len(reports) > 1 else reports[0].to_dict(),
        )


# the sweep's quadrature tolerance, one for every chain of every entry
SWEEP_QUAD_TOL = 1e-9


def run_sweep(
    variant: str = ineq.DEFAULT_VARIANT,
    tol: float = ineq.DEFAULT_TOL,
    quad_tol: float = SWEEP_QUAD_TOL,
    seed: int = convexity.DEFAULT_GRID.seed,
    grid_size: int = convexity.DEFAULT_GRID.abscissa_count,
    entry_names: Optional[list[str]] = None,
) -> dict:
    """Evaluate every applicable chain over the corpus, in one pass over
    :data:`CHAINS` per entry; returns the payload, its items sorted by entry,
    chain and weight."""
    grid = SampleGrid(abscissa_count=grid_size, seed=seed)
    entries = builtin_functions()
    if entry_names:
        wanted = set(entry_names)
        unknown = wanted - {e.name for e in entries}
        if unknown:
            raise UsageError(f"unknown corpus entries: {sorted(unknown)}")
        entries = tuple(e for e in entries if e.name in wanted)
    hs = builtin_h()
    jobs = [item for entry in entries for item in _sweep_entry(entry, hs, grid, tol, quad_tol, variant)]
    jobs.sort(key=lambda j: (j["entry"], j["chain"], j["h"] or ""))
    summary = {
        "total": len(jobs),
        "passed": sum(j["status"] == "passed" for j in jobs),
        "violated": sum(j["status"] == "violated" for j in jobs),
        "skipped": sum(j["status"] == "skipped" for j in jobs),
        "errors": sum(j["status"] == "error" for j in jobs),
    }
    return {
        "schema": 1,
        "command": "sweep",
        "variant": variant,
        "seed": seed,
        "summary": summary,
        "results": jobs,
    }


def _cmd_sweep(args) -> int:
    payload = run_sweep(
        variant=args.variant,
        tol=args.tol,
        quad_tol=args.quad_tol,
        seed=args.seed,
        grid_size=_grid(args).abscissa_count,
        entry_names=args.entry,
    )
    _emit(payload, args.format, args.out)
    summary = payload["summary"]
    return EXIT_OK if summary["violated"] == 0 and summary["errors"] == 0 else EXIT_VIOLATION


# --- search -------------------------------------------------------------------


def _cmd_search(args) -> int:
    interval = HInterval(args.a, args.b)
    kwargs = {}
    if args.c is not None:
        kwargs["ladder"] = (args.c,)
    witness = find_strict_inclusion_witness(
        interval,
        tol=args.tol,
        min_margin=args.min_margin,
        grid=_grid(args),
        **kwargs,
    )
    payload = {
        "schema": 1,
        "command": "search",
        "interval": {"a": args.a, "b": args.b},
        "seed": args.seed,
        "witness": witness.to_dict() if witness else None,
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if witness else EXIT_VIOLATION


# --- entry point ---------------------------------------------------------------


# options whose value may start with '-': expressions and floats
_VALUE_OPTS = {
    "--fn", "--g", "--h", "--w",
    "--a", "--b", "--x", "--y", "--c", "--tol", "--quad-tol", "--min-margin",
}


def _preprocess_argv(argv: list[str]) -> list[str]:
    """Glue expression and float options to their values so that values
    starting with '-' (like "-ln(x)", "-1e6" or "-inf") are not mistaken for
    flags."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_preprocess_argv(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "search": _cmd_search,
    }
    try:
        _check_tolerances(args)
        return handlers[args.command](args)
    except (UsageError, ExpressionError, QuadratureBudgetError, ValueError) as exc:
        _stderr_line(args.command, str(exc))
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
