"""Command-line interface.

Commands:
  check    membership of a parsed function in a convexity class
  verify   one inequality chain at explicit parameters
  sweep    every chain over the built-in corpus and weight family
  search   strict-inclusion witness between the harmonic and symmetrized
           harmonic convex classes

Exit codes: 0 = everything holds, 1 = a mathematical violation (failed
verdict, violated chain link, witness not found), 2 = usage or evaluation
error.  JSON output is deterministic for a fixed configuration and seed:
no timestamps, floats printed with 17 significant digits, stable ordering.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import Callable, Optional

from . import __version__
from .convexity import (
    SampleGrid,
    check_convex,
    check_harmonic_convex,
    check_harmonic_h_convex,
    check_symmetrized,
    find_strict_inclusion_witness,
)
from .corpus import CorpusEntry, builtin_functions, builtin_h
from .fnspec import ExpressionError, parse
from .hmean import HInterval
from .ineq import (
    ChainReport,
    HFunction,
    bounds_h_pointwise,
    bounds_pointwise,
    chain_harmonic_full,
    chain_harmonic_hh,
    chain_h_subinterval,
    chain_reflected_pair,
    chain_refinement,
    chain_subinterval,
    product_inequalities,
    weighted_bounds,
)
from .quad import QuadratureBudgetError

__all__ = ["main", "entrypoint", "run_sweep", "format_json"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

CHAIN_IDS = ("t1", "t2", "t3", "t4", "t5", "t6", "c1", "r2", "r3", "r4")

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


class UsageError(Exception):
    pass


# --- deterministic serialization ---------------------------------------------


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        return "null"
    if v == int(v) and abs(v) < 1e16:
        # keep integral floats readable; still round-trips exactly
        return repr(v)
    return format(v, ".17g")


def format_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer: floats at 17 significant digits, stable layout."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {format_json(str(k))}: {format_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {format_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _chain_csv_rows(payload: dict) -> list[dict]:
    rows = []
    results = payload.get("results") or payload.get("reports") or []
    for item in results:
        report = item.get("report", item)
        if report is None:
            rows.append(
                {
                    "entry": item.get("entry", ""),
                    "chain": item.get("chain", ""),
                    "h": item.get("h", ""),
                    "variant": "",
                    "direction": "",
                    "status": item.get("status", ""),
                    "term_index": "",
                    "label": item.get("reason", ""),
                    "value": "",
                    "abs_error": "",
                    "slack_to_next": "",
                    "passed": "",
                }
            )
            continue
        for rep in report if isinstance(report, list) else [report]:
            terms = rep["terms"]
            slacks = rep["slacks"]
            for i, term in enumerate(terms):
                rows.append(
                    {
                        "entry": item.get("entry", ""),
                        "chain": rep["chain"],
                        "h": item.get("h", rep.get("metadata", {}).get("h", "")),
                        "variant": rep["variant"],
                        "direction": rep["direction"],
                        "status": item.get("status", "passed" if rep["passed"] else "violated"),
                        "term_index": i,
                        "label": term["label"],
                        "value": _fmt_float(term["value"]),
                        "abs_error": _fmt_float(term["abs_error"]),
                        "slack_to_next": _fmt_float(slacks[i]) if i < len(slacks) else "",
                        "passed": rep["passed"],
                    }
                )
    return rows


def _emit(payload: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = format_json(payload) + "\n"
    elif fmt == "csv":
        if payload["command"] not in ("verify", "sweep"):
            raise UsageError("csv output is a projection of chain reports; use it with verify or sweep")
        rows = _chain_csv_rows(payload)
        buf = io.StringIO()
        fieldnames = [
            "entry",
            "chain",
            "h",
            "variant",
            "direction",
            "status",
            "term_index",
            "label",
            "value",
            "abs_error",
            "slack_to_next",
            "passed",
        ]
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- argument plumbing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhverify",
        description="Verify harmonic-convexity inequality chains numerically.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, interval=True):
        if interval:
            p.add_argument("--a", type=float, required=True, help="left interval endpoint")
            p.add_argument("--b", type=float, required=True, help="right interval endpoint")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid", type=int, default=64, help="deterministic abscissa count")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_check = sub.add_parser("check", help="test membership in a convexity class")
    p_check.add_argument("--fn", required=True, help="function expression in x")
    p_check.add_argument("--class", dest="class_name", required=True, choices=sorted(_CLASS_ALIASES))
    p_check.add_argument("--h", help="weight function expression (hh/shh classes)")
    p_check.add_argument("--tol", type=float, default=1e-9, help="margin tolerance")
    add_common(p_check)

    p_verify = sub.add_parser("verify", help="evaluate one inequality chain")
    p_verify.add_argument("--chain", required=True, choices=CHAIN_IDS + ("refinement",))
    p_verify.add_argument("--fn", required=True)
    p_verify.add_argument("--g", help="second function (t4)")
    p_verify.add_argument("--h", help="weight function (t5/t6/c1, optional for r4)")
    p_verify.add_argument("--w", help="integration weight (c1)")
    p_verify.add_argument("--x", type=float)
    p_verify.add_argument("--y", type=float)
    p_verify.add_argument("--tol", type=float, default=1e-8, help="slack tolerance")
    p_verify.add_argument("--quad-tol", type=float, default=1e-10)
    p_verify.add_argument("--variant", choices=("derived_corrected", "as_printed"), default="derived_corrected")
    p_verify.add_argument(
        "--direction",
        choices=("convex", "concave", "auto"),
        default="auto",
        help="slack orientation; auto picks by a symmetrized convexity check",
    )
    add_common(p_verify)

    p_sweep = sub.add_parser("sweep", help="run every chain across the corpus")
    p_sweep.add_argument("--variant", choices=("derived_corrected", "as_printed"), default="derived_corrected")
    p_sweep.add_argument("--tol", type=float, default=1e-8)
    p_sweep.add_argument("--quad-tol", type=float, default=1e-9)
    p_sweep.add_argument("--entry", action="append", help="restrict to named corpus entries")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--grid", type=int, default=64)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")

    p_search = sub.add_parser("search", help="find a strict-inclusion witness")
    p_search.add_argument("--tol", type=float, default=1e-9)
    p_search.add_argument("--min-margin", type=float, default=1e-3)
    p_search.add_argument(
        "--c", type=float, help="try only this family coefficient instead of the ladder"
    )
    add_common(p_search)
    return parser


def _parse_fn(text: str, what: str):
    try:
        return parse(text)
    except ExpressionError as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from None


def _interval(args) -> HInterval:
    try:
        return HInterval(args.a, args.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _grid(args) -> SampleGrid:
    return SampleGrid(abscissa_count=args.grid, seed=args.seed)


# --- check --------------------------------------------------------------------


def _cmd_check(args) -> int:
    kind, direction = _CLASS_ALIASES[args.class_name]
    fn = _parse_fn(args.fn, "--fn")
    grid = _grid(args)
    h = None
    if kind in ("harmonic_h", "symmetrized_h"):
        if not args.h:
            raise UsageError(f"--class {args.class_name} requires --h")
        h = HFunction.from_source(args.h)
    if kind == "convex":
        verdict = check_convex(fn, args.a, args.b, grid=grid, tol=args.tol, direction=direction)
    else:
        interval = _interval(args)
        if kind == "harmonic":
            verdict = check_harmonic_convex(fn, interval, grid=grid, tol=args.tol, direction=direction)
        elif kind == "harmonic_h":
            verdict = check_harmonic_h_convex(fn, h, interval, grid=grid, tol=args.tol, direction=direction)
        elif kind == "symmetrized":
            verdict = check_symmetrized(fn, interval, grid=grid, tol=args.tol, direction=direction)
        else:
            verdict = check_symmetrized(fn, interval, grid=grid, tol=args.tol, h=h, direction=direction)
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


def _need(args, name: str) -> float:
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"chain {args.chain} requires --{name}")
    return value


def _auto_direction(fn, interval: HInterval, grid: SampleGrid, symmetrized: bool) -> str:
    check = check_symmetrized if symmetrized else check_harmonic_convex
    verdict = check(fn, interval, grid=grid)
    if not verdict.passed and verdict.opposite.passed:
        return "concave"
    return "convex"


def _cmd_verify(args) -> int:
    chain = "r4" if args.chain == "refinement" else args.chain
    fn = _parse_fn(args.fn, "--fn")
    interval = _interval(args)
    grid = _grid(args)
    tol, qt, variant = args.tol, args.quad_tol, args.variant
    h = HFunction.from_source(args.h) if args.h else None
    if args.direction == "auto":
        direction = _auto_direction(fn, interval, grid, symmetrized=chain != "r3")
    else:
        direction = args.direction

    reports: list[ChainReport] = []
    if chain == "t1":
        reports.append(chain_harmonic_hh(fn, interval, tol=tol, quad_tol=qt, direction=direction))
    elif chain == "t2":
        reports.append(bounds_pointwise(fn, interval, _need(args, "x"), tol=tol, direction=direction))
    elif chain == "t3":
        reports.append(
            chain_subinterval(
                fn, interval, _need(args, "x"), _need(args, "y"),
                tol=tol, quad_tol=qt, variant=variant, direction=direction,
            )
        )
    elif chain == "r2":
        reports.append(
            chain_reflected_pair(
                fn, interval, _need(args, "x"), tol=tol, quad_tol=qt,
                variant=variant, direction=direction,
            )
        )
    elif chain == "r3":
        reports.append(
            chain_harmonic_full(
                fn, interval, _need(args, "x"), _need(args, "y"),
                tol=tol, quad_tol=qt, direction=direction,
            )
        )
    elif chain == "r4":
        reports.append(
            chain_refinement(
                fn, interval, h=h, tol=tol, quad_tol=qt,
                variant=variant, direction=direction,
            )
        )
    elif chain == "t4":
        if not args.g:
            raise UsageError("chain t4 requires --g")
        g = _parse_fn(args.g, "--g")
        reports.extend(product_inequalities(fn, g, interval, tol=tol, quad_tol=qt, variant=variant))
    elif chain == "t5":
        if h is None:
            raise UsageError("chain t5 requires --h")
        reports.append(
            chain_h_subinterval(
                fn, h, interval, _need(args, "x"), _need(args, "y"),
                tol=tol, quad_tol=qt, direction=direction,
            )
        )
    elif chain == "t6":
        if h is None:
            raise UsageError("chain t6 requires --h")
        reports.append(
            bounds_h_pointwise(
                fn, h, interval, _need(args, "x"), tol=tol,
                variant=variant, direction=direction,
            )
        )
    elif chain == "c1":
        if h is None:
            raise UsageError("chain c1 requires --h")
        if not args.w:
            raise UsageError("chain c1 requires --w")
        w = _parse_fn(args.w, "--w")
        reports.append(
            weighted_bounds(
                fn, h, w, interval, tol=tol, quad_tol=qt,
                variant=variant, direction=direction,
            )
        )
    else:
        raise UsageError(f"unknown chain {chain!r}")

    payload = {
        "schema": 1,
        "command": "verify",
        "chain": args.chain,
        "variant": variant,
        "direction": direction,
        "seed": args.seed,
        "reports": [r.to_dict() for r in reports],
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


# --- sweep --------------------------------------------------------------------


def _sym_direction(entry: CorpusEntry) -> Optional[str]:
    if entry.classes.get("symmetrized_harmonic_convex"):
        return "convex"
    if entry.classes.get("symmetrized_harmonic_concave"):
        return "concave"
    return None


def _harmonic_direction(entry: CorpusEntry) -> Optional[str]:
    if entry.classes.get("harmonic_convex"):
        return "convex"
    if entry.classes.get("harmonic_concave"):
        return "concave"
    return None


def _nonnegative_on(entry: CorpusEntry, samples: int = 65) -> bool:
    a, b = entry.interval.a, entry.interval.b
    return all(
        entry.spec(a + (b - a) * k / (samples - 1)) >= 0.0 for k in range(samples)
    )


def _h_dominates_identity(h: HFunction) -> bool:
    return all(h(k / 64.0) >= k / 64.0 - 1e-12 for k in range(1, 64))


def _h_direction(
    entry: CorpusEntry, h: HFunction, grid: SampleGrid, tol: float
) -> tuple[Optional[str], str]:
    """Direction (if any) in which the entry satisfies the weighted-chain
    hypotheses (f >= 0 and its symmetric part harmonic h-convex/h-concave),
    together with how that was established."""
    if not _nonnegative_on(entry):
        return None, "f takes negative values"
    # harmonic convexity plus h >= id and f >= 0 already implies h-convexity
    if entry.classes.get("symmetrized_harmonic_convex") and _h_dominates_identity(h):
        return "convex", "corpus-declared symmetrized convexity, h dominates identity"
    verdict = check_symmetrized(entry.spec, entry.interval, grid=grid, tol=tol, h=h)
    if verdict.passed:
        return "convex", "weighted symmetrized check passed"
    if verdict.opposite.passed:
        return "concave", "weighted symmetrized concavity check passed"
    return None, "weighted symmetrized checks failed both directions"


def _sweep_entry_jobs(
    entry: CorpusEntry,
    hs: tuple[HFunction, ...],
    grid: SampleGrid,
    tol: float,
    quad_tol: float,
    variant: str,
) -> list[dict]:
    f = entry.spec
    interval = entry.interval
    a, b = interval.a, interval.b
    width = b - a
    x = a + 0.3 * width
    y = a + 0.8 * width
    one = parse("1")
    recip = parse("1/x")
    sym_dir = _sym_direction(entry)
    har_dir = _harmonic_direction(entry)
    jobs: list[dict] = []

    def record(
        chain: str,
        h: Optional[HFunction],
        builder: Optional[Callable[[], object]],
        reason: str = "",
        hypothesis: str = "",
    ):
        item: dict = {
            "entry": entry.name,
            "chain": chain,
            "h": h.name if h else None,
            "hypothesis": hypothesis or None,
        }
        if builder is None:
            item.update(status="skipped", reason=reason, report=None)
            jobs.append(item)
            return
        item["_builder"] = builder
        jobs.append(item)

    sym_basis = f"corpus-declared symmetrized_harmonic_{sym_dir}" if sym_dir else ""
    har_basis = f"corpus-declared harmonic_{har_dir}" if har_dir else ""
    skip_sym = "symmetric part is neither harmonic convex nor concave"
    if sym_dir is None:
        for chain in ("t1", "t2", "t3", "r2", "r4", "t4"):
            record(chain, None, None, skip_sym)
    else:
        record("t1", None, lambda d=sym_dir: chain_harmonic_hh(f, interval, tol=tol, quad_tol=quad_tol, direction=d), hypothesis=sym_basis)
        record("t2", None, lambda d=sym_dir: bounds_pointwise(f, interval, x, tol=tol, direction=d), hypothesis=sym_basis)
        record("t3", None, lambda d=sym_dir: chain_subinterval(f, interval, x, y, tol=tol, quad_tol=quad_tol, variant=variant, direction=d), hypothesis=sym_basis)
        record("r2", None, lambda d=sym_dir: chain_reflected_pair(f, interval, x, tol=tol, quad_tol=quad_tol, variant=variant, direction=d), hypothesis=sym_basis)
        record("r4", None, lambda d=sym_dir: chain_refinement(f, interval, tol=tol, quad_tol=quad_tol, variant=variant, direction=d), hypothesis=sym_basis)
        # the product bound needs a plainly harmonic partner in the same
        # direction; the entry itself when possible, else the harmonic-affine
        # 1/x which works for either direction
        g = f if har_dir == sym_dir else recip
        record(
            "t4",
            None,
            lambda gg=g: product_inequalities(f, gg, interval, tol=tol, quad_tol=quad_tol, variant=variant),
            hypothesis=f"{sym_basis}; g={'entry itself' if g is f else '1/x'}",
        )

    if har_dir is None:
        record("r3", None, None, "not harmonic convex or concave")
    else:
        record("r3", None, lambda d=har_dir: chain_harmonic_full(f, interval, x, y, tol=tol, quad_tol=quad_tol, direction=d), hypothesis=har_basis)

    for h in hs:
        hdir, basis = _h_direction(entry, h, grid, tol=1e-9)
        if hdir is None:
            for chain in ("t5", "t6", "c1", "r4"):
                record(chain, h, None, f"h={h.name}: {basis}")
            continue
        record("t5", h, lambda hh=h, d=hdir: chain_h_subinterval(f, hh, interval, x, y, tol=tol, quad_tol=quad_tol, direction=d), hypothesis=basis)
        record("t6", h, lambda hh=h, d=hdir: bounds_h_pointwise(f, hh, interval, x, tol=tol, variant=variant, direction=d), hypothesis=basis)
        record("c1", h, lambda hh=h, d=hdir: weighted_bounds(f, hh, one, interval, tol=tol, quad_tol=quad_tol, variant=variant, direction=d), hypothesis=basis)
        record("r4", h, lambda hh=h, d=hdir: chain_refinement(f, interval, h=hh, tol=tol, quad_tol=quad_tol, variant=variant, direction=d), hypothesis=basis)
    return jobs


def _run_job(item: dict) -> dict:
    builder = item.pop("_builder", None)
    if builder is None:
        return item
    try:
        result = builder()
    except Exception as exc:  # recorded, sweep continues
        item.update(status="error", reason=f"{type(exc).__name__}: {exc}", report=None)
        return item
    reports = result if isinstance(result, tuple) else (result,)
    passed = all(r.passed for r in reports)
    item.update(
        status="passed" if passed else "violated",
        reason=None,
        report=[r.to_dict() for r in reports] if len(reports) > 1 else reports[0].to_dict(),
    )
    return item


def run_sweep(
    variant: str = "derived_corrected",
    tol: float = 1e-8,
    quad_tol: float = 1e-9,
    seed: int = 0,
    grid_size: int = 64,
    entry_names: Optional[list[str]] = None,
) -> dict:
    """Evaluate every applicable chain over the corpus; returns the payload."""
    grid = SampleGrid(abscissa_count=grid_size, seed=seed)
    entries = builtin_functions()
    if entry_names:
        wanted = set(entry_names)
        unknown = wanted - {e.name for e in entries}
        if unknown:
            raise UsageError(f"unknown corpus entries: {sorted(unknown)}")
        entries = tuple(e for e in entries if e.name in wanted)
    hs = builtin_h()
    jobs: list[dict] = []
    for entry in entries:
        jobs.extend(_sweep_entry_jobs(entry, hs, grid, tol, quad_tol, variant))

    for job in jobs:
        _run_job(job)

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
        grid_size=args.grid,
        entry_names=args.entry,
    )
    _emit(payload, args.format, args.out)
    summary = payload["summary"]
    return EXIT_OK if summary["violated"] == 0 and summary["errors"] == 0 else EXIT_VIOLATION


# --- search -------------------------------------------------------------------


def _cmd_search(args) -> int:
    interval = _interval(args)
    kwargs = {}
    if args.c is not None:
        kwargs["ladder"] = (args.c,)
    witness = find_strict_inclusion_witness(
        interval,
        seed=args.seed,
        tol=args.tol,
        min_margin=args.min_margin,
        grid=SampleGrid(abscissa_count=args.grid, seed=args.seed),
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


_EXPR_OPTS = {"--fn", "--g", "--h", "--w"}


def _preprocess_argv(argv: list[str]) -> list[str]:
    """Glue expression options to their values so that expressions starting
    with '-' (like "-ln(x)") are not mistaken for flags."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _EXPR_OPTS and i + 1 < len(argv):
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
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"hhverify {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExpressionError, QuadratureBudgetError, ValueError) as exc:
        print(f"hhverify {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
