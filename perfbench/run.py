"""Benchmark of hhverify: three workloads, end to end and layer by layer.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload smooth_chains --seed 3 --seconds 30
    python3 perfbench/run.py --workload kinked_chains --trace 1

Each workload runs in a fresh single-threaded worker process that sets up,
then repeats every operation of its fixed list in interleaved passes (the
order shuffled by the seed) until ``--seconds`` are spent.  Every execution
is scaled to a reference machine speed by the probes run around it, and an
operation's time is the median of its scaled executions (README.md says
why).  Set-up time is measured from spawning a fresh interpreter to its
first operation, in several processes, and reported as their median.  With
``--trace 1`` the worker instead wraps each layer's public functions (see
tracing.py) and reports per-layer counts and times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 before running anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from workloads import KNOWN_FAULTS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3
READY = "READY"


def import_program():
    """Import hhverify from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import hhverify
    import hhverify.cli

    if not os.path.abspath(hhverify.__file__).startswith(os.path.join(SRC, "hhverify") + os.sep):
        raise ImportError(f"hhverify imported from {hhverify.__file__}, not from {SRC}")
    return hhverify


# --- worker side --------------------------------------------------------------


# Times are scaled to a reference machine speed, at which probe_ns() takes
# PROBE_REF_NS; see README.md for why.
PROBE_REF_NS = 65_000
SAME = "same as the first attempt"


def _probe_function():
    """t -> t^2 + exp(t)/t as a tree of closures, evaluated with a finiteness
    check: the same kind of interpreter work as the program's expression
    evaluator, but none of its code, so that no change to the program moves
    the probe."""
    var = lambda t: t  # noqa: E731
    two = lambda t: 2.0  # noqa: E731
    square = lambda t: math.pow(var(t), two(t))  # noqa: E731
    quotient = lambda t: math.exp(var(t)) / var(t)  # noqa: E731
    total = lambda t: square(t) + quotient(t)  # noqa: E731

    def evaluate(t):
        value = total(t)
        if not math.isfinite(value):
            raise ValueError(f"probe left the finite reals at {t!r}")
        return value

    return evaluate


_PROBE = _probe_function()


def probe_ns() -> int:
    """Time a fixed piece of pure-Python work: the machine's current speed."""
    t0 = time.perf_counter_ns()
    for i in range(1, 200):
        _PROBE(1.0 + i * 1e-3)
    return time.perf_counter_ns() - t0


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and a.args == b.args
    return a == b


def run_passes(ops, seconds: float, rng: random.Random, max_passes: float = math.inf):
    """Interleaved passes over ``ops``, each operation between two probes.

    Returns the log of executions as (op index, ns), the probe times (probe
    j runs just before execution j), the outcomes of every attempt per
    operation (result or exception; SAME for a repeat of the first), and
    the pass count.  Repeats are not kept, so the heap does not grow with
    the run."""
    order = list(range(len(ops)))
    outcomes = [[] for _ in ops]
    log = []
    probes = [probe_ns()]
    start = time.perf_counter()
    passes = 0
    while passes < max_passes:
        rng.shuffle(order)
        for i in order:
            op = ops[i]
            t0 = time.perf_counter_ns()
            try:
                outcome, failed = op.call(), False
            except Exception as exc:  # a failed operation, counted later
                outcome, failed = exc, True
            log.append((i, time.perf_counter_ns() - t0))
            probes.append(probe_ns())
            if not failed:
                try:
                    outcome = op.finish(outcome)
                except Exception as exc:  # e.g. the output file is missing
                    outcome = exc
            kept = outcomes[i]
            kept.append(SAME if kept and _same(kept[0], outcome) else outcome)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    return log, probes, outcomes, passes


def op_times(n_ops: int, log, probes):
    """Per-operation times in ns: the fastest raw execution, and the median
    execution scaled to the reference speed.  The speed around execution j
    is the median of probes j-1 to j+2 (two before it, two after)."""
    raw = [math.inf] * n_ops
    scaled = [[] for _ in range(n_ops)]
    for j, (i, ns) in enumerate(log):
        speed = statistics.median(probes[max(0, j - 1): j + 3])
        raw[i] = min(raw[i], ns)
        scaled[i].append(ns * PROBE_REF_NS / speed)
    return raw, [statistics.median(s) for s in scaled]


def check_outcomes(ops, outcomes) -> tuple[int, int, list[str], list[str]]:
    """Attempted and failed operations, the names of the operations that
    failed, and the first failure message of each."""
    attempted = failed = 0
    messages, failing = [], []
    for op, results in zip(ops, outcomes):
        first = None
        for k, result in enumerate(results):
            attempted += 1
            if result is SAME:
                problem = first
            elif isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
            else:
                problem = op.check(result)
            if k == 0:
                first = problem
            if problem is not None:
                failed += 1
                if op.name not in failing:
                    failing.append(op.name)
                    messages.append(f"{op.name}: {problem}")
    return attempted, failed, failing, messages


def worker(args) -> dict:
    hv = import_program()
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(hv)
        tracer.install()
    wl = workloads.build(args.workload, hv, OUT_DIR, reduced=args.reduced)
    print(READY, flush=True)
    if args.role == "setup":
        return {}
    rng = random.Random(args.seed)
    if tracer is None:
        log, probes, outcomes, passes = run_passes(wl.ops, args.seconds, rng)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw, scaled = op_times(len(wl.ops), log, probes)
        attempted, failed, failing, messages = check_outcomes(wl.ops, outcomes)
        return {
            "names": [op.name for op in wl.ops],
            "scaled_ns": scaled,
            "raw_best_ns": raw,
            "probe_ns": [min(probes), statistics.median(probes)],
            "log": log,
            "probes": probes,
            "passes": passes,
            "peak_rss_kb": peak_rss_kb,
            "attempted": attempted,
            "failed": failed,
            "failing": failing,
            "failures": messages,
        }
    # traced: one untraced pass for the overhead, then one traced pass
    tracer.uninstall()
    t0 = time.perf_counter()
    _, _, plain_outcomes, _ = run_passes(wl.ops, 0.0, rng, max_passes=1)
    plain_s = time.perf_counter() - t0
    tracer.install()
    t0 = time.perf_counter()
    _, _, traced_outcomes, _ = run_passes(tracer.op_spans(wl.ops), 0.0, rng, max_passes=1)
    traced_s = time.perf_counter() - t0
    tracer.uninstall()
    outcomes = [p + t for p, t in zip(plain_outcomes, traced_outcomes)]
    attempted, failed, failing, messages = check_outcomes(wl.ops, outcomes)
    metrics = tracer.metrics(tracing.eval_ns(wl.specs), traced_s / plain_s)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "untraced_pass_s": plain_s, "traced_pass_s": traced_s})
    return {"layer_metrics": metrics, "attempted": attempted, "failed": failed,
            "failing": failing, "failures": messages}


# --- parent side ---------------------------------------------------------------


def spawn(args, role: str):
    """Start a worker and time it from spawn to its READY line, scaled to the
    reference speed by probes just before and after; returns the set-up
    time and the worker's result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.reduced:
        cmd.append("--reduced")
    env = dict(os.environ, HHVERIFY_THREADS="1", PYTHONHASHSEED="0")
    before = probe_ns()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        setup_s *= PROBE_REF_NS / ((before + probe_ns()) / 2)
        rest = proc.stdout.read()
        code = proc.wait()
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"{role} process for {args.workload} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(args) -> dict:
    samples = [spawn(args, "setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, res = spawn(args, "worker")
    samples.append(setup_s)
    times_s = [ns / 1e9 for ns in res["scaled_ns"]]
    raw_s = [ns / 1e9 for ns in res["raw_best_ns"]]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (len(times_s) / sum(times_s), "1/s"),
        "op_p50_ms": (statistics.median(times_s) * 1e3, "ms"),
        "op_p90_ms": (percentile(times_s, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    info = {"operations": len(times_s), "passes": res["passes"], "setup_samples_s": samples,
            "failing": res["failing"], "failures": res["failures"],
            "op_ms": dict(zip(res["names"], (s * 1e3 for s in times_s))),
            "raw": {"ops_per_s": len(raw_s) / sum(raw_s), "op_p50_ms": statistics.median(raw_s) * 1e3,
                    "op_p90_ms": percentile(raw_s, 0.9) * 1e3},
            "probe_ns": res["probe_ns"], "log": res["log"], "probes": res["probes"]}
    return _result(args.workload, res, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info)


def per_layer(args) -> dict:
    _, res = spawn(args, "worker")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layer_metrics"].items()}
    return _result(args.workload, res, metrics, {"failing": res["failing"], "failures": res["failures"]})


def _result(workload, res, metrics, info) -> dict:
    """``correct`` holds when no operation failed other than the known
    faults, which fail in every run and stay counted in ``failed``."""
    return {
        "correct": set(res["failing"]) <= KNOWN_FAULTS[workload],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of hhverify.")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="short operation lists, for tests")
    parser.add_argument("--role", choices=("parent", "setup", "worker"), default="parent",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role != "parent":
        result = worker(args)
        print(json.dumps(result), flush=True)
        return 0
    if not os.path.isfile(os.path.join(SRC, "hhverify", "__init__.py")):
        print(f"perfbench: no program at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        result = per_layer(args) if args.trace else end_to_end(args)
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<22} {m['value']:.6g} {m['unit']}")
        for message in result["info"]["failures"]:
            print(f"  FAILED {message}")
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
            json.dump(result, fh, indent=1)
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
