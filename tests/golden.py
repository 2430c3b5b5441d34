"""Golden outputs: what the command line prints, committed under
``tests/golden/``.

- ``sweep.json`` is the default ``hhverify sweep`` JSON;
  ``tests/test_golden.py`` rebuilds it in process and compares bytes.
- Every ``hhverify ...`` line of the README's ``sh`` blocks has a file too,
  named after its arguments (:func:`golden_path`), with the stdout it
  prints; ``tests/test_cli.py`` runs each line and compares.  The line
  ``hhverify sweep`` is ``sweep.json``.  The lines of
  :data:`CSV_PROJECTED` are run with ``--format csv`` added, and their file
  holds that CSV: the same reports, in a third of the bytes.

A change that moves an output rewrites every file with::

    python tests/golden.py --update

and commits the diff with the reason for it.  On a mismatch,
:func:`describe_mismatch` names the first differing line, the number of
differing lines, and every ``"status"`` or ``"passed"`` line among them, so a
flipped verdict shows before any moved digit; for JSON it also names each
changed field path, with its count of changed values and the largest
relative change among them.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")
SWEEP_PATH = os.path.join(GOLDEN_DIR, "sweep.json")
README = os.path.join(os.path.dirname(TESTS_DIR), "README.md")
# lines whose change is a changed verdict rather than a moved value
VERDICT_KEYS = ('"status":', '"passed":')
# README lines whose golden file is the CSV of their reports (the JSON of
# the first is 256 KB)
CSV_PROJECTED = ("sweep --variant as_printed",)


def sweep_bytes() -> bytes:
    """What ``hhverify sweep`` writes with every option at its default."""
    from hhverify.cli import format_json, run_sweep

    return (format_json(run_sweep()) + "\n").encode("utf-8")


def readme_cli_lines() -> list[tuple[int, str, int]]:
    """(line number, line, exit code) for each ``hhverify ...`` line of the
    README's ``sh`` blocks; the code is the one its comment names as
    ``exits N``, or 0."""
    found, in_sh = [], False
    with open(README, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.startswith("```"):
                in_sh = line.strip() == "```sh"
            elif in_sh and line.startswith("hhverify "):
                code = re.search(r"#.*\bexits (\d+)", line)
                found.append((number, line.strip(), int(code.group(1)) if code else 0))
    return found


def readme_args(line: str) -> list[str]:
    """The arguments a README line passes to ``hhverify``, with
    ``--format csv`` added for the lines of :data:`CSV_PROJECTED`."""
    args = shlex.split(line, comments=True)[1:]
    if " ".join(args) in CSV_PROJECTED:
        args += ["--format", "csv"]
    return args


def golden_path(args: list[str]) -> str:
    """``tests/golden/<the arguments, each run of other characters than
    letters, digits, '_' and '.' made one '-'>.<json or csv>``."""
    stem = re.sub(r"[^A-Za-z0-9_.]+", "-", " ".join(args)).strip("-")
    fmt = args[args.index("--format") + 1] if "--format" in args else "json"
    return os.path.join(GOLDEN_DIR, f"{stem}.{fmt}")


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """``hhverify.cli.main(args)`` in process: its exit code, stdout and stderr."""
    from hhverify.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


_ABSENT = object()


def _leaves(obj, path: str, concrete: str, into: dict) -> None:
    """Map each leaf's concrete path (list indices kept) to its field path
    (indices as ``[]``) and value."""
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            _leaves(value, f"{path}.{key}" if path else key, f"{concrete}.{key}", into)
    elif isinstance(obj, list) and obj:
        for index, value in enumerate(obj):
            _leaves(value, f"{path}[]", f"{concrete}[{index}]", into)
    else:
        into[concrete] = (path or ".", obj)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def field_changes(expected: bytes, actual: bytes) -> list[str]:
    """One line per field path whose values differ between two JSON
    documents: the path, the count of changed values, and the largest
    relative change among the numbers, in the order the paths first appear
    in ``expected``; ``[]`` if either document is not JSON."""
    try:
        old_doc, new_doc = json.loads(expected), json.loads(actual)
    except ValueError:
        return []
    old, new = {}, {}
    _leaves(old_doc, "", "", old)
    _leaves(new_doc, "", "", new)
    changed: dict[str, list] = {}  # field path -> [count, largest relative change or None]
    for concrete in {**old, **new}:
        path, u = old.get(concrete, (None, _ABSENT))
        path, v = new.get(concrete, (path, _ABSENT))
        if type(u) is type(v) and (u == v or u != u and v != v):  # NaN is NaN
            continue
        entry = changed.setdefault(path, [0, None])
        entry[0] += 1
        if _is_number(u) and _is_number(v):
            rel = abs(v - u) / abs(u) if u else float("inf")
            entry[1] = rel if entry[1] is None else max(entry[1], rel)
    return [
        f"  {path}: {count} changed, largest relative change {'-' if rel is None else format(rel, '.3g')}"
        for path, (count, rel) in changed.items()
    ]


def describe_mismatch(expected: bytes, actual: bytes, name: str = "output") -> str:
    """A short account of how ``actual`` differs from ``expected``, line by
    line: ``-`` lines are the golden file's, ``+`` lines the new output's,
    each with its line number; then, for JSON, field by field."""
    old = expected.decode("utf-8").splitlines()
    new = actual.decode("utf-8").splitlines()
    changed = []  # (sign, line number, text)
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, old, new).get_opcodes():
        if tag != "equal":
            changed += [("-", i + 1, old[i]) for i in range(i1, i2)]
            changed += [("+", j + 1, new[j]) for j in range(j1, j2)]
    if not changed:  # the bytes differ in line endings or a final newline only
        return f"{name} differs from its golden file in line endings only"
    removed = sum(sign == "-" for sign, _, _ in changed)
    lines = [
        f"{name} differs from its golden file in {removed} golden lines, "
        f"with {len(changed) - removed} new lines in their place (- golden, + now)"
    ]
    first = changed[0]
    lines.append(f"first: {first[0]} line {first[1]}: {first[2].strip()}")
    verdicts = [c for c in changed if c[2].lstrip().startswith(VERDICT_KEYS)]
    if verdicts:
        lines.append(f"{len(verdicts)} status or passed lines among them:")
        lines += [f"  {sign} line {number}: {text.strip()}" for sign, number, text in verdicts]
    else:
        lines.append("no status or passed line among them")
    fields = field_changes(expected, actual)
    if fields:
        lines.append("changed fields:")
        lines += fields
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite the golden files from the current source")
    args = parser.parse_args(argv)
    if not args.update:
        parser.error("pass --update to rewrite the golden files; the tier-1 tests check them")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    outputs = {SWEEP_PATH: sweep_bytes()}
    for _, line, _ in readme_cli_lines():
        cli_args = readme_args(line)
        path = golden_path(cli_args)
        if path not in outputs:
            outputs[path] = run_cli(cli_args)[1].encode("utf-8")
    for path, data in outputs.items():
        with open(path, "wb") as fh:
            fh.write(data)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    # run from a checkout: the package sits in src next to tests
    sys.path.insert(0, os.path.join(TESTS_DIR, os.pardir, "src"))
    sys.exit(main())
