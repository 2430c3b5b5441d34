"""Golden outputs: the default ``hhverify sweep`` JSON, committed as
``tests/golden/sweep.json``.

``tests/test_golden.py`` rebuilds the output in process and compares bytes.
A change that moves it rewrites the file with::

    python tests/golden.py --update

and commits the diff with the reason for it.  On a mismatch,
:func:`describe_mismatch` names the first differing line, the number of
differing lines, and every ``"status"`` or ``"passed"`` line among them, so a
flipped verdict shows before any moved digit.
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SWEEP_PATH = os.path.join(GOLDEN_DIR, "sweep.json")
# lines whose change is a changed verdict rather than a moved value
VERDICT_KEYS = ('"status":', '"passed":')


def sweep_bytes() -> bytes:
    """What ``hhverify sweep`` writes with every option at its default."""
    from hhverify.cli import format_json, run_sweep

    return (format_json(run_sweep()) + "\n").encode("utf-8")


def describe_mismatch(expected: bytes, actual: bytes, name: str = "output") -> str:
    """A short account of how ``actual`` differs from ``expected``, line by
    line: ``-`` lines are the golden file's, ``+`` lines the new output's,
    each with its line number."""
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
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite the golden files from the current source")
    args = parser.parse_args(argv)
    if not args.update:
        parser.error("pass --update to rewrite the golden files; the tier-1 tests check them")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(SWEEP_PATH, "wb") as fh:
        fh.write(sweep_bytes())
    print(f"wrote {SWEEP_PATH}")
    return 0


if __name__ == "__main__":
    # run from a checkout: the package sits in src next to tests
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    sys.exit(main())
