"""The corpus gate: the class scans that prove a corpus entry's declared
memberships.

``hhverify.corpus.builtin_functions`` trusts its declarations and runs no
scan; ``tests/test_corpus.py`` proves them here, for every built-in entry.
"""

from __future__ import annotations

from hhverify import convexity
from hhverify.corpus import CLASS_TAGS, CorpusEntry

# the check_class kind of a tag without its direction: one scan decides both tags
GATE_KINDS = {"": "convex", "harmonic": "harmonic", "symmetrized_harmonic": "symmetrized"}


def verify_entry(entry: CorpusEntry) -> None:
    """Scan each kind of class that ``entry`` declares a tag of, once, and
    raise ``AssertionError`` naming the entry if a tag is unknown or the
    scan refutes what the tag declares."""
    verdicts = {}
    for tag, declared in entry.classes.items():
        if tag not in CLASS_TAGS:
            raise AssertionError(f"{entry.name}: unknown class tag {tag!r}")
        kind, _, direction = tag.rpartition("_")
        if kind not in verdicts:
            # through the module, so that a tracer wrapping check_class sees the scan
            verdicts[kind] = convexity.check_class(GATE_KINDS[kind], entry.spec, entry.interval.a, entry.interval.b)
        verdict = verdicts[kind] if direction == "convex" else verdicts[kind].opposite
        if verdict.passed != declared:
            raise AssertionError(
                f"{entry.name}: declared {tag}={declared} but the checker found "
                f"passed={verdict.passed} (worst margin {verdict.worst_margin!r} "
                f"at {verdict.witness})"
            )
