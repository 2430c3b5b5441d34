"""The default sweep JSON is byte-identical to ``tests/golden/sweep.json``,
and a mismatch report names what moved.

A change that moves it rewrites the file with ``python tests/golden.py
--update`` and says why; see :mod:`golden`.
"""

import pytest

import golden


def test_sweep_matches_golden():
    with open(golden.SWEEP_PATH, "rb") as fh:
        expected = fh.read()
    actual = golden.sweep_bytes()
    if actual != expected:
        pytest.fail(golden.describe_mismatch(expected, actual, "sweep"), pytrace=False)


def test_mismatch_names_first_line_count_and_verdicts():
    expected = b'{\n  "status": "passed",\n  "value": 1.0,\n  "passed": true\n}\n'
    actual = b'{\n  "status": "violated",\n  "value": 1.5,\n  "passed": true\n}\n'
    text = golden.describe_mismatch(expected, actual, "sweep")
    assert text.splitlines() == [
        "sweep differs from its golden file in 2 golden lines, with 2 new lines in their place (- golden, + now)",
        'first: - line 2: "status": "passed",',
        "2 status or passed lines among them:",
        '  - line 2: "status": "passed",',
        '  + line 2: "status": "violated",',
        "changed fields:",
        "  status: 1 changed, largest relative change -",
        "  value: 1 changed, largest relative change 0.5",
    ]


def test_mismatch_of_values_alone_names_no_verdict():
    text = golden.describe_mismatch(b'"value": 1.0\n', b'"value": 2.0\n')
    assert text.splitlines()[1:] == ['first: - line 1: "value": 1.0', "no status or passed line among them"]


def test_mismatch_names_each_changed_field_path():
    # list indices fold into one path; a field present on one side only counts
    expected = b'{"results": [{"value": 2.0, "n": 3}, {"value": -4.0, "n": 3}, {"value": 1.0}], "total": 0}\n'
    actual = b'{"results": [{"value": 2.5, "n": 3}, {"value": -4.0, "n": 4}, {"value": 0.5, "n": 1}], "total": 0}\n'
    assert golden.field_changes(expected, actual) == [
        "  results[].value: 2 changed, largest relative change 0.5",
        "  results[].n: 2 changed, largest relative change 0.333",
    ]
    assert golden.field_changes(b"a,b\n1,2\n", b"a,b\n1,3\n") == []
