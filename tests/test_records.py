"""The result records other code relies on: ``QuadResult``, ``ChainTerm`` and
``ChainReport`` are frozen dataclasses, not tuples.

``ineq.run_chain`` and the benchmark's tracer and checks tell one report from
the tuple of ``t4``'s two by ``isinstance(result, tuple)``, and the
benchmark's checks move a term with ``dataclasses.replace``.
"""

import dataclasses

import pytest

from hhverify.ineq import ChainReport, ChainTerm
from hhverify.quad import QuadResult

QUAD = QuadResult(0.6931471805599453, 7.7e-15, 1)
TERM = ChainTerm("midpoint", 1.5)
REPORT = ChainReport.build(
    "t1", "derived_corrected", "convex", [ChainTerm("midpoint", 1.0), ChainTerm("mean", 1.25, 1e-12)], 1e-8, {"f": "x"}
)
RECORDS = [QUAD, TERM, REPORT]
IDS = ["QuadResult", "ChainTerm", "ChainReport"]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_is_a_frozen_dataclass_and_no_tuple(record):
    assert dataclasses.is_dataclass(record)
    assert not isinstance(record, tuple)
    assert record != dataclasses.astuple(record)
    name = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))


@pytest.mark.parametrize(
    "record, text",
    [
        (QUAD, "QuadResult(value=0.6931471805599453, abs_error_estimate=7.7e-15, subdivisions=1)"),
        (TERM, "ChainTerm(label='midpoint', value=1.5, abs_error=0.0)"),
        (
            REPORT,
            "ChainReport(chain_id='t1', variant='derived_corrected', direction='convex', "
            "terms=(ChainTerm(label='midpoint', value=1.0, abs_error=0.0), "
            "ChainTerm(label='mean', value=1.25, abs_error=1e-12)), slacks=(0.25,), "
            "slack_errors=(1e-12,), tol=1e-08, passed=True, metadata={'f': 'x'})",
        ),
    ],
    ids=IDS,
)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_replace_and_equality(record):
    same = dataclasses.replace(record)
    assert same == record and same is not record
    assert type(same) is type(record)


def test_replace_moves_a_term_of_a_report():
    # as the benchmark's checks perturb a report
    term = REPORT.terms[1]
    moved = dataclasses.replace(term, value=2.0)
    assert moved == ChainTerm("mean", 2.0, 1e-12)
    report = dataclasses.replace(REPORT, terms=(REPORT.terms[0], moved))
    assert report.terms[1].value == 2.0 and report.slacks == REPORT.slacks
    assert report != REPORT
    assert report.chain_id == "t1" and report.metadata == {"f": "x"}


def test_keyword_construction_and_term_default():
    assert ChainTerm(label="midpoint", value=1.5) == TERM
    assert QuadResult(value=QUAD.value, abs_error_estimate=7.7e-15, subdivisions=1) == QUAD
