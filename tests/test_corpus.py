import json
import math
import random
import re

import pytest

from hhverify.convexity import SampleGrid, check_harmonic_convex
from hhverify.corpus import (
    CLASS_TAGS,
    CorpusError,
    CorpusEntry,
    builtin_functions,
    builtin_h,
    export_json,
    import_json,
    random_harmonic_convex,
    _build_entries,
    _verify_entry,
)
from hhverify.fnspec import parse
from hhverify.hmean import HInterval
from hhverify.quad import weighted_integral


def margin_harmonic(f, x, y, alpha):
    """f at the harmonic combination xy/(alpha x + (1-alpha) y), minus the
    weighted mean alpha f(y) + (1-alpha) f(x)."""
    return f(x * y / (alpha * x + (1.0 - alpha) * y)) - (alpha * f(y) + (1.0 - alpha) * f(x))


@pytest.fixture(scope="module")
def entries():
    return builtin_functions()


def by_name(entries, name):
    return next(e for e in entries if e.name == name)


@pytest.mark.parametrize("entry", _build_entries(), ids=lambda e: e.name)
def test_builtin_declarations_pass_the_gate(entry):
    # builtin_functions() trusts these declarations, so this test is what
    # proves them: every entry declares all six tags, and the checkers agree
    assert set(entry.classes) == set(CLASS_TAGS)
    _verify_entry(entry)


class TestBuiltinFunctions:
    def test_loads_and_has_enough_entries(self, entries):
        assert len(entries) >= 10
        names = {e.name for e in entries}
        assert {"reciprocal", "linear", "square", "neg_log", "exponential"} <= names

    def test_closed_forms_match_quadrature(self, entries):
        for entry in entries:
            expected = entry.closed_forms.get("weighted_integral")
            if expected is None:
                continue
            got = weighted_integral(entry.spec, entry.interval.a, entry.interval.b, tol=1e-12)
            assert got.value == pytest.approx(expected, abs=1e-10), entry.name

    def test_neg_log_memberships(self, entries):
        e = by_name(entries, "neg_log")
        assert e.classes["convex"] is True
        assert e.classes["harmonic_convex"] is False
        assert e.classes["symmetrized_harmonic_concave"] is True
        # the recorded refutation witness value
        assert margin_harmonic(e.spec, 1.0, 2.0, 0.5) == pytest.approx(0.0588915178, abs=1e-9)

    def test_inclusion_family_memberships(self, entries):
        for name in ("sym_affine_c1", "sym_affine_c10"):
            e = by_name(entries, name)
            assert e.classes["harmonic_convex"] is False
            assert e.classes["harmonic_concave"] is False
            assert e.classes["symmetrized_harmonic_convex"] is True
            assert e.classes["symmetrized_harmonic_concave"] is True

    def test_negative_interval_entry(self, entries):
        e = by_name(entries, "neg_reciprocal_interval")
        assert e.interval == HInterval(-2.0, -1.0)
        assert e.closed_forms["weighted_integral"] == pytest.approx(-0.375)

    def test_constant_entry_all_classes(self, entries):
        e = by_name(entries, "const_one")
        assert all(e.classes.values())

    def test_subinterval_chain_at_full_range_reduces_corpus_wide(self, entries):
        # t3 evaluated at (a, b) collapses onto the t1 chain for every entry
        from hhverify.ineq import chain_harmonic_hh, chain_subinterval

        for entry in entries:
            interval = entry.interval
            t1 = chain_harmonic_hh(entry.spec, interval, quad_tol=1e-12)
            t3 = chain_subinterval(entry.spec, interval, interval.a, interval.b, quad_tol=1e-12)
            for u, v in zip(t1.term_values(), t3.term_values()):
                assert u == pytest.approx(v, abs=1e-10), entry.name

    def test_gate_rejects_wrong_declaration(self):
        bad = CorpusEntry(
            name="bogus",
            spec=parse("-ln(x)"),
            interval=HInterval(1.0, 2.0),
            classes={"harmonic_convex": True},
            closed_forms={},
        )
        with pytest.raises(CorpusError, match="bogus"):
            _verify_entry(bad)


class TestBuiltinH:
    def test_family(self):
        hs = builtin_h()
        table = {h.name: (h.h_half, h.h_int) for h in hs}
        assert table["t"] == (pytest.approx(0.5), pytest.approx(0.5, abs=1e-12))
        assert table["t^2"] == (pytest.approx(0.25), pytest.approx(1.0 / 3.0, abs=1e-10))
        assert table["sqrt(t)"] == (
            pytest.approx(math.sqrt(0.5)),
            pytest.approx(2.0 / 3.0, abs=1e-8),
        )
        assert table["1"] == (pytest.approx(1.0), pytest.approx(1.0, abs=1e-12))


class TestExportJson:
    def test_shape(self, entries):
        doc = export_json(entries)
        assert doc["schema"] == 1
        assert len(doc["entries"]) == len(entries)
        first = doc["entries"][0]
        assert {"name", "source", "interval", "classes", "closed_forms"} <= set(first)
        assert export_json() == doc  # the built-in corpus by default

    def test_roundtrips_through_parser(self, entries):
        # exported source text reconstructs the same function
        rng = random.Random(1)
        for item in export_json(entries)["entries"]:
            reparsed = parse(item["source"])
            original = by_name(entries, item["name"])
            for _ in range(10):
                t = rng.uniform(item["interval"]["a"], item["interval"]["b"])
                assert reparsed(t) == original.spec(t)

    def test_import_roundtrip(self, entries):
        doc = export_json(entries[:3])
        rebuilt = import_json(doc)
        assert [e.name for e in rebuilt] == [e.name for e in entries[:3]]
        assert export_json(rebuilt) == doc

    def test_import_verifies_declarations(self):
        doc = {
            "schema": 1,
            "entries": [
                {
                    "name": "wrong",
                    "source": "-ln(x)",
                    "interval": {"a": 1.0, "b": 2.0},
                    "classes": {"harmonic_convex": True},
                    "closed_forms": {},
                }
            ],
        }
        with pytest.raises(CorpusError):
            import_json(doc)

    def test_import_rejects_unknown_schema(self):
        with pytest.raises(CorpusError):
            import_json({"schema": 2, "entries": []})


_DROP = object()


def _doc(**fields):
    """A one-entry document for 1/x on [1, 2], with ``fields`` replaced
    (or removed, for ``_DROP``)."""
    item = {
        "name": "recip",
        "source": "1/x",
        "interval": {"a": 1.0, "b": 2.0},
        "classes": {"harmonic_convex": True},
        "closed_forms": {"weighted_integral": 0.375},
        "notes": "",
    }
    item.update(fields)
    return {"schema": 1, "entries": [{k: v for k, v in item.items() if v is not _DROP}]}


BAD_DOCUMENTS = [
    ("no_entries", {"schema": 1}, "corpus document: entries must be a list, it is missing"),
    ("entries_not_list", {"schema": 1, "entries": {}}, "corpus document: entries must be a list, got {}"),
    ("entry_not_object", {"schema": 1, "entries": [3]}, "corpus entry 0: must be an object, got 3"),
    ("no_name", _doc(name=_DROP), "corpus entry 0: name must be a string, it is missing"),
    ("no_source", _doc(source=_DROP), "corpus entry 'recip': source must be a string, it is missing"),
    ("source_not_string", _doc(source=3), "corpus entry 'recip': source must be a string, got 3"),
    ("source_unparsable", _doc(source="1/x+"), "corpus entry 'recip': source '1/x+': expected an expression"),
    (
        "source_undefined",
        _doc(source="ln(x)", interval={"a": -2.0, "b": -1.0}),
        "corpus entry 'recip': source 'ln(x)': evaluation failed",
    ),
    ("no_interval", _doc(interval=_DROP), "corpus entry 'recip': interval must be an object, it is missing"),
    ("no_interval_b", _doc(interval={"a": 1.0}), "corpus entry 'recip': interval.b must be a number, it is missing"),
    ("interval_a_string", _doc(interval={"a": "1", "b": 2.0}), "corpus entry 'recip': interval.a must be a number, got '1'"),
    ("interval_a_bool", _doc(interval={"a": True, "b": 2.0}), "corpus entry 'recip': interval.a must be a number, got True"),
    ("interval_reversed", _doc(interval={"a": 2.0, "b": 1.0}), "corpus entry 'recip': interval: need a < b"),
    ("interval_huge_int", _doc(interval={"a": 10**400, "b": 10**401}), "corpus entry 'recip': interval: int too large"),
    ("classes_not_object", _doc(classes=["harmonic_convex"]), "corpus entry 'recip': classes must be an object"),
    (
        "tag_string",
        _doc(classes={"harmonic_convex": "yes"}),
        "corpus entry 'recip': classes.harmonic_convex must be true or false, got 'yes'",
    ),
    ("tag_int", _doc(classes={"harmonic_convex": 1}), "corpus entry 'recip': classes.harmonic_convex must be true or false, got 1"),
    ("tag_unknown", _doc(classes={"harmonically_convex": True}), "recip: unknown class tag 'harmonically_convex'"),
    ("tag_wrong", _doc(classes={"convex": False}), "recip: declared convex=False but the checker found passed=True"),
    (
        "closed_form_string",
        _doc(closed_forms={"weighted_integral": "0.375"}),
        "corpus entry 'recip': closed_forms.weighted_integral must be a number, got '0.375'",
    ),
    ("notes_null", _doc(notes=None), "corpus entry 'recip': notes must be a string, got None"),
    (
        "name_repeated",
        {"schema": 1, "entries": _doc()["entries"] * 2},
        "corpus entry 1: name must be unique, got 'recip', the name of corpus entry 0",
    ),
    (
        "closed_form_nan",
        _doc(closed_forms=json.loads('{"weighted_integral": NaN, "other": Infinity}')),
        "corpus entry 'recip': closed_forms.weighted_integral must be finite, got nan",
    ),
    (
        "closed_form_infinite",
        _doc(closed_forms=json.loads('{"weighted_integral": 0.375, "other": -Infinity}')),
        "corpus entry 'recip': closed_forms.other must be finite, got -inf",
    ),
]


def test_import_accepts_the_table_base_document():
    (entry,) = import_json(_doc())
    assert export_json((entry,)) == _doc()


@pytest.mark.parametrize("doc, message", [case[1:] for case in BAD_DOCUMENTS], ids=[case[0] for case in BAD_DOCUMENTS])
def test_import_names_entry_and_field(doc, message):
    with pytest.raises(CorpusError, match=re.escape(message)):
        import_json(doc)


class TestRandomHarmonicConvex:
    def test_deterministic(self):
        interval = HInterval(1.0, 2.0)
        f1 = random_harmonic_convex(11, interval)
        f2 = random_harmonic_convex(11, interval)
        assert f1 == f2

    def test_seeds_differ(self):
        interval = HInterval(1.0, 2.0)
        assert random_harmonic_convex(1, interval) != random_harmonic_convex(2, interval)

    def test_nonnegative_and_slopes_increasing(self):
        for seed in range(25):
            interval = HInterval(0.5, 3.0)
            f = random_harmonic_convex(seed, interval)
            assert all(s2 > s1 for s1, s2 in zip(f.slopes, f.slopes[1:]))
            rng = random.Random(seed)
            for _ in range(50):
                assert f(rng.uniform(0.5, 3.0)) >= 0.0

    def test_exactly_harmonic_convex_by_construction(self):
        interval = HInterval(1.0, 2.0)
        rng = random.Random(2)
        for seed in range(10):
            f = random_harmonic_convex(seed, interval)
            for _ in range(200):
                x, y = rng.uniform(1, 2), rng.uniform(1, 2)
                if x == y:
                    continue
                assert margin_harmonic(f, x, y, rng.random()) <= 1e-12

    def test_checker_agrees(self):
        interval = HInterval(1.0, 2.0)
        grid = SampleGrid(abscissa_count=16, random_triples=64)
        for seed in (0, 7, 42):
            f = random_harmonic_convex(seed, interval)
            assert check_harmonic_convex(f, interval, grid=grid).passed

    def test_kinks_are_reciprocal_interior_knots(self):
        for seed, interval in ((3, HInterval(1.0, 2.0)), (5, HInterval(-2.0, -1.0))):
            f = random_harmonic_convex(seed, interval)
            assert f.kinks == tuple(1.0 / u for u in f.knots[1:-1])
            assert all(interval.a < t < interval.b for t in f.kinks)

    def test_negative_interval_generation(self):
        interval = HInterval(-2.0, -1.0)
        f = random_harmonic_convex(5, interval)
        rng = random.Random(5)
        for _ in range(100):
            x, y = rng.uniform(-2, -1), rng.uniform(-2, -1)
            if x == y:
                continue
            assert margin_harmonic(f, x, y, rng.random()) <= 1e-12
