import json

import pytest

from sp2n import tori, weights
from sp2n.harness import SUITE_NAMES, run_suite


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_suite_names():
    assert set(SUITE_NAMES) == {
        "dominance", "si", "m22", "ee3", "s10", "th2", "ff2", "fr1", "th7",
        "branching", "counterexamples", "all",
    }


def test_reports_are_deterministic():
    a = run_suite("si", 12)
    b = run_suite("si", 12)
    assert a.to_json() == b.to_json()
    a = run_suite("counterexamples")
    b = run_suite("counterexamples")
    assert a.to_json() == b.to_json()


def test_report_schema():
    rep = run_suite("dominance", 2)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"suite", "max_n", "cases", "failures", "pass", "notes"}
    assert payload["suite"] == "dominance"
    assert payload["max_n"] == 2
    assert isinstance(payload["cases"], int)
    assert payload["failures"] == []
    assert payload["pass"] is True
    for f in rep.failures:
        assert set(f) == {"input", "fast", "oracle"}


def test_si_suite_reports_contested_reference_value():
    rep = run_suite("si", 12)
    assert rep.passed
    assert any("Si(12)" in note for note in rep.notes)
    rep = run_suite("si", 11)
    assert rep.notes == []


def test_all_suite_small():
    rep = run_suite("all", 2)
    assert rep.suite == "all"
    assert rep.passed
    assert rep.cases > 0
    # sub-suite names prefix the failure inputs; check the note prefixes too
    assert all(":" in note for note in rep.notes) or rep.notes == []


def test_small_suites_pass():
    for name in ("m22", "ee3", "s10", "th2", "ff2", "fr1", "th7"):
        rep = run_suite(name, 2)
        assert rep.passed, (name, rep.failures[:3])
    assert run_suite("branching", 6).passed
    assert run_suite("counterexamples").passed


def test_documented_suite_calls():
    assert run_suite("si", 11).passed
    assert run_suite("m22", 5).passed
    assert run_suite("dominance", 4).passed


def test_wall_time_excluded_from_json():
    rep = run_suite("si", 5)
    assert rep.wall_time > 0
    assert "wall" not in rep.to_json()


def test_dominance_search_work_is_pinned():
    # the oracle's search is deterministic, so the number of states it
    # settles over the whole suite catches a complexity regression
    weights._ORACLE_TABLE.clear()
    rep = run_suite("dominance")
    assert rep.cases == 75808 and rep.passed
    assert len(weights._ORACLE_TABLE) == 3303


def test_th2_residue_keys_are_pinned(monkeypatch):
    # the residue engine is deterministic, so the number of keys its passes
    # create over the whole suite from a cold cache catches a complexity regression
    keys = 0
    place = tori._place

    def counting_place(*args):
        nonlocal keys
        out = place(*args)
        keys += len(out)
        return out

    monkeypatch.setattr(tori, "_place", counting_place)
    tori._residue_codes.cache_clear()
    rep = run_suite("th2")
    assert rep.cases == 5460 and rep.passed
    assert keys == 10181
