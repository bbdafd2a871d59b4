"""The service-equivalence oracle: clean pass + tamper detection."""
from __future__ import annotations

import pytest

from repro.detector import persist
from repro.testkit import check_service_equivalence


def test_service_oracle_passes_on_the_real_pipeline():
    assert check_service_equivalence(statements=20) == []


def test_service_oracle_passes_on_a_planted_corpus():
    corpus = [
        "CREATE TABLE t (id INTEGER, name VARCHAR(10))",
        "SELECT * FROM t",
        "SELECT * FROM t",  # duplicate: exercises both memo layers
    ]
    assert check_service_equivalence(corpus) == []


def test_oracle_catches_a_store_that_serves_stale_corpora(monkeypatch):
    """A persistent store replaying the wrong detections must fail."""
    original = persist.PersistentMemo.get_corpus

    def stale(self, key):
        payload = original(self, key)
        if payload is not None:
            payload = dict(payload, detections=[])  # "forgets" every finding
        return payload

    monkeypatch.setattr(persist.PersistentMemo, "get_corpus", stale)
    failures = check_service_equivalence(statements=15)
    assert failures, "the oracle must catch a store serving stale bytes"
    assert any("warm restart" in f.subject for f in failures)


def test_oracle_rejects_a_vacuous_warm_run(monkeypatch):
    """If the warm restart silently re-detects instead of replaying, the
    ≥5× speedup claim rests on nothing — the oracle must flag it."""
    monkeypatch.setattr(
        persist.PersistentMemo, "get_corpus", lambda self, key: None
    )
    failures = check_service_equivalence(statements=15)
    assert any("vacuous" in f.reason for f in failures)


def test_oracle_requires_a_repeated_small_request_to_be_served_as_a_replay(monkeypatch):
    """A server whose toolchains never keep a report fails the small repeat."""
    from repro.core.sqlcheck import SQLCheck

    monkeypatch.setattr(SQLCheck, "_store", lambda self, key, report: None)
    failures = check_service_equivalence(statements=15)
    assert any(f.subject == "small repeat" and "not a replay" in f.reason for f in failures)


def test_oracle_rejects_a_check_restart_that_reads_no_run_row(monkeypatch):
    """A restarted toolchain that re-detects instead of reading the run's
    stored memo row makes the warm check comparison vacuous."""
    monkeypatch.setattr(persist.PersistentMemo, "get_run", lambda self, scope: None)
    failures = check_service_equivalence(statements=15)
    assert [f.subject for f in failures if "vacuous" in f.reason] == ["warm restart of check"]


def test_oracle_catches_a_run_row_with_stale_detections(monkeypatch):
    original = persist.PersistentMemo.get_run

    def stale(self, scope):
        row = original(self, scope)
        return row and {raw: [] for raw in row}  # "forgets" every finding

    monkeypatch.setattr(persist.PersistentMemo, "get_run", stale)
    failures = check_service_equivalence(statements=15)
    assert any(
        f.subject == "warm restart of check" and "differs" in f.reason for f in failures
    )


def test_oracle_rejects_an_intra_only_restart_that_reads_no_row(monkeypatch):
    original = persist.PersistentMemo.get

    def without_memo_rows(self, layer, key):
        return None if layer == "memo" else original(self, layer, key)

    monkeypatch.setattr(persist.PersistentMemo, "get", without_memo_rows)
    failures = check_service_equivalence(statements=15)
    assert "warm restart of check (intra-only)" in {
        f.subject for f in failures if "vacuous" in f.reason
    }
