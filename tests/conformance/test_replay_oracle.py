"""The replay-equivalence oracle: clean pass + tamper detection."""
from __future__ import annotations

import pickle

from repro.core.sqlcheck import SQLCheck
from repro.testkit import check_replay_equivalence


def test_replay_oracle_passes_on_the_real_pipeline():
    assert check_replay_equivalence() == []


def test_replay_oracle_passes_on_a_planted_corpus():
    corpus = [
        "CREATE TABLE t (id INTEGER, name VARCHAR(10))",
        "SELECT * FROM t",
        "SELECT * FROM t WHERE name LIKE '%a%'",
    ]
    assert check_replay_equivalence(corpus) == []


def test_oracle_fails_when_the_repeat_is_not_a_replay(monkeypatch):
    monkeypatch.setattr(SQLCheck, "_store", lambda self, key, report: None)
    failures = check_replay_equivalence()
    assert any("must be a replay" in f.reason for f in failures)
    assert any("vacuous" in f.reason for f in failures)


def test_oracle_catches_a_replay_that_differs_from_the_pipeline(monkeypatch):
    original = SQLCheck._store

    def forgetful(self, key, report):
        stored = pickle.loads(pickle.dumps(report))
        stored.detections = stored.detections[1:]  # "forgets" a finding
        original(self, key, stored)

    monkeypatch.setattr(SQLCheck, "_store", forgetful)
    failures = check_replay_equivalence()
    assert any("repeated check differs" in f.reason for f in failures)


def test_oracle_catches_keys_shared_by_different_inputs(monkeypatch):
    monkeypatch.setattr(
        "repro.detector.detector.APDetector.input_key",
        lambda self, queries, source, scope=b"": "one key for every input",
    )
    failures = check_replay_equivalence()
    assert any("first check of this input was a replay" in f.reason for f in failures)


def test_oracle_is_a_selftest_step():
    import inspect

    from repro.testkit.selftest import run_selftest

    assert "check_replay_equivalence" in inspect.getsource(run_selftest)
