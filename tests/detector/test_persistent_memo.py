"""The persistent detection memo: warm restarts, sharing, and corruption.

The SQLite-backed store (:mod:`repro.detector.persist`) must be a pure
optimisation: byte-identical detections whether the file is fresh, warm
from a previous *process*, stale (written under a different rule
registry), corrupt, or unwritable.  Every degraded path invalidates back
to a clean cold run — counted, never crashed.
"""
from __future__ import annotations

import dataclasses
import json
import os
import pickle
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.detector.detector import APDetector, DetectorConfig
from repro.detector.persist import (
    REASON_CORRUPT_FILE,
    REASON_FORMAT,
    REASON_REGISTRY,
    PersistentMemo,
)
from repro.obs import MetricsRegistry, swap_registry
from repro.rules.registry import default_registry
from repro.sqlparser import AnnotationCache
from repro.testkit.oracles import detection_bytes

CORPUS = [
    "CREATE TABLE users (id INTEGER PRIMARY KEY, tags VARCHAR(200))",
    "SELECT * FROM users",
    "SELECT * FROM users WHERE tags LIKE '%admin%'",
    "SELECT * FROM users",
]

REPO_ROOT = Path(__file__).resolve().parents[2]


def _detector(path) -> APDetector:
    return APDetector(DetectorConfig(persistent_memo_path=str(path)))


class TestWarmRestart:
    def test_fresh_instance_replays_byte_identically(self, tmp_path):
        memo = tmp_path / "memo.sqlite"
        cold_detector = _detector(memo)
        cold_report, cold_stats = cold_detector.detect_batch(CORPUS)
        cold_detector.close()
        assert cold_stats.parallel_mode != "persistent-replay"

        warm_detector = _detector(memo)
        warm_report, warm_stats = warm_detector.detect_batch(CORPUS)
        warm_detector.close()
        assert detection_bytes(warm_report) == detection_bytes(cold_report)
        assert warm_stats.parallel_mode == "persistent-replay"
        assert warm_stats.memo_hits == warm_stats.statements

    def test_persistence_matches_the_memoryless_baseline(self, tmp_path):
        baseline = APDetector(DetectorConfig()).detect(CORPUS)
        detector = _detector(tmp_path / "memo.sqlite")
        report = detector.detect(CORPUS)
        detector.close()
        assert detection_bytes(report) == detection_bytes(baseline)

    def test_statement_memo_survives_a_changed_corpus(self, tmp_path):
        """A *different* corpus cannot ride the whole-corpus replay, but
        per-statement entries for unchanged statements still hit."""
        memo = tmp_path / "memo.sqlite"
        first = _detector(memo)
        first.detect_batch(CORPUS)
        first.close()

        extended = CORPUS + ["SELECT id FROM users WHERE id = 7"]
        second = _detector(memo)
        report, stats = second.detect_batch(extended)
        reference = APDetector(DetectorConfig()).detect(extended)
        second.close()
        assert stats.parallel_mode != "persistent-replay"
        assert detection_bytes(report) == detection_bytes(reference)

    def test_memo_info_reports_the_persistent_layer(self, tmp_path):
        detector = _detector(tmp_path / "memo.sqlite")
        detector.detect_batch(CORPUS)
        info = detector.memo_info
        detector.close()
        persistent = info["persistent"]
        assert persistent["path"].endswith("memo.sqlite")
        assert persistent["memo_rows"] > 0
        assert persistent["corpus_rows"] >= 1


class TestStoreTier:
    """The store tier under the text-keyed :class:`AnnotationCache`."""

    def test_store_hit_counts_once_and_is_promoted_without_write_back(self, tmp_path):
        store = PersistentMemo(tmp_path / "memo.sqlite", registry_digest=b"r1")
        store.put("memo", ("s1", "SELECT * FROM users"), [])
        store.flush()
        cache = AnnotationCache(maxsize=4, store=store, layer="memo")
        # A stored empty detection list is a hit, not a miss.
        assert cache.get("SELECT * FROM users", scope="s1") == []
        assert (cache.stats.hits, cache.stats.misses, len(cache)) == (1, 0, 1)
        assert store.hits == 1
        assert store.info()["pending_writes"] == 0
        # The second lookup is served from memory: the store is not read.
        assert cache.get("SELECT * FROM users", scope="s1") == []
        assert cache.stats.hits == 2
        assert store.hits == 1
        # Absent from both tiers: one miss in each.
        assert cache.get("SELECT * FROM users", scope="s2") is None
        assert (cache.stats.misses, store.misses) == (1, 1)
        store.close()


class TestTrim:
    """The flush keeps each table's ``max_rows`` newest rows, at a cost
    that does not grow with the rows already stored."""

    #: The trim every flush ran before the rowid-span check.
    OLD_TRIM = (
        "DELETE FROM {table} WHERE rowid NOT IN "
        "(SELECT rowid FROM {table} ORDER BY rowid DESC LIMIT ?)"
    )

    @staticmethod
    def _rows(conn, table: str) -> list:
        return conn.execute(f"SELECT rowid, scope, raw FROM {table} ORDER BY rowid").fetchall()

    def test_survivors_equal_the_old_trims(self, tmp_path):
        store = PersistentMemo(tmp_path / "memo.sqlite", registry_digest=b"r1", max_rows=5)
        reference = sqlite3.connect(":memory:")
        reference.execute(
            "CREATE TABLE memo (scope TEXT NOT NULL, raw TEXT NOT NULL, "
            "payload BLOB NOT NULL, PRIMARY KEY (scope, raw))"
        )
        # Re-put keys (INSERT OR REPLACE moves a key to a new rowid) so the
        # rowid span outgrows the row count, then flush in uneven batches.
        batches = [range(0, 4), range(2, 9), range(9, 10), [3, 0, 12], range(13, 30), [29]]
        for batch in batches:
            for n in batch:
                key = ("s", f"SELECT {n}")
                store.put("memo", key, [n])
                reference.execute(
                    "INSERT OR REPLACE INTO memo (scope, raw, payload) VALUES (?, ?, ?)",
                    (*key, pickle.dumps([n])),
                )
            store.flush()
            reference.execute(self.OLD_TRIM.format(table="memo"), (5,))
            assert self._rows(store._conn, "memo") == self._rows(reference, "memo")
        assert len(self._rows(store._conn, "memo")) == 5
        store.close()

    def test_flush_steps_do_not_grow_with_stored_rows(self, tmp_path):
        """Counted, not timed: VDBE steps of a 9-row flush over 1,000 and
        over 8,000 stored rows (329 each; 13,377 and 104,377 with a trim
        that walked the whole table)."""

        def flush_steps(stored: int) -> int:
            store = PersistentMemo(tmp_path / f"memo-{stored}.sqlite", registry_digest=b"r1")
            for n in range(stored):
                store.put("annotations", ("d", f"SELECT {n}"), [])
            store.flush()
            for n in range(9):
                store.put("annotations", ("d", f"SELECT new {n}"), [])
            steps = []
            store._conn.set_progress_handler(lambda: steps.append(1), 1)
            store.flush()
            store._conn.set_progress_handler(None, 1)
            store.close()
            return len(steps)

        small, large = flush_steps(1000), flush_steps(8000)
        assert 0 < large <= 1.5 * small, (small, large)

    def test_full_table_flush_steps_do_not_grow_with_max_rows(self, tmp_path):
        """Counted, not timed: a 9-row flush into a table already holding
        ``max_rows`` rows deletes the 9 oldest at a cost that does not grow
        from ``max_rows=1000`` to ``8000`` (a cut at ``OFFSET max_rows``
        walked every kept row)."""

        def flush_steps(max_rows: int) -> int:
            path = tmp_path / f"memo-{max_rows}.sqlite"
            store = PersistentMemo(path, registry_digest=b"r1", max_rows=max_rows)
            for n in range(max_rows):
                store.put("memo", ("s", f"SELECT {n}"), [])
            store.flush()
            for n in range(9):
                store.put("memo", ("s", f"SELECT new {n}"), [])
            steps = []
            store._conn.set_progress_handler(lambda: steps.append(1), 1)
            store.flush()
            store._conn.set_progress_handler(None, 1)
            kept = store._conn.execute("SELECT MIN(rowid), COUNT(*) FROM memo").fetchone()
            store.close()
            assert kept == (10, max_rows)
            return len(steps)

        small, large = flush_steps(1000), flush_steps(8000)
        assert 0 < large <= 1.5 * small, (small, large)


#: The store's schema before the caches stopped keying on fingerprints.
FORMAT_1_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE memo (
    scope TEXT NOT NULL, fingerprint TEXT NOT NULL, raw TEXT NOT NULL,
    payload BLOB NOT NULL, PRIMARY KEY (scope, fingerprint, raw));
CREATE TABLE annotations (
    dialect TEXT NOT NULL, raw TEXT NOT NULL, fingerprint TEXT NOT NULL,
    payload BLOB NOT NULL, PRIMARY KEY (dialect, raw));
CREATE TABLE corpus (key TEXT PRIMARY KEY, payload BLOB NOT NULL);
"""


class TestOlderFormat:
    def test_format_1_file_is_purged_once_and_runs_cold(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        connection = sqlite3.connect(path)
        connection.executescript(FORMAT_1_SCHEMA)
        connection.executemany(
            "INSERT INTO meta VALUES (?, ?)",
            [
                ("format_version", "1"),
                ("registry_digest", default_registry().content_digest.hex()),
            ],
        )
        connection.execute(
            "INSERT INTO memo VALUES (?, ?, ?, ?)",
            ("00" * 16, "0123456789abcdef", CORPUS[1], pickle.dumps([])),
        )
        connection.commit()
        connection.close()

        metrics = MetricsRegistry(enabled=True)
        previous = swap_registry(metrics)
        try:
            detector = _detector(path)
            report = detector.detect(CORPUS)
            invalidations = detector.persistent.invalidations
            info = detector.persistent.info()
            detector.close()
        finally:
            swap_registry(previous)
        assert invalidations == 1
        assert metrics.persistent_memo_invalidations.value(reason=REASON_FORMAT) == 1
        assert detection_bytes(report) == detection_bytes(
            APDetector(DetectorConfig()).detect(CORPUS)
        )
        # The recreated tables took this run's writes.
        assert info["memo_rows"] > 0 and info["annotations_rows"] > 0


class TestCrossProcessPersistence:
    """The store's real contract: warm state survives *process* restarts."""

    SCRIPT = """
import json, sys
from repro.detector.detector import APDetector, DetectorConfig
from repro.testkit.oracles import detection_bytes

corpus = json.loads(sys.argv[2])
detector = APDetector(DetectorConfig(persistent_memo_path=sys.argv[1]))
report, stats = detector.detect_batch(corpus)
detector.close()
print(json.dumps({
    "bytes": detection_bytes(report).decode(),
    "mode": stats.parallel_mode,
}))
"""

    def _run_once(self, memo_path: str) -> dict:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, memo_path, json.dumps(CORPUS)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(result.stdout)

    def test_second_process_replays_the_first_processs_run(self, tmp_path):
        memo = str(tmp_path / "memo.sqlite")
        first = self._run_once(memo)
        second = self._run_once(memo)
        assert first["mode"] != "persistent-replay"
        assert second["mode"] == "persistent-replay"
        assert second["bytes"] == first["bytes"]

    def test_cli_processes_share_the_memo_cache(self, tmp_path):
        memo = str(tmp_path / "memo.sqlite")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        command = [
            sys.executable, "-m", "repro.interfaces.cli",
            "--memo-cache", memo, "--format", "json",
            "-q", "SELECT * FROM users",
        ]
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                command, capture_output=True, text=True, env=env, timeout=120,
            )
            assert result.returncode == 1, result.stderr  # findings present
            outputs.append(json.loads(result.stdout)["detections"])
        assert outputs[0] == outputs[1]
        assert os.path.exists(memo)


class TestCorruptAndStaleFiles:
    def test_corrupt_file_invalidates_back_to_cold(self, tmp_path):
        memo = tmp_path / "memo.sqlite"
        warmup = _detector(memo)
        cold = detection_bytes(warmup.detect(CORPUS))
        warmup.close()

        memo.write_bytes(b"this is definitely not a sqlite database")
        detector = _detector(memo)
        report = detector.detect(CORPUS)
        invalidations = detector.persistent.invalidations
        assert detection_bytes(report) == cold
        assert invalidations >= 1
        # The rebuilt store is live again: a fresh instance replays warm.
        detector2 = _detector(memo)
        detector2.detect(CORPUS)
        hits = detector2.persistent.hits
        detector.close()
        detector2.close()
        assert hits > 0

    def test_truncated_file_never_crashes(self, tmp_path):
        memo = tmp_path / "memo.sqlite"
        warmup = _detector(memo)
        cold = detection_bytes(warmup.detect(CORPUS))
        warmup.close()

        blob = memo.read_bytes()
        memo.write_bytes(blob[: len(blob) // 3])
        detector = _detector(memo)
        assert detection_bytes(detector.detect(CORPUS)) == cold
        detector.close()

    def test_registry_change_purges_stale_entries(self, tmp_path):
        path = str(tmp_path / "memo.sqlite")
        old = PersistentMemo(path, registry_digest=b"old-registry")
        old.put_corpus("k1", {"queries_analyzed": 1, "tables_analyzed": 0,
                              "detections": []})
        old.flush()
        old.close()

        new = PersistentMemo(path, registry_digest=b"new-registry")
        assert new.get_corpus("k1") is None
        assert new.invalidations >= 1
        new.close()
        assert REASON_REGISTRY == "registry-change"  # wire-format contract

    def test_corrupt_entry_is_a_counted_miss(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "memo.sqlite")
        store = PersistentMemo(path, registry_digest=b"r1")
        store.put_corpus("k1", {"queries_analyzed": 1, "tables_analyzed": 0,
                                "detections": []})
        store.flush()
        store.close()
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE corpus SET payload = ?", (b"\x80garbage-pickle",)
            )
            connection.commit()

        reopened = PersistentMemo(path, registry_digest=b"r1")
        assert reopened.get_corpus("k1") is None
        assert reopened.invalidations >= 1
        reopened.close()

    def test_unopenable_path_disables_the_store(self, tmp_path):
        detector = APDetector(
            DetectorConfig(
                persistent_memo_path=str(tmp_path / "no" / "such" / "dir" / "m.db")
            )
        )
        report = detector.detect(CORPUS)
        reference = APDetector(DetectorConfig()).detect(CORPUS)
        detector.close()
        assert detection_bytes(report) == detection_bytes(reference)


class TestConfigScoping:
    def test_different_thresholds_never_share_entries(self, tmp_path):
        from repro.rules.thresholds import Thresholds

        memo = tmp_path / "memo.sqlite"
        default_detector = _detector(memo)
        default_detector.detect_batch(CORPUS)
        default_detector.close()

        strict = DetectorConfig(
            persistent_memo_path=str(memo),
            thresholds=Thresholds(god_table_columns=1),
        )
        strict_detector = APDetector(strict)
        report, stats = strict_detector.detect_batch(CORPUS)
        reference = APDetector(
            dataclasses.replace(strict, persistent_memo_path=None)
        ).detect(CORPUS)
        strict_detector.close()
        assert stats.parallel_mode != "persistent-replay"
        assert detection_bytes(report) == detection_bytes(reference)
