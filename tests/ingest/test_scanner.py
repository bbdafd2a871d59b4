"""Workload-weighted scanning tests: frequencies, streaming, end-to-end."""
from __future__ import annotations

import pytest

from repro.core.sqlcheck import SQLCheck
from repro.ingest import (
    ConnectorError,
    LiveScanner,
    WorkloadLog,
    assign_frequencies,
    scan,
    stream_scan,
)
from repro.model.antipatterns import AntiPattern
from repro.ranking.ranker import APRanker
from repro.workloads.sqlite import sqlite_database

DDL = [
    "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, label VARCHAR(40) NOT NULL)",
    "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY, tenant_id INTEGER, "
    "name VARCHAR(30))",
]

HOT_WILDCARD = "SELECT * FROM tenant"
JOIN_NO_FK = (
    "SELECT q.name FROM questionnaire q JOIN tenant t ON t.tenant_id = q.tenant_id"
)
PATTERN = "SELECT name FROM questionnaire WHERE name LIKE '%x'"


def _database():
    return sqlite_database(
        DDL,
        {
            "tenant": [{"tenant_id": i, "label": f"t{i}"} for i in range(20)],
            "questionnaire": [
                {"q_id": i, "tenant_id": i % 20, "name": f"q{i}"} for i in range(40)
            ],
        },
    )


class TestFrequencyWeighting:
    def test_weight_is_logarithmic_and_neutral_at_one(self):
        assert APRanker.frequency_weight(None) == 1.0
        assert APRanker.frequency_weight(1) == 1.0
        assert APRanker.frequency_weight(2) == pytest.approx(2.0)
        assert APRanker.frequency_weight(1024) == pytest.approx(11.0)

    def test_hot_statement_outranks_with_real_frequencies(self):
        database = _database()
        flat = scan(database, [HOT_WILDCARD, JOIN_NO_FK, PATTERN], source="app")
        hot = scan(
            database,
            WorkloadLog.from_statements([HOT_WILDCARD] * 64 + [JOIN_NO_FK, PATTERN]),
            source="app",
        )
        flat_order = [e.anti_pattern for e in flat]
        hot_order = [e.anti_pattern for e in hot]
        assert flat_order[0] != AntiPattern.COLUMN_WILDCARD
        assert hot_order[0] == AntiPattern.COLUMN_WILDCARD
        # Same findings, different order: frequencies weight, never filter.
        assert sorted(d.value for d in flat_order) == sorted(d.value for d in hot_order)

    def test_assign_frequencies_matches_whitespace_insensitively(self):
        toolchain = SQLCheck()
        context = toolchain._builder.build(["SELECT  *  FROM   tenant"])
        log = WorkloadLog.from_statements([HOT_WILDCARD] * 3)
        assign_frequencies(context, log)
        assert context.frequencies == {0: 3}
        assert context.frequency_of(0) == 3
        assert context.frequency_of(99) == 1

    def test_assign_frequencies_carries_durations(self):
        from repro.ingest import LogRecord

        toolchain = SQLCheck()
        context = toolchain._builder.build([HOT_WILDCARD, PATTERN])
        log = WorkloadLog.from_records([
            LogRecord(statement=HOT_WILDCARD, duration_ms=30.0),
            LogRecord(statement=HOT_WILDCARD, duration_ms=50.0),
            LogRecord(statement=PATTERN),  # no timing in the log line
        ])
        assign_frequencies(context, log)
        assert context.frequencies == {0: 2}
        assert context.durations == {0: pytest.approx(40.0)}
        assert context.duration_of(0) == pytest.approx(40.0)
        assert context.duration_of(1) is None
        assert context.duration_of(None) is None


class TestScan:
    def test_scan_needs_some_input(self):
        with pytest.raises(ConnectorError):
            scan()

    def test_database_only_scan_runs_data_rules(self):
        database = sqlite_database(
            ["CREATE TABLE readings (amount FLOAT, note VARCHAR(10))"],
            {"readings": [{"amount": i / 10, "note": f"n{i}"} for i in range(30)]},
        )
        report = scan(database)
        assert report.queries_analyzed == 0
        assert report.tables_analyzed == 1
        detected = {e.anti_pattern for e in report}
        assert AntiPattern.NO_PRIMARY_KEY in detected

    def test_log_only_scan(self):
        report = scan(workload=WorkloadLog.from_statements([HOT_WILDCARD]))
        assert {e.anti_pattern for e in report} == {AntiPattern.COLUMN_WILDCARD}

    def test_stats_accounting_holds(self):
        report = scan(_database(), [HOT_WILDCARD, PATTERN], source="app")
        stats = report.stats
        assert stats is not None
        assert stats.total_seconds >= stats.stage_seconds_sum() * 0.9

    def test_scanner_reuse_keeps_results_identical(self):
        scanner = LiveScanner()
        first = scanner.scan(_database(), [HOT_WILDCARD, JOIN_NO_FK], source="app")
        second = scanner.scan(_database(), [HOT_WILDCARD, JOIN_NO_FK], source="app")
        assert [d.detection.to_dict() for d in first] == [
            d.detection.to_dict() for d in second
        ]


class TestStreaming:
    def test_stream_is_chunked_and_complete(self):
        statements = [f"SELECT * FROM table_{i}" for i in range(10)]
        reports = list(stream_scan(statements, chunk_size=3))
        assert len(reports) == 4
        assert sum(r.queries_analyzed for r in reports) == 10
        assert sum(len(r) for r in reports) == 10  # one wildcard each

    def test_stream_frequencies_are_chunk_local(self):
        log = WorkloadLog.from_statements([HOT_WILDCARD] * 8 + [PATTERN])
        reports = list(stream_scan(log, chunk_size=1))
        assert len(reports) == 2
        wildcard = reports[0].detections[0]
        assert wildcard.score > APRanker().score_detection(wildcard.detection)

    def test_stream_detect_uses_batch_pipeline(self):
        scanner = LiveScanner()
        chunks = list(
            scanner.stream_detect(
                [f"SELECT * FROM t{i}" for i in range(6)], chunk_size=2
            )
        )
        assert len(chunks) == 3
        for report, stats in chunks:
            assert stats.statements == 2
            assert len(report.detections) == 2
