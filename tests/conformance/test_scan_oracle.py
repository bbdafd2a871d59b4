"""Differential oracle: live-source scanning ≡ the offline pipeline.

PR 4's acceptance contract: ``sqlcheck scan`` against a SQLite file and a
sample PostgreSQL csvlog produces detections byte-identical to the
equivalent offline inputs (the schema built from the same DDL text, the
profiles and data-rule rows taken from the same Python rows, the same
statements), with the ranker's weights taken from the
log's *real* execution frequencies — and the same workload parsed from
every supported log dialect normalizes to the same
:class:`~repro.ingest.workload_log.WorkloadLog`.
"""
from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core.sqlcheck import SQLCheck, SQLCheckOptions
from repro.detector.detector import DetectorConfig
from repro.ingest import (
    WorkloadLog,
    iter_log_records,
    read_workload_log,
)
from repro.interfaces.cli import run as cli_run
from repro.testkit import check_scan_equivalence, offline_scan_context
from repro.workloads.sqlite import insert_rows

DDL = [
    "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, label VARCHAR(40) NOT NULL)",
    "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY, tenant_id INTEGER, "
    "name VARCHAR(30))",
    "CREATE TABLE readings (reading_id INTEGER PRIMARY KEY, amount FLOAT, "
    "note VARCHAR(20))",
]

ROWS = {
    "tenant": [{"tenant_id": i, "label": f"t{i}"} for i in range(30)],
    "questionnaire": [
        {"q_id": i, "tenant_id": i % 30, "name": f"q{i}"} for i in range(80)
    ],
    "readings": [
        {"reading_id": i, "amount": i / 3.0, "note": f"n{i}"} for i in range(25)
    ],
}

#: (statement, execution count) — the canonical workload all log dialects
#: below encode.  Duplicated counts are what the frequency weights feed on.
WORKLOAD = [
    ("SELECT * FROM tenant", 40),
    ("SELECT q.name FROM questionnaire q JOIN tenant t ON t.tenant_id = q.tenant_id", 7),
    ("SELECT name FROM questionnaire WHERE name LIKE '%x'", 3),
    ("SELECT label FROM tenant ORDER BY RANDOM() LIMIT 1", 1),
]


def _write_csvlog(path) -> None:
    rows = []
    n = 0
    for statement, count in WORKLOAD:
        for _ in range(count):
            n += 1
            message = f"statement: {statement}".replace('"', '""')
            rows.append(
                f'2026-07-01 12:00:{n % 60:02d}.000 UTC,"app","appdb",77,'
                f'"10.0.0.9:5000",abc,{n},"SELECT",2026-07-01 11:00:00 UTC,'
                f'9/9,0,LOG,00000,"{message}",,,,,,,,,"psql","client backend",,0'
            )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_stderr_log(path) -> None:
    lines = [
        f"2026-07-01 12:00:00 UTC [77] LOG:  statement: {statement}"
        for statement, count in WORKLOAD
        for _ in range(count)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_mysql_log(path) -> None:
    lines = [
        "/usr/sbin/mysqld, Version: 8.0.34. started with:",
        "Time                 Id Command    Argument",
    ]
    for statement, count in WORKLOAD:
        lines.extend(
            f"2026-07-01T12:00:00.000000Z\t   77 Query\t{statement}"
            for _ in range(count)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_plain_sql(path) -> None:
    lines = [
        f"{statement};" for statement, count in WORKLOAD for _ in range(count)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _offline_detections(workload: WorkloadLog, source: str) -> list[dict]:
    """The equivalent offline run: DDL text + rows + statements + frequencies."""
    toolchain = SQLCheck(
        SQLCheckOptions(detector=DetectorConfig(dialect="sqlite"))
    )
    context = offline_scan_context(toolchain, DDL, ROWS, workload, source=source)
    report = toolchain.check_context(context)
    return report.to_dict()["detections"]


@pytest.fixture
def sqlite_path(tmp_path):
    path = tmp_path / "app.db"
    connection = sqlite3.connect(str(path))
    for statement in DDL:
        connection.execute(statement)
    for table, rows in ROWS.items():
        insert_rows(connection, table, rows)
    connection.commit()
    connection.close()
    return path


def test_cli_scan_is_byte_identical_to_offline_pipeline(tmp_path, sqlite_path):
    """The acceptance contract, end to end through the real CLI."""
    csvlog = tmp_path / "postgres.csv"
    _write_csvlog(csvlog)
    code, output = cli_run([
        "scan", "--db", str(sqlite_path), "--log", str(csvlog),
        "--log-format", "postgres-csv", "--format", "json",
    ])
    assert code == 1  # anti-patterns found
    live = json.loads(output)["detections"]
    workload = read_workload_log(csvlog, "postgres-csv", source=str(sqlite_path))
    offline = _offline_detections(workload, str(sqlite_path))
    assert json.dumps(live, sort_keys=True) == json.dumps(offline, sort_keys=True)


def test_frequency_weights_come_from_the_log(tmp_path, sqlite_path):
    """The hot wildcard (40 runs) must outrank everything; re-ranking the
    same detections without frequencies must order differently."""
    csvlog = tmp_path / "postgres.csv"
    _write_csvlog(csvlog)
    _, output = cli_run([
        "scan", "--db", str(sqlite_path), "--log", str(csvlog),
        "--log-format", "postgres-csv", "--format", "json",
    ])
    detections = json.loads(output)["detections"]
    assert detections[0]["anti_pattern"] == "column_wildcard"
    flat = _offline_detections(
        WorkloadLog.from_statements(s for s, _ in WORKLOAD), str(sqlite_path)
    )
    assert flat[0]["anti_pattern"] != "column_wildcard"


def test_all_log_dialects_normalize_to_the_same_workload(tmp_path):
    """≥3 log formats parse the same workload into identical logs —
    format equivalence makes the csvlog oracle above cover them all."""
    writers = {
        "postgres-csv": _write_csvlog,
        "postgres": _write_stderr_log,
        "mysql": _write_mysql_log,
        "sql": _write_plain_sql,
    }
    folded = {}
    for fmt, writer in writers.items():
        path = tmp_path / f"workload.{fmt}"
        writer(path)
        with open(path, "r", encoding="utf-8") as handle:
            log = WorkloadLog.from_records(iter_log_records(handle, fmt))
        folded[fmt] = [(e.statement, e.frequency) for e in log.entries()]
    expected = [(s, c) for s, c in WORKLOAD]
    for fmt, entries in folded.items():
        assert entries == expected, f"{fmt} normalised differently"


def test_testkit_scan_equivalence_oracle(tmp_path):
    """The reusable oracle itself (testkit surface of the same contract)."""
    workload = WorkloadLog.from_statements(
        [s for s, c in WORKLOAD for _ in range(c)]
    )
    failures = check_scan_equivalence(
        DDL, ROWS, workload,
        db_path=tmp_path / "oracle.db",
        options=SQLCheckOptions(detector=DetectorConfig(dialect="sqlite")),
    )
    assert failures == [], [str(f) for f in failures]


# ----------------------------------------------------------------------
# pg_stat_statements as the workload source (PR 5)
# ----------------------------------------------------------------------
def _write_pg_stat_csv(path) -> None:
    """The canonical workload as a pg_stat_statements export: one
    pre-aggregated row per statement (calls + total/mean times)."""
    lines = ["query,calls,total_exec_time,mean_exec_time"]
    for n, (statement, count) in enumerate(WORKLOAD):
        mean = 4.0 + n  # distinct but boring timings
        quoted = statement.replace('"', '""')
        lines.append(f'"{quoted}",{count},{mean * count},{mean}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_pg_stat_csv_normalizes_to_the_same_frequencies(tmp_path):
    """A pg_stat export folds to the same (statement, frequency) entries as
    the line-per-execution dialects — durations ride along on top."""
    path = tmp_path / "pg_stat.csv"
    _write_pg_stat_csv(path)
    log = read_workload_log(path)  # format auto-detected from the header
    assert log.log_format == "pg_stat_statements"
    assert [(e.statement, e.frequency) for e in log.entries()] == list(WORKLOAD)
    assert all(e.mean_duration_ms is not None for e in log.entries())


def test_scan_equivalence_holds_with_a_pg_stat_source(tmp_path):
    """Acceptance: ``check_scan_equivalence`` holds when the workload comes
    from pg_stat_statements and the duration cost model consumes its
    timings on both sides."""
    path = tmp_path / "pg_stat.csv"
    _write_pg_stat_csv(path)
    workload = read_workload_log(path)
    for cost_model in ("frequency", "duration", "hybrid"):
        failures = check_scan_equivalence(
            DDL, ROWS, workload,
            db_path=tmp_path / f"oracle_{cost_model}.db",
            options=SQLCheckOptions(
                detector=DetectorConfig(dialect="sqlite"), cost_model=cost_model
            ),
        )
        assert failures == [], [str(f) for f in failures]


def test_cli_scan_pg_stat_log_weights_by_duration(tmp_path, sqlite_path):
    """End to end: the pg_stat workload through the real CLI under the
    duration model — weights follow calls × mean time, not calls alone."""
    path = tmp_path / "pg_stat.csv"
    _write_pg_stat_csv(path)
    code, output = cli_run([
        "scan", "--db", str(sqlite_path), "--log", str(path),
        "--cost-model", "duration", "--format", "json",
    ])
    assert code == 1
    payload = json.loads(output)
    assert payload["cost_model"] == "duration"
    weighted = [
        d for d in payload["detections"] if d["query_index"] is not None
    ]
    assert any(d["workload_weight"] != 1.0 for d in weighted)
