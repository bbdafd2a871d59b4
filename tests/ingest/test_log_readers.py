"""Query-log reader tests: all five formats, durations, and auto-detection."""
from __future__ import annotations

import pytest

from repro.ingest import (
    LOG_FORMATS,
    LogFormatError,
    WorkloadLog,
    detect_log_format,
    iter_log_records,
    read_workload_log,
)

CSVLOG = (
    '2026-07-01 12:00:00.000 UTC,"app","appdb",1234,"10.0.0.5:44444",5ef,1,"SELECT",'
    '2026-07-01 11:59:59 UTC,10/100,0,LOG,00000,'
    '"duration: 1.291 ms  statement: SELECT * FROM tenant",,,,,,,,,"psql","client backend",,0\n'
    '2026-07-01 12:00:01.000 UTC,"app","appdb",1234,"10.0.0.5:44444",5ef,2,"SELECT",'
    '2026-07-01 11:59:59 UTC,10/100,0,LOG,00000,'
    '"statement: SELECT * FROM tenant",,,,,,,,,"psql","client backend",,0\n'
    '2026-07-01 12:00:02.000 UTC,"app","appdb",1234,"10.0.0.5:44444",5ef,3,"SELECT",'
    '2026-07-01 11:59:59 UTC,10/100,0,LOG,00000,'
    "\"execute q1: SELECT name FROM questionnaire WHERE name LIKE '%x'\""
    ',,,,,,,,,"psql","client backend",,0\n'
)

STDERR_LOG = (
    "2026-07-01 12:00:00 UTC [99] LOG:  statement: SELECT * FROM tenant\n"
    "2026-07-01 12:00:00 UTC [99] LOG:  duration: 0.532 ms\n"
    "2026-07-01 12:00:01 UTC [99] LOG:  statement: SELECT q.name FROM questionnaire q\n"
    "\tJOIN tenant t ON t.tenant_id = q.tenant_id\n"
    '2026-07-01 12:00:02 UTC [99] ERROR:  relation "missing" does not exist\n'
    "2026-07-01 12:00:02 UTC [99] STATEMENT:  SELECT * FROM missing\n"
)

MYSQL_LOG = (
    "/usr/sbin/mysqld, Version: 8.0.34 (MySQL Community Server - GPL). started with:\n"
    "Tcp port: 3306  Unix socket: /var/run/mysqld/mysqld.sock\n"
    "Time                 Id Command    Argument\n"
    "2026-07-01T12:00:00.123456Z\t   42 Connect\tapp@localhost on appdb\n"
    "2026-07-01T12:00:00.234567Z\t   42 Query\tSELECT * FROM tenant\n"
    "2026-07-01T12:00:01.000000Z\t   42 Query\tSELECT q.name FROM questionnaire q\n"
    "JOIN tenant t ON t.tenant_id = q.tenant_id\n"
    "2026-07-01T12:00:02.000000Z\t   42 Quit\t\n"
)

TRACE_LOG = (
    "-- opened database\n"
    "SELECT * FROM tenant;\n"
    "TRACE: INSERT INTO tenant VALUES (1, 'a')\n"
    "SELECT name FROM questionnaire WHERE name LIKE '%x'\n"
)

PLAIN_SQL = (
    "SELECT * FROM tenant;\n"
    "SELECT q.name\nFROM questionnaire q\nWHERE q.name LIKE '%x';\n"
    "SELECT * FROM tenant"
)


class TestReaders:
    def test_postgres_csvlog_statements_and_durations(self):
        records = list(iter_log_records(CSVLOG.splitlines(True), "postgres-csv"))
        assert [r.statement for r in records] == [
            "SELECT * FROM tenant",
            "SELECT * FROM tenant",
            "SELECT name FROM questionnaire WHERE name LIKE '%x'",
        ]
        assert records[0].duration_ms == pytest.approx(1.291)
        assert records[1].duration_ms is None

    def test_postgres_stderr_duration_attachment_and_continuations(self):
        records = list(iter_log_records(STDERR_LOG.splitlines(True), "postgres"))
        # The ERROR context (STATEMENT:) line must not be counted as a run.
        assert len(records) == 2
        assert records[0].duration_ms == pytest.approx(0.532)
        assert "JOIN tenant t" in records[1].statement

    def test_mysql_general_log_commands_and_continuations(self):
        records = list(iter_log_records(MYSQL_LOG.splitlines(True), "mysql"))
        assert len(records) == 2  # Connect/Quit are not SQL
        assert records[0].statement == "SELECT * FROM tenant"
        assert "JOIN tenant t" in records[1].statement

    def test_sqlite_trace_strips_prefixes_and_comments(self):
        records = list(iter_log_records(TRACE_LOG.splitlines(True), "sqlite-trace"))
        assert [r.statement for r in records] == [
            "SELECT * FROM tenant;",
            "INSERT INTO tenant VALUES (1, 'a')",
            "SELECT name FROM questionnaire WHERE name LIKE '%x'",
        ]

    def test_plain_sql_multiline_statements(self):
        records = list(iter_log_records(PLAIN_SQL.splitlines(True), "sql"))
        assert len(records) == 3
        assert records[1].statement.startswith("SELECT q.name")

    def test_plain_sql_semicolon_inside_multiline_string(self):
        """A ';' ending a line *inside* a string literal must not split the
        statement — the scan path must agree with the offline splitter."""
        from repro.sqlparser import split

        dump = "INSERT INTO t (x) VALUES ('a;\nb');\nSELECT x FROM t;\n"
        records = list(iter_log_records(dump.splitlines(True), "sql"))
        assert [r.statement for r in records] == split(dump)
        assert len(records) == 2
        assert records[0].statement == "INSERT INTO t (x) VALUES ('a;\nb');"

    def test_unknown_format_raises(self):
        with pytest.raises(LogFormatError):
            list(iter_log_records([], "syslog"))


class TestWorkloadFold:
    def test_frequencies_aggregate_across_formats(self):
        log = WorkloadLog.from_records(
            iter_log_records(CSVLOG.splitlines(True), "postgres-csv")
        )
        assert len(log) == 2
        assert log.frequency_of("SELECT * FROM tenant") == 2
        assert log.total_statements == 3
        assert log.total_duration_ms == pytest.approx(1.291)

    def test_fold_is_bounded_by_distinct_statements(self):
        lines = ("SELECT * FROM tenant;\n" * 5000).splitlines(True)
        log = WorkloadLog.from_records(iter_log_records(lines, "sql"))
        assert len(log) == 1
        assert log.frequency_of("SELECT * FROM tenant") == 5000

    def test_slices_preserve_entries(self):
        log = WorkloadLog.from_statements(
            [f"SELECT c{i} FROM t{i}" for i in range(7)]
        )
        pieces = list(log.slices(3))
        assert [len(p) for p in pieces] == [3, 3, 1]
        assert [s for p in pieces for s in p.statements()] == log.statements()

    def test_split_record_duration_is_spread_not_double_counted(self):
        from repro.ingest import LogRecord

        log = WorkloadLog()
        log.add(LogRecord(statement="SELECT a FROM t; SELECT b FROM u", duration_ms=100.0))
        assert len(log) == 2
        assert log.total_duration_ms == pytest.approx(100.0)
        assert log.entry_for("SELECT a FROM t").total_duration_ms == pytest.approx(50.0)

    def test_merge_adds_frequencies(self):
        a = WorkloadLog.from_statements(["SELECT a FROM t", "SELECT b FROM t"])
        b = WorkloadLog.from_statements(["SELECT a FROM t"])
        a.merge(b)
        assert a.frequency_of("SELECT a FROM t") == 2
        assert a.total_statements == 3


class TestDetection:
    def test_by_extension(self, tmp_path):
        assert detect_log_format(tmp_path / "x.csv") == "postgres-csv"
        assert detect_log_format(tmp_path / "x.sql") == "sql"

    def test_by_content(self, tmp_path):
        assert detect_log_format(tmp_path / "pg.log", STDERR_LOG) == "postgres"
        assert detect_log_format(tmp_path / "my.log", MYSQL_LOG) == "mysql"
        assert detect_log_format(tmp_path / "other.log", "SELECT 1;") == "sql"

    def test_statement_per_line_log_detects_as_trace(self, tmp_path):
        """sqlite3_trace_v2 output — one statement per line, no ';' — must
        not fall through to 'sql', which would fold the whole file into one
        bogus statement."""
        trace = "SELECT a FROM t\nINSERT INTO t VALUES (1)\nSELECT b FROM u\n"
        assert detect_log_format(tmp_path / "app.log", trace) == "sqlite-trace"
        assert detect_log_format(tmp_path / "app.trace") == "sqlite-trace"
        # Terminated multi-line scripts still read as plain SQL.
        script = "SELECT a\nFROM t;\nINSERT INTO t VALUES (1);\n"
        assert detect_log_format(tmp_path / "app.log", script) == "sql"

    def test_read_workload_log_autodetects(self, tmp_path):
        path = tmp_path / "server.log"
        path.write_text(STDERR_LOG, encoding="utf-8")
        log = read_workload_log(path)
        assert log.log_format == "postgres"
        assert log.source == str(path)
        assert log.frequency_of("SELECT * FROM tenant") == 1

    def test_all_advertised_formats_have_readers(self):
        for fmt in LOG_FORMATS:
            assert list(iter_log_records([], fmt)) == []


BOM = "\ufeff"


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is not statement text."""

    @pytest.mark.parametrize(
        "name, text",
        [
            ("q.sql", "SELECT * FROM users;\nSELECT * FROM users;\n"),
            ("q.trace", "SELECT * FROM users\nSELECT * FROM users\n"),
        ],
    )
    def test_bom_log_folds_like_the_plain_file(self, tmp_path, name, text):
        from repro.ingest import LiveScanner

        plain = tmp_path / "plain" / name
        marked = tmp_path / "marked" / name
        for path, content in ((plain, text), (marked, BOM + text)):
            path.parent.mkdir()
            path.write_text(content, encoding="utf-8")
        log = read_workload_log(marked)
        assert [(e.statement, e.frequency) for e in log] == [("SELECT * FROM users", 2)]

        def findings(path):
            report = LiveScanner().scan(workload=path)
            return [(d.anti_pattern, d.detection.query, d.score) for d in report]

        assert findings(marked) == findings(plain) != []

    def test_bom_does_not_hide_the_format(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text(BOM + "SELECT a FROM t\nSELECT b FROM u\n", encoding="utf-8")
        assert detect_log_format(path) == "sqlite-trace"


PG_STAT_CSV = """query,calls,total_exec_time,mean_exec_time
"SELECT * FROM tenant",40,4000.0,100.0
"SELECT name FROM questionnaire WHERE name LIKE '%x'",3,3.0,1.0
"<insufficient privilege>",9,9.0,1.0
"""

PG_STAT_CSV_PG12 = """query,calls,mean_time
"SELECT * FROM tenant",40,100.0
"""


class TestPgStatStatements:
    def test_rows_fold_pre_aggregated(self):
        from repro.ingest import read_pg_stat_statements

        log = WorkloadLog.from_records(
            read_pg_stat_statements(PG_STAT_CSV.splitlines(True))
        )
        entries = {e.statement: e for e in log}
        hot = entries["SELECT * FROM tenant"]
        assert hot.frequency == 40
        assert hot.total_duration_ms == 4000.0
        assert hot.mean_duration_ms == 100.0
        assert len(log) == 2  # the privilege-masked row is dropped

    def test_pg12_mean_time_column(self):
        from repro.ingest import read_pg_stat_statements

        log = WorkloadLog.from_records(
            read_pg_stat_statements(PG_STAT_CSV_PG12.splitlines(True))
        )
        entry = log.entries()[0]
        assert entry.frequency == 40
        assert entry.total_duration_ms == pytest.approx(4000.0)

    def test_missing_columns_raise(self):
        from repro.ingest import LogFormatError, read_pg_stat_statements

        with pytest.raises(LogFormatError, match="query"):
            list(read_pg_stat_statements(["a,b\n", "1,2\n"]))

    def test_detected_from_csv_header(self, tmp_path):
        path = tmp_path / "snapshot.csv"
        path.write_text(PG_STAT_CSV, encoding="utf-8")
        assert detect_log_format(path) == "pg_stat_statements"
        log = read_workload_log(path)
        assert log.log_format == "pg_stat_statements"
        assert log.frequency_of("SELECT * FROM tenant") == 40

    def test_plain_csvlog_still_detects_as_postgres_csv(self, tmp_path):
        path = tmp_path / "server.csv"
        path.write_text(
            '2026-07-01 12:00:00.000 UTC,"app","appdb",77,"10.0.0.9:5000",'
            'abc,1,"SELECT",2026-07-01 11:00:00 UTC,9/9,0,LOG,00000,'
            '"statement: SELECT 1",,,,,,,,,"psql","client backend",,0\n',
            encoding="utf-8",
        )
        assert detect_log_format(path) == "postgres-csv"

    def test_table_reader_from_sqlite_snapshot(self, tmp_path):
        import sqlite3

        from repro.ingest import read_pg_stat_table

        path = tmp_path / "snapshot.db"
        connection = sqlite3.connect(str(path))
        connection.execute(
            "CREATE TABLE pg_stat_statements "
            "(query TEXT, calls INTEGER, total_exec_time REAL, mean_exec_time REAL)"
        )
        connection.execute(
            "INSERT INTO pg_stat_statements VALUES "
            "('SELECT * FROM tenant', 40, 4000.0, 100.0)"
        )
        connection.commit()
        connection.close()
        log = read_pg_stat_table(str(path))
        assert log.log_format == "pg_stat_statements"
        entry = log.entries()[0]
        assert (entry.frequency, entry.mean_duration_ms) == (40, 100.0)

    def test_table_reader_missing_table_is_a_connector_error(self, tmp_path):
        import sqlite3

        from repro.ingest import ConnectorError, read_pg_stat_table

        path = tmp_path / "empty.db"
        sqlite3.connect(str(path)).close()
        with pytest.raises(ConnectorError):
            read_pg_stat_table(str(path))

    def test_aggregated_record_count_folds_into_frequency(self):
        from repro.ingest import LogRecord

        log = WorkloadLog()
        log.add(LogRecord(statement="SELECT 1", count=5, duration_ms=50.0))
        log.add(LogRecord(statement="SELECT 1", count=2, duration_ms=4.0))
        entry = log.entries()[0]
        assert entry.frequency == 7
        assert entry.total_duration_ms == 54.0
        assert entry.mean_duration_ms == pytest.approx(54.0 / 7)
