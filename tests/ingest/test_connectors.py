"""Connector tests: URL resolution, SQLite introspection, row access."""
from __future__ import annotations

import gc
import sqlite3
import weakref

import pytest

from repro.context.builder import build_context
from repro.ingest import (
    ConnectorError,
    SQLiteConnector,
    connect,
)

DDL = [
    "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, label VARCHAR(40) NOT NULL)",
    "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY, "
    "tenant_id INTEGER REFERENCES tenant(tenant_id), name VARCHAR(30))",
    "CREATE INDEX idx_q_name ON questionnaire(name)",
]

TENANT_ROWS = [{"tenant_id": i, "label": f"t{i}"} for i in range(12)]


@pytest.fixture
def sqlite_path(tmp_path):
    path = tmp_path / "app.db"
    connection = sqlite3.connect(str(path))
    for statement in DDL:
        connection.execute(statement)
    connection.executemany(
        "INSERT INTO tenant VALUES (?, ?)",
        [(row["tenant_id"], row["label"]) for row in TENANT_ROWS],
    )
    connection.commit()
    connection.close()
    return path


class TestConnect:
    def test_sqlite_url_and_bare_path(self, sqlite_path):
        for target in (f"sqlite:///{sqlite_path}", str(sqlite_path), sqlite_path):
            connector = connect(target)
            assert isinstance(connector, SQLiteConnector)
            assert connector.schema().has_table("tenant")
            connector.close()

    def test_open_sqlite_connection(self, sqlite_path):
        connection = sqlite3.connect(str(sqlite_path))
        connector = connect(connection)
        assert isinstance(connector, SQLiteConnector)
        assert connector.schema().has_table("questionnaire")
        connection.close()

    def test_server_engines_point_at_log_ingestion(self):
        for url in (
            "postgres://h/db",
            "postgresql://h/db",
            "mysql://h/db",
            # SQLAlchemy/Django-style driver-qualified URLs
            "postgresql+psycopg2://h/db",
            "mysql+pymysql://h/db",
        ):
            with pytest.raises(ConnectorError, match="--log"):
                connect(url)

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConnectorError):
            connect(str(tmp_path / "nope.db"))

    def test_directory_path_raises_connector_error(self, tmp_path):
        directory = tmp_path / "data.db"
        directory.mkdir()
        with pytest.raises(ConnectorError, match="open"):
            connect(str(directory))

    def test_existing_non_sqlite_file_raises_connector_error(self, tmp_path):
        """Any existing path resolves to the SQLite connector, so a
        non-database file must fail as a ConnectorError (which the CLI and
        REST surfaces report cleanly), never a raw sqlite3 traceback."""
        path = tmp_path / "README.md"
        path.write_text("# not a database\n", encoding="utf-8")
        connector = connect(str(path))
        with pytest.raises(ConnectorError, match="catalog"):
            connector.schema()
        connector.close()

    def test_memory_url_is_rejected(self):
        with pytest.raises(ConnectorError, match="sqlite3.Connection"):
            connect("sqlite::memory:")


class TestRelease:
    def test_a_dropped_context_closes_the_file_it_opened(self, sqlite_path):
        """With the collector off, dropping a context built from a path
        frees its connector, and the connector closes the file it opened:
        neither waits for a garbage collection."""
        gc.disable()
        try:
            context = build_context(["SELECT * FROM tenant"], database=str(sqlite_path))
            connector = context.database
            assert isinstance(connector, SQLiteConnector)
            assert connector.get_table("tenant").row_count == len(TENANT_ROWS)
            alive, connection = weakref.ref(connector), connector._connection
            del context, connector
            assert alive() is None
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                connection.execute("SELECT 1")
        finally:
            gc.enable()

    def test_a_callers_connection_stays_open(self, sqlite_path):
        connection = sqlite3.connect(str(sqlite_path))
        gc.disable()
        try:
            context = build_context(["SELECT * FROM tenant"], database=connection)
            alive = weakref.ref(context.database)
            del context
            assert alive() is None
        finally:
            gc.enable()
        assert connection.execute("SELECT COUNT(*) FROM tenant").fetchone() == (12,)
        connection.close()


class TestSQLiteIntrospection:
    def test_catalog_matches_stored_ddl(self, sqlite_path):
        with connect(sqlite_path) as connector:
            schema = connector.schema()
            assert sorted(t.lower() for t in schema.table_names) == [
                "questionnaire", "tenant",
            ]
            tenant = schema.get_table("tenant")
            assert tenant.primary_key_columns == ("tenant_id",)
            questionnaire = schema.get_table("questionnaire")
            assert questionnaire.has_foreign_keys
            assert "idx_q_name" in questionnaire.indexes

    def test_rows_and_profiles(self, sqlite_path):
        with connect(sqlite_path) as connector:
            rows = connector.table_rows("tenant")
            assert rows == TENANT_ROWS
            profiles = connector.profiles()
            assert profiles["tenant"].row_count == len(TENANT_ROWS)
            assert profiles["questionnaire"].row_count == 0

    def test_schema_is_cached_until_refresh(self, sqlite_path):
        with connect(sqlite_path) as connector:
            first = connector.schema()
            assert connector.schema() is first
            assert connector.refresh() is not first

    def test_get_table_serves_data_rules(self, sqlite_path):
        with connect(sqlite_path) as connector:
            stored = connector.get_table("tenant")
            assert stored.all_rows() == TENANT_ROWS
            assert stored.row_count == len(TENANT_ROWS)
            assert connector.get_table("nope") is None

    def test_rows_are_fetched_once_per_scan(self, sqlite_path):
        """Profiling and the data rules share one fetch per table: the
        per-connector table cache must make ``table_rows`` run at most once
        per table, and ``refresh()`` must invalidate it."""
        with connect(sqlite_path) as connector:
            calls: "list[str]" = []
            fetch = connector.table_rows
            connector.table_rows = lambda name: (calls.append(name.lower()), fetch(name))[1]
            connector.profiles()
            connector.get_table("tenant").all_rows()
            connector.get_table("tenant").all_rows()
            assert sorted(calls) == ["questionnaire", "tenant"]
            assert connector.get_table("tenant") is connector.get_table("tenant")
            connector.refresh()
            connector.get_table("tenant").all_rows()
            assert sorted(calls) == ["questionnaire", "tenant", "tenant"]

    def test_pragma_fallback_for_unparsed_ddl(self, tmp_path, monkeypatch):
        path = tmp_path / "weird.db"
        connection = sqlite3.connect(str(path))
        connection.execute("CREATE TABLE plain (pk_col INTEGER PRIMARY KEY, note TEXT)")
        connection.close()
        connector = SQLiteConnector(path)
        # Pretend the stored DDL was unusable: the PRAGMA path must still
        # recover the table shape.
        monkeypatch.setattr(
            connector, "master_entries", lambda: [("table", "plain", None)]
        )
        schema = connector.schema()
        table = schema.get_table("plain")
        assert table is not None
        assert [c.lower() for c in table.column_names] == ["pk_col", "note"]
        assert table.primary_key_columns == ("pk_col",)
        connector.close()


class TestSamplingPushDown:
    def test_sqlite_limit_is_pushed_into_the_query(self, sqlite_path):
        with SQLiteConnector(sqlite_path) as connector:
            sample = connector.table_rows("tenant", limit=5)
            assert len(sample) == 5
            # Sampled rows are real rows.
            ids = {row["tenant_id"] for row in sample}
            assert ids <= {row["tenant_id"] for row in TENANT_ROWS}
            assert connector.table_row_count("tenant") == len(TENANT_ROWS)

    def test_sqlite_count_does_not_fetch_rows(self, sqlite_path):
        with SQLiteConnector(sqlite_path) as connector:
            assert connector.table_row_count("questionnaire") == 0
            with pytest.raises(ConnectorError):
                connector.table_row_count("missing")

    def test_profiles_sample_large_tables_only(self, sqlite_path):
        with SQLiteConnector(sqlite_path) as connector:
            profiles = connector.profiles(sample_limit=5)
            # tenant (12 rows) is sampled down; the profile sees ≤ 5 rows.
            assert profiles["tenant"].row_count <= 5
            # The full-row cache must not have been populated with a sample.
            assert connector.get_table("tenant").row_count == len(TENANT_ROWS)

    def test_profiles_without_limit_fetch_everything(self, sqlite_path):
        with SQLiteConnector(sqlite_path) as connector:
            profiles = connector.profiles()
            assert profiles["tenant"].row_count == len(TENANT_ROWS)

    def test_profiles_exclude_telemetry_tables(self, sqlite_path):
        with SQLiteConnector(sqlite_path) as connector:
            profiles = connector.profiles(exclude=("Tenant",))
            assert "tenant" not in profiles
            assert "questionnaire" in profiles

    def test_scan_with_sample_limit_matches_schema_findings(self, sqlite_path):
        """Sampling changes profiling inputs, never the schema analysis: a
        scan with a tiny sample still reports the same schema-level
        findings as the full fetch."""
        from repro.ingest import LiveScanner

        full = LiveScanner().scan(str(sqlite_path), ["SELECT * FROM tenant"])
        sampled = LiveScanner().scan(
            str(sqlite_path), ["SELECT * FROM tenant"], sample_limit=3
        )
        schema_aps = lambda report: sorted(
            e.detection.anti_pattern.value
            for e in report
            if e.detection.detection_mode != "data"
        )
        assert schema_aps(full) == schema_aps(sampled)

    def test_scan_sample_limit_caps_data_rule_row_fetches(self, sqlite_path, monkeypatch):
        """The cap must hold for every fetch in the scan: rows pulled later
        by data rules through get_table() stay sampled too."""
        from repro.core.sqlcheck import SQLCheck
        from repro.ingest import LiveScanner, SQLiteConnector

        # Read the table the way a data rule does, while the rules run.
        seen: "list[int]" = []
        original = SQLCheck.check_context

        def check_context(self, context, **kwargs):
            seen.append(context.database.get_table("tenant").row_count)
            return original(self, context, **kwargs)

        monkeypatch.setattr(SQLCheck, "check_context", check_context)
        with SQLiteConnector(sqlite_path) as connector:
            LiveScanner().scan(connector, ["SELECT * FROM tenant"], sample_limit=4)
        assert seen == [4]

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE w (k INTEGER PRIMARY KEY, v TEXT) WITHOUT ROWID",
            "CREATE TABLE w (rowid TEXT, oid TEXT, k INTEGER, v TEXT)",
        ],
        ids=["without-rowid", "shadowed-rowid"],
    )
    def test_sqlite_sample_without_a_usable_rowid(self, tmp_path, ddl):
        path = tmp_path / "w.db"
        connection = sqlite3.connect(str(path))
        connection.execute(ddl)
        connection.executemany(
            "INSERT INTO w (k, v) VALUES (?, ?)", [(i, f"v{i}") for i in range(30)]
        )
        connection.commit()
        connection.close()
        with SQLiteConnector(path) as first, SQLiteConnector(path) as second:
            sample = first.table_rows("w", limit=5)
            assert len(sample) == 5
            assert len({row["k"] for row in sample}) == 5
            assert sample == second.table_rows("w", limit=5)
            assert [row["k"] for row in sample] == sorted(row["k"] for row in sample)


def _spy_all_rows(monkeypatch, connected_table) -> "dict[str, list[list]]":
    """Record every row list ``ConnectedTable.all_rows`` serves, by table."""
    served: "dict[str, list[list]]" = {}
    original = connected_table.all_rows

    def all_rows(self):
        rows = original(self)
        served.setdefault(self.name.lower(), []).append(rows)
        return rows

    monkeypatch.setattr(connected_table, "all_rows", all_rows)
    return served


@pytest.fixture
def large_sqlite_path(tmp_path):
    """2,000 rows, with columns whose data-rule verdicts and messages move
    with the sampled rows: half the tags are id lists, ~60% of orgs share
    one long value."""
    import random

    rng = random.Random(3)
    path = tmp_path / "large.db"
    connection = sqlite3.connect(str(path))
    connection.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(40), tags TEXT, "
        "org VARCHAR(60), price FLOAT)"
    )
    orgs = ("Globex Inc", "Initech LLC", "Umbrella plc")
    connection.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
        [
            (
                i,
                f"n{i}",
                ",".join(f"T{rng.randrange(50)}" for _ in range(rng.randrange(1, 4)))
                if i % 2 else f"tag {i}",
                "Acme Corporation Ltd" if rng.random() < 0.6 else rng.choice(orgs),
                rng.random() * 100,
            )
            for i in range(2000)
        ],
    )
    connection.commit()
    connection.close()
    return path


class TestSampledScanReproducibility:
    """A capped scan draws one seeded sample per table, shares it between
    the profiler and the data rules, and leaves no cap behind."""

    WORKLOAD = ["SELECT * FROM t", "SELECT name FROM t WHERE tags LIKE '%T1%'"]

    def _sarif(self, target, sample_limit=None) -> str:
        from repro import LiveScanner, render_report

        scanner = LiveScanner()
        report = scanner.scan(target, self.WORKLOAD, sample_limit=sample_limit)
        return render_report(report, "sarif", registry=scanner.toolchain.registry)

    def test_two_sampled_scans_give_identical_sarif(self, large_sqlite_path):
        with SQLiteConnector(large_sqlite_path) as first:
            one = self._sarif(first, sample_limit=50)
        with SQLiteConnector(large_sqlite_path) as second:
            two = self._sarif(second, sample_limit=50)
        assert one == two
        assert '"denormalized_table"' in one

    def test_profiled_rows_are_the_rows_the_data_rules_see(
        self, large_sqlite_path, monkeypatch
    ):
        from repro.ingest.connectors import ConnectedTable
        from repro.profiler import DataProfiler

        profiled: "dict[str, list]" = {}
        original = DataProfiler.profile_rows

        def profile_rows(self, table_name, rows, definition=None):
            profiled[table_name.lower()] = list(rows)
            return original(self, table_name, rows, definition=definition)

        monkeypatch.setattr(DataProfiler, "profile_rows", profile_rows)
        served = _spy_all_rows(monkeypatch, ConnectedTable)
        with SQLiteConnector(large_sqlite_path) as connector:
            self._sarif(connector, sample_limit=50)
        assert len(profiled["t"]) == 50
        # the profiler's read plus at least one data rule's
        assert len(served["t"]) >= 2
        assert all(rows == profiled["t"] for rows in served["t"])

    def test_unsampled_scan_after_a_sampled_one_sees_every_row(
        self, large_sqlite_path, monkeypatch
    ):
        from repro.ingest.connectors import ConnectedTable

        with SQLiteConnector(large_sqlite_path) as connector:
            self._sarif(connector, sample_limit=50)
            assert connector.sample_limit is None
            served = _spy_all_rows(monkeypatch, ConnectedTable)
            self._sarif(connector)
        assert served["t"] and all(len(rows) == 2000 for rows in served["t"])
