"""Connector round-trip: live introspection ≡ the offline ContextBuilder path.

The live-source promise is that connecting to a database is *the same
computation* as handing sqlcheck the equivalent offline inputs.  These
tests pin the two halves: (1) a SQLite file created from DDL introspects
to the catalog the offline ``ContextBuilder`` path builds from that DDL,
because the connector replays ``sqlite_master``'s stored DDL through the
same ``DDLBuilder``; (2) its rows profile exactly as the same rows handed
to the profiler directly.
"""
from __future__ import annotations

import sqlite3

import pytest

from repro.catalog.ddl_builder import DDLBuilder
from repro.context.builder import ContextBuilder
from repro.ingest import SQLiteConnector
from repro.profiler.profiler import DataProfiler

DDL = [
    "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, label VARCHAR(40) NOT NULL)",
    "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY, "
    "tenant_id INTEGER REFERENCES tenant(tenant_id), name VARCHAR(30))",
    "CREATE INDEX idx_q_name ON questionnaire(name)",
]

TENANT_ROWS = [{"tenant_id": i, "label": f"t{i}"} for i in range(25)]
QUESTIONNAIRE_ROWS = [
    {"q_id": i, "tenant_id": i % 25, "name": f"q{i}"} for i in range(60)
]

QUERIES = [
    "SELECT * FROM tenant",
    "SELECT q.name FROM questionnaire q JOIN tenant t ON t.tenant_id = q.tenant_id",
]


@pytest.fixture
def sqlite_db(tmp_path):
    path = tmp_path / "app.db"
    connection = sqlite3.connect(str(path))
    for statement in DDL:
        connection.execute(statement)
    connection.executemany(
        "INSERT INTO tenant VALUES (?, ?)",
        [(r["tenant_id"], r["label"]) for r in TENANT_ROWS],
    )
    connection.executemany(
        "INSERT INTO questionnaire VALUES (?, ?, ?)",
        [(r["q_id"], r["tenant_id"], r["name"]) for r in QUESTIONNAIRE_ROWS],
    )
    connection.commit()
    connection.close()
    return path


def test_sqlite_connector_matches_offline_ddl_catalog(sqlite_db):
    offline = ContextBuilder().build(DDL + QUERIES, source="app")
    with SQLiteConnector(sqlite_db) as connector:
        live = connector.schema()
        assert sorted(live.tables) == sorted(offline.schema.tables)
        for key, live_table in live.tables.items():
            assert live_table == offline.schema.tables[key]


def test_sqlite_profiles_match_offline_profiles(sqlite_db):
    """Same DDL + rows → the profiles the profiler gives the rows directly."""
    profiler = DataProfiler()
    with SQLiteConnector(sqlite_db) as sqlite_connector:
        sqlite_profiles = sqlite_connector.profiles(profiler)
    builder = DDLBuilder()
    for statement in DDL:
        builder.apply(statement)
    rows = {"tenant": TENANT_ROWS, "questionnaire": QUESTIONNAIRE_ROWS}
    offline_profiles = {
        name: profiler.profile_rows(table.name, rows[name], definition=table)
        for name, table in builder.schema.tables.items()
    }
    assert sorted(sqlite_profiles) == sorted(offline_profiles)
    for name, live in sqlite_profiles.items():
        expected = offline_profiles[name]
        assert live.row_count == expected.row_count
        assert live.definition == expected.definition
        assert live.columns == expected.columns
