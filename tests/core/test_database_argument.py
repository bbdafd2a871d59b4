"""Every ``database=`` argument takes the connector path ``scan`` takes.

``SQLCheck.check``, ``APDetector.detect`` and ``find_anti_patterns`` accept
what ``repro.ingest.connect`` accepts — an open ``sqlite3.Connection``, a
``.db`` path, a ``sqlite:///`` URL, a ``SQLiteConnector`` — and find what
``scan`` finds over the same database and workload, undegraded.  A
caller's connection keeps its ``row_factory`` through all of them.
"""
from __future__ import annotations

import json
import sqlite3

import pytest

from repro import APDetector, SQLCheck, find_anti_patterns
from repro.context import ContextBuilder
from repro.ingest import SQLiteConnector, scan
from repro.model import AntiPattern
from repro.workloads.sqlite import insert_rows

DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, tags TEXT)"
ROWS = [{"id": i, "tags": "a,b,c"} for i in range(50)]
QUERIES = ["SELECT * FROM t"]
TARGETS = ("connection", "path", "url", "connector")


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "app.db"
    connection = sqlite3.connect(path)
    connection.execute(DDL)
    insert_rows(connection, "t", ROWS)
    connection.commit()
    connection.close()
    return path


def _target(kind: str, path):
    return {
        "connection": lambda: sqlite3.connect(path),
        "path": lambda: str(path),
        "url": lambda: f"sqlite:///{path}",
        "connector": lambda: SQLiteConnector(path),
    }[kind]()


def _report_bytes(report) -> str:
    """A report's findings, ranks, scores, fixes and errors (no timings)."""
    payload = report.to_dict()
    del payload["stats"]
    return json.dumps(payload, sort_keys=True, default=str)


def _dicts(detections, *unset: str) -> "list[dict]":
    """Detection dicts without the fields in ``unset``."""
    return [{k: v for k, v in d.to_dict().items() if k not in unset} for d in detections]


@pytest.fixture
def scanned(db_path):
    report = scan(sqlite3.connect(db_path), QUERIES, source="app")
    assert not report.errors
    # The multi-valued tags column is found from the data, not the query.
    assert AntiPattern.MULTI_VALUED_ATTRIBUTE in report.anti_patterns()
    assert report.tables_analyzed == 1
    return report


@pytest.mark.parametrize("kind", TARGETS)
def test_check_equals_scan(kind, db_path, scanned):
    report = SQLCheck().check(QUERIES, database=_target(kind, db_path), source="app")
    assert not report.degraded
    assert _report_bytes(report) == _report_bytes(scanned)


@pytest.mark.parametrize("kind", TARGETS)
def test_detect_equals_scan(kind, db_path, scanned):
    report = APDetector().detect(QUERIES, database=_target(kind, db_path), source="app")
    assert not report.errors
    assert (report.queries_analyzed, report.tables_analyzed) == (
        scanned.queries_analyzed,
        scanned.tables_analyzed,
    )
    # Detection order and scores are the ranker's; detect does not rank.
    assert sorted(_dicts(report.detections, "score"), key=json.dumps) == sorted(
        _dicts((e.detection for e in scanned), "score"), key=json.dumps
    )


@pytest.mark.parametrize("kind", TARGETS)
def test_find_anti_patterns_equals_scan(kind, db_path):
    found = find_anti_patterns(QUERIES, database=_target(kind, db_path))
    scanned = scan(sqlite3.connect(db_path), QUERIES)
    # A scan labels its findings with the database's name; the finder has no label.
    assert _dicts(found, "source") == _dicts((e.detection for e in scanned), "source")


def test_a_run_closes_only_the_connections_it_opened(db_path, monkeypatch):
    closed = []
    close = SQLiteConnector.close
    monkeypatch.setattr(
        SQLiteConnector, "close", lambda self: closed.append(self._owns_connection) or close(self)
    )
    SQLCheck().check(QUERIES, database=str(db_path))
    APDetector().detect(QUERIES, database=f"sqlite:///{db_path}")
    scan(str(db_path), QUERIES)
    assert closed == [True, True, True]

    connection = sqlite3.connect(db_path)
    connector = SQLiteConnector(db_path)
    closed.clear()
    for database in (connection, connector):
        SQLCheck().check(QUERIES, database=database)
        scan(database, QUERIES)
    assert closed == [False, False]  # the wrapper of the caller's connection closes nothing
    assert connection.execute("SELECT COUNT(*) FROM t").fetchone() == (len(ROWS),)
    assert connector.fetch_row_count("t") == len(ROWS)


@pytest.mark.parametrize(
    "factory",
    [None, sqlite3.Row, lambda cursor, row: ("custom",) + row],
    ids=["none", "sqlite3.Row", "custom"],
)
def test_a_callers_row_factory_survives(factory, db_path, scanned):
    connection = sqlite3.connect(db_path)
    connection.row_factory = factory

    assert _report_bytes(scan(connection, QUERIES, source="app")) == _report_bytes(scanned)
    report = SQLCheck().check(QUERIES, database=connection, source="app")
    assert not report.degraded
    assert _report_bytes(report) == _report_bytes(scanned)
    builder = ContextBuilder()
    context = builder.build(QUERIES, database=connection)
    builder.refresh_data(context)
    assert context.profile("t").row_count == len(ROWS)

    assert connection.row_factory is factory
    row = connection.execute("SELECT id, tags FROM t ORDER BY id").fetchone()
    if factory is None:
        assert row == (0, "a,b,c")
    elif factory is sqlite3.Row:
        assert isinstance(row, sqlite3.Row) and tuple(row) == (0, "a,b,c")
    else:
        assert row == ("custom", 0, "a,b,c")
