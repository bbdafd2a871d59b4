"""Counted contract: a warm check derives no CREATE TABLE again.

A CREATE TABLE's table is a function of the statement alone, so the parse
cache keeps it with the statement's template and each build of the schema
adds a copy of it.  Counting ``DDLBuilder._parse_column_definition`` (one
call per column definition) shows the work: a cold check parses each
column once, a repeat parses none — in-memory or from a warm persistent
file — and a script the parse cache declines still derives every run.
"""
from __future__ import annotations

import pytest

from repro import SQLCheck, SQLCheckOptions
from repro.catalog.ddl_builder import DDLBuilder
from repro.detector import DetectorConfig
from repro.sqlparser.fingerprint import MAX_CACHED_STATEMENTS

SCRIPT = """
CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), tags TEXT);
CREATE TABLE orders (id INTEGER PRIMARY KEY,
    user_id INTEGER REFERENCES users(id), total FLOAT, status VARCHAR(10));
ALTER TABLE orders ADD CONSTRAINT chk_status CHECK (status IN ('new', 'paid'));
CREATE INDEX idx_orders_status ON orders (status);
SELECT * FROM orders o JOIN users u ON o.user_id = u.id WHERE total > 10;
SELECT name FROM users WHERE tags LIKE '%admin%';
"""
#: Column definitions in SCRIPT's CREATE TABLEs.
COLUMNS = 7


@pytest.fixture
def column_parses(monkeypatch):
    """The number of ``_parse_column_definition`` calls so far."""
    calls = []
    original = DDLBuilder._parse_column_definition

    def counted(self, item):
        calls.append(item)
        return original(self, item)

    monkeypatch.setattr(DDLBuilder, "_parse_column_definition", counted)
    return lambda: len(calls)


def _payload(report) -> dict:
    payload = report.to_dict()
    payload.pop("stats")
    return payload


def test_repeat_check_parses_no_create_table_column(column_parses):
    toolchain = SQLCheck()
    cold = toolchain.check(SCRIPT)
    assert column_parses() == COLUMNS
    # The ALTER TABLE and CREATE INDEX still run, in workload order, on
    # the copied tables; the CHECK the ALTER adds must not reach the cache.
    # Each repeat clears the replay layer first, so it takes the warm
    # parse path instead of replaying the finished report.
    toolchain.replays.clear()
    warm = toolchain.check(SCRIPT)
    assert column_parses() == COLUMNS
    assert _payload(warm) == _payload(cold)
    assert warm.stats.annotation_cache_hits == 1
    toolchain.replays.clear()
    again = toolchain.check(SCRIPT)
    assert _payload(again) == _payload(cold)


def test_warm_restart_parses_no_create_table_column(tmp_path, column_parses):
    options = SQLCheckOptions(
        detector=DetectorConfig(persistent_memo_path=str(tmp_path / "memo.sqlite"))
    )
    first = SQLCheck(options)
    cold = first.check(SCRIPT)
    first.detector.close()
    before = column_parses()

    restarted = SQLCheck(options)
    warm = restarted.check(SCRIPT)
    restarted.detector.close()
    assert column_parses() == before == COLUMNS
    assert restarted.detector.persistent.hits > 0
    assert _payload(warm) == _payload(cold)


def test_script_the_cache_declines_derives_every_run(column_parses):
    tables = [
        f"CREATE TABLE t{i} (id INTEGER PRIMARY KEY, v{i} VARCHAR(20))"
        for i in range(MAX_CACHED_STATEMENTS + 1)
    ]
    script = ";\n".join(tables) + ";"
    toolchain = SQLCheck()
    toolchain.check(script)
    first = column_parses()
    assert first == 2 * len(tables)
    toolchain.check(script)
    assert column_parses() == 2 * first
    assert len(toolchain.detector.annotation_cache) == 0
