"""Schema facts are scoped to one detection run, not to the context.

A context can outlive a run while its schema changes: ``ALTER TABLE`` on
the live database followed by ``ContextBuilder.refresh_data`` re-introspects
it, and ``ContextBuilder.extend`` applies new DDL to the context's schema
in place.  The next run over the reused context must then detect exactly
what a freshly built context does — here an unindexed ``users.email`` that
only exists after the change, reached through bare-column resolution.

The reverse holds too: the parse cache keeps each CREATE TABLE's table,
and DDL applied to one context's schema must not reach it, so a later
build of the same workload starts from the tables the DDL defines.
"""
from __future__ import annotations

from repro.detector import APDetector
from repro.model.antipatterns import AntiPattern
from repro.testkit import detection_bytes
from repro.workloads.sqlite import sqlite_database

DDL = [
    "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40))",
    "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
    "user_id INTEGER REFERENCES users(id), total INTEGER)",
]
QUERY = "SELECT o.id FROM orders o JOIN users u ON o.user_id = u.id WHERE email = 'a@b.c'"
ADD_EMAIL = "ALTER TABLE users ADD COLUMN email VARCHAR(80)"
INDEX_NAME = "CREATE INDEX idx_users_name ON users (name)"
CHECK_NAME = "ALTER TABLE users ADD CONSTRAINT chk_name CHECK (name IN ('a', 'b'))"


def _underuses_email(report) -> bool:
    return any(
        d.anti_pattern is AntiPattern.INDEX_UNDERUSE
        and (d.table, d.column) == ("users", "email")
        for d in report.detections
    )


def test_engine_alter_then_refresh_matches_a_fresh_context():
    database = sqlite_database(DDL, {"users": [{"id": i, "name": f"n{i}"} for i in range(50)]})
    detector = APDetector()
    context = detector._builder.build(DDL + [QUERY], database=database)
    assert not _underuses_email(detector.detect_in_context(context))

    database.execute(ADD_EMAIL)
    detector._builder.refresh_data(context)
    reused = detector.detect_in_context(context)
    fresh = APDetector().detect(DDL + [QUERY], database=database)
    assert _underuses_email(reused)
    assert detection_bytes(reused) == detection_bytes(fresh)


def test_extend_with_ddl_matches_a_fresh_context():
    detector = APDetector()
    context = detector._builder.build(DDL + [QUERY])
    assert not _underuses_email(detector.detect_in_context(context))

    detector._builder.extend(context, [ADD_EMAIL, QUERY])
    reused = detector.detect_in_context(context)
    fresh = APDetector().detect(DDL + [QUERY, ADD_EMAIL, QUERY])
    assert _underuses_email(reused)
    assert detection_bytes(reused) == detection_bytes(fresh)


def test_extend_with_ddl_leaves_the_cached_tables_alone():
    detector = APDetector()
    context = detector._builder.build(DDL + [QUERY])
    detector._builder.extend(context, [ADD_EMAIL, INDEX_NAME, CHECK_NAME])
    users = context.schema.get_table("users")
    assert users.has_column("email") and "idx_users_name" in users.indexes
    assert users.get_column("name").check_values == ("a", "b")

    rebuilt = detector._builder.build(DDL + [QUERY])
    assert detector.annotation_cache.stats.hits == len(DDL) + 1
    users = rebuilt.schema.get_table("users")
    assert not users.has_column("email")
    assert not users.indexes
    assert not users.checks
    name = users.get_column("name")
    assert not name.has_check and name.check_values == ()
    report = detector.detect_in_context(rebuilt)
    assert not _underuses_email(report)
    assert detection_bytes(report) == detection_bytes(APDetector().detect(DDL + [QUERY]))
