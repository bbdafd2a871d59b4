"""Table 8 — feature comparison between sqlcheck and a physical-design tuning
advisor (Microsoft DETA).

Table 8 is a qualitative capability matrix.  The benchmark verifies that the
capabilities the paper claims for sqlcheck are actually exercised by this
implementation (each ✓ row is backed by a concrete end-to-end check), and
prints the matrix.
"""
from __future__ import annotations

import pytest

from repro.core import SQLCheck
from repro.fixer import FixKind
from repro.model import AntiPattern
from repro.workloads.sqlite import sqlite_database

from ._helpers import print_table

#: (feature, DETA, sqlcheck) — the rows of Table 8.
TABLE8 = [
    ("Index creation/destruction suggestions", True, True),
    ("Type of index to create based on workload", True, False),
    ("Materialized view creation/destruction suggestions", True, False),
    ("Suggestions tailored to hardware constraints", True, False),
    ("Table partitioning suggestions", True, False),
    ("Column type suggestions based on data", False, True),
    ("Query refactoring suggestions", False, True),
    ("Alternate logical schema design suggestions", False, True),
    ("Logical errors that may invalidate data integrity", False, True),
]


def _exercise_sqlcheck_capabilities():
    """Return which sqlcheck-side capabilities this implementation demonstrates."""
    toolchain = SQLCheck()
    capabilities = {}

    # Index creation/destruction suggestions.
    report = toolchain.check(
        "CREATE TABLE T (t_id INTEGER PRIMARY KEY, category VARCHAR(20), b INTEGER);"
        "CREATE INDEX idx_b ON T (b);"
        "SELECT * FROM T WHERE category = 'x';"
    )
    statements = [s for fix in report.fixes for s in fix.statements]
    capabilities["Index creation/destruction suggestions"] = any(
        s.startswith("CREATE INDEX") for s in statements
    ) and any(s.startswith("DROP INDEX") for s in statements)

    # Column type suggestions based on data.
    db = sqlite_database(
        ["CREATE TABLE R (r_key INTEGER PRIMARY KEY, year_text TEXT)"],
        {"R": [{"r_key": i, "year_text": str(1990 + i % 20)} for i in range(60)]},
    )
    data_report = toolchain.check((), database=db)
    capabilities["Column type suggestions based on data"] = any(
        fix.detection.anti_pattern is AntiPattern.INCORRECT_DATA_TYPE and "ALTER TABLE" in " ".join(fix.statements)
        for fix in data_report.fixes
    )

    # Query refactoring suggestions.
    rewrite_report = toolchain.check(
        "CREATE TABLE P (p_id INTEGER PRIMARY KEY, name VARCHAR(20)); INSERT INTO P VALUES (1, 'x');"
    )
    capabilities["Query refactoring suggestions"] = any(
        fix.kind is FixKind.REWRITE and fix.rewritten_query for fix in rewrite_report.fixes
    )

    # Alternate logical schema design suggestions.
    schema_report = toolchain.check(
        "CREATE TABLE Tenants (Tenant_ID VARCHAR(8) PRIMARY KEY, User_IDs TEXT);"
        "SELECT * FROM Tenants WHERE User_IDs LIKE '%U1%';"
    )
    capabilities["Alternate logical schema design suggestions"] = any(
        fix.detection.anti_pattern is AntiPattern.MULTI_VALUED_ATTRIBUTE
        and any("CREATE TABLE" in s for s in fix.statements)
        for fix in schema_report.fixes
    )

    # Logical errors that may invalidate data integrity.
    integrity_report = toolchain.check(
        "CREATE TABLE A (a_id INTEGER PRIMARY KEY);"
        "CREATE TABLE B (b_id INTEGER PRIMARY KEY, a_id INTEGER);"
        "SELECT * FROM B b JOIN A a ON a.a_id = b.a_id;"
    )
    capabilities["Logical errors that may invalidate data integrity"] = any(
        entry.anti_pattern in (AntiPattern.NO_FOREIGN_KEY, AntiPattern.NO_PRIMARY_KEY)
        for entry in integrity_report.detections
    )
    return capabilities


def test_table8_feature_matrix(benchmark):
    capabilities = benchmark.pedantic(_exercise_sqlcheck_capabilities, rounds=1, iterations=1)
    rows = [
        [feature, "yes" if deta else "no", "yes" if sqlcheck else "no"]
        for feature, deta, sqlcheck in TABLE8
    ]
    print_table("Table 8: sqlcheck vs DETA capability matrix", ["feature", "DETA", "sqlcheck"], rows)
    # Every sqlcheck ✓ that this reproduction can demonstrate end-to-end must hold.
    for feature, verified in capabilities.items():
        assert verified, f"capability not demonstrated: {feature}"
    # sqlcheck and DETA are complementary: neither dominates the other.
    assert any(deta and not s for _, deta, s in TABLE8)
    assert any(s and not deta for _, deta, s in TABLE8)
