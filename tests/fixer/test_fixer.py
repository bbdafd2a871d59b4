"""Unit tests for ap-fix (fix rules and the repair engine)."""
from __future__ import annotations

import pytest

from repro.context import build_context
from repro.core import SQLCheck
from repro.fixer import APFixer, FixKind, QueryRepairEngine
from repro.fixer.fix_rules import FixRule, default_fix_rules
from repro.model import AntiPattern, Detection
from repro.workloads.sqlite import sqlite_database


def fixes_for(sql: str, database=None):
    """Run the full pipeline and return {anti_pattern: fix}."""
    toolchain = SQLCheck()
    context = toolchain._builder.build(sql, database=database)
    report = toolchain.check_context(context)
    return {fix.detection.anti_pattern: fix for fix in report.fixes}


class TestFixRuleCoverage:
    def test_every_anti_pattern_has_a_fix_rule(self):
        covered = {rule.anti_pattern for rule in default_fix_rules()}
        assert covered == set(AntiPattern)

    def test_unknown_detection_gets_generic_textual_fix(self):
        engine = QueryRepairEngine(rules=[])
        fix = engine.repair(Detection(anti_pattern=AntiPattern.GOD_TABLE, query="q"), build_context())
        assert fix.kind is FixKind.TEXTUAL
        assert "God Table" in fix.explanation

    def test_register_custom_rule(self):
        class CustomFix(FixRule):
            anti_pattern = AntiPattern.GOD_TABLE

            def build(self, detection, context):
                return self.textual(detection, "custom advice")

        engine = QueryRepairEngine(rules=[])
        engine.register(CustomFix())
        fix = engine.repair(Detection(anti_pattern=AntiPattern.GOD_TABLE), build_context())
        assert fix.explanation == "custom advice"


class TestConcreteFixes:
    def test_multi_valued_attribute_creates_intersection_table(self):
        sql = (
            "CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, User_IDs TEXT);"
            "CREATE TABLE Users (User_ID VARCHAR(10) PRIMARY KEY, Name VARCHAR(40));"
            "SELECT * FROM Tenants WHERE User_IDs LIKE '%U1%';"
        )
        fix = fixes_for(sql)[AntiPattern.MULTI_VALUED_ATTRIBUTE]
        assert fix.kind is FixKind.REWRITE
        assert any("CREATE TABLE" in s for s in fix.statements)
        assert any("DROP COLUMN User_IDs" in s for s in fix.statements)
        assert "REFERENCES Users" in " ".join(fix.statements)

    def test_no_foreign_key_fix_adds_constraint_and_index(self):
        sql = (
            "CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY);"
            "CREATE TABLE Q (Q_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER);"
            "SELECT * FROM Q q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID;"
        )
        fix = fixes_for(sql)[AntiPattern.NO_FOREIGN_KEY]
        joined = " ".join(fix.statements)
        assert "FOREIGN KEY" in joined
        assert "CREATE INDEX" in joined

    def test_enumerated_types_fix_builds_reference_table(self):
        sql = "CREATE TABLE U (u_id INTEGER PRIMARY KEY, Role VARCHAR(4) CHECK (Role IN ('R1','R2','R3')))"
        fix = fixes_for(sql)[AntiPattern.ENUMERATED_TYPES]
        joined = " ".join(fix.statements)
        assert "CREATE TABLE Role" in joined
        assert "'R1'" in joined and "'R3'" in joined
        assert "DROP COLUMN Role" in joined

    def test_column_wildcard_rewrites_projection(self):
        sql = "CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR(5)); SELECT * FROM T;"
        fix = fixes_for(sql)[AntiPattern.COLUMN_WILDCARD]
        assert fix.rewritten_query is not None
        assert "SELECT a, b" in fix.rewritten_query

    def test_implicit_columns_rewrite_uses_schema(self):
        sql = "CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR(5)); INSERT INTO T VALUES (1, 'x');"
        fix = fixes_for(sql)[AntiPattern.IMPLICIT_COLUMNS]
        assert fix.kind is FixKind.REWRITE
        assert "(a, b)" in fix.rewritten_query

    def test_implicit_columns_without_schema_is_textual(self):
        fix = fixes_for("INSERT INTO Mystery VALUES (1)")[AntiPattern.IMPLICIT_COLUMNS]
        assert fix.kind is FixKind.TEXTUAL

    def test_index_underuse_fix_creates_index(self):
        sql = (
            "CREATE TABLE T (t_id INTEGER PRIMARY KEY, category VARCHAR(20));"
            "SELECT * FROM T WHERE category = 'x';"
        )
        fix = fixes_for(sql)[AntiPattern.INDEX_UNDERUSE]
        assert any(s.startswith("CREATE INDEX") for s in fix.statements)

    def test_index_overuse_fix_drops_index(self):
        sql = (
            "CREATE TABLE T (t_id INTEGER PRIMARY KEY, a INTEGER, b INTEGER);"
            "CREATE INDEX idx_b ON T (b);"
            "SELECT * FROM T WHERE a = 1;"
        )
        fix = fixes_for(sql)[AntiPattern.INDEX_OVERUSE]
        assert any(s.startswith("DROP INDEX") for s in fix.statements)

    def test_rounding_errors_fix_changes_type(self):
        fix = fixes_for("CREATE TABLE T (t_id INT PRIMARY KEY, price FLOAT)")[AntiPattern.ROUNDING_ERRORS]
        assert "NUMERIC" in fix.statements[0]

    def test_concatenate_nulls_fix_wraps_in_coalesce(self):
        fix = fixes_for("SELECT first || last FROM T")[AntiPattern.CONCATENATE_NULLS]
        assert fix.rewritten_query is not None
        assert "COALESCE(first, '')" in fix.rewritten_query

    def test_no_primary_key_fix_uses_unique_column_from_data(self):
        db = sqlite_database(
            ["CREATE TABLE NoKey (code VARCHAR(10), label VARCHAR(10))"],
            {"NoKey": [{"code": f"C{i}", "label": "x"} for i in range(30)]},
        )
        fixes = fixes_for("", database=db)
        fix = fixes[AntiPattern.NO_PRIMARY_KEY]
        assert fix.kind is FixKind.REWRITE
        assert "ADD PRIMARY KEY (code)" in fix.statements[0]

    def test_missing_timezone_fix(self):
        db = sqlite_database(
            ["CREATE TABLE L (l_id INTEGER PRIMARY KEY, seen_at TIMESTAMP)"],
            {"L": [{"l_id": i, "seen_at": "2020-01-01 10:00:00"} for i in range(10)]},
        )
        fix = fixes_for("", database=db)[AntiPattern.MISSING_TIMEZONE]
        assert "WITH TIME ZONE" in fix.statements[0]

    def test_impacted_queries_are_listed(self):
        sql = (
            "CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, User_IDs TEXT);"
            "SELECT * FROM Tenants WHERE User_IDs LIKE '%U1%';"
            "UPDATE Tenants SET User_IDs = 'U9' WHERE Tenant_ID = 'T1';"
        )
        fix = fixes_for(sql)[AntiPattern.MULTI_VALUED_ATTRIBUTE]
        assert any("UPDATE Tenants" in q for q in fix.impacted_queries)

    def test_fix_to_dict(self):
        fix = fixes_for("SELECT * FROM t ORDER BY RAND()")[AntiPattern.ORDERING_BY_RAND]
        payload = fix.to_dict()
        assert payload["anti_pattern"] == "ordering_by_rand"
        assert payload["kind"] in ("rewrite", "textual")


class TestAPFixer:
    def test_fix_accepts_plain_detections(self):
        fixer = APFixer()
        detections = [Detection(anti_pattern=AntiPattern.GOD_TABLE, table="t")]
        fixes = fixer.fix(detections)
        assert len(fixes) == 1

    def test_fix_one(self):
        fix = APFixer().fix_one(Detection(anti_pattern=AntiPattern.PATTERN_MATCHING, column="c"))
        assert fix.kind is FixKind.TEXTUAL
