"""Integration tests for the SQLCheck toolchain facade."""
from __future__ import annotations

import json

import pytest

from repro import (
    C2,
    AntiPattern,
    DetectorConfig,
    SQLCheck,
    SQLCheckOptions,
    find_anti_patterns,
)
from repro.workloads.sqlite import sqlite_database


GLOBALEAKS_SQL = """
CREATE TABLE Users (User_ID VARCHAR(10) PRIMARY KEY, Name VARCHAR(40), Role VARCHAR(8) CHECK (Role IN ('R1','R2','R3')));
CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, Zone_ID VARCHAR(10), Active BOOLEAN, User_IDs TEXT);
SELECT * FROM Tenants WHERE User_IDs LIKE '%U1%';
INSERT INTO Tenants VALUES ('T1', 'Z1', TRUE, 'U1,U2');
"""


class TestSQLCheck:
    def test_end_to_end_report(self):
        report = SQLCheck().check(GLOBALEAKS_SQL)
        assert len(report) > 0
        assert report.queries_analyzed == 4
        anti_patterns = set(report.anti_patterns())
        assert AntiPattern.MULTI_VALUED_ATTRIBUTE in anti_patterns
        assert AntiPattern.ENUMERATED_TYPES in anti_patterns
        assert AntiPattern.IMPLICIT_COLUMNS in anti_patterns

    def test_detections_are_ranked(self):
        report = SQLCheck().check(GLOBALEAKS_SQL)
        scores = [entry.score for entry in report.detections]
        assert scores == sorted(scores, reverse=True)
        assert [entry.rank for entry in report.detections] == list(range(1, len(report) + 1))

    def test_every_detection_has_a_fix(self):
        report = SQLCheck().check(GLOBALEAKS_SQL)
        assert len(report.fixes) == len(report.detections)
        assert all(report.fix_for(entry) is not None for entry in report.detections)

    def test_fixes_can_be_disabled(self):
        report = SQLCheck(SQLCheckOptions(suggest_fixes=False)).check(GLOBALEAKS_SQL)
        assert report.fixes == []

    def test_ranking_configuration_is_used(self):
        report_c2 = SQLCheck(SQLCheckOptions(ranking=C2)).check(GLOBALEAKS_SQL)
        assert report_c2.detections

    def test_check_with_database(self):
        db = sqlite_database(
            ["CREATE TABLE Tenants (Tenant_ID VARCHAR(10) PRIMARY KEY, User_IDs TEXT)"],
            {"Tenants": [{"Tenant_ID": f"T{i}", "User_IDs": "U1,U2"} for i in range(20)]},
        )
        report = SQLCheck().check((), database=db)
        assert AntiPattern.MULTI_VALUED_ATTRIBUTE in set(report.anti_patterns())
        assert report.tables_analyzed == 1

    def test_counts(self):
        report = SQLCheck().check("SELECT * FROM a; SELECT * FROM b;")
        assert report.counts()[AntiPattern.COLUMN_WILDCARD] == 2

    def test_to_json_and_export(self, tmp_path):
        report = SQLCheck().check("SELECT * FROM t")
        payload = json.loads(report.to_json())
        assert payload["queries_analyzed"] == 1
        target = tmp_path / "report.json"
        report.export(str(target))
        assert json.loads(target.read_text())["detections"]

    def test_detect_only(self):
        report = SQLCheck().detect("SELECT * FROM t")
        assert AntiPattern.COLUMN_WILDCARD in report.types_detected()

    def test_detector_options_propagate(self):
        options = SQLCheckOptions(detector=DetectorConfig(enable_inter_query=False))
        sql = (
            "CREATE TABLE A (a_id INTEGER PRIMARY KEY);"
            "CREATE TABLE B (b_id INTEGER PRIMARY KEY, a_id INTEGER);"
            "SELECT * FROM B b JOIN A a ON a.a_id = b.a_id;"
        )
        without_context = SQLCheck(options).check(sql)
        with_context = SQLCheck().check(sql)
        assert AntiPattern.NO_FOREIGN_KEY not in set(without_context.anti_patterns())
        assert AntiPattern.NO_FOREIGN_KEY in set(with_context.anti_patterns())


class TestFindAntiPatterns:
    def test_paper_example(self):
        results = find_anti_patterns("INSERT INTO Users VALUES (1, 'foo')")
        assert [d.anti_pattern for d in results] == [AntiPattern.IMPLICIT_COLUMNS]

    def test_clean_query_returns_empty(self):
        assert find_anti_patterns("SELECT name FROM users WHERE user_id = 1") == []

    def test_accepts_list(self):
        results = find_anti_patterns(["SELECT * FROM a", "SELECT * FROM b"])
        assert len(results) == 2
