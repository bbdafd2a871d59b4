"""Tests for inter-query (contextual) rules and data-analysis rules."""
from __future__ import annotations

import pytest

from repro.detector import APDetector, DetectorConfig
from repro.model import AntiPattern
from repro.rules import Thresholds, default_registry
from repro.workloads.sqlite import sqlite_database


def detect(sql="", database=None, **config):
    return APDetector(DetectorConfig(**config)).detect(sql, database=database)


def detect_types(sql="", database=None, **config):
    return detect(sql, database=database, **config).types_detected()


class TestNoForeignKeyInterQuery:
    SQL = (
        "CREATE TABLE Tenant (Tenant_ID INTEGER PRIMARY KEY, Zone VARCHAR(10));"
        "CREATE TABLE Questionnaire (Q_ID INTEGER PRIMARY KEY, Tenant_ID INTEGER, Name VARCHAR(30));"
        "SELECT q.Name FROM Questionnaire q JOIN Tenant t ON t.Tenant_ID = q.Tenant_ID;"
    )

    def test_detected_with_inter_query_analysis(self):
        assert AntiPattern.NO_FOREIGN_KEY in detect_types(self.SQL)

    def test_not_detected_without_inter_query_analysis(self):
        assert AntiPattern.NO_FOREIGN_KEY not in detect_types(self.SQL, enable_inter_query=False)

    def test_not_detected_when_fk_exists(self):
        sql = self.SQL.replace(
            "Tenant_ID INTEGER, Name",
            "Tenant_ID INTEGER REFERENCES Tenant(Tenant_ID), Name",
        )
        assert AntiPattern.NO_FOREIGN_KEY not in detect_types(sql)


class TestIndexRulesInterQuery:
    def test_index_underuse_detected(self):
        sql = (
            "CREATE TABLE T (t_id INTEGER PRIMARY KEY, category VARCHAR(20), price NUMERIC(10,2));"
            "SELECT * FROM T WHERE category = 'books';"
        )
        assert AntiPattern.INDEX_UNDERUSE in detect_types(sql)

    def test_index_underuse_not_reported_when_index_exists(self):
        sql = (
            "CREATE TABLE T (t_id INTEGER PRIMARY KEY, category VARCHAR(20));"
            "CREATE INDEX idx_cat ON T (category);"
            "SELECT * FROM T WHERE category = 'books';"
        )
        assert AntiPattern.INDEX_UNDERUSE not in detect_types(sql)

    def test_index_underuse_suppressed_by_low_cardinality_data(self):
        """The Figure 8c false positive: data analysis drops the missing-index
        report when the filtered column has too few distinct values."""
        db = sqlite_database(
            ["CREATE TABLE T (t_id INTEGER PRIMARY KEY, flag VARCHAR(3))"],
            {"T": [{"t_id": i, "flag": "on" if i % 2 else "off"} for i in range(100)]},
        )
        query = "SELECT * FROM T WHERE flag = 'on'"
        with_data = detect_types(query, database=db)
        without_data = detect_types(query, database=db, enable_data=False)
        assert AntiPattern.INDEX_UNDERUSE not in with_data
        assert AntiPattern.INDEX_UNDERUSE in without_data

    def test_index_overuse_unused_index(self):
        sql = (
            "CREATE TABLE T (t_id INTEGER PRIMARY KEY, a INTEGER, b INTEGER);"
            "CREATE INDEX idx_b ON T (b);"
            "SELECT * FROM T WHERE a = 1;"
        )
        assert AntiPattern.INDEX_OVERUSE in detect_types(sql)

    def test_index_overuse_redundant_single_column_index(self):
        sql = (
            "CREATE TABLE T (t_id INTEGER PRIMARY KEY, zone VARCHAR(5), active BOOLEAN);"
            "CREATE INDEX idx_zone_active ON T (zone, active);"
            "CREATE INDEX idx_zone ON T (zone);"
            "SELECT t_id FROM T WHERE zone = 'Z1';"
        )
        assert AntiPattern.INDEX_OVERUSE in detect_types(sql)

    def test_index_overuse_needs_context(self):
        sql = "CREATE INDEX idx_b ON T (b)"
        assert AntiPattern.INDEX_OVERUSE not in detect_types(sql, enable_inter_query=False)


class TestMultiValuedAttributeData:
    def test_data_rule_confirms(self):
        db = sqlite_database(
            ["CREATE TABLE Tenants (Tenant_ID VARCHAR(8) PRIMARY KEY, User_IDs TEXT)"],
            {"Tenants": [{"Tenant_ID": f"T{i}", "User_IDs": f"U{i},U{i+1},U{i+2}"} for i in range(20)]},
        )
        report = detect(database=db)
        mva = report.filter(AntiPattern.MULTI_VALUED_ATTRIBUTE)
        assert mva and mva[0].column == "User_IDs"
        assert mva[0].detection_mode == "data"

    def test_data_refutes_query_level_suspicion(self):
        """A LIKE '%…%' query against a column whose data is NOT a list is a
        false positive that data analysis removes (§4.1 limitation)."""
        db = sqlite_database(
            ["CREATE TABLE Places (place_id INTEGER PRIMARY KEY, address VARCHAR(100))"],
            {"Places": [{"place_id": i, "address": f"{i} Main Street, Springfield"} for i in range(20)]},
        )
        query = "SELECT * FROM Places WHERE address LIKE '%U1%'"
        with_data = detect(query, database=db).filter(AntiPattern.MULTI_VALUED_ATTRIBUTE)
        without_data = detect(query, enable_data=False).filter(AntiPattern.MULTI_VALUED_ATTRIBUTE)
        assert not with_data
        # without the data the suspicion may remain (lower precision)
        assert isinstance(without_data, list)


class TestDataRules:
    def build_db(self):
        ddl = (
            "CREATE TABLE readings ("
            " reading_key INTEGER PRIMARY KEY,"
            " recorded_at TIMESTAMP,"
            " year_text TEXT,"
            " locale VARCHAR(10),"
            " organisation VARCHAR(80),"
            " rating INTEGER,"
            " birth_date DATE,"
            " age INTEGER)"
        )
        rows = []
        orgs = ["Global Widgets Incorporated", "Acme Corporation"]
        for i in range(120):
            year = 1960 + i % 40
            rows.append(
                {
                    "reading_key": i,
                    "recorded_at": f"2020-03-{1 + i % 27:02d} 10:00:00",
                    "year_text": str(2000 + i % 10),
                    "locale": "en-us",
                    "organisation": orgs[0] if i % 3 else orgs[1],
                    "rating": 1 + i % 5,
                    "birth_date": f"{year}-01-01",
                    "age": 2020 - year,
                }
            )
        return sqlite_database([ddl], {"readings": rows})

    def test_missing_timezone(self):
        report = detect(database=self.build_db())
        hits = report.filter(AntiPattern.MISSING_TIMEZONE)
        assert any(d.column == "recorded_at" for d in hits)

    def test_incorrect_data_type(self):
        report = detect(database=self.build_db())
        hits = report.filter(AntiPattern.INCORRECT_DATA_TYPE)
        assert any(d.column == "year_text" for d in hits)

    def test_redundant_column(self):
        report = detect(database=self.build_db())
        hits = report.filter(AntiPattern.REDUNDANT_COLUMN)
        assert any(d.column == "locale" for d in hits)

    def test_denormalized_table(self):
        report = detect(database=self.build_db())
        hits = report.filter(AntiPattern.DENORMALIZED_TABLE)
        assert any(d.column == "organisation" for d in hits)

    def test_information_duplication(self):
        report = detect(database=self.build_db())
        hits = report.filter(AntiPattern.INFORMATION_DUPLICATION)
        assert any({d.column, d.metadata.get("other_column")} & {"age", "birth_date"} for d in hits)

    def test_no_domain_constraint(self):
        report = detect(database=self.build_db())
        hits = report.filter(AntiPattern.NO_DOMAIN_CONSTRAINT)
        assert any(d.column == "rating" for d in hits)

    def test_enumerated_types_data_rule(self):
        db = sqlite_database(
            ["CREATE TABLE U (u_id INTEGER PRIMARY KEY, role VARCHAR(4))"],
            {"U": [{"u_id": i, "role": f"R{1 + i % 3}"} for i in range(200)]},
        )
        report = detect(database=db)
        hits = report.filter(AntiPattern.ENUMERATED_TYPES)
        assert any(d.column == "role" for d in hits)

    def test_data_rules_disabled(self):
        report = detect(database=self.build_db(), enable_data=False)
        assert not report.filter(AntiPattern.MISSING_TIMEZONE)


class TestDetectorConfig:
    def test_confidence_threshold_filters(self):
        sql = "SELECT * FROM t WHERE notes LIKE '%a b c%'"
        strict = detect(sql, confidence_threshold=0.95)
        lax = detect(sql, confidence_threshold=0.1)
        assert len(lax) >= len(strict)

    def test_deduplication(self):
        sql = "SELECT * FROM t WHERE tag_ids LIKE '%1%' AND tag_ids LIKE '%2%'"
        deduplicated = detect(sql)
        raw = detect(sql, deduplicate=False)
        assert len(raw) >= len(deduplicated)

    def test_registry_coverage(self):
        registry = default_registry()
        covered = registry.anti_patterns_covered()
        assert len(covered) == 27  # every catalog entry has at least one rule

    def test_registry_disable(self):
        registry = default_registry()
        registry.disable_anti_pattern(AntiPattern.COLUMN_WILDCARD)
        detector = APDetector(registry=registry)
        assert AntiPattern.COLUMN_WILDCARD not in detector.detect("SELECT * FROM t").types_detected()

    def test_rules_for_statement(self):
        registry = default_registry()
        select_rules = registry.rules_for_statement("SELECT")
        create_rules = registry.rules_for_statement("CREATE_TABLE")
        assert select_rules and create_rules
        assert {r.name for r in select_rules} != {r.name for r in create_rules}

    def test_report_counts_tables_analyzed(self):
        db = sqlite_database(
            ["CREATE TABLE A (x INTEGER PRIMARY KEY)", "CREATE TABLE B (y INTEGER PRIMARY KEY)"]
        )
        report = detect(database=db)
        assert report.tables_analyzed == 2
