"""Tests for the workload / dataset generators."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.detector import APDetector
from repro.ingest import connect
from repro.model import AntiPattern
from repro.workloads import (
    DJANGO_APPLICATIONS,
    KAGGLE_DATABASES,
    GitHubCorpusGenerator,
    GlobaLeaksWorkload,
    UserStudySimulator,
    build_application_workload,
    build_kaggle_database,
)
from repro.workloads.django_apps import reported_anti_patterns


def _count(db, table: str) -> int:
    return db.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]


def _values(cursor, column: str) -> set:
    """``column``'s values in a result (its first column of that name)."""
    position = [entry[0] for entry in cursor.description].index(column)
    return {row[position] for row in cursor}


class TestGlobaLeaksWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return GlobaLeaksWorkload(tenants=50)

    def test_ap_database_contents(self, workload):
        db = workload.build_ap_database()
        assert _count(db, "Tenants") == 50
        assert _count(db, "Users") == 200
        assert "," in db.execute("SELECT User_IDs FROM Tenants").fetchone()[0]

    def test_fixed_database_contents(self, workload):
        db = workload.build_fixed_database()
        assert _count(db, "Hosting") == 200
        assert _count(db, "Role") == 3
        assert connect(db).schema().get_table("hosting").column_is_indexed("User_ID")

    def test_task_results_are_equivalent(self, workload):
        """The AP and AP-free designs must answer the tasks identically."""
        ap = workload.build_ap_database()
        fixed = workload.build_fixed_database()
        ap_tenants = _values(ap.execute(workload.task1_ap("U7")), "Tenant_ID")
        fixed_tenants = _values(fixed.execute(workload.task1_fixed("U7")), "Tenant_ID")
        assert ap_tenants == fixed_tenants and ap_tenants
        ap_users = _values(ap.execute(workload.task2_ap("T3")), "User_ID")
        fixed_users = _values(fixed.execute(workload.task2_fixed("T3")), "User_ID")
        assert ap_users == fixed_users and len(ap_users) == 4

    def test_application_queries_contain_known_aps(self, workload):
        report = APDetector().detect(workload.application_queries())
        types = report.types_detected()
        assert AntiPattern.MULTI_VALUED_ATTRIBUTE in types
        assert AntiPattern.ENUMERATED_TYPES in types
        assert AntiPattern.NO_FOREIGN_KEY in types


class TestGitHubCorpus:
    def test_deterministic_generation(self):
        a = GitHubCorpusGenerator(repos=5, seed=1).generate()
        b = GitHubCorpusGenerator(repos=5, seed=1).generate()
        assert a.all_sql() == b.all_sql()

    def test_corpus_structure(self):
        corpus = GitHubCorpusGenerator(repos=8).generate()
        assert len(corpus.repos()) == 8
        assert len(corpus) > 8 * 4
        assert all(s.sql for s in corpus)

    def test_labels_cover_many_anti_patterns(self):
        corpus = GitHubCorpusGenerator(repos=40).generate()
        labelled = set(corpus.label_counts())
        assert len(labelled) >= 12

    def test_clean_trap_statements_exist(self):
        corpus = GitHubCorpusGenerator(repos=40).generate()
        clean = [s for s in corpus if s.is_clean]
        assert clean
        assert any("LIKE 'INV-2020%'" in s.sql for s in clean)

    def test_statements_for_repo(self):
        corpus = GitHubCorpusGenerator(repos=3).generate()
        repo = corpus.repos()[0]
        assert corpus.sql_for(repo) == [s.sql for s in corpus.statements_for(repo)]

    def test_statements_labeled(self):
        corpus = GitHubCorpusGenerator(repos=30).generate()
        for statement in corpus.statements_labeled(AntiPattern.ROUNDING_ERRORS):
            assert "FLOAT" in statement.sql.upper()


class TestDjangoApplications:
    def test_table7_has_15_applications(self):
        assert len(DJANGO_APPLICATIONS) == 15
        assert sum(app.detected_aps for app in DJANGO_APPLICATIONS) == 123
        assert sum(len(app.reported_aps) for app in DJANGO_APPLICATIONS) == 32

    def test_reported_anti_patterns_resolve(self):
        for app in DJANGO_APPLICATIONS:
            assert all(isinstance(ap, AntiPattern) for ap in reported_anti_patterns(app))

    def test_workload_exhibits_reported_aps(self):
        from repro.workloads.django_apps import build_application_database

        detector = APDetector()
        for app in DJANGO_APPLICATIONS[:5]:
            workload = build_application_workload(app)
            database = build_application_database(app, rows=80)
            detected = detector.detect(workload, database=database).types_detected()
            missing = reported_anti_patterns(app) - detected
            assert not missing, f"{app.name}: missing {missing}"


    #: Prints one digest of every application's workload and rows.
    DIGEST_SCRIPT = """
import hashlib
from repro.workloads import DJANGO_APPLICATIONS, build_application_workload
from repro.workloads.django_apps import build_application_database

digest = hashlib.sha256()
for app in DJANGO_APPLICATIONS:
    for statement in build_application_workload(app):
        digest.update(statement.encode() + b"\\0")
    for line in build_application_database(app, rows=40).iterdump():
        digest.update(line.encode() + b"\\0")
print(digest.hexdigest())
"""

    def test_generation_is_the_same_in_every_process(self):
        """Table 4's inputs do not follow the per-process ``str`` hash salt."""
        src = Path(__file__).resolve().parents[2] / "src"
        digests = {
            subprocess.run(
                [sys.executable, "-c", self.DIGEST_SCRIPT],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=salt),
                capture_output=True, text=True, timeout=120, check=True,
            ).stdout
            for salt in ("1", "2")
        }
        assert len(digests) == 1, digests


class TestKaggleDatabases:
    def test_table6_has_31_databases(self):
        assert len(KAGGLE_DATABASES) == 31

    def test_build_database_contains_expected_columns(self):
        spec = KAGGLE_DATABASES[0]
        db = build_kaggle_database(spec, rows=60)
        table = db.execute("SELECT name FROM sqlite_master WHERE type = 'table'").fetchone()[0]
        assert _count(db, table) == 60

    def test_detected_types_cover_spec(self):
        detector = APDetector()
        for spec in KAGGLE_DATABASES[:6]:
            db = build_kaggle_database(spec)
            detected = detector.detect((), database=db).types_detected()
            missing = set(spec.anti_patterns) - detected
            assert not missing, f"{spec.name}: missing {missing}"

    def test_empty_spec_detects_nothing_major(self):
        clean_spec = next(s for s in KAGGLE_DATABASES if not s.anti_patterns)
        db = build_kaggle_database(clean_spec)
        detected = APDetector().detect((), database=db).types_detected()
        assert AntiPattern.NO_PRIMARY_KEY not in detected


class TestUserStudy:
    def test_simulation_shape(self):
        result = UserStudySimulator(participants=6, rounds=1, seed=3).run()
        assert len(result.participants) == 6
        assert result.total_statements >= 6 * len_features()
        assert result.total_detections > 0
        assert 0.0 <= result.acceptance_rate <= 1.0
        assert result.acceptance_rate <= result.acceptance_rate_with_ambiguous

    def test_distributions(self):
        result = UserStudySimulator(participants=4, rounds=1, seed=9).run()
        mean, median = result.statements_distribution()
        assert mean >= median * 0.5
        d_mean, d_median = result.detections_distribution()
        assert d_mean >= 0


def len_features() -> int:
    from repro.workloads.userstudy import FEATURES

    return len(FEATURES)
