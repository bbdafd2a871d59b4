"""Property-based tests (hypothesis) for core invariants.

These cover the substrate layers whose correctness everything else depends
on: the lexer's losslessness, the statement splitter, the profiler, the
rows and profiles the data backend (stdlib ``sqlite3``) serves through the
connector path, and the ranking model's monotonicity.
"""
from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ingest import SQLiteConnector
from repro.model import AntiPattern, Detection
from repro.profiler.column_profile import profile_column
from repro.ranking import APMetrics, APRanker, C1
from repro.ranking.config import normalise_amplification, normalise_performance
from repro.sqlparser import parse, split, tokenize
from repro.workloads.sqlite import sqlite_database

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
identifier = st.text(alphabet=string.ascii_letters + "_", min_size=1, max_size=12).filter(
    lambda s: not s[0].isdigit()
)
literal_text = st.text(
    alphabet=string.ascii_letters + string.digits + " _-,.@", min_size=0, max_size=20
)
sql_fragment = st.text(
    alphabet=string.ascii_letters + string.digits + " _,.()*'=<>%;-\n\t",
    min_size=0,
    max_size=120,
)


class TestLexerProperties:
    @given(sql_fragment)
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_tokenization_is_lossless(self, sql):
        assert "".join(t.value for t in tokenize(sql)) == sql

    @given(sql_fragment)
    @settings(max_examples=100)
    def test_tokenization_never_crashes_and_positions_monotonic(self, sql):
        tokens = tokenize(sql)
        positions = [t.position for t in tokens]
        assert positions == sorted(positions)

    @given(st.lists(identifier, min_size=1, max_size=5))
    def test_select_round_trip(self, columns):
        sql = "SELECT " + ", ".join(columns) + " FROM some_table"
        statements = parse(sql)
        assert len(statements) == 1
        assert statements[0].tree.sql() == sql

    @given(st.lists(literal_text, min_size=1, max_size=4))
    def test_split_ignores_semicolons_inside_strings(self, values):
        literals = ", ".join("'" + v.replace("'", "") + ";'" for v in values)
        sql = f"INSERT INTO t (c) VALUES ({literals}); SELECT 1"
        assert len(split(sql)) == 2


class TestProfilerProperties:
    @given(st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), min_size=1, max_size=200))
    def test_profile_counts_are_consistent(self, values):
        profile = profile_column("c", values)
        assert profile.values_sampled == len(values)
        assert profile.null_count + profile.non_null_count == len(values)
        assert 0 <= profile.null_fraction <= 1
        assert profile.distinct_count <= max(1, profile.non_null_count)
        assert 0 <= profile.distinct_ratio <= 1
        assert 0 <= profile.most_common_fraction <= 1

    @given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
                    min_size=5, max_size=100))
    def test_most_common_value_is_actually_most_common(self, values):
        profile = profile_column("c", values)
        counts = {v: values.count(v) for v in set(values)}
        assert counts[profile.most_common_value] == max(counts.values())


class TestEngineProperties:
    """The data backend as a run reads it: rows go in with ``sqlite_database``
    and come back through :class:`SQLiteConnector`."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.text(alphabet=string.ascii_letters, max_size=10)),
                    min_size=1, max_size=40, unique_by=lambda t: t[0]))
    def test_insert_then_count_and_lookup(self, rows):
        db = sqlite_database(
            ["CREATE TABLE T (k INTEGER PRIMARY KEY, v VARCHAR(20))"],
            {"T": [{"k": k, "v": v} for k, v in rows]},
        )
        connector = SQLiteConnector(db)
        assert connector.fetch_row_count("T") == len(rows)
        key, value = rows[0]
        matches = [row for row in connector.get_table("T").all_rows() if row["k"] == key]
        assert len(matches) == 1
        assert matches[0]["v"] == value[:20]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    def test_sum_matches_python(self, numbers):
        db = sqlite_database(
            ["CREATE TABLE N (pos INTEGER PRIMARY KEY, n INTEGER)"],
            {"N": [{"pos": i, "n": n} for i, n in enumerate(numbers)]},
        )
        profile = SQLiteConnector(db).profiles()["n"]
        assert profile.row_count == len(numbers)
        column = profile.column("n")
        assert column.mean * column.non_null_count == pytest.approx(sum(numbers))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 10**4), min_size=2, max_size=40, unique=True))
    def test_index_and_scan_agree(self, keys):
        db = sqlite_database(
            ["CREATE TABLE T (k INTEGER PRIMARY KEY, grp INTEGER)",
             "CREATE INDEX idx_grp ON T (grp)"],
            {"T": [{"k": k, "grp": k % 5} for k in keys]},
        )
        indexed = {k for (k,) in db.execute("SELECT k FROM T INDEXED BY idx_grp WHERE grp = 3")}
        scanned = {k for (k,) in db.execute("SELECT k FROM T NOT INDEXED WHERE grp = 3")}
        fetched = {row["k"] for row in SQLiteConnector(db).fetch_rows("T") if row["grp"] == 3}
        assert indexed == scanned == fetched


class TestRankingProperties:
    @given(st.floats(0, 100), st.floats(0, 100))
    def test_normalisation_is_monotone_and_bounded(self, a, b):
        low, high = sorted((a, b))
        assert 0.0 <= normalise_performance(low) <= normalise_performance(high) <= 1.0
        assert 0.0 <= normalise_amplification(low) <= normalise_amplification(high) <= 1.0

    @given(
        st.floats(0, 50), st.floats(0, 50), st.floats(0, 10), st.floats(0, 10),
        st.booleans(), st.booleans(),
    )
    def test_score_is_bounded_by_total_weight(self, rp, wp, m, da, di, a):
        metrics = APMetrics(
            read_performance=rp, write_performance=wp, maintainability=m,
            data_amplification=da, data_integrity=int(di), accuracy=int(a),
        )
        score = APRanker(C1).score_metrics(metrics)
        assert 0.0 <= score <= C1.total_weight() + 1e-9

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_detection_score_monotone_in_confidence(self, c1, c2):
        low, high = sorted((c1, c2))
        ranker = APRanker()
        low_score = ranker.score_detection(
            Detection(anti_pattern=AntiPattern.MULTI_VALUED_ATTRIBUTE, confidence=low)
        )
        high_score = ranker.score_detection(
            Detection(anti_pattern=AntiPattern.MULTI_VALUED_ATTRIBUTE, confidence=high)
        )
        assert low_score <= high_score + 1e-12
