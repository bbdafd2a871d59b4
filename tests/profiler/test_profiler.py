"""Unit tests for the data profiler."""
from __future__ import annotations

import pytest

from repro.catalog import Column, Table, parse_type
from repro.catalog.types import TypeFamily
from repro.ingest import SQLiteConnector
from repro.profiler import DataProfiler, Sampler
from repro.profiler.column_profile import profile_column
from repro.profiler.inference import (
    detect_delimited_values,
    detect_derived_pair,
    looks_like_email,
    looks_like_file_path,
    looks_like_plaintext_password_column,
)
from repro.workloads.sqlite import sqlite_database


class TestSampler:
    def test_small_tables_returned_in_full(self):
        rows = [{"a": i} for i in range(10)]
        assert Sampler(sample_size=100).sample(rows) == rows

    def test_large_tables_are_sampled(self):
        rows = [{"a": i} for i in range(1000)]
        sampled = Sampler(sample_size=50).sample(rows)
        assert len(sampled) == 50

    def test_sampling_is_deterministic(self):
        rows = [{"a": i} for i in range(1000)]
        first = Sampler(sample_size=20, seed=3).sample(rows)
        second = Sampler(sample_size=20, seed=3).sample(rows)
        assert first == second

    def test_sample_column_case_insensitive(self):
        rows = [{"Name": "x"}, {"Name": "y"}]
        assert Sampler().sample_column(rows, "name") == ["x", "y"]

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            Sampler(sample_size=0)


class TestColumnProfile:
    def test_basic_statistics(self):
        profile = profile_column("v", [1, 2, 2, 3, None])
        assert profile.values_sampled == 5
        assert profile.null_count == 1
        assert profile.distinct_count == 3
        assert profile.mean == pytest.approx(2.0)
        assert profile.median == 2
        assert profile.min_value == 1 and profile.max_value == 3
        assert profile.null_fraction == pytest.approx(0.2)

    def test_most_common_value(self):
        profile = profile_column("v", ["a", "a", "a", "b"])
        assert profile.most_common_value == "a"
        assert profile.most_common_fraction == pytest.approx(0.75)

    def test_distinct_ratio_and_constant(self):
        assert profile_column("v", ["x"] * 10).is_constant
        assert profile_column("v", list(range(10))).distinct_ratio == pytest.approx(1.0)

    def test_all_null_column(self):
        profile = profile_column("v", [None, None, None])
        assert profile.is_all_null
        assert profile.distinct_count == 0

    def test_inferred_family(self):
        assert profile_column("v", ["1", "2", "3"]).inferred_family is TypeFamily.INTEGER
        assert profile_column("v", ["a", "b"]).inferred_family is TypeFamily.TEXT

    def test_delimiter_detection(self):
        profile = profile_column("ids", ["U1,U2", "U3,U4,U5", "U6,U7"])
        assert profile.delimiter == ","
        assert profile.looks_delimited

    def test_timezone_fraction(self):
        profile = profile_column("ts", ["2020-01-01 10:00:00+00:00", "2020-01-02 10:00:00+00:00"])
        assert profile.timezone_fraction == pytest.approx(1.0)

    def test_file_path_fraction(self):
        profile = profile_column("p", ["/var/data/a.pdf", "/var/data/b.pdf", "hello"])
        assert profile.file_path_fraction == pytest.approx(2 / 3)

    def test_unhashable_values_do_not_crash(self):
        profile = profile_column("v", [["a"], ["a"], ["b"]])
        assert profile.distinct_count == 2


class TestInference:
    def test_detect_delimited_values_positive(self):
        delimiter, fraction = detect_delimited_values(["a,b", "c,d,e", "f,g"])
        assert delimiter == "," and fraction == 1.0

    def test_detect_delimited_values_rejects_prose(self):
        delimiter, fraction = detect_delimited_values(
            ["this is, a normal sentence", "another one, with a comma"]
        )
        assert fraction == 0.0

    def test_detect_delimited_values_semicolon(self):
        delimiter, _ = detect_delimited_values(["U1;U2", "U3;U4"])
        assert delimiter == ";"

    def test_detect_delimited_empty(self):
        assert detect_delimited_values([]) == (None, 0.0)

    def test_file_path_detection(self):
        assert looks_like_file_path("/srv/uploads/report.pdf")
        assert looks_like_file_path("C:\\files\\photo.jpg")
        assert looks_like_file_path("avatar_2020.png")
        assert not looks_like_file_path("just a sentence")
        assert not looks_like_file_path("https://example.org/page")
        assert looks_like_file_path("https://example.org/images/logo.png")

    def test_email_detection(self):
        assert looks_like_email("alice@example.org")
        assert not looks_like_email("not an email")

    def test_plaintext_password_detection(self):
        assert looks_like_plaintext_password_column("password", ["hunter2", "letmein"])
        assert not looks_like_plaintext_password_column(
            "password", ["5f4dcc3b5aa765d61d8327deb882cf99"] * 3
        )
        assert not looks_like_plaintext_password_column("username", ["hunter2"])

    def test_derived_pair_by_name(self):
        assert detect_derived_pair("age", [30], "birth_date", ["1990-01-01"])
        assert not detect_derived_pair("height", [1.8], "weight", [75])

    def test_derived_pair_by_functional_dependency(self):
        years = [1990 + (i % 5) for i in range(40)]
        ages = [2020 - y for y in years]
        assert detect_derived_pair("x_code", years, "y_code", ages)
        # non-functional relationship is not flagged
        import random

        rng = random.Random(1)
        noise = [rng.randint(0, 100) for _ in range(40)]
        assert not detect_derived_pair("x_code", years, "z_code", noise)


class TestDataProfiler:
    def test_profile_rows_with_definition(self):
        table = Table(name="users")
        table.add_column(Column(name="id", sql_type=parse_type("INTEGER"), is_primary_key=True))
        table.add_column(Column(name="name", sql_type=parse_type("VARCHAR(20)")))
        rows = [{"id": i, "name": f"user{i}"} for i in range(20)]
        profile = DataProfiler().profile_rows("users", rows, definition=table)
        assert profile.row_count == 20
        assert profile.column_count == 2
        assert profile.column("ID").distinct_count == 20
        assert profile.column_names() == ["id", "name"]

    def test_profile_rows_without_definition_discovers_columns(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "c": None}]
        profile = DataProfiler().profile_rows("t", rows)
        assert set(profile.column_names()) == {"a", "b", "c"}

    def test_profile_database(self):
        db = sqlite_database(
            ["CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10))"],
            {"t": [{"a": i, "b": "x"} for i in range(15)]},
        )
        profiles = SQLiteConnector(db).profiles(DataProfiler())
        assert "t" in profiles
        assert profiles["t"].row_count == 15
        assert profiles["t"].definition is not None
