"""Tests for the CLI, interactive shell, and REST interfaces."""
from __future__ import annotations

import io
import json
import os
import sqlite3
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.interfaces.cli import build_parser, render, run
from repro.interfaces.rest import (
    RestServer,
    catalog_response,
    handle_check_request,
    handle_scan_request,
    handle_selftest_request,
    rules_response,
)
from repro.interfaces.shell import SQLCheckShell


class TestCLI:
    def test_query_argument(self):
        code, output = run(["--query", "SELECT * FROM t"])
        assert code == 1  # anti-patterns found
        assert "Column Wildcard" in output

    def test_clean_query_exits_zero(self):
        code, output = run(["--query", "SELECT a FROM t WHERE a = 1"])
        assert code == 0
        assert "0 anti-pattern" in output

    def test_json_output(self):
        code, output = run(["--query", "SELECT * FROM t", "--format", "json"])
        payload = json.loads(output)
        assert payload["detections"][0]["anti_pattern"] == "column_wildcard"

    def test_file_input(self, tmp_path):
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text("SELECT * FROM t; INSERT INTO t VALUES (1);")
        code, output = run([str(sql_file)])
        assert "Implicit Columns" in output

    def test_stdin_input(self):
        code, output = run([], stdin="SELECT * FROM t")
        assert code == 1

    def test_no_input_is_an_error(self):
        code, output = run([], stdin="")
        assert code == 2

    def test_top_limits_output(self):
        _, output = run(["--query", "SELECT * FROM a; SELECT * FROM b;", "--top", "1"])
        assert output.count("Column Wildcard") == 1

    def test_no_fixes_flag(self):
        _, output = run(["--query", "SELECT * FROM t", "--no-fixes"])
        assert "fix   :" not in output

    def test_config_flag_accepted(self):
        for config in ("C1", "C2"):
            code, _ = run(["--query", "SELECT * FROM t", "--config", config])
            assert code == 1

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.config == "C1"
        assert args.format == "text"

    @pytest.mark.parametrize("command", [[], ["selftest"], ["profile"]])
    def test_missing_file_is_an_input_error(self, tmp_path, command):
        missing = tmp_path / "missing.sql"
        code, output = run(command + [str(missing)])
        assert code == 2  # not 1, which means "findings present"
        assert output.startswith(f"error: cannot read {missing}: ")
        assert "No such file" in output

    def test_undecodable_file_is_an_input_error(self, tmp_path):
        binary = tmp_path / "dump.sql"
        binary.write_bytes(b"SELECT \xff\xfe FROM t;")
        code, output = run([str(binary)])
        assert code == 2
        assert output.startswith(f"error: cannot read {binary}: ")

    @pytest.mark.parametrize("command", [[], ["scan", "--log"]])
    def test_byte_order_mark_is_not_statement_text(self, tmp_path, command):
        sql = "SELECT * FROM users;\nSELECT * FROM users;\n"
        plain = tmp_path / "plain.sql"
        marked = tmp_path / "marked.sql"
        plain.write_text(sql, encoding="utf-8")
        marked.write_text("\ufeff" + sql, encoding="utf-8")
        reports = [
            [
                {key: value for key, value in detection.items() if key != "source"}
                for detection in json.loads(
                    run(command + [str(path), "--format", "json"])[1]
                )["detections"]
            ]
            for path in (plain, marked)
        ]
        assert "column_wildcard" in [d["anti_pattern"] for d in reports[0]]
        assert reports[1] == reports[0]


class TestModuleEntryPoint:
    def test_python_m_runs_without_a_runtime_warning(self):
        """``python -m repro.interfaces.cli`` must not find the module
        already imported by its package (runpy's RuntimeWarning)."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.interfaces.cli",
             "--query", "SELECT 1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "0 anti-pattern" in result.stdout

    def test_package_names_stay_importable(self):
        from repro.interfaces import SQLCheckShell as shell_class
        from repro.interfaces import cli_main
        from repro.interfaces.cli import main

        assert cli_main is main
        assert shell_class is SQLCheckShell


@pytest.fixture
def scan_fixtures(tmp_path):
    """A SQLite database plus a plain-SQL query log for scan tests."""
    db_path = tmp_path / "app.db"
    connection = sqlite3.connect(str(db_path))
    connection.execute(
        "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, label VARCHAR(20))"
    )
    connection.executemany(
        "INSERT INTO tenant VALUES (?, ?)", [(i, f"t{i}") for i in range(10)]
    )
    connection.commit()
    connection.close()
    log_path = tmp_path / "queries.sql"
    log_path.write_text("SELECT * FROM tenant;\n" * 4, encoding="utf-8")
    return db_path, log_path


class TestCLIScan:
    def test_scan_db_and_log(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        code, output = run(["scan", "--db", str(db_path), "--log", str(log_path)])
        assert code == 1
        assert "Column Wildcard" in output

    def test_scan_json_carries_frequency_weighted_scores(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        code, output = run([
            "scan", "--db", str(db_path), "--log", str(log_path),
            "--format", "json",
        ])
        payload = json.loads(output)
        wildcard = next(
            d for d in payload["detections"] if d["anti_pattern"] == "column_wildcard"
        )
        # 4 logged executions → weight 1 + log2(4) = 3×
        assert wildcard["score"] > 0.5

    def test_scan_log_only(self, scan_fixtures):
        _, log_path = scan_fixtures
        code, output = run(["scan", "--log", str(log_path), "--format", "json"])
        assert code == 1
        assert json.loads(output)["queries_analyzed"] == 1

    def test_scan_requires_an_input(self):
        code, output = run(["scan"])
        assert code == 2
        assert "--db" in output

    def test_scan_unsupported_engine_mentions_logs(self):
        code, output = run(["scan", "--db", "postgres://host/db"])
        assert code == 2
        assert "--log" in output

    def test_scan_missing_db_file(self, tmp_path):
        code, output = run(["scan", "--db", str(tmp_path / "missing.db")])
        assert code == 2
        assert "not found" in output

    def test_scan_non_sqlite_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("hello, not a database", encoding="utf-8")
        code, output = run(["scan", "--db", str(path)])
        assert code == 2
        assert output.startswith("error:") and "catalog" in output

    def test_scan_missing_log_does_not_leak_the_connection(self, scan_fixtures, monkeypatch):
        """A failure after the connector opens must still close it."""
        import repro.ingest.connectors as connectors_module

        closed = []
        original_close = connectors_module.SQLiteConnector.close
        monkeypatch.setattr(
            connectors_module.SQLiteConnector, "close",
            lambda self: (closed.append(True), original_close(self))[1],
        )
        db_path, _ = scan_fixtures
        code, output = run(["scan", "--db", str(db_path), "--log", "/nope/missing.log"])
        assert code == 2 and "error:" in output
        assert closed, "connector was not closed on the error path"

    def test_scan_unreadable_log_is_named_not_called_empty(self, tmp_path):
        """Without a known extension the log is probed for its format; a
        file that cannot be opened must say so, not read as empty."""
        missing = tmp_path / "missing"
        code, output = run(["scan", "--log", str(missing)])
        assert code == 2
        assert output.startswith(f"error: cannot read {missing}: ")
        assert "empty" not in output

    def test_scan_stats_flag(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        _, output = run(["scan", "--db", str(db_path), "--log", str(log_path), "--stats"])
        assert "pipeline stats:" in output

    def test_scan_sarif_format(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        _, output = run([
            "scan", "--db", str(db_path), "--log", str(log_path), "--format", "sarif",
        ])
        log = json.loads(output)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]


class TestShell:
    def run_shell(self, commands: str) -> str:
        out = io.StringIO()
        shell = SQLCheckShell(stdin=io.StringIO(commands), stdout=out)
        shell.cmdloop()
        return out.getvalue()

    def test_analyses_sql_statement(self):
        output = self.run_shell("SELECT * FROM t\nquit\n")
        assert "Column Wildcard" in output

    def test_clean_statement(self):
        output = self.run_shell("SELECT a FROM t WHERE a = 1\nquit\n")
        assert "no anti-patterns detected" in output

    def test_schema_command_provides_context(self):
        commands = (
            "schema CREATE TABLE A (a_id INTEGER PRIMARY KEY)\n"
            "schema CREATE TABLE B (b_id INTEGER PRIMARY KEY, a_id INTEGER)\n"
            "SELECT b.b_id FROM B b JOIN A a ON a.a_id = b.a_id\n"
            "quit\n"
        )
        output = self.run_shell(commands)
        assert "No Foreign Key" in output

    def test_history_and_reset(self):
        output = self.run_shell("SELECT * FROM t\nhistory\nreset\nhistory\nquit\n")
        assert "SELECT * FROM t" in output
        assert "context cleared" in output


class TestRestLogic:
    def test_check_request_success(self):
        status, body = handle_check_request({"query": "SELECT * FROM t"})
        assert status == 200
        assert body["detections"][0]["anti_pattern"] == "column_wildcard"

    def test_check_request_missing_query(self):
        status, body = handle_check_request({})
        assert status == 400
        assert "error" in body

    def test_check_request_with_config(self):
        status, body = handle_check_request({"query": "SELECT * FROM t", "config": "C2"})
        assert status == 200

    def test_catalog_response_lists_all_anti_patterns(self):
        body = catalog_response()
        assert len(body["anti_patterns"]) == 27

    def test_rules_response_serves_the_ruledoc_catalog(self):
        body = rules_response()
        assert len(body["rules"]) == 33
        for rule in body["rules"]:
            assert rule["kind"] in ("query", "data")
            doc = rule["doc"]
            for field in ("title", "problem", "why_it_hurts", "fix", "paper_section"):
                assert doc[field], f"{rule['name']} missing doc field {field}"
        json.dumps(body)  # must be JSON-serialisable as-is

    def test_scan_request_db_and_log(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        status, body = handle_scan_request({
            "db": str(db_path),
            "log_text": log_path.read_text(encoding="utf-8"),
            "log_format": "sql",
        })
        assert status == 200
        assert body["workload"] == {
            "distinct_statements": 1, "total_statements": 4,
            "total_duration_ms": 0.0, "log_format": "sql",
        }
        assert body["detections"][0]["anti_pattern"] == "column_wildcard"

    def test_scan_request_needs_db_or_log(self):
        status, body = handle_scan_request({})
        assert status == 400 and "error" in body

    def test_scan_request_rejects_unknown_log_format(self, scan_fixtures):
        db_path, _ = scan_fixtures
        status, body = handle_scan_request(
            {"db": str(db_path), "log_text": "SELECT 1;", "log_format": "syslog"}
        )
        assert status == 400 and "log format" in body["error"]

    def test_scan_request_unsupported_engine_is_400(self):
        status, body = handle_scan_request({"db": "mysql://host/db"})
        assert status == 400 and "driver" in body["error"]

    def test_scan_request_non_sqlite_file_is_400(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("hello, not a database", encoding="utf-8")
        status, body = handle_scan_request({"db": str(path)})
        assert status == 400 and "catalog" in body["error"]

    def test_scan_request_autodetects_log_format(self, scan_fixtures):
        """Without log_format the content is sniffed (as the CLI does) —
        a postgres stderr log must not be folded as plain SQL."""
        db_path, _ = scan_fixtures
        stderr_log = (
            "2026-07-01 12:00:00 UTC [9] LOG:  statement: SELECT * FROM tenant\n" * 3
        )
        status, body = handle_scan_request({"db": str(db_path), "log_text": stderr_log})
        assert status == 200
        assert body["workload"] == {
            "distinct_statements": 1, "total_statements": 3,
            "total_duration_ms": 0.0, "log_format": "postgres",
        }
        assert body["detections"][0]["anti_pattern"] == "column_wildcard"

    def test_scan_request_rich_format(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        status, body = handle_scan_request({
            "db": str(db_path),
            "log_text": log_path.read_text(encoding="utf-8"),
            "format": "sarif",
        })
        assert status == 200
        assert body["version"] == "2.1.0"


class TestRestServer:
    def test_end_to_end_http(self):
        with RestServer(port=0) as server:
            url = server.url
            with urllib.request.urlopen(f"{url}/api/health", timeout=5) as response:
                assert json.loads(response.read())["status"] == "ok"
            request = urllib.request.Request(
                f"{url}/api/check",
                data=json.dumps({"query": "INSERT INTO Users VALUES (1,'foo')"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                payload = json.loads(response.read())
            assert payload["detections"][0]["anti_pattern"] == "implicit_columns"
            with urllib.request.urlopen(f"{url}/api/antipatterns", timeout=5) as response:
                catalog = json.loads(response.read())
            assert len(catalog["anti_patterns"]) == 27
            with urllib.request.urlopen(f"{url}/api/rules", timeout=5) as response:
                rules = json.loads(response.read())
            assert len(rules["rules"]) == 33
            assert all(rule["doc"]["title"] for rule in rules["rules"])

    def test_unknown_route_is_404(self):
        with RestServer(port=0) as server:
            try:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
            except urllib.error.HTTPError as error:
                assert error.code == 404
            else:  # pragma: no cover
                raise AssertionError("expected a 404")

    def test_invalid_json_is_400(self):
        with RestServer(port=0) as server:
            request = urllib.request.Request(
                f"{server.url}/api/check", data=b"not json", method="POST"
            )
            try:
                urllib.request.urlopen(request, timeout=5)
            except urllib.error.HTTPError as error:
                assert error.code == 400
            else:  # pragma: no cover
                raise AssertionError("expected a 400")


@pytest.fixture
def pg_stat_db(tmp_path):
    """A SQLite database holding app tables plus a pg_stat snapshot table."""
    db_path = tmp_path / "snap.db"
    connection = sqlite3.connect(str(db_path))
    connection.execute(
        "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, label VARCHAR(20))"
    )
    connection.executemany(
        "INSERT INTO tenant VALUES (?, ?)", [(i, f"t{i}") for i in range(10)]
    )
    connection.execute(
        "CREATE TABLE pg_stat_statements "
        "(query TEXT, calls INTEGER, total_exec_time REAL, mean_exec_time REAL)"
    )
    connection.execute(
        "INSERT INTO pg_stat_statements VALUES "
        "('SELECT * FROM tenant', 32, 6400.0, 200.0)"
    )
    connection.commit()
    connection.close()
    return db_path


class TestCLICostModel:
    def test_cost_model_flag_accepted(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        for model in ("frequency", "duration", "hybrid"):
            code, output = run([
                "scan", "--db", str(db_path), "--log", str(log_path),
                "--cost-model", model, "--format", "json",
            ])
            assert code == 1
            assert json.loads(output)["cost_model"] == model

    def test_pg_stat_table_feeds_the_workload(self, pg_stat_db):
        code, output = run([
            "scan", "--db", str(pg_stat_db), "--pg-stat", "--format", "json",
        ])
        assert code == 1
        payload = json.loads(output)
        wildcard = next(
            d for d in payload["detections"] if d["anti_pattern"] == "column_wildcard"
        )
        assert wildcard["workload_weight"] == pytest.approx(6.0)  # 1 + log2(32)
        # The snapshot table itself must not be analysed as app schema.
        assert all(d["table"] != "pg_stat_statements" for d in payload["detections"])

    def test_pg_stat_without_db_is_an_error(self):
        code, output = run(["scan", "--pg-stat", "--log", "/nope.sql"])
        assert code == 2
        assert "--db" in output

    def test_pg_stat_missing_table_is_a_clean_error(self, scan_fixtures):
        db_path, _ = scan_fixtures
        code, output = run(["scan", "--db", str(db_path), "--pg-stat"])
        assert code == 2
        assert output.startswith("error:")

    def test_negative_sample_is_an_error(self, scan_fixtures):
        db_path, _ = scan_fixtures
        code, output = run(["scan", "--db", str(db_path), "--sample", "-1"])
        assert code == 2

    def test_sample_flag_scans_cleanly(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        code, output = run([
            "scan", "--db", str(db_path), "--log", str(log_path),
            "--sample", "3", "--format", "json",
        ])
        assert code == 1
        assert json.loads(output)["tables_analyzed"] >= 1

    def test_markdown_report_names_the_cost_model(self, pg_stat_db):
        _, output = run([
            "scan", "--db", str(pg_stat_db), "--pg-stat",
            "--cost-model", "duration", "--format", "markdown",
        ])
        assert "cost model: `duration`" in output
        assert "workload weight" in output


class TestRestCostModelAndUpload:
    def _db_bytes(self, pg_stat_db) -> str:
        import base64

        return base64.b64encode(pg_stat_db.read_bytes()).decode()

    def test_scan_rejects_unknown_cost_model(self, scan_fixtures):
        db_path, _ = scan_fixtures
        status, body = handle_scan_request(
            {"db": str(db_path), "cost_model": "latency"}
        )
        assert status == 400 and "cost model" in body["error"]

    def test_scan_rejects_db_and_upload_together(self, pg_stat_db):
        status, body = handle_scan_request(
            {"db": str(pg_stat_db), "db_base64": self._db_bytes(pg_stat_db)}
        )
        assert status == 400 and "mutually exclusive" in body["error"]

    def test_scan_rejects_bad_base64(self):
        status, body = handle_scan_request({"db_base64": "@@not-base64@@"})
        assert status == 400 and "base64" in body["error"]

    def test_scan_rejects_bad_sample(self, pg_stat_db):
        status, body = handle_scan_request(
            {"db": str(pg_stat_db), "sample": "many"}
        )
        assert status == 400 and "sample" in body["error"]

    def test_uploaded_database_is_scanned_and_cleaned_up(self, pg_stat_db):
        import glob
        import tempfile

        status, body = handle_scan_request({
            "db_base64": self._db_bytes(pg_stat_db),
            "pg_stat": True,
            "cost_model": "duration",
        })
        assert status == 200
        assert body["cost_model"] == "duration"
        assert body["workload"]["total_statements"] == 32
        wildcard = next(
            d for d in body["detections"] if d["anti_pattern"] == "column_wildcard"
        )
        assert wildcard["workload_weight"] > 1.0
        leftovers = glob.glob(
            str(Path(tempfile.gettempdir()) / "sqlcheck-upload-*.db")
        )
        assert leftovers == []

    def test_upload_with_garbage_content_is_400(self):
        import base64

        status, body = handle_scan_request(
            {"db_base64": base64.b64encode(b"definitely not sqlite").decode()}
        )
        assert status == 400 and "error" in body


class TestRestSelftest:
    def test_selftest_endpoint_returns_verdict_and_oracles(self):
        status, body = handle_selftest_request({"statements": 8, "workers": 1})
        assert status == 200
        assert body["ok"] is True
        assert body["examples_run"] > 0
        assert body["oracle_failures"] == []
        assert body["conformance_failures"] == []
        assert "dbdeo_agreement" in body

    def test_selftest_validates_integers(self):
        status, body = handle_selftest_request({"statements": "lots"})
        assert status == 400
        status, body = handle_selftest_request({"statements": 0})
        assert status == 400
        status, body = handle_selftest_request({"statements": 10, "workers": 0})
        assert status == 400

    def test_selftest_over_http(self):
        request_body = json.dumps({"statements": 5, "workers": 1}).encode()
        with RestServer(port=0) as server:
            request = urllib.request.Request(
                f"{server.url}/api/selftest",
                data=request_body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                payload = json.loads(response.read())
        assert payload["ok"] is True


class TestRestScanBounds:
    def test_pg_stat_false_means_disabled(self, scan_fixtures):
        db_path, log_path = scan_fixtures
        status, body = handle_scan_request({
            "db": str(db_path),
            "log_text": log_path.read_text(encoding="utf-8"),
            "log_format": "sql",
            "pg_stat": False,
        })
        assert status == 200

    def test_oversized_upload_rejected_before_decoding(self, monkeypatch):
        import base64 as base64_module

        import repro.interfaces.rest as rest_module

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("decoded an oversized upload")

        monkeypatch.setattr(base64_module, "b64decode", boom)
        too_big = "A" * ((rest_module.MAX_UPLOAD_BYTES * 4) // 3 + 8)
        status, body = handle_scan_request({"db_base64": too_big})
        assert status == 400 and "exceeds" in body["error"]

    def test_oversized_request_body_is_413(self):
        import urllib.error

        with RestServer(port=0) as server:
            request = urllib.request.Request(
                f"{server.url}/api/scan", data=b"{}", method="POST",
                headers={"Content-Length": str(10**9)},
            )
            try:
                urllib.request.urlopen(request, timeout=5)
            except (urllib.error.HTTPError, urllib.error.URLError, ConnectionError) as error:
                assert getattr(error, "code", 413) == 413
            else:  # pragma: no cover
                raise AssertionError("expected a 413")
