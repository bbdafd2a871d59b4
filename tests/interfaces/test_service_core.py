"""The long-lived service core: keep-alive, drain, health, and transport
hardening (malformed framing, positive-only ``sample``).

Everything here runs against a live :class:`~repro.interfaces.rest.RestServer`
or the raw handler functions — no mocked sockets, so the HTTP/1.1 framing
(exact Content-Length, Connection: close on unrecoverable requests) is
exercised as a real client would see it.
"""
from __future__ import annotations

import http.client
import json
import socket
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest

from repro.detector import DetectorConfig
from repro.interfaces.cli import run
from repro.interfaces.rest import RestServer, ToolchainPool, handle_scan_request

CHECK_BODY = json.dumps({"query": "SELECT * FROM t"}).encode()


@pytest.fixture
def server():
    with RestServer() as live:
        yield live


@pytest.fixture
def scan_db(tmp_path):
    path = tmp_path / "app.db"
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE t (id INTEGER, tags VARCHAR(100))")
    connection.commit()
    connection.close()
    return str(path)


def _post(connection: http.client.HTTPConnection, path: str, body: bytes):
    connection.request(
        "POST", path, body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response, json.loads(response.read())


# ----------------------------------------------------------------------
# keep-alive
# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_many_requests_ride_one_connection(self, server):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            payloads = []
            for _ in range(3):
                response, payload = _post(connection, "/api/check", CHECK_BODY)
                assert response.status == 200
                assert response.version == 11
                # An exact Content-Length (not chunked/close-delimited) is
                # what makes the reuse possible at all.
                assert response.headers["Content-Length"] is not None
                assert (response.headers.get("Connection") or "").lower() != "close"
                payloads.append(payload["detections"])
            assert payloads[0] == payloads[1] == payloads[2]
        finally:
            connection.close()

    def test_concurrent_keepalive_clients_get_identical_answers(self, server):
        host, port = server.address
        results: "list[list]" = []
        errors: "list[BaseException]" = []
        lock = threading.Lock()

        def client() -> None:
            connection = http.client.HTTPConnection(host, port, timeout=60)
            try:
                for _ in range(4):
                    response, payload = _post(connection, "/api/check", CHECK_BODY)
                    assert response.status == 200
                    with lock:
                        results.append(payload["detections"])
            except BaseException as error:  # surfaced in the main thread
                with lock:
                    errors.append(error)
            finally:
                connection.close()

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == 16
        assert all(payload == results[0] for payload in results)

    def test_restarted_server_with_memo_answers_identically(self, tmp_path):
        memo = str(tmp_path / "memo.sqlite")
        answers = []
        for _ in range(2):  # two server *lifetimes* over one memo file
            with RestServer(memo_path=memo) as live:
                request = urllib.request.Request(
                    live.url + "/api/check", data=CHECK_BODY,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    answers.append(json.loads(response.read())["detections"])
        assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_draining_refuses_posts_but_serves_health(self, server):
        server._server.draining = True
        try:
            request = urllib.request.Request(
                server.url + "/api/check", data=CHECK_BODY,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            refusal = json.loads(excinfo.value.read())
            assert refusal["code"] == "internal"
            assert "draining" in refusal["error"]
            # Liveness stays observable: an orchestrator watches the drain
            # complete through /api/health.
            with urllib.request.urlopen(server.url + "/api/health") as response:
                health = json.loads(response.read())
            assert health["status"] == "draining"
            assert health["draining"] is True
        finally:
            server._server.draining = False

    def test_drain_waits_for_in_flight_requests(self, server):
        release = threading.Event()
        entered = threading.Event()

        def slow_request() -> None:
            assert server._server.begin_request(refuse_when_draining=True)
            entered.set()
            release.wait(30)
            server._server.end_request()

        worker = threading.Thread(target=slow_request)
        worker.start()
        assert entered.wait(10)
        assert server._server.drain(0.2) is False  # still in flight
        release.set()
        assert server._server.drain(10) is True
        worker.join(timeout=10)
        server._server.draining = False  # let the fixture stop() re-drain


# ----------------------------------------------------------------------
# health
# ----------------------------------------------------------------------
class TestHealth:
    def test_health_reports_the_service_core(self, server):
        request = urllib.request.Request(
            server.url + "/api/check", data=CHECK_BODY,
            headers={"Content-Type": "application/json"},
        )
        urllib.request.urlopen(request).read()
        with urllib.request.urlopen(server.url + "/api/health") as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["protocol"] == "HTTP/1.1"
        assert health["in_flight"] >= 0
        pool = health["toolchains"]
        assert pool["size"] >= 1
        (toolchain,) = [
            item for item in pool["toolchains"] if item["key"].startswith("check")
        ]
        assert "detection_memo" in toolchain
        assert toolchain["detection_memo"]["entries"] >= 0
        assert toolchain["replay"]["entries"] == 1
        assert toolchain["replay"]["maxsize"] == DetectorConfig().cache_size

    def test_health_reports_persistent_occupancy(self, tmp_path):
        memo = str(tmp_path / "memo.sqlite")
        with RestServer(memo_path=memo) as live:
            request = urllib.request.Request(
                live.url + "/api/check", data=CHECK_BODY,
                headers={"Content-Type": "application/json"},
            )
            urllib.request.urlopen(request).read()
            with urllib.request.urlopen(live.url + "/api/health") as response:
                health = json.loads(response.read())
        assert health["toolchains"]["memo_path"] == memo
        (toolchain,) = health["toolchains"]["toolchains"]
        persistent = toolchain["detection_memo"]["persistent"]
        assert persistent["enabled"] is True
        assert persistent["path"] == memo


# ----------------------------------------------------------------------
# transport hardening: Content-Length framing
# ----------------------------------------------------------------------
def _raw_post(server, content_length_header: "str | None") -> "tuple[int, dict, str]":
    """Send a hand-framed POST and return (status, json body, raw headers)."""
    host, port = server.address
    lines = [
        "POST /api/check HTTP/1.1",
        f"Host: {host}:{port}",
        "Content-Type: application/json",
    ]
    if content_length_header is not None:
        lines.append(f"Content-Length: {content_length_header}")
    request = ("\r\n".join(lines) + "\r\n\r\n").encode()
    with socket.create_connection((host, port), timeout=15) as sock:
        sock.sendall(request)
        sock.settimeout(15)
        data = b""
        while True:  # the server closes unrecoverable connections → EOF
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body), head.decode("latin-1")


class TestContentLengthHardening:
    @pytest.mark.parametrize("bad", ["banana", "12abc", "1e3", ""])
    def test_non_numeric_content_length_is_a_json_400(self, server, bad):
        status, body, headers = _raw_post(server, bad)
        assert status == 400
        assert body["code"] == "bad-request"
        assert "Content-Length" in body["error"]
        # The body boundary is unknowable, so the connection must close.
        assert "connection: close" in headers.lower()

    def test_negative_content_length_is_a_json_400(self, server):
        status, body, _headers = _raw_post(server, "-5")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_server_survives_malformed_framing(self, server):
        """The hardened path must not take the service down with it."""
        _raw_post(server, "banana")
        with urllib.request.urlopen(server.url + "/api/health") as response:
            assert json.loads(response.read())["status"] == "ok"

    def test_oversized_content_length_is_a_413(self, server):
        status, body, _headers = _raw_post(server, str(10**9))
        assert status == 413
        assert "exceeds" in body["error"]


# ----------------------------------------------------------------------
# transport hardening: positive-only sample
# ----------------------------------------------------------------------
class TestSampleValidation:
    def test_rest_rejects_sample_zero(self, scan_db):
        status, body = handle_scan_request(
            {"db": scan_db, "sample": 0}, pool=ToolchainPool()
        )
        assert status == 400
        assert "positive" in body["error"]

    def test_rest_rejects_negative_sample(self, scan_db):
        status, body = handle_scan_request(
            {"db": scan_db, "sample": -3}, pool=ToolchainPool()
        )
        assert status == 400
        assert "positive" in body["error"]

    def test_rest_accepts_positive_sample(self, scan_db):
        status, _body = handle_scan_request(
            {"db": scan_db, "sample": 1}, pool=ToolchainPool()
        )
        assert status == 200

    def test_cli_rejects_sample_zero(self, scan_db):
        code, output = run(["scan", "--db", scan_db, "--sample", "0"])
        assert code == 2
        assert "positive row count" in output

    def test_cli_omitted_sample_still_means_no_limit(self, scan_db):
        code, _output = run(["scan", "--db", scan_db, "--format", "json"])
        assert code in (0, 1)


# ----------------------------------------------------------------------
# workload provenance in every format
# ----------------------------------------------------------------------
#: csvlog rows as produced by PostgreSQL (message is 0-based field 13).
def _csvlog_row(sql: str) -> str:
    return (
        '2026-07-01 12:00:00.000 UTC,"app","appdb",1234,"10.0.0.5:44444",5ef,1,'
        '"SELECT",2026-07-01 11:59:59 UTC,10/100,0,LOG,00000,'
        f'"statement: {sql}",,,,,,,,,"psql","client backend",,0\n'
    )


DEGRADED_LOG = (
    _csvlog_row("SELECT * FROM t")
    + "not,a,valid,csvlog,row\n"
    + _csvlog_row("SELECT id, tags FROM t WHERE tags LIKE '%x%'")
)


class TestWorkloadProvenance:
    def _scan(self, fmt: str) -> dict:
        status, body = handle_scan_request(
            {
                "log_text": DEGRADED_LOG,
                "log_format": "postgres-csv",
                "format": fmt,
            },
            pool=ToolchainPool(),
        )
        assert status == 200
        return body

    def test_json_scan_carries_the_degraded_workload_block(self):
        body = self._scan("json")
        workload = body["workload"]
        assert workload["degraded"] is True
        assert workload["lines_skipped"] == 1
        assert workload["distinct_statements"] == 2

    def test_markdown_scan_surfaces_degraded_ingestion(self):
        content = self._scan("markdown")["content"]
        assert "Workload: 2 distinct / 2 total statement(s)" in content
        assert "Degraded ingestion:" in content
        assert "1 malformed line(s) skipped" in content

    def test_html_scan_surfaces_degraded_ingestion(self):
        content = self._scan("html")["content"]
        assert "Degraded ingestion:" in content
        assert "<code>postgres-csv</code>" in content

    def test_sarif_scan_carries_workload_properties(self):
        body = self._scan("sarif")
        (workload,) = body["runs"][0]["properties"]["workload"].values()
        assert workload["degraded"] is True
        assert workload["lines_skipped"] == 1

    def test_clean_scan_has_no_degraded_fields(self):
        status, body = handle_scan_request(
            {
                "log_text": _csvlog_row("SELECT * FROM t"),
                "log_format": "postgres-csv",
            },
            pool=ToolchainPool(),
        )
        assert status == 200
        assert "degraded" not in body["workload"]
        assert "lines_skipped" not in body["workload"]

    def test_cli_markdown_scan_surfaces_degraded_ingestion(self, tmp_path):
        log = tmp_path / "pg.csv"
        log.write_text(DEGRADED_LOG, encoding="utf-8")
        code, output = run(
            ["scan", "--log", str(log), "--log-format", "postgres-csv",
             "--format", "markdown"]
        )
        assert code in (0, 1)
        assert "Degraded ingestion:" in output

    def test_cli_json_scan_carries_the_workload_block(self, tmp_path):
        log = tmp_path / "pg.csv"
        log.write_text(DEGRADED_LOG, encoding="utf-8")
        code, output = run(
            ["scan", "--log", str(log), "--log-format", "postgres-csv",
             "--format", "json"]
        )
        assert code in (0, 1)
        payload = json.loads(output)
        assert payload["workload"]["degraded"] is True
