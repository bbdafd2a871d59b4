"""``GET /metrics`` and the ``metrics`` block on stats payloads."""
from __future__ import annotations

import json
import urllib.request

import pytest

from repro import LiveScanner, SQLCheck
from repro.interfaces.rest import (
    RestServer,
    ToolchainPool,
    handle_check_batch_request,
    handle_check_request,
    handle_scan_request,
)
from repro.obs import MetricsRegistry, get_metrics, set_metrics_enabled, swap_registry
from repro.obs.prometheus import render_prometheus

REQUIRED_FAMILIES = (
    "sqlcheck_annotation_cache_lookups_total",
    "sqlcheck_detection_memo_lookups_total",
    "sqlcheck_prefilter_rules_total",
    "sqlcheck_rule_fires_total",
    "sqlcheck_rule_check_seconds",
    "sqlcheck_stage_seconds",
    "sqlcheck_quarantined_errors_total",
    "sqlcheck_connector_retries_total",
    "sqlcheck_connector_breaker_trips_total",
    "sqlcheck_ingest_lines_total",
)


@pytest.fixture
def fresh_registry():
    """Swap in an isolated registry so other tests' traffic can't leak in."""
    registry = MetricsRegistry(enabled=True)
    previous = swap_registry(registry)
    yield registry
    swap_registry(previous)


class TestMetricsEndpoint:
    def test_get_metrics_serves_valid_prometheus_text(self, fresh_registry):
        # Drive some real traffic through the pipeline first (a fresh pool:
        # the assertions below need a cold run, and the shared default pool
        # may already hold this workload's memoized detections).
        status, _body = handle_check_request(
            {"query": "SELECT * FROM t; SELECT * FROM t", "stats": True},
            pool=ToolchainPool(),
        )
        assert status == 200
        with RestServer() as server:
            with urllib.request.urlopen(server.url + "/metrics") as response:
                text = response.read().decode("utf-8")
                content_type = response.headers["Content-Type"]
        assert response.status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        for family in REQUIRED_FAMILIES:
            assert f"# HELP {family}" in text
            assert f"# TYPE {family}" in text
        # Exposition validity: every sample line parses as name/value.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value_part = line.rsplit(" ", 1)
            assert name_part.startswith("sqlcheck_")
            float(value_part)
        # The traffic above must be visible: rules fired, memo was consulted.
        assert 'sqlcheck_rule_fires_total{rule="' in text
        assert 'sqlcheck_detection_memo_lookups_total{result="' in text

    def test_api_metrics_alias(self, fresh_registry):
        with RestServer() as server:
            with urllib.request.urlopen(server.url + "/api/metrics") as response:
                assert response.status == 200
                assert "sqlcheck_" in response.read().decode("utf-8")

    def test_unknown_get_path_is_still_404(self, fresh_registry):
        with RestServer() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/metricsx")
            assert excinfo.value.code == 404


class TestStatsMetricsBlock:
    def test_rest_stats_payload_carries_metrics(self, fresh_registry):
        # A fresh pool: rule fires only happen on a cold (unmemoized) run.
        status, body = handle_check_request(
            {"query": "SELECT * FROM t", "stats": True}, pool=ToolchainPool()
        )
        assert status == 200
        metrics = body["stats"]["metrics"]
        assert "sqlcheck_rule_fires_total" in metrics
        json.dumps(metrics)  # must be JSON-serialisable as-is

    # The snapshot is opt-in on every JSON report route: a default body
    # keeps its pipeline ``stats`` and carries no ``metrics`` block.
    def test_rest_check_attaches_metrics_only_on_request(self, fresh_registry):
        pool = ToolchainPool()
        status, body = handle_check_request({"query": "SELECT * FROM t"}, pool=pool)
        assert status == 200
        assert "stages" in body["stats"]
        assert "metrics" not in body["stats"]
        for flag in (False, "true", 1):
            _, body = handle_check_request(
                {"query": "SELECT * FROM t", "stats": flag}, pool=pool
            )
            assert "metrics" not in body["stats"], flag

    def test_rest_check_batch_attaches_metrics_only_on_request(self, fresh_registry):
        pool = ToolchainPool()
        request = {"corpora": {"a": "SELECT * FROM t", "b": ["SELECT * FROM u"]}}
        status, body = handle_check_batch_request(dict(request), pool=pool)
        assert status == 200
        assert "stages" in body["stats"]
        assert "metrics" not in body["stats"]
        status, body = handle_check_batch_request({**request, "stats": True}, pool=pool)
        assert status == 200
        assert "sqlcheck_stage_seconds" in body["stats"]["metrics"]
        json.dumps(body)

    def test_rest_scan_attaches_metrics_only_on_request(self, fresh_registry):
        pool = ToolchainPool()
        request = {"log_text": "SELECT * FROM t;\nSELECT * FROM t;\n", "log_format": "sql"}
        status, body = handle_scan_request(dict(request), pool=pool)
        assert status == 200
        assert "stages" in body["stats"]
        assert "metrics" not in body["stats"]
        status, body = handle_scan_request({**request, "stats": True}, pool=pool)
        assert status == 200
        assert "sqlcheck_stage_seconds" in body["stats"]["metrics"]
        json.dumps(body)

    def test_stats_payload_is_byte_stable_when_metrics_disabled(self, fresh_registry):
        previous = set_metrics_enabled(False)
        try:
            status, body = handle_check_request(
                {"query": "SELECT * FROM t", "stats": True}
            )
        finally:
            set_metrics_enabled(previous)
        assert status == 200
        assert "metrics" not in body["stats"]

    def test_cli_stats_payload_carries_metrics(self, fresh_registry):
        from repro.interfaces.cli import run

        code, output = run(["--format", "json", "--stats", "-q", "SELECT * FROM t"])
        assert code in (0, 1)  # 1 = findings present
        payload = json.loads(output)
        assert "metrics" in payload["stats"]
        assert "sqlcheck_rule_fires_total" in payload["stats"]["metrics"]

    def test_cli_batch_stats_payload_carries_metrics(self, fresh_registry, tmp_path):
        from repro.interfaces.cli import run

        paths = []
        for name in ("a.sql", "b.sql"):
            path = tmp_path / name
            path.write_text("SELECT * FROM t;\n", encoding="utf-8")
            paths.append(str(path))
        _, output = run([*paths, "--batch", "--format", "json", "--stats"])
        assert "sqlcheck_stage_seconds" in json.loads(output)["stats"]["metrics"]
        _, output = run([*paths, "--batch", "--format", "json"])
        assert "stats" not in json.loads(output)


def _samples(registry: MetricsRegistry) -> "dict[str, float]":
    """Prometheus sample lines as ``{series: value}``."""
    samples = {}
    for line in render_prometheus(registry).splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples


class TestCacheSeries:
    """Every run that reads the caches updates the cache series once."""

    def _assert_one_hit_one_miss(self, registry: MetricsRegistry) -> None:
        samples = _samples(registry)
        assert samples['sqlcheck_annotation_cache_lookups_total{result="hit"}'] == 1
        assert samples['sqlcheck_annotation_cache_lookups_total{result="miss"}'] == 1
        assert samples["sqlcheck_annotation_cache_entries"] > 0
        assert samples["sqlcheck_detection_memo_entries"] > 0

    def test_check_runs_update_the_cache_series(self, fresh_registry):
        toolchain = SQLCheck()
        # A different source per run keeps the repeat out of the replay
        # layer, so it reads the parse cache and the memo.
        for run in range(2):
            toolchain.check("SELECT * FROM t", source=f"run-{run}")
        self._assert_one_hit_one_miss(fresh_registry)

    def test_repeat_checks_update_the_replay_series(self, fresh_registry):
        toolchain = SQLCheck()
        for _ in range(2):
            toolchain.check("SELECT * FROM t")
        samples = _samples(fresh_registry)
        assert samples['sqlcheck_replay_lookups_total{result="hit"}'] == 1
        assert samples['sqlcheck_replay_lookups_total{result="miss"}'] == 1
        # The replayed run looked nothing up in the parse cache or the memo.
        assert samples['sqlcheck_annotation_cache_lookups_total{result="miss"}'] == 1
        assert 'sqlcheck_annotation_cache_lookups_total{result="hit"}' not in samples

    def test_scan_runs_update_the_cache_series(self, fresh_registry):
        scanner = LiveScanner()
        for _ in range(2):
            scanner.scan(workload=["SELECT * FROM t"])
        self._assert_one_hit_one_miss(fresh_registry)
