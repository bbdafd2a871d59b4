"""Tracer semantics, the JSONL export schema, and pipeline span trees."""
from __future__ import annotations

import json

import pytest

from repro.detector.detector import APDetector, DetectorConfig
from repro.obs import now
from repro.obs.trace import DEFAULT_MAX_SPANS, SCHEMA_VERSION, Tracer
from repro.testkit.generator import CorpusGenerator


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


class TestTracerCore:
    def test_disabled_tracer_is_a_noop(self):
        cold = Tracer(enabled=False)
        with cold.span("run", source="x") as span:
            assert span is None
        assert cold.record("stage", now(), now()) is None
        assert cold.spans() == []

    def test_nested_spans_form_a_tree(self, tracer):
        with tracer.span("run") as run:
            with tracer.span("stage:parse") as parse:
                pass
            with tracer.span("stage:detect") as detect:
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["stage:parse"].parent_id == run.span_id
        assert spans["stage:detect"].parent_id == run.span_id
        assert spans["run"].parent_id is None
        assert spans["stage:parse"].span_id != spans["stage:detect"].span_id

    def test_record_parents_to_the_open_span(self, tracer):
        t0 = now()
        with tracer.span("run") as run:
            tracer.record("stage:rank", t0, now(), items=3)
        (ranked,) = [s for s in tracer.spans() if s.name == "stage:rank"]
        assert ranked.parent_id == run.span_id
        assert ranked.attributes == {"items": 3}
        assert ranked.duration >= 0

    def test_exception_inside_span_is_annotated_and_propagates(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                raise RuntimeError("boom")
        (run,) = tracer.spans()
        assert run.attributes["error"] == "RuntimeError"

    def test_max_spans_bound_counts_drops(self):
        small = Tracer(enabled=True, max_spans=2)
        for index in range(5):
            small.record(f"s{index}", 0.0, 0.0)
        assert len(small.spans()) == 2
        assert small.dropped == 3
        assert DEFAULT_MAX_SPANS >= 100_000

    def test_enable_reset_clears_earlier_trace(self, tracer):
        with tracer.span("old"):
            pass
        tracer.enable(reset=True)
        assert tracer.spans() == []


class TestJsonlExport:
    REQUIRED_KEYS = {"v", "span_id", "parent_id", "name", "start_ms",
                     "duration_ms", "attributes"}

    def _export_lines(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = tracer.export(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        return written, lines

    def test_every_line_has_the_full_schema(self, tracer, tmp_path):
        with tracer.span("run", source="corpus.sql"):
            with tracer.span("stage:parse"):
                pass
        written, lines = self._export_lines(tracer, tmp_path)
        assert written == 2 == len(lines)
        for line in lines:
            assert set(line) == self.REQUIRED_KEYS
            assert line["v"] == SCHEMA_VERSION
            assert line["duration_ms"] >= 0
        ids = {line["span_id"] for line in lines}
        for line in lines:
            assert line["parent_id"] is None or line["parent_id"] in ids

    def test_dropped_spans_leave_a_marker_line(self, tmp_path):
        small = Tracer(enabled=True, max_spans=1)
        small.record("kept", 0.0, 0.0)
        small.record("lost", 0.0, 0.0)
        _, lines = self._export_lines(small, tmp_path)
        assert lines[-1]["name"] == "tracer:dropped"
        assert lines[-1]["attributes"]["dropped_spans"] == 1


class TestPipelineSpanTrees:
    def _span_tree(self, tracer):
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        return spans, by_id

    def test_serial_detect_batch_nests_stages_and_rules(self, process_tracer):
        corpus = CorpusGenerator(11).corpus_sql(20)
        report, stats = APDetector(DetectorConfig()).detect_batch(corpus)
        assert stats.parallel_mode == "serial"
        spans, by_id = self._span_tree(process_tracer)
        names = [s.name for s in spans]
        (batch,) = [s for s in spans if s.name == "detect_batch"]
        assert batch.attributes["statements"] == len(corpus)
        for stage in ("stage:parse", "stage:context", "stage:detect"):
            (span,) = [s for s in spans if s.name == stage]
            assert span.parent_id == batch.span_id
        rule_spans = [s for s in spans if s.name.startswith("rule:")]
        assert rule_spans, names
        (detect_stage,) = [s for s in spans if s.name == "stage:detect"]
        assert all(s.parent_id == detect_stage.span_id for s in rule_spans)
        fired = sum(s.attributes.get("fired", 0) for s in rule_spans)
        assert fired == len(report.detections)

    def test_traced_scan_puts_the_live_source_in_a_context_stage(
        self, process_tracer, tmp_path
    ):
        import sqlite3

        from repro.ingest import LiveScanner

        db_path = tmp_path / "app.db"
        with sqlite3.connect(db_path) as connection:
            connection.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, tags TEXT, price FLOAT)"
            )
            connection.executemany(
                "INSERT INTO t (tags, price) VALUES (?, ?)",
                [(f"a,b{i % 7}", i * 0.5) for i in range(2000)],
            )
        connection.close()
        statements = [f"SELECT * FROM t WHERE id = {i}" for i in range(50)]
        report = LiveScanner().scan(str(db_path), statements)
        spans, by_id = self._span_tree(process_tracer)
        contexts = [s for s in spans if s.name == "stage:context"]
        assert sum(s.duration for s in contexts) == pytest.approx(
            report.stats.context_seconds, abs=1e-3
        )
        connector_spans = [s for s in spans if s.name.startswith("connector:")]
        assert connector_spans

        def has_context_ancestor(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                if span.name == "stage:context":
                    return True
            return False

        assert all(has_context_ancestor(s) for s in connector_spans)

    def test_traced_batch_cli_runs_in_process(self, tmp_path):
        from repro.interfaces.cli import run

        files = []
        for seed in (5, 6):
            path = tmp_path / f"repo{seed}.sql"
            path.write_text(";\n".join(CorpusGenerator(seed).corpus_sql(50)) + ";\n")
            files.append(str(path))
        trace = tmp_path / "trace.jsonl"
        code, output = run(
            files + ["--batch", "--format", "json", "--stats", "--trace", str(trace)]
        )
        assert code in (0, 1), output
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert json.loads(output)["stats"]["parallel_mode"] == "serial"
        checks = [s for s in spans if s["name"] == "check"]
        assert sorted(s["attributes"]["source"] for s in checks) == sorted(files)
        assert any(s["name"].startswith("rule:") for s in spans)
