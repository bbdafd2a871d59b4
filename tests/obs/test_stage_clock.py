"""One stage clock: stages tile every run, and stage spans equal the stats.

``PipelineStats.stage`` times every pipeline stage: each stage starts at
the reading where the previous one ended, and ``total_seconds`` is the
last end minus the first start, so the stages sum to the total.  While
tracing, the same two readings open and close the ``stage:<name>`` span.
The cases below hold both for every entry point, a replayed ``check``
and the workload-log read of a scan and of the first chunk of a stream
and of a detection-only stream (their ``ingest`` stage) included, and pin
the two counted guards the clock's move rests on: an untraced run builds
no span, and each cache lookup is counted once, so ``/metrics``' lookup
counters grow by exactly a run's ``PipelineStats`` cache fields.
"""
from __future__ import annotations

import sqlite3

import pytest

from repro import SQLCheck
from repro.detector.detector import APDetector, DetectorConfig
from repro.ingest import LiveScanner
from repro.obs import MetricsRegistry, get_tracer, swap_registry
from repro.obs.trace import Span
from repro.testkit import CorpusGenerator

#: seconds; float rounding of perf_counter readings, not a timing tolerance.
EXACT = 1e-9

CORPUS = CorpusGenerator(5).corpus_sql(60)
STAGES = ("ingest", "parse", "context", "detect", "rank", "fix")
#: runs that read a workload log, which their first report's ingest stage
#: must time (a stream's later chunks read nothing).
INGESTING = ("scan", "stream", "stream_detect")


def _check(tmp_path):
    yield SQLCheck().check(CORPUS).stats


def _direct_check_context(tmp_path):
    toolchain = SQLCheck()
    context = toolchain._builder.build(CORPUS)
    yield None  # the build above timed into its own stats
    yield toolchain.check_context(context).stats


def _write_log(tmp_path, workload) -> str:
    log_path = tmp_path / "queries.sql"
    log_path.write_text("".join(f"{statement};\n" for statement in workload))
    return str(log_path)


def _scan(tmp_path):
    db_path = tmp_path / "app.db"
    connection = sqlite3.connect(db_path)
    with connection:
        connection.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tags TEXT, price FLOAT)")
        connection.executemany(
            "INSERT INTO t (tags, price) VALUES (?, ?)",
            [(f"a,b{i % 7}", i * 0.5) for i in range(300)],
        )
    connection.close()
    workload = [f"SELECT * FROM t WHERE id = {i % 20}" for i in range(60)] + CORPUS[:20]
    yield LiveScanner().scan(str(db_path), _write_log(tmp_path, workload)).stats


def _stream(tmp_path):
    for report in LiveScanner().stream(_write_log(tmp_path, CORPUS), chunk_size=16):
        yield report.stats


def _stream_detect(tmp_path):
    scanner = LiveScanner()
    for _, stats in scanner.stream_detect(_write_log(tmp_path, CORPUS), chunk_size=16):
        yield stats


def _detect_batch(tmp_path):
    yield APDetector(DetectorConfig()).detect_batch(CORPUS)[1]


def _persistent_replay(tmp_path):
    memo = str(tmp_path / "memo.sqlite")
    cold = APDetector(DetectorConfig(persistent_memo_path=memo))
    yield cold.detect_batch(CORPUS)[1]  # a replay miss, then the full run
    cold.close()
    warm = APDetector(DetectorConfig(persistent_memo_path=memo))
    _, stats = warm.detect_batch(CORPUS)
    warm.close()
    assert stats.parallel_mode == "persistent-replay"
    yield stats


def _replay(tmp_path):
    toolchain = SQLCheck()
    yield toolchain.check(CORPUS[:8]).stats  # the first run, stored whole
    stats = toolchain.check(CORPUS[:8]).stats
    assert stats.parallel_mode == "replay"
    yield stats


RUNS = {
    "check": _check,
    "check_context": _direct_check_context,
    "scan": _scan,
    "stream": _stream,
    "stream_detect": _stream_detect,
    "detect_batch": _detect_batch,
    "persistent_replay": _persistent_replay,
    "replay": _replay,
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_stages_tile_the_run(run, tmp_path):
    runs = [stats for stats in RUNS[run](tmp_path) if stats is not None]
    assert runs
    for index, stats in enumerate(runs):
        assert stats.total_seconds > 0
        assert abs(stats.total_seconds - stats.stage_seconds_sum()) <= EXACT
        assert (stats.ingest_seconds > 0) == (run in INGESTING and index == 0)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_stage_spans_equal_the_stats(run, tmp_path, process_tracer):
    seen = 0
    checked = 0
    for stats in RUNS[run](tmp_path):
        spans = process_tracer.spans()
        recorded, seen = spans[seen:], len(spans)
        if stats is None:
            continue
        stages = sorted(
            (span for span in recorded if span.name.startswith("stage:")),
            key=lambda span: span.start,
        )
        assert stages
        if run in INGESTING and checked == 0:  # the log read opens the run
            assert stages[0].name == "stage:ingest"
        for name in STAGES:
            durations = sum(s.duration for s in stages if s.name == f"stage:{name}")
            assert abs(durations - getattr(stats, f"{name}_seconds")) <= EXACT, name
        for earlier, later in zip(stages, stages[1:]):
            assert abs(later.start - earlier.end) <= EXACT, (earlier.name, later.name)
        assert abs(stages[-1].end - stages[0].start - stats.total_seconds) <= EXACT
        by_id = {span.span_id: span for span in recorded}
        for span in stages:
            parent = by_id.get(span.parent_id)
            if parent is not None:  # each stage lies within its enclosing span
                assert parent.start <= span.start and span.end <= parent.end, span.name
        checked += 1
    assert checked


def test_untraced_check_builds_no_span(monkeypatch):
    assert not get_tracer().enabled
    built = []
    original = Span.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs.get("name"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting)
    SQLCheck().check(CORPUS)
    assert built == []


def test_lookup_counters_grow_by_the_runs_cache_fields():
    registry = MetricsRegistry(enabled=True)
    previous = swap_registry(registry)
    try:
        toolchain = SQLCheck()
        for label in ("cold", "warm"):
            before = _lookups(registry)
            stats = toolchain.check(CORPUS).stats
            grown = tuple(now - then for now, then in zip(_lookups(registry), before))
            assert grown == (
                stats.annotation_cache_hits,
                stats.annotation_cache_misses,
                stats.memo_hits,
                stats.memo_misses,
            ), label
            assert sum(grown) > 0, label
        assert stats.annotation_cache_hits > 0 and stats.memo_hits > 0
    finally:
        swap_registry(previous)


def _lookups(registry) -> "tuple[float, float, float, float]":
    return (
        registry.annotation_cache_lookups.value(result="hit"),
        registry.annotation_cache_lookups.value(result="miss"),
        registry.memo_lookups.value(result="hit"),
        registry.memo_lookups.value(result="miss"),
    )
