"""Every kind of run reaches ``/metrics``' stage series exactly once.

``SQLCheck.check_context`` folds a run's ``PipelineStats`` into the
registry, so ``check``, ``scan``, ``LiveScanner.stream`` and direct calls
all record one sample per stage; a pooled ``check_many`` folds the stats
its workers return, and the detect-only ``APDetector.detect`` and
``stream`` fold their own runs.
"""
from __future__ import annotations

import pytest

from repro import SQLCheck
from repro.core import sqlcheck as sqlcheck_module
from repro.detector.detector import APDetector
from repro.ingest import LiveScanner
from repro.obs import MetricsRegistry, swap_registry
from repro.testkit import CorpusGenerator

STAGES = ("parse", "context", "detect", "rank", "fix")


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = swap_registry(fresh)
    yield fresh
    swap_registry(previous)


def _recorded(registry) -> "tuple[float, int]":
    """(statements counted, stage samples) recorded so far."""
    samples = sum(registry.stage_seconds.count(stage=stage) for stage in STAGES)
    return registry.statements.total(), samples


def test_check_and_scan_record_five_stage_samples_per_run(registry):
    corpus = CorpusGenerator(5).corpus_sql(40)
    checked = SQLCheck().check(corpus)
    assert _recorded(registry) == (checked.queries_analyzed, 5)
    scanned = LiveScanner().scan(workload=corpus)
    assert _recorded(registry) == (checked.queries_analyzed + scanned.queries_analyzed, 10)


def test_direct_check_context_records_like_check(registry):
    corpus = CorpusGenerator(5).corpus_sql(40)
    SQLCheck().check(corpus)
    expected = _recorded(registry)
    registry.reset()
    toolchain = SQLCheck()
    toolchain.check_context(toolchain._builder.build(corpus))
    assert _recorded(registry) == expected


def test_stream_records_one_run_per_chunk(registry):
    corpus = CorpusGenerator(5).corpus_sql(40)
    reports = list(LiveScanner().stream(corpus, chunk_size=16))
    assert len(reports) > 1
    assert _recorded(registry) == (
        sum(report.queries_analyzed for report in reports),
        5 * len(reports),
    )


def test_pooled_check_many_records_like_the_serial_path(registry, monkeypatch):
    # Let the corpus pool run on a single-CPU container too.
    monkeypatch.setattr(
        sqlcheck_module, "resolve_workers", lambda requested: min(requested, 2)
    )
    corpora = {f"repo{seed}": CorpusGenerator(seed).corpus_sql(40)[:40] for seed in range(4)}
    SQLCheck().check_many(corpora, workers=1)
    expected = _recorded(registry)
    assert expected == (160, 20)
    registry.reset()
    pooled = SQLCheck().check_many(corpora, workers=2)
    assert pooled.stats.parallel_mode == "process-pool"
    assert _recorded(registry) == expected


DETECT_ONLY = ["SELECT * FROM orders", "SELECT id FROM users WHERE name LIKE '%ann%'"]


def test_detect_only_run_records_its_statements_and_one_stage_sample(registry):
    SQLCheck().detect(DETECT_ONLY)
    assert registry.statements.total() == 2
    assert registry.stage_seconds.count(stage="detect") == 1


def test_exhausted_stream_records_one_run(registry):
    detections = list(APDetector().stream(DETECT_ONLY))
    assert detections
    assert registry.statements.total() == 2
    assert registry.stage_seconds.count(stage="detect") == 1
