"""Every kind of run reaches ``/metrics``' stage series exactly once.

``SQLCheck.check_context`` folds a run's ``PipelineStats`` into the
registry, so ``check``, ``scan``, ``LiveScanner.stream`` and direct calls
all record one sample per stage; ``check_many`` runs each corpus through
``check`` in this process, so a batch records every series its corpora's
separate checks would, and the detect-only ``APDetector.detect`` and
``stream`` fold their own runs.
"""
from __future__ import annotations

import pytest

from repro import SQLCheck
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


#: the rule, cache and pre-filter series a corpus's check records.
BATCH_COUNTERS = ("rule_fires", "memo_lookups", "annotation_cache_lookups", "prefilter_rules")


def _series(registry) -> dict:
    """Every count the runs recorded: each of ``BATCH_COUNTERS`` by label,
    plus statements and stage samples."""
    return {
        **{
            (name, tuple(sorted(labels.items()))): value
            for name in BATCH_COUNTERS
            for labels, value in getattr(registry, name).series()
        },
        "recorded": _recorded(registry),
    }


def test_check_many_records_what_its_corpora_checks_record(registry):
    corpora = {f"repo{seed}": CorpusGenerator(seed).corpus_sql(40)[:40] for seed in range(4)}
    toolchain = SQLCheck()
    for source, queries in corpora.items():
        toolchain.check(queries, source=source)
    expected = _series(registry)
    assert expected["recorded"] == (160, 20)
    assert all(getattr(registry, name).total() > 0 for name in BATCH_COUNTERS)
    registry.reset()
    SQLCheck().check_many(corpora, workers=2)
    assert _series(registry) == expected


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
