"""Cold-path detection throughput and its per-run workload facts (PR 7).

The matching engine makes one annotation walk per statement feed every
applicable rule through slotted accessors, fronted by the compiled
trigger-token pre-filter, with workload facts computed once per run.  The
run is **cold** (``enable_cache=False``): no annotation cache, no
detection memo, so it measures the matcher itself.

Also measured: the cold batch path, ``detect_batch``, which must return
the bytes ``detect`` does.

Results are written to ``BENCH_pr7.json`` (only under
``pytest --write-bench``).  Acceptance: byte-identical detections on every
path, and — counted, not timed — one computation of each whole-workload
fact per run, however many statements consult it.  Recomputing them per
statement is what made the seed detector quadratic in corpus size.
"""
from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro import APDetector, DetectorConfig
from repro.catalog.schema import Schema
from repro.context.application_context import ApplicationContext
from repro.testkit import CorpusGenerator
from repro.workloads.github_corpus import GitHubCorpusGenerator, with_duplicates

from ._helpers import print_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pr7.json"

#: ~5.6k unique statements, padded to ~10.3k with 45% exact duplicates, as
#: on the paper's duplicate-heavy 174k-statement GitHub corpus.
CORPUS_REPOS = 680
DUPLICATE_FRACTION = 0.45


def _timed_detect(config: DetectorConfig, sql: list[str]):
    start = time.perf_counter()
    report = APDetector(config).detect(sql)
    return time.perf_counter() - start, report


def _timed_batch(config: DetectorConfig, sql: list[str]):
    start = time.perf_counter()
    report, stats = APDetector(config).detect_batch(sql)
    return time.perf_counter() - start, report, stats


def test_fused_cold_path_throughput(write_bench):
    base = GitHubCorpusGenerator(repos=CORPUS_REPOS).generate()
    corpus = with_duplicates(base, fraction=DUPLICATE_FRACTION)
    sql = list(corpus.iter_sql())
    assert len(sql) >= 10000

    cold_seconds, cold_report = _timed_detect(DetectorConfig(enable_cache=False), sql)
    cold_payload = [d.to_dict() for d in cold_report]

    batch_seconds, batch_report, batch_stats = _timed_batch(
        DetectorConfig(enable_cache=False), sql
    )
    assert [d.to_dict() for d in batch_report] == cold_payload

    n = len(sql)
    rows = [
        ("detect (cold)", f"{cold_seconds:.2f}", f"{n / cold_seconds:.0f}"),
        (f"batch ({batch_stats.parallel_mode})",
         f"{batch_seconds:.2f}", f"{n / batch_seconds:.0f}"),
    ]
    print_table(
        f"Cold path — {n} statements ({len(base)} unique)",
        ("path", "seconds", "stmt/s"),
        rows,
    )

    payload = {
        "benchmark": "fused_cold_path_throughput",
        "statements": n,
        "unique_statements": len(base),
        "detections": len(cold_report.detections),
        "cpu_count": os.cpu_count(),
        "fused_cold": {
            "seconds": round(cold_seconds, 4),
            "statements_per_second": round(n / cold_seconds, 1),
        },
        "fused_batch_workers_1": {
            "seconds": round(batch_seconds, 4),
            "statements_per_second": round(n / batch_seconds, 1),
            "mode": batch_stats.parallel_mode,
        },
    }
    write_bench(BENCH_PATH, payload)


@pytest.mark.parametrize("statements", [250, 1000])
def test_workload_facts_computed_once_per_run(monkeypatch, statements):
    calls = {"column_usage": 0, "column_owners": 0, "resolve_column": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ApplicationContext, "column_usage")
    counted(Schema, "column_owners")
    counted(Schema, "resolve_column")
    sql = CorpusGenerator(3).corpus_sql(statements)
    APDetector(DetectorConfig(enable_cache=False)).detect(sql)
    # Recomputing the facts per rule call reads 7 -> 22 column_usage calls
    # and 107 -> 404 Schema.resolve_column scans from 250 to 1,000
    # statements: a count that grows with n fails here.
    assert calls == {"column_usage": 1, "column_owners": 1, "resolve_column": 0}
