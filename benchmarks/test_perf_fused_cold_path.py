"""Cold-path detection throughput and its per-run workload facts (PR 7).

The matching engine makes one annotation walk per statement feed every
applicable rule through slotted accessors, fronted by the compiled
trigger-token pre-filter, with workload facts computed once per run.  The
run is **cold** (``enable_cache=False``): no annotation cache, no
detection memo, so it measures the matcher itself.

Also measured: ``detect_batch`` pool scaling with the fingerprint-sharded
fan-out, at 1 and 4 requested workers.  On a single-CPU container the pool
honestly degrades to the serial path and records that in
``parallel_mode`` — ``cpu_count`` lands in the payload so readers can
interpret the numbers.

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
POOL_WORKERS = 4


def _timed_detect(config: DetectorConfig, sql: list[str]):
    start = time.perf_counter()
    report = APDetector(config).detect(sql)
    return time.perf_counter() - start, report


def _timed_batch(config: DetectorConfig, sql: list[str], workers: int):
    start = time.perf_counter()
    report, stats = APDetector(config).detect_batch(sql, workers=workers)
    return time.perf_counter() - start, report, stats


def test_fused_cold_path_throughput(write_bench):
    base = GitHubCorpusGenerator(repos=CORPUS_REPOS).generate()
    corpus = with_duplicates(base, fraction=DUPLICATE_FRACTION)
    sql = list(corpus.iter_sql())
    assert len(sql) >= 10000

    cold_seconds, cold_report = _timed_detect(DetectorConfig(enable_cache=False), sql)
    cold_payload = [d.to_dict() for d in cold_report]

    # Pool scaling (sharded fan-out).  On a 1-CPU container
    # resolve_workers degrades both runs to serial — the mode strings and
    # cpu_count in the payload keep the numbers honest.
    serial_seconds, serial_report, serial_stats = _timed_batch(
        DetectorConfig(enable_cache=False), sql, workers=1
    )
    pool_seconds, pool_report, pool_stats = _timed_batch(
        DetectorConfig(enable_cache=False), sql, workers=POOL_WORKERS
    )
    assert [d.to_dict() for d in serial_report] == cold_payload
    assert [d.to_dict() for d in pool_report] == cold_payload

    n = len(sql)
    rows = [
        ("detect (cold)", f"{cold_seconds:.2f}", f"{n / cold_seconds:.0f}"),
        (f"batch (w=1, {serial_stats.parallel_mode})",
         f"{serial_seconds:.2f}", f"{n / serial_seconds:.0f}"),
        (f"batch (w={POOL_WORKERS}, {pool_stats.parallel_mode})",
         f"{pool_seconds:.2f}", f"{n / pool_seconds:.0f}"),
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
            "seconds": round(serial_seconds, 4),
            "statements_per_second": round(n / serial_seconds, 1),
            "mode": serial_stats.parallel_mode,
            "workers": serial_stats.workers,
        },
        "fused_batch_workers_4": {
            "seconds": round(pool_seconds, 4),
            "statements_per_second": round(n / pool_seconds, 1),
            "mode": pool_stats.parallel_mode,
            "workers": pool_stats.workers,
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
