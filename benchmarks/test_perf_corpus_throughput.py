"""Corpus-scale detection throughput (PR 1 acceptance benchmark).

Measures statements/sec of ap-detect's batch path, ``detect_batch``, over
a synthetic ~5k-statement duplicate-heavy corpus (≥30% exact duplicates,
modelling the literal-only repetition that dominates the paper's
174k-statement GitHub corpus) in three states:

* **cold** — caching disabled: every statement is parsed, annotated, and
  dispatched from scratch (the seed's behaviour);
* **cached first pass** — a fresh detector with its caches on: repeats
  within the corpus hit the annotation cache and the detection memo;
* **warm** — a second pass over the caches the first pass filled.

Results are written to ``BENCH_pr1.json`` (only under
``pytest --write-bench``).  Acceptance: warm ≥ 3× cold, the fresh cached
batch ≥ 1.5× cold, and every state byte-identical to the cold path.
"""
from __future__ import annotations

import os
import time
from pathlib import Path

from repro import APDetector, DetectorConfig
from repro.workloads.github_corpus import GitHubCorpusGenerator, with_duplicates

from ._helpers import print_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pr1.json"

#: ~2.8k unique statements, padded to ~5.1k with 45% exact duplicates.
CORPUS_REPOS = 340
DUPLICATE_FRACTION = 0.45


def _timed_batch(detector: APDetector, sql: list[str]):
    start = time.perf_counter()
    report, stats = detector.detect_batch(sql)
    return time.perf_counter() - start, report, stats


def _measure(sql: list[str]):
    """One full measurement round: cold, cached first pass, warm."""
    # Cold path: the seed's behaviour — no caches anywhere.
    cold_seconds, cold_report, _ = _timed_batch(
        APDetector(DetectorConfig(enable_cache=False)), sql
    )
    # First cached pass populates the annotation cache and detection memo;
    # the second pass over the same corpus is the warm measurement.
    cached_detector = APDetector(DetectorConfig(enable_cache=True))
    first_seconds, first_report, first_stats = _timed_batch(cached_detector, sql)
    warm_seconds, warm_report, warm_stats = _timed_batch(cached_detector, sql)
    return (
        cold_seconds, cold_report,
        first_seconds, first_report, first_stats,
        warm_seconds, warm_report, warm_stats,
    )


def test_corpus_throughput_cold_warm_parallel(write_bench):
    base = GitHubCorpusGenerator(repos=CORPUS_REPOS).generate()
    corpus = with_duplicates(base, fraction=DUPLICATE_FRACTION)
    sql = list(corpus.iter_sql())
    duplicate_fraction = 1 - len(base) / len(sql)
    assert len(sql) >= 5000
    assert duplicate_fraction >= 0.30

    # The ratios are machine-dependent; a transient load spike on a shared
    # runner should not fail the suite, so re-measure once before asserting.
    for attempt in range(2):
        (
            cold_seconds, cold_report,
            first_seconds, first_report, first_stats,
            warm_seconds, warm_report, warm_stats,
        ) = _measure(sql)
        if cold_seconds / warm_seconds >= 3.0 and cold_seconds / first_seconds >= 1.5:
            break

    # Correctness before speed: every path must agree with the cold path.
    cold_payload = [d.to_dict() for d in cold_report]
    assert [d.to_dict() for d in first_report] == cold_payload
    assert [d.to_dict() for d in warm_report] == cold_payload

    n = len(sql)
    warm_speedup = cold_seconds / warm_seconds
    batch_speedup = cold_seconds / first_seconds
    rows = [
        ("cold (no caches)", f"{cold_seconds:.2f}", f"{n / cold_seconds:.0f}", "1.00"),
        ("cached first pass", f"{first_seconds:.2f}", f"{n / first_seconds:.0f}",
         f"{batch_speedup:.2f}"),
        ("warm (2nd pass)", f"{warm_seconds:.2f}", f"{n / warm_seconds:.0f}",
         f"{warm_speedup:.2f}"),
    ]
    print_table(
        f"Corpus throughput — {n} statements, {duplicate_fraction:.0%} duplicates",
        ("path", "seconds", "stmt/s", "speedup"),
        rows,
    )

    payload = {
        "benchmark": "corpus_detection_throughput",
        "statements": n,
        "unique_statements": len(base),
        "duplicate_fraction": round(duplicate_fraction, 4),
        "detections": len(cold_report.detections),
        "cpu_count": os.cpu_count(),
        "cold": {
            "seconds": round(cold_seconds, 4),
            "statements_per_second": round(n / cold_seconds, 1),
        },
        "cached_first_pass": {
            "seconds": round(first_seconds, 4),
            "statements_per_second": round(n / first_seconds, 1),
            "memo_hit_rate": round(first_stats.memo_hit_rate, 4),
        },
        "warm": {
            "seconds": round(warm_seconds, 4),
            "statements_per_second": round(n / warm_seconds, 1),
            "annotation_cache_hit_rate": round(warm_stats.annotation_cache_hit_rate, 4),
            "memo_hit_rate": round(warm_stats.memo_hit_rate, 4),
        },
        "speedups": {
            "warm_vs_cold": round(warm_speedup, 2),
            "cached_first_pass_vs_cold": round(batch_speedup, 2),
        },
        "results_identical_to_cold_path": True,
    }
    write_bench(BENCH_PATH, payload)

    assert warm_speedup >= 3.0, f"warm cache speedup {warm_speedup:.2f}x < 3x"
    assert batch_speedup >= 1.5, f"cached batch speedup {batch_speedup:.2f}x < 1.5x"
