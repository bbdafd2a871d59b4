"""Log-ingestion throughput and streaming memory bound (PR 4 benchmark).

Measures the live-source ingestion layer over synthetic query logs shaped
like real server output:

* **parse throughput** — lines/second of each log reader feeding the
  bounded-memory :class:`WorkloadLog` fold (PostgreSQL csvlog, PostgreSQL
  stderr, MySQL general log, plain SQL);
* **streaming memory bound** — the fold keeps one entry per *distinct*
  statement, so ingesting a log must cost memory proportional to the
  template count, not the line count (asserted with ``tracemalloc`` against
  the raw text size), and :meth:`LiveScanner.stream_detect` must hold at
  most ``chunk_size`` statements per detection chunk.

Results are written to ``BENCH_pr4.json`` (only under
``pytest --write-bench``).  Acceptance: every reader
parses ≥ 5 000 lines/s, the fold's peak memory stays under a fifth of the
raw log size, and streamed chunks never exceed their bound.
"""
from __future__ import annotations

import os
import time
import tracemalloc
from pathlib import Path

from repro.ingest import LiveScanner, WorkloadLog, iter_log_records

from ._helpers import print_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pr4.json"

UNIQUE_TEMPLATES = 250
LOG_LINES = 24_000
MIN_LINES_PER_SECOND = 5_000.0
MEMORY_FRACTION_CEILING = 0.2
STREAM_CHUNK = 64


def _statements(n: int) -> "list[str]":
    return [
        f"SELECT col_{i % 7}, col_{(i + 1) % 7} FROM table_{i} "
        f"WHERE col_{i % 7} = {i} ORDER BY col_{(i + 1) % 7} LIMIT 10"
        for i in range(n)
    ]


def _log_lines(fmt: str, statements: "list[str]", lines: int) -> "list[str]":
    """Synthesize ``lines`` log lines cycling through the templates."""
    out: "list[str]" = []
    for n in range(lines):
        statement = statements[n % len(statements)]
        if fmt == "postgres-csv":
            message = f"statement: {statement}".replace('"', '""')
            out.append(
                f'2026-07-01 12:00:00.000 UTC,"app","appdb",77,"10.0.0.9:5000",'
                f'abc,{n},"SELECT",2026-07-01 11:00:00 UTC,9/9,0,LOG,00000,'
                f'"{message}",,,,,,,,,"psql","client backend",,0\n'
            )
        elif fmt == "postgres":
            out.append(f"2026-07-01 12:00:00 UTC [77] LOG:  statement: {statement}\n")
        elif fmt == "mysql":
            out.append(f"2026-07-01T12:00:00.000000Z\t   77 Query\t{statement}\n")
        else:  # plain sql
            out.append(f"{statement};\n")
    return out


def _measure_format(fmt: str, statements: "list[str]") -> dict:
    lines = _log_lines(fmt, statements, LOG_LINES)
    start = time.perf_counter()
    log = WorkloadLog.from_records(iter_log_records(iter(lines), fmt))
    seconds = time.perf_counter() - start
    assert len(log) == UNIQUE_TEMPLATES
    assert log.total_statements == LOG_LINES
    return {
        "lines": LOG_LINES,
        "seconds": round(seconds, 4),
        "lines_per_second": round(LOG_LINES / seconds, 1),
        "distinct_statements": len(log),
    }


def test_log_ingestion_throughput_and_memory_bound(write_bench):
    statements = _statements(UNIQUE_TEMPLATES)
    formats = ("postgres-csv", "postgres", "mysql", "sql")

    # Re-measure once if a load spike on a shared runner tanks a ratio.
    for attempt in range(2):
        results = {fmt: _measure_format(fmt, statements) for fmt in formats}
        if all(r["lines_per_second"] >= MIN_LINES_PER_SECOND for r in results.values()):
            break

    # Streaming memory bound: fold a generator of log lines (nothing
    # materialised) and compare the fold's peak traced allocation against
    # the raw text volume it consumed.
    raw_lines = _log_lines("postgres", statements, LOG_LINES)
    raw_bytes = sum(len(line) for line in raw_lines)

    def line_stream():
        for line in raw_lines:
            yield line

    tracemalloc.start()
    fold = WorkloadLog.from_records(iter_log_records(line_stream(), "postgres"))
    _, fold_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(fold) == UNIQUE_TEMPLATES
    memory_fraction = fold_peak / raw_bytes

    # Chunked detection: at most STREAM_CHUNK statements per detect_batch.
    scanner = LiveScanner()
    chunk_sizes = [
        stats.statements
        for _, stats in scanner.stream_detect(fold, chunk_size=STREAM_CHUNK)
    ]
    assert chunk_sizes, "stream_detect yielded no chunks"
    assert max(chunk_sizes) <= STREAM_CHUNK
    assert sum(chunk_sizes) == UNIQUE_TEMPLATES

    rows = [
        (fmt, r["seconds"], r["lines_per_second"], r["distinct_statements"])
        for fmt, r in results.items()
    ]
    print_table(
        f"Log ingestion — {LOG_LINES} lines, {UNIQUE_TEMPLATES} templates",
        ("format", "seconds", "lines/s", "distinct"),
        rows,
    )
    print(
        f"fold peak {fold_peak / 1024:.0f} KiB over {raw_bytes / 1024:.0f} KiB of log "
        f"({memory_fraction:.1%}); {len(chunk_sizes)} chunks ≤ {STREAM_CHUNK} statements"
    )

    payload = {
        "benchmark": "log_ingestion",
        "log_lines": LOG_LINES,
        "unique_templates": UNIQUE_TEMPLATES,
        "cpu_count": os.cpu_count(),
        "throughput": results,
        "streaming_memory": {
            "raw_log_bytes": raw_bytes,
            "fold_peak_bytes": fold_peak,
            "peak_fraction_of_log": round(memory_fraction, 4),
            "bound": "O(distinct statements), not O(lines)",
        },
        "stream_detect": {
            "chunk_size": STREAM_CHUNK,
            "chunks": len(chunk_sizes),
            "max_statements_resident": max(chunk_sizes),
        },
    }
    write_bench(BENCH_PATH, payload)

    for fmt, r in results.items():
        assert r["lines_per_second"] >= MIN_LINES_PER_SECOND, (
            f"{fmt}: {r['lines_per_second']:.0f} lines/s < {MIN_LINES_PER_SECOND:.0f}"
        )
    assert memory_fraction <= MEMORY_FRACTION_CEILING, (
        f"fold peak used {memory_fraction:.1%} of the raw log size "
        f"(bound {MEMORY_FRACTION_CEILING:.0%})"
    )
