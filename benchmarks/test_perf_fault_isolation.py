"""Fault-isolation overhead and degraded-throughput benchmark (PR 6).

Quarantine must be close to free: the per-rule/per-statement try-except
wrappers run on *every* statement of *every* scan, so their cost on the
clean path (no faults) is pure overhead.  And a dirty corpus must not
collapse ingestion: skipping-and-counting 5% junk lines should cost about
what reading them would have.

Measures:

* **quarantine overhead** — warm-path detection throughput with
  ``DetectorConfig(quarantine=True)`` (the default) vs ``quarantine=False``
  over an identical clean corpus; both modes must also produce identical
  detections.
* **corrupted-corpus throughput** — log ingestion (plain-SQL reader under
  an :class:`ErrorBudget`) over a corpus with 5% injected binary junk vs
  the clean original; the degraded read must recover exactly the clean
  statement fold.

Results are written to ``BENCH_pr6.json`` (only under
``pytest --write-bench``).  Acceptance: quarantine
overhead ≤ 5%, and the 5%-corrupted read sustains ≥ 60% of clean
throughput while recovering the clean statements exactly.
"""
from __future__ import annotations

import os
import time
from pathlib import Path

from repro.detector import APDetector, DetectorConfig
from repro.errors import ErrorBudget
from repro.ingest import WorkloadLog, iter_log_records
from repro.testkit import FaultPlan, corrupt_log_lines

from ._helpers import print_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pr6.json"

TEMPLATES = 300
LOG_LINES = 12_000
FAULT_FRACTION = 0.05
OVERHEAD_CEILING = 0.05
DEGRADED_THROUGHPUT_FLOOR = 0.6
REPEATS = 5


def _corpus(n: int) -> "list[str]":
    """Statements that keep the rules busy (wildcards, LIKE, ORDER BY)."""
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(f"SELECT * FROM table_{i} WHERE col_a = {i}")
        elif i % 3 == 1:
            out.append(
                f"SELECT col_a, col_b FROM table_{i} "
                f"WHERE col_b LIKE '%needle_{i}%' ORDER BY col_a"
            )
        else:
            out.append(
                f"SELECT col_{i % 7} FROM table_{i} "
                f"WHERE col_{i % 7} = {i} LIMIT 10"
            )
    return out


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall clock: the most load-noise-resistant point estimate."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_quarantine_overhead(corpus: "list[str]") -> dict:
    def run(quarantine: bool):
        config = DetectorConfig(enable_cache=False, quarantine=quarantine)
        return APDetector(config).detect(corpus)

    # Identical findings first — the overhead question is only meaningful
    # when both modes do the same work.
    on = [d.to_dict() for d in run(True).detections]
    off = [d.to_dict() for d in run(False).detections]
    assert on == off, "quarantine wrappers changed the clean-path detections"

    # On and off alternate within each repeat, the first side rotating, so
    # a slow spell on a shared runner lands on both modes alike instead of
    # on whichever block of repeats it happens to hit.
    best = {True: float("inf"), False: float("inf")}
    for repeat in range(REPEATS):
        for quarantine in (True, False) if repeat % 2 == 0 else (False, True):
            start = time.perf_counter()
            run(quarantine)
            best[quarantine] = min(best[quarantine], time.perf_counter() - start)
    seconds_on, seconds_off = best[True], best[False]
    overhead = seconds_on / seconds_off - 1.0
    return {
        "statements": len(corpus),
        "seconds_quarantine_on": round(seconds_on, 4),
        "seconds_quarantine_off": round(seconds_off, 4),
        "statements_per_second_on": round(len(corpus) / seconds_on, 1),
        "statements_per_second_off": round(len(corpus) / seconds_off, 1),
        "overhead_fraction": round(overhead, 4),
    }


def _measure_corrupted_ingestion() -> dict:
    statements = _corpus(TEMPLATES)
    clean_lines = [
        statements[n % TEMPLATES] + ";\n" for n in range(LOG_LINES)
    ]
    faults = int(LOG_LINES * FAULT_FRACTION)
    corrupted_lines, injected = corrupt_log_lines(
        clean_lines, plan=FaultPlan(seed=2020), faults=faults
    )
    assert injected == faults

    def read_clean():
        return WorkloadLog.from_records(iter_log_records(iter(clean_lines), "sql"))

    budgets: "list[ErrorBudget]" = []

    def read_corrupted():
        budget = ErrorBudget()
        log = WorkloadLog.from_records(
            iter_log_records(iter(corrupted_lines), "sql", budget)
        )
        budgets.append(budget)
        return log

    clean_log = read_clean()
    degraded_log = read_corrupted()
    # The degraded read recovers the clean fold exactly and counts every
    # injected fault — corruption is quarantined, not contagious.
    assert degraded_log.statements() == clean_log.statements()
    assert len(budgets[-1]) == injected

    seconds_clean = _best_seconds(read_clean, repeats=3)
    seconds_corrupted = _best_seconds(read_corrupted, repeats=3)
    ratio = seconds_clean / seconds_corrupted
    return {
        "log_lines": LOG_LINES,
        "injected_junk_lines": injected,
        "fault_fraction": FAULT_FRACTION,
        "seconds_clean": round(seconds_clean, 4),
        "seconds_corrupted": round(seconds_corrupted, 4),
        "lines_per_second_clean": round(LOG_LINES / seconds_clean, 1),
        "lines_per_second_corrupted": round(
            (LOG_LINES + injected) / seconds_corrupted, 1
        ),
        "corrupted_vs_clean_throughput": round(ratio, 4),
    }


def test_fault_isolation_overhead_and_degraded_throughput(write_bench):
    corpus = _corpus(TEMPLATES)

    # Re-measure if a load spike on a shared runner tanks a ratio: the
    # claim is about the code, not about one noisy scheduling quantum.
    for attempt in range(3):
        quarantine = _measure_quarantine_overhead(corpus)
        if quarantine["overhead_fraction"] <= OVERHEAD_CEILING:
            break
    for attempt in range(3):
        ingestion = _measure_corrupted_ingestion()
        if ingestion["corrupted_vs_clean_throughput"] >= DEGRADED_THROUGHPUT_FLOOR:
            break

    print_table(
        f"Quarantine overhead — {TEMPLATES} statements, warm path",
        ("mode", "seconds", "stmts/s"),
        [
            ("quarantine on", quarantine["seconds_quarantine_on"],
             quarantine["statements_per_second_on"]),
            ("quarantine off", quarantine["seconds_quarantine_off"],
             quarantine["statements_per_second_off"]),
        ],
    )
    print_table(
        f"Degraded ingestion — {LOG_LINES} lines, "
        f"{ingestion['injected_junk_lines']} junk",
        ("corpus", "seconds", "lines/s"),
        [
            ("clean", ingestion["seconds_clean"],
             ingestion["lines_per_second_clean"]),
            ("5% corrupted", ingestion["seconds_corrupted"],
             ingestion["lines_per_second_corrupted"]),
        ],
    )
    print(
        f"quarantine overhead {quarantine['overhead_fraction']:+.1%} "
        f"(bound {OVERHEAD_CEILING:.0%}); corrupted read at "
        f"{ingestion['corrupted_vs_clean_throughput']:.0%} of clean throughput"
    )

    payload = {
        "benchmark": "fault_isolation",
        "cpu_count": os.cpu_count(),
        "quarantine_overhead": quarantine,
        "corrupted_ingestion": ingestion,
        "bounds": {
            "overhead_ceiling": OVERHEAD_CEILING,
            "degraded_throughput_floor": DEGRADED_THROUGHPUT_FLOOR,
        },
    }
    write_bench(BENCH_PATH, payload)

    assert quarantine["overhead_fraction"] <= OVERHEAD_CEILING, (
        f"quarantine wrappers cost {quarantine['overhead_fraction']:.1%} "
        f"on the clean path (bound {OVERHEAD_CEILING:.0%})"
    )
    assert (
        ingestion["corrupted_vs_clean_throughput"] >= DEGRADED_THROUGHPUT_FLOOR
    ), (
        f"5%-corrupted ingestion ran at "
        f"{ingestion['corrupted_vs_clean_throughput']:.0%} of clean throughput "
        f"(floor {DEGRADED_THROUGHPUT_FLOOR:.0%})"
    )
