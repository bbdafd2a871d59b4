"""Shared helpers for the benchmark harness.

Each benchmark reproduces one table or figure of the paper: it runs the
relevant workload, prints the rows/series the paper reports (so the shape can
be compared side by side with the publication), and asserts the qualitative
claims (who wins, by roughly what factor, where crossovers fall).  The
performance figures count SQLite's VDBE steps (:func:`steps`), which are the
same on every run, instead of timing the queries.
"""
from __future__ import annotations

import sqlite3
from typing import Any, Iterable, Sequence


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Print a fixed-width table resembling the paper's tables."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print()
    print(f"=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    print()


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell >= 100:
            return f"{cell:.1f}"
        if cell >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def steps(connection: sqlite3.Connection, *statements: str) -> int:
    """The VDBE steps SQLite takes to run ``statements`` to completion, in
    order (a progress handler called at every step counts them)."""
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1

    connection.set_progress_handler(tick, 1)
    try:
        for statement in statements:
            connection.execute(statement).fetchall()
    finally:
        connection.set_progress_handler(None, 1)
    return count


def speedup(with_ap: float, without_ap: float) -> float:
    """Speedup factor obtained by fixing the anti-pattern (a ratio of step
    counts or of costs)."""
    if without_ap <= 0:
        return float("inf")
    return with_ap / without_ap
