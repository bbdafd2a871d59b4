"""The GlobaLeaks case study (paper §2.1 and §8.2).

Builds the anti-pattern and the refactored variants of the GlobaLeaks schema
in in-memory SQLite databases, runs sqlcheck on the application's queries
*and* data, and counts how much less work (SQLite VDBE steps) the three
tasks take once the multi-valued attribute anti-pattern is fixed.

Run with:  python examples/globaleaks_case_study.py
"""
from __future__ import annotations

import sqlite3

from repro import SQLCheck
from repro.workloads import GlobaLeaksWorkload


def steps(connection: sqlite3.Connection, sql: str) -> int:
    """VDBE steps SQLite takes to run ``sql`` (a progress handler counts them)."""
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1

    connection.set_progress_handler(tick, 1)
    connection.execute(sql).fetchall()
    connection.set_progress_handler(None, 1)
    return count


def main() -> None:
    workload = GlobaLeaksWorkload(tenants=500)
    ap_db = workload.build_ap_database()
    fixed_db = workload.build_fixed_database()

    # 1. Analyse the application: queries + live database.
    print("== sqlcheck on the GlobaLeaks application (queries + data) ==")
    report = SQLCheck().check(workload.application_queries(), database=ap_db)
    for entry in report.detections[:8]:
        target = entry.detection.table or ""
        if entry.detection.column:
            target += f".{entry.detection.column}"
        print(f"[{entry.rank}] {entry.detection.display_name:<24} {target:<22} score={entry.score:.3f}")
    top_fix = report.fix_for(report.detections[0])
    print("\nhighest-impact fix:")
    print(f"  {top_fix.explanation}")
    for statement in top_fix.statements:
        print(f"  SQL> {statement.splitlines()[0]}")

    # 2. Quantify the impact of the fix (Figure 3).
    print("\n== Task cost (VDBE steps) with and without the multi-valued attribute AP ==")
    tasks = [
        ("Task #1: tenants of a user", workload.task1_ap("U42"), workload.task1_fixed("U42")),
        ("Task #2: users of a tenant", workload.task2_ap("T17"), workload.task2_fixed("T17")),
        ("Task #3: remove a user", workload.task3_ap("U99"), workload.task3_fixed("U99")),
    ]
    for name, ap_sql, fixed_sql in tasks:
        with_ap = steps(ap_db, ap_sql)
        without_ap = steps(fixed_db, fixed_sql)
        print(f"  {name:<30} with AP {with_ap:7d} steps   fixed {without_ap:5d} steps   "
              f"speedup {with_ap / without_ap:5.1f}x")


if __name__ == "__main__":
    main()
