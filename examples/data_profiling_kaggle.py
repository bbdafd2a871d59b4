"""Data-only analysis of public datasets (the §8.4 Kaggle experiment).

No queries are available for a downloaded dataset — sqlcheck can still find
anti-patterns by profiling the data itself.  This example builds three of the
synthetic Kaggle stand-ins, runs only the data-analysis rules, and prints the
findings per database.

Run with:  python examples/data_profiling_kaggle.py
"""
from __future__ import annotations

from repro import SQLCheck
from repro.workloads import KAGGLE_DATABASES, build_kaggle_database


def main() -> None:
    chosen = [spec for spec in KAGGLE_DATABASES if spec.name in (
        "The History of Baseball", "Soccer Dataset", "SF Bay Area Bike Share")]
    toolchain = SQLCheck()
    for spec in chosen:
        database = build_kaggle_database(spec)  # an open sqlite3.Connection
        report = toolchain.check((), database=database)
        table = database.execute("SELECT name FROM sqlite_master WHERE type = 'table'").fetchone()[0]
        rows = database.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
        print(f"== {spec.name} ({rows} rows sampled) ==")
        if not report.detections:
            print("  no anti-patterns found")
        for entry in report.detections:
            detection = entry.detection
            target = detection.table or ""
            if detection.column:
                target += f".{detection.column}"
            print(f"  [{entry.rank}] {detection.display_name:<24} {target}")
            print(f"      {detection.message}")
        print()


if __name__ == "__main__":
    main()
