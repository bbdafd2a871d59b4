"""Tables 4 and 7 — sqlcheck on 15 Django web applications.

The paper deploys 15 Django applications, runs sqlcheck on the SQL their ORM
issues, detects 123 anti-patterns in total, and reports the 32 highest-impact
ones upstream.  Here each application is a synthetic ORM-style workload plus
a populated SQLite database carrying the anti-patterns Table 7 attributes to
it.  The reproduced claims: every reported anti-pattern type is re-detected
in its application, every application yields multiple detections, and the
reported subset sits at the top of ap-rank's ordering.
"""
from __future__ import annotations

import pytest

from repro.core import SQLCheck, SQLCheckOptions
from repro.detector import DetectorConfig
from repro.workloads import DJANGO_APPLICATIONS, build_application_workload
from repro.workloads.django_apps import build_application_database, reported_anti_patterns

from ._helpers import print_table


def _analyse_applications():
    toolchain = SQLCheck(SQLCheckOptions(detector=DetectorConfig()))
    results = []
    for app in DJANGO_APPLICATIONS:
        workload = build_application_workload(app)
        database = build_application_database(app, rows=120)
        context = toolchain._builder.build(workload, database=database, source=app.name)
        report = toolchain.check_context(context)
        detected_types = {entry.anti_pattern for entry in report.detections}
        reported = reported_anti_patterns(app)
        top_types = {entry.anti_pattern for entry in report.detections[: max(6, len(reported) * 3)]}
        results.append(
            {
                "app": app,
                "detections": len(report.detections),
                "detected_types": detected_types,
                "reported_found": reported & detected_types,
                "reported_missing": reported - detected_types,
                "reported_in_top": reported & top_types,
            }
        )
    return results


def test_table4_web_applications(benchmark):
    results = benchmark.pedantic(_analyse_applications, rounds=1, iterations=1)
    rows = []
    for result in results:
        app = result["app"]
        rows.append(
            [
                app.name,
                app.domain,
                app.detected_aps,
                result["detections"],
                len(app.reported_aps),
                len(result["reported_found"]),
                ", ".join(sorted(ap.display_name for ap in result["reported_found"])),
            ]
        )
    rows.append(
        [
            "Total",
            "",
            sum(app.detected_aps for app in DJANGO_APPLICATIONS),
            sum(r["detections"] for r in results),
            sum(len(app.reported_aps) for app in DJANGO_APPLICATIONS),
            sum(len(r["reported_found"]) for r in results),
            "",
        ]
    )
    print_table(
        "Table 4/7: sqlcheck on Django applications (paper: 123 APs detected, 32 reported)",
        ["application", "domain", "paper #AP", "measured #AP", "paper #rep", "re-detected", "reported APs re-detected"],
        rows,
    )

    # Reproduced claims.
    for result in results:
        assert not result["reported_missing"], (
            f"{result['app'].name}: reported anti-patterns not re-detected: {result['reported_missing']}"
        )
        assert result["detections"] >= len(result["app"].reported_aps)
    # The reported APs are high-impact: most appear near the top of the ranking.
    in_top = sum(len(r["reported_in_top"]) for r in results)
    total_reported = sum(len(app.reported_aps) for app in DJANGO_APPLICATIONS)
    assert in_top >= 0.6 * total_reported
    # Overall volume matches the paper's order of magnitude (123 detections).
    assert sum(r["detections"] for r in results) >= 60
