"""Run per-rule conformance examples through the real detector.

Every rule declares :meth:`~repro.rules.base.Rule.examples`; this module
executes them exactly the way production does — full ``APDetector`` over
the statements (and, for data examples, an in-memory SQLite database loaded
with the example's tables and rows, reached through its connector) — and
checks the planted/control contract:

* a *positive* example must produce at least one detection attributed to
  the rule (``Detection.rule == rule.name``);
* a *control* example must produce none from that rule (other rules may
  still fire — controls are per-rule, not globally clean).
"""
from __future__ import annotations

import sqlite3
from dataclasses import dataclass

from ..detector.detector import APDetector, DetectorConfig
from ..model.detection import Detection, DetectionReport
from ..rules.base import EXAMPLE_CONTROL, EXAMPLE_POSITIVE, Rule, RuleExample
from ..rules.registry import RuleRegistry, default_registry
from ..workloads.sqlite import sqlite_database


@dataclass(frozen=True)
class ConformanceFailure:
    """One broken planted/control contract."""

    rule: str
    example_index: int
    kind: str
    sql: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.rule}[{self.example_index}] ({self.kind}): {self.reason} — {self.sql!r}"


def _build_database(example: RuleExample) -> sqlite3.Connection:
    """The example's tables (its CREATE TABLE and ALTER TABLE statements)
    and rows in a fresh in-memory SQLite database."""
    return sqlite_database(
        (
            statement
            for statement in example.statements
            if statement.lstrip().upper().startswith(("CREATE TABLE", "ALTER TABLE"))
        ),
        example.rows,
    )


def example_report(
    example: RuleExample,
    *,
    registry: RuleRegistry | None = None,
    config: DetectorConfig | None = None,
) -> DetectionReport:
    """Detect over one example exactly as production would."""
    detector = APDetector(config or DetectorConfig(), registry=registry or default_registry())
    database = _build_database(example) if example.needs_database else None
    return detector.detect(list(example.statements), database=database)


def rule_detections(report: DetectionReport, rule: Rule) -> list[Detection]:
    """The detections a specific rule contributed to a report."""
    return [d for d in report.detections if d.rule == rule.name]


def run_rule_examples(
    registry: RuleRegistry | None = None,
    *,
    config: DetectorConfig | None = None,
) -> "tuple[list[ConformanceFailure], int]":
    """Check every registered rule's examples.

    Returns ``(failures, examples_run)``.  Rules with no examples, a
    missing positive, or a missing control are failures too — the
    conformance matrix requires at least one of each per rule.
    """
    registry = registry or default_registry()
    failures: list[ConformanceFailure] = []
    examples_run = 0
    for rule in registry:
        examples = rule.examples()
        if not any(e.is_positive for e in examples):
            failures.append(
                ConformanceFailure(rule.name, -1, "positive", "", "rule declares no planted-positive example")
            )
        if not any(not e.is_positive for e in examples):
            failures.append(
                ConformanceFailure(rule.name, -1, "control", "", "rule declares no clean-control example")
            )
        for index, example in enumerate(examples):
            examples_run += 1
            report = example_report(example, registry=registry, config=config)
            fired = rule_detections(report, rule)
            if example.is_positive and not fired:
                failures.append(
                    ConformanceFailure(
                        rule.name, index, example.kind, example.sql,
                        "planted anti-pattern was not detected",
                    )
                )
            elif not example.is_positive and fired:
                failures.append(
                    ConformanceFailure(
                        rule.name, index, example.kind, example.sql,
                        f"rule fired on a clean control ({fired[0].message[:80]}…)",
                    )
                )
    return failures, examples_run


def failures_from_entries(
    entries: "list[dict]", registry: RuleRegistry | None = None
) -> "tuple[list[ConformanceFailure], int]":
    """The planted/control verdicts derived from precomputed golden entries.

    Equivalent to :func:`run_rule_examples` without re-running the detector:
    each entry's ``detections`` list is already filtered to the rule's own
    findings, so a positive entry must be non-empty and a control empty.
    """
    registry = registry or default_registry()
    by_rule: "dict[str, list[dict]]" = {}
    for entry in entries:
        by_rule.setdefault(entry["rule"], []).append(entry)
    failures: list[ConformanceFailure] = []
    for rule in registry:
        rule_entries = by_rule.get(rule.name, [])
        if not any(e["kind"] == EXAMPLE_POSITIVE for e in rule_entries):
            failures.append(
                ConformanceFailure(rule.name, -1, EXAMPLE_POSITIVE, "", "rule declares no planted-positive example")
            )
        if not any(e["kind"] == EXAMPLE_CONTROL for e in rule_entries):
            failures.append(
                ConformanceFailure(rule.name, -1, EXAMPLE_CONTROL, "", "rule declares no clean-control example")
            )
        for entry in rule_entries:
            sql = ";\n".join(entry["statements"])
            if entry["kind"] == EXAMPLE_POSITIVE and not entry["detections"]:
                failures.append(
                    ConformanceFailure(rule.name, entry["example"], entry["kind"], sql,
                                       "planted anti-pattern was not detected")
                )
            elif entry["kind"] == EXAMPLE_CONTROL and entry["detections"]:
                message = entry["detections"][0].get("message", "")
                failures.append(
                    ConformanceFailure(rule.name, entry["example"], entry["kind"], sql,
                                       f"rule fired on a clean control ({message[:80]}…)")
                )
    return failures, len(entries)
