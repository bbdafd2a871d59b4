"""Detector quarantine: rule and parse failures degrade, never abort.

The fault-isolation contract at the detector layer: a rule that raises is
recorded as a structured :class:`~repro.errors.PipelineError` and skipped,
every other rule and statement still runs, and the surviving detections
are byte-identical to a run without the broken rule.  ``quarantine=False``
restores the pre-isolation fail-fast behavior.
"""
from __future__ import annotations

import dataclasses

import pytest

from repro.detector import APDetector, DetectorConfig
from repro.errors import CODE_PARSE_ERROR, CODE_RULE_ERROR
from repro.rules import RuleRegistry, default_registry
from repro.testkit import ChaosError, CrashingRule, FlakyRule

WORKLOAD = [
    "SELECT * FROM orders",
    "SELECT name FROM users WHERE name LIKE '%smith%'",
    "SELECT id FROM orders WHERE status = 'open'",
]


def _chaos_registry(rule):
    registry = RuleRegistry(list(default_registry()))
    registry.register(rule)
    return registry


def _detection_dicts(report):
    return [d.to_dict() for d in report.detections]


class TestRuleQuarantine:
    def test_crashing_rule_is_quarantined_and_detections_survive(self):
        config = DetectorConfig(enable_cache=False)
        baseline = APDetector(config).detect(WORKLOAD)
        crashing = CrashingRule()
        report = APDetector(config, registry=_chaos_registry(crashing)).detect(WORKLOAD)
        assert crashing.calls == len(WORKLOAD)
        assert _detection_dicts(report) == _detection_dicts(baseline)
        rule_errors = [e for e in report.errors if e.code == CODE_RULE_ERROR]
        assert len(rule_errors) == len(WORKLOAD)
        for error in rule_errors:
            assert error.stage == "detect"
            assert error.rule == crashing.name
            assert error.exception == "ChaosError"
            assert error.statement_fingerprint
            assert error.statement_index is not None

    def test_flaky_rule_only_quarantines_planned_statements(self):
        config = DetectorConfig(enable_cache=False)
        flaky = FlakyRule(fail_indexes=[1])
        report = APDetector(config, registry=_chaos_registry(flaky)).detect(WORKLOAD)
        assert flaky.crashes == 1
        (error,) = [e for e in report.errors if e.code == CODE_RULE_ERROR]
        assert error.statement_index == 1

    def test_quarantine_off_restores_fail_fast(self):
        config = DetectorConfig(enable_cache=False, quarantine=False)
        detector = APDetector(config, registry=_chaos_registry(CrashingRule()))
        with pytest.raises(ChaosError):
            detector.detect(WORKLOAD)

    def test_report_degrades_only_when_errors_exist(self):
        config = DetectorConfig(enable_cache=False)
        clean = APDetector(config).detect(WORKLOAD)
        assert clean.errors == []
        assert "errors" not in clean.to_dict()  # clean output byte-stable
        broken = APDetector(config, registry=_chaos_registry(CrashingRule())).detect(
            WORKLOAD
        )
        payload = broken.to_dict()
        assert payload["degraded"] is True
        assert payload["errors"] == [e.to_dict() for e in broken.errors]


class TestMemoInteraction:
    def test_quarantined_statements_are_never_memoized(self):
        # Same statement twice: a quarantined analysis must re-run (and
        # re-record its error) on the second occurrence, not replay a memo
        # entry that could not reproduce the error record.
        config = DetectorConfig()
        crashing = CrashingRule()
        detector = APDetector(config, registry=_chaos_registry(crashing))
        workload = ["SELECT * FROM orders", "SELECT * FROM orders"]
        report = detector.detect(workload)
        assert crashing.calls == 2
        assert len([e for e in report.errors if e.code == CODE_RULE_ERROR]) == 2
        assert detector.memo_info["entries"] == 0

    def test_clean_statements_still_memoize_alongside_a_flaky_rule(self):
        config = DetectorConfig()
        flaky = FlakyRule(fail_indexes=[0])
        detector = APDetector(config, registry=_chaos_registry(flaky))
        # Statement 0 is quarantined; the distinct statement 1 memoizes and
        # its duplicate at index 2 replays from the memo.
        workload = [
            "SELECT * FROM orders",
            "SELECT id FROM users",
            "SELECT id FROM users",
        ]
        report = detector.detect(workload)
        assert len(report.errors) == 1
        assert detector.memo_info["entries"] >= 1
        assert detector.memo_info["hits"] >= 1


class TestParseQuarantine:
    def test_parse_failure_is_quarantined(self, monkeypatch):
        # The real parser is deliberately lenient, so inject the failure at
        # the annotate seam: one statement's annotation blows up, the rest
        # of the workload must analyse normally.
        from repro.context import builder as builder_module

        real_annotate = builder_module.annotate

        def chaos_annotate(statement):
            if "users" in statement.raw:
                raise ChaosError("chaos: annotate failed")
            return real_annotate(statement)

        monkeypatch.setattr(builder_module, "annotate", chaos_annotate)
        config = DetectorConfig(enable_cache=False)
        report = APDetector(config).detect(WORKLOAD)
        (error,) = report.errors
        assert error.stage == "parse"
        assert error.code == CODE_PARSE_ERROR
        assert error.exception == "ChaosError"
        # The failed statement is dropped; the other two still analysed.
        assert report.queries_analyzed == len(WORKLOAD) - 1

    def test_parse_failure_raises_without_quarantine(self, monkeypatch):
        from repro.context import builder as builder_module

        def chaos_annotate(statement):
            raise ChaosError("chaos: annotate failed")

        monkeypatch.setattr(builder_module, "annotate", chaos_annotate)
        config = DetectorConfig(enable_cache=False, quarantine=False)
        with pytest.raises(ChaosError):
            APDetector(config).detect(WORKLOAD)


class TestStatsCarryErrors:
    def test_detect_batch_quarantines_and_reports_on_stats(self):
        config = DetectorConfig(enable_cache=False)
        crashing = CrashingRule()
        detector = APDetector(config, registry=_chaos_registry(crashing))
        report, stats = detector.detect_batch(WORKLOAD)
        assert len(report.errors) == len(WORKLOAD)
        assert stats.errors == report.errors
        assert stats.to_dict()["degraded"] is True
