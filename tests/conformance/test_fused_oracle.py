"""The trigger pre-filter never drops a finding.

Per statement the detector runs only the rules its type's compiled trigger
automaton selects.  ``check_prefilter_soundness`` runs every candidate rule
the filter skipped directly — over the fuzzed corpus and every registered
rule's conformance examples, under the default, intra-only and
strict-thresholds configurations — and fails on any detection; it also
holds the per-run column resolution to ``Schema.resolve_column``.  A rule
whose ``trigger_tokens`` miss a case it fires on must fail the audit.
"""
from __future__ import annotations

from repro.model.antipatterns import AntiPattern
from repro.rules import RuleRegistry, default_registry
from repro.rules.base import QueryRule
from repro.testkit import check_prefilter_soundness


class UnsoundTriggerRule(QueryRule):
    """Fires on every SELECT while declaring an atom no statement contains."""

    anti_pattern = AntiPattern.COLUMN_WILDCARD
    statement_types = ("SELECT",)
    trigger_tokens = ("NEVERPRESENT",)

    def check(self, annotation, context):
        return [self.make_detection(message="fires regardless", query=annotation)]


def test_prefilter_is_sound_on_golden_and_fuzzed():
    failures = check_prefilter_soundness(statements=120)
    assert not failures, "\n".join(str(f) for f in failures)


def test_unsound_trigger_declaration_fails_the_audit():
    registry = RuleRegistry(list(default_registry()))
    registry.register(UnsoundTriggerRule())
    failures = check_prefilter_soundness(statements=40, registry=registry)
    assert failures
    assert all(f.oracle == "prefilter-soundness" for f in failures)
    assert all("UnsoundTriggerRule" in f.reason for f in failures)


def test_audit_without_skipped_rules_fails_as_vacuous():
    registry = RuleRegistry(
        [rule for rule in default_registry() if getattr(rule, "trigger_tokens", None) is None]
    )
    failures = check_prefilter_soundness(statements=20, registry=registry)
    assert [f.subject for f in failures] == ["all subjects"]
