"""PR 7 regression locks: fused matcher, quarantine/memo parity, batch positions.

Four contracts pinned here:

* the trigger-token pre-filter really skips rules whose atoms are absent,
  and its skipped-rule metric follows registry mutations on a live
  detector;
* ``APDetector.stream`` honours ``DetectorConfig.quarantine`` exactly like
  ``detect`` — same detections, same structured error records;
* with ``enable_inter_query=False`` the detection memo is workload-scoped
  no more: identical statements replay across *different* workloads, while
  inter-query configurations stay workload-bound;
* ``detect_batch`` keeps corpus positions: a poisoned statement is
  quarantined with its corpus index while the rest analyse, and repeated
  texts replayed from the caches keep their own indexes.
"""
from __future__ import annotations

import pytest

from repro.detector import APDetector, DetectorConfig
from repro.errors import CODE_PARSE_ERROR, CODE_RULE_ERROR
from repro.model.antipatterns import AntiPattern
from repro.obs import get_metrics, set_metrics_enabled
from repro.rules import RuleRegistry, default_registry
from repro.rules.base import QueryRule
from repro.testkit import ChaosError, CrashingRule, detection_bytes

POISON = "poison_tbl"


class CountingRule(QueryRule):
    """Fires never, counts how often the matcher actually invoked it."""

    anti_pattern = AntiPattern.COLUMN_WILDCARD
    statement_types = ("SELECT",)
    trigger_tokens = ("MAGICTOKEN",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def check(self, annotation, context):
        self.calls += 1
        return []


def _counting_registry():
    registry = RuleRegistry(list(default_registry()))
    counting = CountingRule()
    registry.register(counting)
    return registry, counting


def _poison_annotate(monkeypatch, module):
    """Make ``module.annotate`` raise on statements mentioning ``POISON``."""
    real = module.annotate

    def chaos(statement):
        if POISON in statement.raw:
            raise ChaosError("chaos: annotate failed")
        return real(statement)

    monkeypatch.setattr(module, "annotate", chaos)


class TestTriggerPreFilter:
    def test_rule_is_skipped_when_trigger_atoms_are_absent(self):
        registry, counting = _counting_registry()
        detector = APDetector(DetectorConfig(enable_cache=False), registry=registry)
        detector.detect(["SELECT a FROM t", "SELECT b FROM u WHERE b = 1"])
        assert counting.calls == 0
        detector.detect(["SELECT magictoken FROM t"])
        assert counting.calls == 1

    def test_skipped_count_follows_registry_mutations(self):
        def skipped(detector):
            before = get_metrics().prefilter_rules.value(outcome="skipped")
            detector.detect(["SELECT a FROM t"])
            return get_metrics().prefilter_rules.value(outcome="skipped") - before

        previous = set_metrics_enabled(True)
        try:
            registry = RuleRegistry(list(default_registry()))
            live = APDetector(DetectorConfig(enable_cache=False), registry=registry)
            initial = skipped(live)
            registry.register(CountingRule())
            assert skipped(live) == initial + 1
            registry.unregister("OrderingByRandRule")
            registry.unregister("PatternMatchingRule")
            fresh = APDetector(DetectorConfig(enable_cache=False), registry=registry)
            assert skipped(live) == skipped(fresh) == initial - 1
        finally:
            set_metrics_enabled(previous)

    def test_fused_selection_preserves_registration_order(self):
        registry = default_registry()
        full = registry.rules_for_statement("SELECT")
        fused = registry.fused_rules_for(
            "SELECT", "SELECT NAME FROM T WHERE NAME LIKE '%X%'"
        )
        positions = [full.index(rule) for rule in fused]
        assert positions == sorted(positions)
        assert set(fused) <= set(full)
        # A rule with an absent trigger atom is filtered out...
        assert all(rule.name != "OrderingByRandRule" for rule in fused)
        # ...while a rule whose atom is present survives.
        assert any(rule.name == "PatternMatchingRule" for rule in fused)

    def test_registry_mutation_recompiles_the_automaton(self):
        registry = default_registry()
        before = registry.fused_rules_for("SELECT", "SELECT * FROM T")
        assert any(rule.name == "ColumnWildcardRule" for rule in before)
        registry.unregister("ColumnWildcardRule")
        after = registry.fused_rules_for("SELECT", "SELECT * FROM T")
        assert all(rule.name != "ColumnWildcardRule" for rule in after)


class TestStreamQuarantineParity:
    WORKLOAD = [
        "SELECT * FROM orders",
        f"SELECT x FROM {POISON}",
        "SELECT name FROM users WHERE name LIKE '%smith%'",
    ]

    def test_stream_detections_and_errors_match_detect(self, monkeypatch):
        from repro.context import builder as builder_module

        _poison_annotate(monkeypatch, builder_module)
        config = DetectorConfig(enable_cache=False, deduplicate=False)
        report = APDetector(config).detect(self.WORKLOAD)
        assert any(e.code == CODE_PARSE_ERROR for e in report.errors)

        errors = []
        streamed = list(APDetector(config).stream(self.WORKLOAD, errors=errors))
        assert [d.to_dict() for d in streamed] == [
            d.to_dict() for d in report.detections
        ]
        assert [e.to_dict() for e in errors] == [e.to_dict() for e in report.errors]

    def test_stream_collects_rule_errors(self):
        crashing = CrashingRule()
        registry = RuleRegistry(list(default_registry()))
        registry.register(crashing)
        errors = []
        detections = list(
            APDetector(DetectorConfig(enable_cache=False), registry=registry).stream(
                ["SELECT * FROM t"], errors=errors
            )
        )
        assert detections  # the other rules kept running
        assert [
            e for e in errors if e.code == CODE_RULE_ERROR and e.rule == crashing.name
        ]

    def test_stream_quarantine_off_restores_fail_fast(self, monkeypatch):
        from repro.context import builder as builder_module

        _poison_annotate(monkeypatch, builder_module)
        config = DetectorConfig(enable_cache=False, quarantine=False)
        with pytest.raises(ChaosError):
            list(APDetector(config).stream(self.WORKLOAD))


class TestMemoScope:
    def test_memo_replays_across_workloads_when_intra_only(self):
        config = DetectorConfig(enable_inter_query=False)
        detector = APDetector(config)
        detector.detect(["SELECT * FROM a", "SELECT id FROM b"])
        assert detector.memo_info["hits"] == 0
        second = detector.detect(["SELECT * FROM a", "SELECT name FROM c"])
        assert detector.memo_info["hits"] >= 1
        # The replayed results are byte-identical to a cold run.
        cold = APDetector(
            DetectorConfig(enable_inter_query=False, enable_cache=False)
        ).detect(["SELECT * FROM a", "SELECT name FROM c"])
        assert detection_bytes(second) == detection_bytes(cold)

    def test_inter_query_memo_stays_workload_scoped(self):
        detector = APDetector(DetectorConfig())
        detector.detect(["SELECT * FROM a", "CREATE TABLE a (id INT PRIMARY KEY)"])
        hits = detector.memo_info["hits"]
        # A different workload can change contextual verdicts: no replay.
        detector.detect(["SELECT * FROM a", "CREATE TABLE b (id INT PRIMARY KEY)"])
        assert detector.memo_info["hits"] == hits


class TestShardedFanOut:
    """``detect_batch`` keeps corpus positions on its one (builder) parse path."""

    def test_poisoned_chunk_recovers_without_abandoning_the_pool(self, monkeypatch):
        from repro.context import builder as builder_module

        _poison_annotate(monkeypatch, builder_module)
        corpus = [f"SELECT c{i} FROM t{i} WHERE c{i} = {i}" for i in range(80)]
        poison_position = 37
        corpus[poison_position] = f"SELECT x FROM {POISON}"

        for config in (DetectorConfig(), DetectorConfig(enable_cache=False)):
            report, stats = APDetector(config).detect_batch(corpus)
            (error,) = report.errors
            assert error.code == CODE_PARSE_ERROR
            assert error.statement_index == poison_position
            assert report.queries_analyzed == stats.statements == len(corpus) - 1
            # The quarantined batch run matches the quarantined detect run.
            serial = APDetector(config).detect(corpus)
            assert detection_bytes(report) == detection_bytes(serial)

    def test_duplicates_shard_together_and_keep_their_indexes(self):
        base = [f"SELECT c{i} FROM t{i}" for i in range(64)]
        corpus = base + ["SELECT * FROM orders"] * 8
        # Cached: the seven repeats replay the parse and detection templates.
        report, stats = APDetector(DetectorConfig()).detect_batch(corpus)
        assert stats.memo_hits == 7
        wildcard_indexes = sorted(
            d.query_index
            for d in report.detections
            if d.anti_pattern is AntiPattern.COLUMN_WILDCARD
            and d.query == "SELECT * FROM orders"
        )
        assert wildcard_indexes == list(range(64, 72))
        serial = APDetector(DetectorConfig(enable_cache=False)).detect(corpus)
        assert detection_bytes(report) == detection_bytes(serial)
