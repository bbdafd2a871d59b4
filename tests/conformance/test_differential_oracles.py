"""Differential oracles over the full detect→rank→fix pipeline.

Acceptance: the cold/warm-cache/batch oracle passes byte-identical on a
seeded ≥1k-statement fuzzed corpus; PipelineStats totals equal the sum of
the stage times; dbdeo agrees on the shared planted subset; fixer rewrites
round-trip; and a registry whose rule mutated its dispatch metadata raises
instead of serving stale results.
"""
from __future__ import annotations

import pytest

from repro.core.sqlcheck import SQLCheck
from repro.detector.detector import APDetector, DetectorConfig
from repro.rules import RegistryIntegrityError, default_registry
from repro.testkit import (
    CorpusGenerator,
    check_cold_warm_batch,
    check_dbdeo_agreement,
    check_fixer_round_trip,
    check_stats_accounting,
    detection_bytes,
)

SEED = 2020


@pytest.fixture(scope="module")
def fuzzed_corpus() -> "list[str]":
    corpus = CorpusGenerator(SEED).corpus_sql(1000)
    assert len(corpus) >= 1000
    return corpus


class TestGeneratorInvariants:
    def test_seeded_reproducibility(self):
        assert CorpusGenerator(7).corpus_sql(120) == CorpusGenerator(7).corpus_sql(120)
        assert CorpusGenerator(7).corpus_sql(120) != CorpusGenerator(8).corpus_sql(120)

    def test_planted_statements_detect_in_isolation(self):
        generator = CorpusGenerator(SEED)
        detector = APDetector(DetectorConfig())
        for anti_pattern in generator.plantable_anti_patterns():
            group = generator.planted_statement(anti_pattern)
            detected = detector.detect(list(group.sql)).types_detected()
            assert anti_pattern in detected, f"{anti_pattern} planting went undetected: {group.text}"

    def test_clean_statements_are_clean_in_isolation(self):
        generator = CorpusGenerator(SEED)
        detector = APDetector(DetectorConfig())
        for _ in range(40):
            group = generator.clean_statement()
            report = detector.detect(list(group.sql))
            assert not report.detections, f"clean control fired: {group.text} -> {report.detections}"


class TestColdWarmBatchEquivalence:
    def test_byte_identical_on_1k_fuzzed_corpus(self, fuzzed_corpus):
        failures = check_cold_warm_batch(fuzzed_corpus)
        assert not failures, "\n".join(str(f) for f in failures)

    def test_detection_bytes_orders_and_round_trips(self):
        corpus = CorpusGenerator(3).corpus_sql(50)
        a = detection_bytes(APDetector(DetectorConfig(enable_cache=False)).detect(corpus))
        b = detection_bytes(APDetector(DetectorConfig(enable_cache=False)).detect(corpus))
        assert a == b


class TestStatsAccounting:
    """Satellite: totals ≡ sum of stages, including the serial fallback."""

    def test_detect_batch_totals_equal_stage_sum(self, fuzzed_corpus):
        _, stats = APDetector(DetectorConfig()).detect_batch(fuzzed_corpus)
        failures = check_stats_accounting(stats, subject="detect_batch")
        assert not failures, "\n".join(str(f) for f in failures)
        assert stats.statements == len(fuzzed_corpus)

    def test_check_pipeline_totals_equal_stage_sum(self):
        corpus = CorpusGenerator(5).corpus_sql(120)
        report = SQLCheck().check(corpus)
        failures = check_stats_accounting(report.stats, subject="check")
        assert not failures, "\n".join(str(f) for f in failures)

    def test_check_many_serial_merge_keeps_wall_clock_semantics(self):
        corpora = {"a": CorpusGenerator(5).corpus_sql(30), "b": CorpusGenerator(6).corpus_sql(30)}
        batch = SQLCheck().check_many(corpora, workers=1)
        assert batch.stats.total_seconds >= 0
        # merged stage times never exceed the measured wall-clock total
        assert batch.stats.stage_seconds_sum() <= batch.stats.total_seconds * 1.05 + 0.005


class TestDbdeoAgreement:
    def test_shared_subset_agreement(self):
        failures, agreement = check_dbdeo_agreement(seed=SEED)
        assert not failures, "\n".join(str(f) for f in failures)
        assert agreement, "no shared anti-patterns were planted"


class TestFixerRoundTrip:
    def test_rewrites_reparse_and_silence_the_anti_pattern(self):
        failures, rewrites = check_fixer_round_trip(seed=SEED)
        assert not failures, "\n".join(str(f) for f in failures)
        assert rewrites > 0, "no rewrites were produced to check"


class TestRegistryIntegrity:
    """Satellite: statement_types mutation raises instead of stale dispatch."""

    def test_mutation_after_registration_raises_on_dispatch(self):
        registry = default_registry()
        rule = registry.get("ColumnWildcardRule")
        registry.rules_for_statement("SELECT")  # build the index
        rule.statement_types = ("SELECT", "UPDATE")  # in-place drift
        with pytest.raises(RegistryIntegrityError, match="ColumnWildcardRule"):
            registry.rules_for_statement("UPDATE")

    def test_mutation_raises_even_for_already_warmed_statement_types(self):
        """Dispatch-cache *hits* must not serve stale results either."""
        registry = default_registry()
        rule = registry.get("ColumnWildcardRule")
        registry.rules_for_statement("SELECT")
        registry.rules_for_statement("UPDATE")  # warm both entries
        rule.statement_types = ("SELECT", "UPDATE")
        with pytest.raises(RegistryIntegrityError, match="ColumnWildcardRule"):
            registry.rules_for_statement("UPDATE")

    def test_value_equal_rebinding_is_not_drift(self):
        registry = default_registry()
        rule = registry.get("ColumnWildcardRule")
        rule.statement_types = tuple(list(rule.statement_types))  # new object, same value
        assert rule in registry.rules_for_statement("SELECT")
        # fast path restored: snapshot now points at the new object
        assert registry._dispatch_is_fresh()

    def test_mutation_raises_from_the_detector_run(self):
        registry = default_registry()
        registry.get("ColumnWildcardRule").statement_types = ("SELECT", "UPDATE")
        detector = APDetector(DetectorConfig(), registry=registry)
        with pytest.raises(RegistryIntegrityError):
            detector.detect("SELECT * FROM t")

    def test_reregistration_clears_the_error(self):
        registry = default_registry()
        rule = registry.get("ColumnWildcardRule")
        rule.statement_types = ("SELECT", "UPDATE")
        registry.unregister(rule.name)
        registry.register(rule)  # snapshot refreshed at registration time
        registry.check_integrity()
        assert rule in registry.rules_for_statement("UPDATE")

    def test_unmutated_registry_passes(self):
        registry = default_registry()
        registry.check_integrity()
        assert registry.rules_for_statement("SELECT")
