"""Unit tests for ap-rank (metrics, model, configurations)."""
from __future__ import annotations

import pytest

from repro.model import AntiPattern, Detection
from repro.ranking import APMetrics, APRanker, C1, C2, MetricEstimator, RankingConfig, default_metrics
from repro.ranking.config import normalise_amplification, normalise_indicator, normalise_performance


class TestNormalisation:
    def test_performance_normalisation_figure6(self):
        assert normalise_performance(1.5) == pytest.approx(0.3)
        assert normalise_performance(10.0) == 1.0
        assert normalise_performance(0.0) == 0.0
        assert normalise_performance(-3.0) == 0.0

    def test_amplification_normalisation(self):
        assert normalise_amplification(1.0) == pytest.approx(0.125)
        assert normalise_amplification(10.0) == 1.0

    def test_indicator(self):
        assert normalise_indicator(1) == 1.0
        assert normalise_indicator(0) == 0.0


class TestExample6:
    """Reproduce the paper's Example 6 / Figure 7 exactly."""

    METRICS = {
        AntiPattern.INDEX_UNDERUSE: APMetrics(read_performance=1.5),
        AntiPattern.ENUMERATED_TYPES: APMetrics(
            write_performance=10.0, maintainability=2.0, data_amplification=1.0
        ),
    }

    def test_c1_prefers_index_underuse(self):
        ranker = APRanker(C1, self.METRICS)
        assert ranker.score_anti_pattern(AntiPattern.INDEX_UNDERUSE) == pytest.approx(0.21)
        assert ranker.score_anti_pattern(AntiPattern.ENUMERATED_TYPES) == pytest.approx(0.175)

    def test_c2_prefers_enumerated_types(self):
        ranker = APRanker(C2, self.METRICS)
        index_underuse = ranker.score_anti_pattern(AntiPattern.INDEX_UNDERUSE)
        enumerated = ranker.score_anti_pattern(AntiPattern.ENUMERATED_TYPES)
        assert index_underuse == pytest.approx(0.12)
        assert enumerated > index_underuse
        assert enumerated == pytest.approx(0.445, abs=0.03)


class TestRanker:
    def make_detections(self):
        return [
            Detection(anti_pattern=AntiPattern.GENERIC_PRIMARY_KEY, query_index=0),
            Detection(anti_pattern=AntiPattern.MULTI_VALUED_ATTRIBUTE, query_index=1),
            Detection(anti_pattern=AntiPattern.COLUMN_WILDCARD, query_index=1),
        ]

    def test_rank_orders_by_score_descending(self):
        ranked = APRanker().rank(self.make_detections())
        scores = [entry.score for entry in ranked]
        assert scores == sorted(scores, reverse=True)
        assert [entry.rank for entry in ranked] == [1, 2, 3]
        assert ranked[0].anti_pattern is AntiPattern.MULTI_VALUED_ATTRIBUTE

    def test_scores_are_written_back_to_detections(self):
        detections = self.make_detections()
        APRanker().rank(detections)
        assert all(d.score is not None for d in detections)

    def test_confidence_scales_score(self):
        low = Detection(anti_pattern=AntiPattern.COLUMN_WILDCARD, confidence=0.5)
        high = Detection(anti_pattern=AntiPattern.COLUMN_WILDCARD, confidence=1.0)
        ranker = APRanker()
        assert ranker.score_detection(low) == pytest.approx(ranker.score_detection(high) / 2)

    def test_top(self):
        assert len(APRanker().top(self.make_detections(), n=2)) == 2

    def test_rank_queries_by_score_and_count(self):
        detections = self.make_detections()
        by_score = APRanker(C1).rank_queries(detections)
        assert by_score[0][0] == 1  # query 1 has the MVA + wildcard
        count_config = RankingConfig(name="count", inter_query_mode="count")
        by_count = APRanker(count_config).rank_queries(detections)
        assert by_count[0][0] == 1
        assert by_count[0][1] == 2.0

    def test_every_catalog_entry_has_default_metrics(self):
        metrics = default_metrics()
        for anti_pattern in AntiPattern:
            assert anti_pattern in metrics

    def test_custom_weights_change_ordering(self):
        detections = [
            Detection(anti_pattern=AntiPattern.ROUNDING_ERRORS),     # accuracy only
            Detection(anti_pattern=AntiPattern.ORDERING_BY_RAND),    # read performance
        ]
        read_heavy = APRanker(C1).rank(detections)
        accuracy_heavy = APRanker(
            RankingConfig(name="acc", w_read_performance=0.0, w_accuracy=0.9)
        ).rank(detections)
        assert read_heavy[0].anti_pattern is AntiPattern.ORDERING_BY_RAND
        assert accuracy_heavy[0].anti_pattern is AntiPattern.ROUNDING_ERRORS


class TestMetricEstimator:
    def test_records_and_applies_speedups(self):
        estimator = MetricEstimator()
        speedup = estimator.record_measurement(
            AntiPattern.MULTI_VALUED_ATTRIBUTE, kind="select", with_ap=0.762, without_ap=0.003
        )
        assert speedup == pytest.approx(254, rel=0.01)
        estimator.record_measurement(
            AntiPattern.MULTI_VALUED_ATTRIBUTE, kind="join", with_ap=0.772, without_ap=0.004
        )
        estimator.record_measurement(
            AntiPattern.ENUMERATED_TYPES, kind="update", with_ap=1314.0, without_ap=0.003
        )
        table = estimator.apply()
        assert table[AntiPattern.MULTI_VALUED_ATTRIBUTE].read_performance > 100
        assert table[AntiPattern.ENUMERATED_TYPES].write_performance > 1000

    def test_zero_baseline_is_safe(self):
        estimator = MetricEstimator()
        assert estimator.record_measurement(
            AntiPattern.INDEX_OVERUSE, kind="update", with_ap=1.0, without_ap=0.0
        ) == 1.0

    def test_observed(self):
        estimator = MetricEstimator()
        estimator.record_measurement(AntiPattern.INDEX_OVERUSE, kind="update", with_ap=2.0, without_ap=1.0)
        assert estimator.observed(AntiPattern.INDEX_OVERUSE)["write"] == [2.0]
        assert estimator.observed(AntiPattern.INDEX_OVERUSE)["read"] == []


class TestTieBreakingDeterminism:
    """Same corpus, two runs, identical ordering — ties between detections
    with equal scores must break deterministically, including when the
    second run is served from the detection memo (PR 1's replay path)."""

    def _corpus(self) -> list[str]:
        # Duplicated statements produce score ties both within and across
        # anti-pattern types.
        base = [
            "SELECT * FROM orders WHERE order_id = 1",
            "SELECT * FROM tickets WHERE ticket_id = 2",
            "SELECT title FROM articles ORDER BY RANDOM()",
            "SELECT name FROM users WHERE name LIKE '%son'",
            "INSERT INTO users VALUES (1, 'a')",
        ]
        return base * 3

    @staticmethod
    def _ordering(report):
        return [
            (e.rank, e.detection.anti_pattern, e.detection.query_index,
             round(e.score, 9), e.detection.rule)
            for e in report.detections
        ]

    def test_same_toolchain_memo_replay_preserves_ordering(self):
        from repro.core import SQLCheck

        toolchain = SQLCheck()
        first = self._ordering(toolchain.check(self._corpus()))
        # Cleared, the replay layer cannot answer the repeat whole, so the
        # second run replays per statement from the memo.
        toolchain.replays.clear()
        replay = self._ordering(toolchain.check(self._corpus()))
        assert toolchain.detector.memo_info["hits"] > 0, "second run should replay the memo"
        assert first == replay

    def test_fresh_toolchains_agree(self):
        from repro.core import SQLCheck

        first = self._ordering(SQLCheck().check(self._corpus()))
        second = self._ordering(SQLCheck().check(self._corpus()))
        assert first == second

    def test_rank_is_stable_for_tied_scores(self):
        detections = [
            Detection(anti_pattern=AntiPattern.COLUMN_WILDCARD, query=f"q{i}", query_index=i)
            for i in range(6)
        ]
        ranked_twice = [APRanker(C1).rank(list(detections)) for _ in range(2)]
        orders = [[(r.rank, r.detection.query_index) for r in ranked] for ranked in ranked_twice]
        assert orders[0] == orders[1]
        # stable sort: tied detections keep their input (statement) order
        assert [idx for _, idx in orders[0]] == sorted(idx for _, idx in orders[0])
