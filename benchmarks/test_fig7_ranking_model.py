"""Figures 6 and 7 / Example 6 — the ranking model and its configurations.

Figure 6 defines the scoring formula, Figure 7a the two weight configurations
(C1 read-heavy, C2 hybrid), Figure 7b the metric vectors of two anti-patterns
(Index Underuse and Enumerated Types).  Example 6 works the numbers out:
under C1 Index Underuse wins (0.21 vs 0.175); under C2 Enumerated Types wins
(0.12 vs ~0.47).  This benchmark recomputes the scores, prints the Figure 7
table, and additionally derives the Enumerated-Types metrics empirically from
the Figure 8 style micro-experiment (the model-retraining loop of §5), on
SQLite's VDBE step counts.
"""
from __future__ import annotations

import pytest

from repro.model import AntiPattern, Detection
from repro.ranking import APMetrics, APRanker, C1, C2, MetricEstimator
from repro.workloads import GlobaLeaksWorkload

from ._helpers import print_table, steps

FIGURE_7B = {
    AntiPattern.INDEX_UNDERUSE: APMetrics(read_performance=1.5),
    AntiPattern.ENUMERATED_TYPES: APMetrics(
        write_performance=10.0, maintainability=2.0, data_amplification=1.0
    ),
}


def _scores():
    table = {}
    for config in (C1, C2):
        ranker = APRanker(config, FIGURE_7B)
        table[config.name] = {
            ap: ranker.score_anti_pattern(ap) for ap in FIGURE_7B
        }
    return table


def test_fig7_ranking_configurations(benchmark):
    scores = benchmark.pedantic(_scores, rounds=1, iterations=1)
    rows = []
    for config_name, per_ap in scores.items():
        for ap, score in per_ap.items():
            rows.append([config_name, ap.display_name, round(score, 3)])
    print_table(
        "Figure 7 / Example 6: ranking-model scores (paper: C1 -> 0.21 vs 0.175, C2 -> 0.12 vs 0.47)",
        ["configuration", "anti-pattern", "score"],
        rows,
    )
    assert scores["C1"][AntiPattern.INDEX_UNDERUSE] == pytest.approx(0.21)
    assert scores["C1"][AntiPattern.ENUMERATED_TYPES] == pytest.approx(0.175)
    assert scores["C1"][AntiPattern.INDEX_UNDERUSE] > scores["C1"][AntiPattern.ENUMERATED_TYPES]
    assert scores["C2"][AntiPattern.INDEX_UNDERUSE] == pytest.approx(0.12)
    assert scores["C2"][AntiPattern.ENUMERATED_TYPES] > scores["C2"][AntiPattern.INDEX_UNDERUSE]


def test_fig7_ordering_flip_with_detections(benchmark):
    """The same two detections are ranked in opposite orders under C1 and C2."""
    detections = [
        Detection(anti_pattern=AntiPattern.INDEX_UNDERUSE, query_index=0),
        Detection(anti_pattern=AntiPattern.ENUMERATED_TYPES, query_index=0),
    ]

    def rank_both():
        first_c1 = APRanker(C1, FIGURE_7B).rank(list(detections))[0].anti_pattern
        first_c2 = APRanker(C2, FIGURE_7B).rank(list(detections))[0].anti_pattern
        return first_c1, first_c2

    first_c1, first_c2 = benchmark(rank_both)
    assert first_c1 is AntiPattern.INDEX_UNDERUSE
    assert first_c2 is AntiPattern.ENUMERATED_TYPES


def test_fig7_metrics_recalibrated_from_engine(benchmark):
    """§5's retraining loop: measure the Enumerated Types write impact on the
    database engine (SQLite, in VDBE steps) and verify the recalibrated
    model still produces the C2 flip."""
    workload = GlobaLeaksWorkload(tenants=400)
    ap_db = workload.build_ap_database()
    fixed_db = workload.build_fixed_database()

    def measure_enumerated_types():
        estimator = MetricEstimator(base=dict(FIGURE_7B))
        estimator.record_measurement(
            AntiPattern.ENUMERATED_TYPES,
            kind="update",
            with_ap=steps(ap_db, *workload.rename_role_ap()),
            without_ap=steps(fixed_db, *workload.rename_role_fixed()),
        )
        return estimator.apply()

    metrics = benchmark.pedantic(measure_enumerated_types, rounds=1, iterations=1)
    measured_wp = metrics[AntiPattern.ENUMERATED_TYPES].write_performance
    print_table(
        "Figure 7b recalibrated from SQLite step counts",
        ["anti-pattern", "write speedup (measured)", "paper"],
        [["Enumerated Types", round(measured_wp, 1), ">10x"]],
    )
    assert measured_wp > 10.0
    ranker = APRanker(C2, metrics)
    assert ranker.score_anti_pattern(AntiPattern.ENUMERATED_TYPES) > ranker.score_anti_pattern(
        AntiPattern.INDEX_UNDERUSE
    )
