"""Unit tests for the workload cost models (ranking/cost_model.py)."""
from __future__ import annotations

import math

import pytest

from repro.ranking.cost_model import (
    COST_MODEL_NAMES,
    DurationCostModel,
    FrequencyCostModel,
    HybridCostModel,
    WorkloadCostModel,
    frequency_weight,
    resolve_cost_model,
)


class TestFrequencyModel:
    def test_matches_the_seed_weight_function(self):
        model = FrequencyCostModel()
        frequencies = {0: 1, 1: 2, 2: 4096, 3: 0}
        weights = model.weights(frequencies, {})
        for index, count in frequencies.items():
            assert weights[index] == frequency_weight(count)

    def test_ignores_durations_entirely(self):
        model = FrequencyCostModel()
        assert model.weights({0: 8}, {0: 1e9}) == model.weights({0: 8}, {})

    def test_unknown_and_single_executions_weigh_one(self):
        assert frequency_weight(None) == 1.0
        assert frequency_weight(1) == 1.0
        assert frequency_weight(0) == 1.0


class TestDurationModel:
    def test_uniform_durations_reduce_to_frequency_exactly(self):
        model = DurationCostModel()
        frequencies = {0: 3, 1: 17, 2: 1}
        uniform = {0: 0.1, 1: 0.1, 2: 0.1}  # 0.1 is inexact in binary
        expected = FrequencyCostModel().weights(frequencies, {})
        weights = model.weights(frequencies, uniform)
        for index in frequencies:
            assert weights[index] == expected.get(index, 1.0)

    def test_total_time_semantics(self):
        """f·(d̄/d̂): 8 executions at twice the median weigh like 16 at it."""
        model = DurationCostModel()
        weights = model.weights({0: 8, 1: 1}, {0: 20.0, 1: 10.0})
        # median of (20, 10) is 15 → 8 · 20/15 executions-equivalent.
        assert weights[0] == pytest.approx(1 + math.log2(8 * 20 / 15))

    def test_statement_without_timing_falls_back_to_frequency(self):
        model = DurationCostModel()
        weights = model.weights({0: 8, 1: 8}, {1: 50.0})
        assert weights[0] == frequency_weight(8)

    def test_duration_only_statement_gets_weighted(self):
        """A statement run once but far slower than the median still gains
        weight — frequency alone would leave it at 1.0."""
        model = DurationCostModel()
        weights = model.weights({}, {0: 400.0, 1: 1.0, 2: 4.0})
        assert weights[0] > 1.0
        assert weights[1] == 1.0  # below the median, clamped at 1.0

    def test_no_durations_at_all_equals_frequency(self):
        model = DurationCostModel()
        assert model.weights({0: 8}, {}) == FrequencyCostModel().weights({0: 8}, {})

    def test_reference_duration_is_the_median(self):
        assert DurationCostModel.reference_duration({0: 1.0, 1: 5.0, 2: 100.0}) == 5.0
        assert DurationCostModel.reference_duration({}) is None
        assert DurationCostModel.reference_duration({0: 0.0}) is None


class TestHybridModel:
    def test_share_bounds_are_validated(self):
        with pytest.raises(ValueError):
            HybridCostModel(1.5)
        with pytest.raises(ValueError):
            HybridCostModel(-0.1)

    def test_extremes_match_the_pure_models(self):
        frequencies, durations = {0: 8, 1: 2}, {0: 90.0, 1: 10.0}
        assert HybridCostModel(0.0).weights(frequencies, durations) == (
            FrequencyCostModel().weights(frequencies, durations)
        )
        assert HybridCostModel(1.0).weights(frequencies, durations) == (
            DurationCostModel().weights(frequencies, durations)
        )

    def test_weights_blend_the_frequency_and_duration_weights(self):
        frequencies = {0: 8, 1: 2, 2: 1, 3: 0, 5: 40}
        durations = {0: 90.0, 1: 10.0, 2: 0.0, 4: 250.0, 5: 3.5}
        by_duration = DurationCostModel().weights(frequencies, durations)
        for share in (0.25, 0.5, 0.8):
            assert HybridCostModel(share).weights(frequencies, durations) == {
                index: (1.0 - share) * frequency_weight(frequencies.get(index))
                + share * weight
                for index, weight in by_duration.items()
            }

    def test_describe_carries_the_share(self):
        assert HybridCostModel(0.25).describe() == {
            "name": "hybrid",
            "duration_share": 0.25,
        }


class TestResolve:
    def test_names_resolve_to_their_models(self):
        for name in COST_MODEL_NAMES:
            model = resolve_cost_model(name)
            assert isinstance(model, WorkloadCostModel)
            assert model.name == name

    def test_none_is_the_frequency_default(self):
        assert resolve_cost_model(None).name == "frequency"

    def test_instances_pass_through(self):
        instance = HybridCostModel(0.75)
        assert resolve_cost_model(instance) is instance

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            resolve_cost_model("latency")
