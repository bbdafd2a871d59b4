"""``PipelineStats.merge``: corpus counting and batch-label integrity.

Regression tests for a merge that dropped ``corpora`` (every batch
reported ``corpora: 1`` no matter how many corpora were merged in).  The
merge leaves ``parallel_mode`` to its caller.
"""
from __future__ import annotations

from repro.core.sqlcheck import SQLCheck
from repro.detector.pipeline import PipelineStats


class TestStatsMerge:
    def test_corpora_accumulate(self):
        left = PipelineStats(statements=10)
        right = PipelineStats(statements=5)
        third = PipelineStats(statements=1)
        left.merge(right).merge(third)
        assert left.corpora == 3
        assert left.statements == 16

    def test_merged_corpora_sum_not_count(self):
        # A right side that is itself a merge of two corpora carries both.
        right = PipelineStats().merge(PipelineStats())
        assert right.corpora == 2
        left = PipelineStats()
        left.merge(right)
        assert left.corpora == 3

    def test_merge_still_accumulates_timings_and_errors(self):
        left = PipelineStats(parse_seconds=0.1, detect_seconds=0.2, errors=["a"])
        right = PipelineStats(parse_seconds=0.3, detect_seconds=0.1, errors=["b"])
        left.merge(right)
        assert left.parse_seconds == 0.4
        assert left.detect_seconds == 0.30000000000000004
        assert left.errors == ["a", "b"]
        assert left.degraded


class TestCheckManyIntegrity:
    def test_batch_stats_count_every_corpus(self):
        toolchain = SQLCheck()
        batch = toolchain.check_many({
            "a.sql": ["SELECT * FROM t"],
            "b.sql": ["SELECT id FROM u WHERE name LIKE '%x%'"],
            "c.sql": ["CREATE TABLE v (x INTEGER)"],
        })
        assert batch.stats.corpora == 3
        assert batch.stats.statements == 3
        # The per-corpus serial runs must not corrupt the batch's own labels.
        assert "mixed" not in batch.stats.parallel_mode
        payload = batch.stats.to_dict()
        assert payload["corpora"] == 3
