"""Cache correctness and the corpus-scale batch pipeline.

The acceptance bar for the caching layer: cached detection results must be
byte-identical to cold-path results on duplicate-heavy corpora, and any
registry mutation must invalidate both the dispatch index and the detection
memo.
"""
import dataclasses

import pytest

from repro import (
    APDetector,
    AntiPattern,
    DetectorConfig,
    SQLCheck,
    SQLCheckOptions,
)
from repro.detector.detector import thresholds_key
from repro.rules.query_rules import ColumnWildcardRule
from repro.rules.registry import default_registry
from repro.rules.thresholds import Thresholds
from repro.sqlparser import fingerprint
from repro.testkit import CorpusGenerator, detection_bytes
from repro.workloads.github_corpus import GitHubCorpusGenerator, with_duplicates


def _duplicate_heavy_sql(repos: int = 12, fraction: float = 0.5) -> list[str]:
    corpus = with_duplicates(GitHubCorpusGenerator(repos=repos).generate(), fraction=fraction)
    return corpus.all_sql()


def _report_payload(report):
    return [d.to_dict() for d in report.detections]


class TestCacheCorrectness:
    def test_cached_results_identical_to_cold_path(self):
        sql = _duplicate_heavy_sql()
        cold = APDetector(DetectorConfig(enable_cache=False)).detect(sql)
        cached = APDetector(DetectorConfig(enable_cache=True)).detect(sql)
        assert _report_payload(cold) == _report_payload(cached)

    def test_warm_rerun_identical_and_fully_memoized(self):
        sql = _duplicate_heavy_sql()
        detector = APDetector(DetectorConfig(enable_cache=True))
        first = detector.detect(sql)
        warm = detector.detect(sql)
        assert _report_payload(first) == _report_payload(warm)
        info = detector.memo_info
        assert info["hits"] > 0
        # Second pass re-analyses nothing: every statement replays the memo.
        assert info["hits"] >= len(sql)

    def test_fingerprint_collision_does_not_leak_results(self):
        # Prefix LIKE (index-friendly, clean) and wildcard LIKE (anti-pattern)
        # differ only in literal content, so they share a fingerprint; the
        # cache must still keep their results apart.
        clean = "SELECT title FROM t WHERE title LIKE 'INV-2020%'"
        dirty = "SELECT title FROM t WHERE title LIKE '%special offer%'"
        detector = APDetector(DetectorConfig(enable_cache=True))
        assert not detector.detect([clean, clean]).filter(AntiPattern.PATTERN_MATCHING)
        assert detector.detect([dirty, dirty]).filter(AntiPattern.PATTERN_MATCHING)
        assert not detector.detect([clean]).filter(AntiPattern.PATTERN_MATCHING)

    def test_duplicates_keep_their_own_indexes_and_source(self):
        sql = ["SELECT * FROM orders", "SELECT * FROM orders"]
        detector = APDetector(DetectorConfig(enable_cache=True))
        report = detector.detect(sql, source="app_a")
        indexes = sorted(d.query_index for d in report)
        assert indexes == [0, 1]
        report_b = detector.detect(sql, source="app_b")
        assert {d.source for d in report_b} == {"app_b"}

    def test_full_toolchain_cached_equals_cold(self):
        sql = _duplicate_heavy_sql(repos=8)
        cold = SQLCheck(SQLCheckOptions(detector=DetectorConfig(enable_cache=False))).check(sql)
        cached = SQLCheck(SQLCheckOptions(detector=DetectorConfig(enable_cache=True))).check(sql)
        cold_payload = cold.to_dict()
        cached_payload = cached.to_dict()
        cold_payload.pop("stats")
        cached_payload.pop("stats")
        assert cold_payload == cached_payload


class TestCacheBounds:
    def test_cache_size_bounds_both_caches_and_counts_evictions(self):
        sql = [f"SELECT name FROM users WHERE id = {n}" for n in range(10)]
        detector = APDetector(DetectorConfig(cache_size=4))
        detector.detect(sql)
        parse_cache, memo = detector.annotation_cache, detector.memo
        assert (len(parse_cache), parse_cache.stats.evictions) == (4, 6)
        assert (len(memo), memo.stats.evictions) == (4, 6)
        assert detector.memo_info["entries"] == 4

    def test_literal_variants_of_one_template_all_hit_on_a_second_pass(self):
        # Twenty texts share one fingerprint; each is cached on its own.
        sql = [f"SELECT name FROM users WHERE id = {n}" for n in range(20)]
        assert len({fingerprint(text) for text in sql}) == 1
        detector = APDetector(DetectorConfig())
        detector.detect(sql)
        hits = detector.annotation_cache.stats.hits
        detector.detect(sql)
        assert detector.annotation_cache.stats.hits - hits == 20


class TestRegistryInvalidation:
    def test_dispatch_index_tracks_mutations(self):
        registry = default_registry()
        before = registry.rules_for_statement("SELECT")
        version = registry.version
        registry.unregister("ColumnWildcardRule")
        assert registry.version > version
        after = registry.rules_for_statement("SELECT")
        assert len(after) == len(before) - 1
        assert all(rule.name != "ColumnWildcardRule" for rule in after)
        registry.register(ColumnWildcardRule())
        assert len(registry.rules_for_statement("SELECT")) == len(before)

    def test_unregister_invalidates_detection_memo(self):
        sql = ["SELECT * FROM t", "SELECT * FROM t"]
        registry = default_registry()
        detector = APDetector(DetectorConfig(enable_cache=True), registry=registry)
        assert detector.detect(sql).filter(AntiPattern.COLUMN_WILDCARD)
        registry.unregister("ColumnWildcardRule")
        assert not detector.detect(sql).filter(AntiPattern.COLUMN_WILDCARD)

    def test_disable_anti_pattern_invalidates_detection_memo(self):
        sql = ["SELECT * FROM t ORDER BY RAND()"]
        registry = default_registry()
        detector = APDetector(DetectorConfig(enable_cache=True), registry=registry)
        assert detector.detect(sql).filter(AntiPattern.ORDERING_BY_RAND)
        registry.disable_anti_pattern(AntiPattern.ORDERING_BY_RAND)
        assert not detector.detect(sql).filter(AntiPattern.ORDERING_BY_RAND)

    def test_register_invalidates_detection_memo(self):
        sql = ["SELECT * FROM t"]
        registry = default_registry()
        registry.unregister("ColumnWildcardRule")
        detector = APDetector(DetectorConfig(enable_cache=True), registry=registry)
        assert not detector.detect(sql).filter(AntiPattern.COLUMN_WILDCARD)
        registry.register(ColumnWildcardRule())
        assert detector.detect(sql).filter(AntiPattern.COLUMN_WILDCARD)

    def test_threshold_change_scopes_memo(self):
        joins = " ".join(f"JOIN t{i} ON t{i}.k = t{i-1}.k" for i in range(1, 7))
        sql = [f"SELECT t0.v FROM t0 {joins}"]
        detector = APDetector(
            DetectorConfig(enable_cache=True, thresholds=Thresholds(too_many_joins=5))
        )
        assert detector.detect(sql).filter(AntiPattern.TOO_MANY_JOINS)
        detector.config.thresholds = Thresholds(too_many_joins=50)
        assert not detector.detect(sql).filter(AntiPattern.TOO_MANY_JOINS)

    @pytest.mark.parametrize(
        "thresholds",
        [Thresholds(), Thresholds(too_many_joins=50, enum_distinct_ratio=0.125, min_sample_size=0)],
    )
    def test_thresholds_key_is_the_astuple_repr(self, thresholds):
        # Memo scopes and stored keys digest these bytes; they must not
        # change, or every persistent store would go cold.
        expected = repr(dataclasses.astuple(thresholds)).encode()
        assert thresholds_key(thresholds) == expected


class TestBatchPipeline:
    def test_detect_batch_matches_detect(self):
        sql = _duplicate_heavy_sql(repos=6)
        baseline = APDetector(DetectorConfig(enable_cache=False)).detect(sql)
        report, stats = APDetector(DetectorConfig()).detect_batch(sql)
        assert _report_payload(baseline) == _report_payload(report)
        assert stats.statements == len(sql)
        assert stats.parse_seconds > 0
        assert stats.detect_seconds > 0

    def test_check_many_matches_individual_checks(self):
        corpus = GitHubCorpusGenerator(repos=5).generate()
        corpora = corpus.corpora()
        toolchain = SQLCheck(SQLCheckOptions(detector=DetectorConfig(enable_cache=False)))
        batch = toolchain.check_many(corpora)
        assert set(batch.reports) == set(corpora)
        for source, queries in corpora.items():
            direct = SQLCheck(
                SQLCheckOptions(detector=DetectorConfig(enable_cache=False))
            ).check(queries, source=source)
            batch_payload = batch.reports[source].to_dict()
            direct_payload = direct.to_dict()
            batch_payload.pop("stats")
            direct_payload.pop("stats")
            assert batch_payload == direct_payload

    SCRIPT = "SELECT * FROM t; SELECT a FROM u WHERE b LIKE '%x%'"

    def test_detect_batch_takes_a_script_whole(self, tmp_path):
        # A script is one text, as detect() parses it — not a list of characters.
        cold = APDetector(DetectorConfig()).detect(self.SCRIPT)
        report, stats = APDetector(DetectorConfig()).detect_batch(self.SCRIPT)
        assert report.queries_analyzed == stats.statements == 2
        assert {d.anti_pattern for d in report.detections} == {
            AntiPattern.COLUMN_WILDCARD,
            AntiPattern.MULTI_VALUED_ATTRIBUTE,
            AntiPattern.PATTERN_MATCHING,
        }
        assert detection_bytes(report) == detection_bytes(cold)

        # The persistent corpus replay keys the script as one text, apart
        # from a one-element list holding it (whose positions are cleared).
        persistent = DetectorConfig(persistent_memo_path=str(tmp_path / "memo.sqlite"))
        for expected_mode in ("serial", "persistent-replay"):
            detector = APDetector(persistent)
            report, stats = detector.detect_batch(self.SCRIPT)
            detector.close()
            assert stats.parallel_mode == expected_mode
            assert detection_bytes(report) == detection_bytes(cold)
        detector = APDetector(persistent)
        listed, stats = detector.detect_batch([self.SCRIPT])
        detector.close()
        assert stats.parallel_mode == "serial"
        expected = APDetector(DetectorConfig()).detect([self.SCRIPT])
        assert detection_bytes(listed) == detection_bytes(expected)

    def test_detect_batch_parses_each_distinct_text_once(self, monkeypatch):
        from repro.context import builder as builder_module

        parsed = []
        real_parse = builder_module.parse

        def counted(text, *args, **kwargs):
            parsed.append(text)
            return real_parse(text, *args, **kwargs)

        monkeypatch.setattr(builder_module, "parse", counted)
        corpus = CorpusGenerator(3).corpus_sql(2000)
        detector = APDetector(DetectorConfig())
        report, _ = detector.detect_batch(corpus)
        assert report.queries_analyzed == len(corpus) == 2276
        assert len(parsed) == len(set(corpus)) == 2209
        parsed.clear()
        detector.detect_batch(corpus)
        assert parsed == []

    def test_stream_yields_detections(self):
        detections = list(APDetector(DetectorConfig()).stream(["SELECT * FROM t"]))
        assert any(d.anti_pattern is AntiPattern.COLUMN_WILDCARD for d in detections)

    def test_batch_report_counts_and_stats(self):
        corpus = GitHubCorpusGenerator(repos=4).generate()
        batch = SQLCheck().check_many(corpus.corpora())
        assert len(batch) == sum(len(r) for r in batch.reports.values())
        assert batch.stats.corpora == 4
        payload = batch.to_dict()
        assert set(payload) == {"corpora", "stats"}
        assert payload["stats"]["statements"] == len(corpus)


class TestReportHelpers:
    def test_counts_is_counter(self):
        report = SQLCheck().check(["SELECT * FROM a", "SELECT * FROM b"])
        counts = report.counts()
        assert counts[AntiPattern.COLUMN_WILDCARD] == 2
        assert counts.most_common(1)[0][0] is AntiPattern.COLUMN_WILDCARD

    def test_fix_for_uses_identity_index(self):
        report = SQLCheck().check(["SELECT * FROM a", "SELECT * FROM b ORDER BY RAND()"])
        for entry in report.detections:
            fix = report.fix_for(entry)
            if fix is not None:
                assert fix.detection is entry.detection

    def test_to_dict_includes_stats(self):
        report = SQLCheck().check(["SELECT * FROM a"])
        payload = report.to_dict()
        assert payload["stats"] is not None
        assert set(payload["stats"]["stages"]) == {"parse", "context", "detect", "rank", "fix"}
        assert payload["stats"]["statements"] == 1
