"""``SQLCheck.check``'s replay layer: an exact repeat runs no stage.

A clean run over at most ``MAX_CACHED_STATEMENTS`` statements keeps its
finished report, pickled, under a key covering the input, ``source`` and
everything detect, rank and fix read.  The contracts here are counted,
not timed: what a replay calls (nothing), what is never stored, which
changes invalidate the layer, that a caller cannot reach a stored report
through the one it was handed, and what a replay reports about itself.
"""
from __future__ import annotations

import dataclasses

import pytest

import repro.context.builder as builder_module
from repro import C2, AntiPattern, Database, DetectorConfig, SQLCheck, SQLCheckOptions
from repro.fixer.fix_rules import FixRule
from repro.fixer.repair_engine import APFixer
from repro.obs import MetricsRegistry, get_tracer, swap_registry
from repro.ranking.metrics import APMetrics
from repro.ranking.ranker import APRanker
from repro.rules.base import QueryRule, Rule
from repro.rules.registry import default_registry
from repro.sqlparser.fingerprint import MAX_CACHED_STATEMENTS
from repro.testkit import CrashingRule

SCRIPT = """
CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), tags TEXT);
CREATE TABLE orders (id INTEGER, user_id INTEGER, total FLOAT, status VARCHAR(10));
SELECT * FROM orders o JOIN users u ON o.user_id = u.id WHERE total > 10;
SELECT name FROM users WHERE tags LIKE '%admin%';
"""
STATEMENTS = [
    "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), tags TEXT)",
    "SELECT * FROM users WHERE tags LIKE '%admin%'",
    "SELECT * FROM users ORDER BY RANDOM()",
]
INPUTS = {"script": SCRIPT, "list": STATEMENTS}


def _payload(report) -> dict:
    payload = report.to_dict()
    payload.pop("stats")
    return payload


@pytest.fixture(params=sorted(INPUTS))
def queries(request):
    return INPUTS[request.param]


@pytest.fixture
def process_tracer():
    """The process-wide tracer, enabled for one test and always restored."""
    shared = get_tracer()
    shared.enable(reset=True)
    yield shared
    shared.disable()
    shared.reset()


# ----------------------------------------------------------------------
# a replay runs nothing and equals a fresh run
# ----------------------------------------------------------------------
def test_repeat_replays_the_first_runs_report(queries):
    toolchain = SQLCheck()
    first = toolchain.check(queries, source="app.sql")
    repeat = toolchain.check(queries, source="app.sql")
    fresh = SQLCheck(SQLCheckOptions(detector=DetectorConfig(enable_cache=False)))
    assert first.stats.parallel_mode == "serial"
    assert repeat.stats.parallel_mode == "replay"
    assert _payload(repeat) == _payload(first) == _payload(fresh.check(queries, source="app.sql"))
    assert repeat.detections and repeat.fixes
    assert all(repeat.fix_for(entry).detection is entry.detection for entry in repeat)


def test_replayed_check_runs_no_stage(monkeypatch, queries):
    toolchain = SQLCheck()
    toolchain.check(queries)
    calls: "dict[str, int]" = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(builder_module, "parse")
    counting(builder_module, "annotate")
    counting(Rule, "_timed_check")
    counting(APRanker, "rank")
    counting(APFixer, "fix")
    report = toolchain.check(queries)
    assert report.stats.parallel_mode == "replay"
    assert calls == {}
    # The same counters see every stage of a run that reaches the pipeline.
    SQLCheck(SQLCheckOptions(detector=DetectorConfig(enable_cache=False))).check(queries)
    assert set(calls) == {"parse", "annotate", "_timed_check", "rank", "fix"}


def test_replay_stats_hold_one_detect_stage_and_no_cache_lookups(queries):
    toolchain = SQLCheck()
    first = toolchain.check(queries)
    stats = toolchain.check(queries).stats
    assert stats.statements == first.queries_analyzed
    assert stats.detect_seconds > 0
    assert stats.parse_seconds == stats.context_seconds == 0
    assert stats.rank_seconds == stats.fix_seconds == 0
    assert stats.total_seconds == stats.detect_seconds
    assert (stats.annotation_cache_hits, stats.annotation_cache_misses) == (0, 0)
    assert (stats.memo_hits, stats.memo_misses) == (0, 0)


def test_replay_is_traced_under_the_check(process_tracer):
    toolchain = SQLCheck()
    toolchain.check(SCRIPT)
    process_tracer.reset()
    toolchain.check(SCRIPT)
    spans = process_tracer.spans()
    by_id = {span.span_id: span for span in spans}
    tree = sorted(
        (span.name, by_id[span.parent_id].name if span.parent_id in by_id else None)
        for span in spans
    )
    assert tree == [
        ("check", None),
        ("check:replay", "check"),
        ("stage:detect", "check:replay"),
    ]


def test_replay_lookups_are_counted_once_per_check(queries):
    registry = MetricsRegistry(enabled=True)
    previous = swap_registry(registry)
    try:
        toolchain = SQLCheck()
        for run in range(4):
            toolchain.check(queries)
            lookups = registry.replay_lookups
            assert lookups.value(result="hit") + lookups.value(result="miss") == run + 1
        assert registry.replay_lookups.value(result="hit") == 3
        assert toolchain.replays.stats.hits == 3 and toolchain.replays.stats.misses == 1
        # Folded into the stage series once per run, replays included.
        assert registry.stage_seconds.count(stage="detect") == 4
    finally:
        swap_registry(previous)


# ----------------------------------------------------------------------
# what is never stored
# ----------------------------------------------------------------------
def test_more_statements_than_the_cap_are_never_stored():
    statements = [f"SELECT * FROM t{n}" for n in range(MAX_CACHED_STATEMENTS + 1)]
    toolchain = SQLCheck()
    for queries in (statements, ";\n".join(statements)):
        toolchain.check(queries)
        assert toolchain.check(queries).stats.parallel_mode == "serial"
    assert len(toolchain.replays) == 0
    at_cap = statements[:MAX_CACHED_STATEMENTS]
    toolchain.check(at_cap)
    assert toolchain.check(at_cap).stats.parallel_mode == "replay"


def test_a_run_with_a_quarantined_error_is_never_stored():
    registry = default_registry()
    registry.register(CrashingRule())
    toolchain = SQLCheck(registry=registry)
    first = toolchain.check(STATEMENTS)
    assert first.errors
    repeat = toolchain.check(STATEMENTS)
    assert repeat.stats.parallel_mode == "serial" and repeat.errors
    assert len(toolchain.replays) == 0


def test_a_database_backed_check_is_never_stored():
    db = Database()
    db.execute("CREATE TABLE tenants (tenant_id VARCHAR(10) PRIMARY KEY, user_ids TEXT)")
    db.insert_rows("tenants", [{"tenant_id": f"T{i}", "user_ids": "U1,U2"} for i in range(20)])
    toolchain = SQLCheck()
    for _ in range(2):
        report = toolchain.check(["SELECT * FROM tenants"], database=db)
        assert report.stats.parallel_mode == "serial"
    assert toolchain.replays.stats.lookups == 0 and len(toolchain.replays) == 0


def test_caches_off_has_no_replay_layer():
    toolchain = SQLCheck(SQLCheckOptions(detector=DetectorConfig(enable_cache=False)))
    assert toolchain.replays is None
    toolchain.check(SCRIPT)
    assert toolchain.check(SCRIPT).stats.parallel_mode == "serial"


# ----------------------------------------------------------------------
# every key input invalidates the layer
# ----------------------------------------------------------------------
class EveryOrderRule(QueryRule):
    """Flags every statement mentioning ``orders`` as a God Table."""

    anti_pattern = AntiPattern.GOD_TABLE
    statement_types = ("SELECT",)
    trigger_tokens = ("ORDERS",)
    name = "test_every_order_rule"

    def check(self, annotation, context):
        return [self.make_detection(message="orders, again", query=annotation)]


class ShoutingWildcardFix(FixRule):
    anti_pattern = AntiPattern.COLUMN_WILDCARD

    def build(self, detection, context):
        return self.textual(detection, "LIST THE COLUMNS")


def _register_rule(toolchain):
    toolchain.registry.register(EveryOrderRule())


def _register_fix_rule(toolchain):
    toolchain.repair_engine.register(ShoutingWildcardFix())
    toolchain.repair_engine.rules.insert(0, toolchain.repair_engine.rules.pop())


def _threshold(toolchain):
    config = toolchain.options.detector
    config.thresholds = dataclasses.replace(config.thresholds, too_many_joins=0)


def _no_fixes(toolchain):
    toolchain.options.suggest_fixes = False


def _cost_model(toolchain):
    toolchain.options.cost_model = "hybrid"


def _ranking_config(toolchain):
    toolchain.ranker.config = C2


def _metric_table(toolchain):
    toolchain.ranker.metrics[AntiPattern.COLUMN_WILDCARD] = APMetrics(read_performance=0.5)


CHANGES = {
    "register_rule": _register_rule,
    "register_fix_rule": _register_fix_rule,
    "threshold": _threshold,
    "suggest_fixes": _no_fixes,
    "cost_model": _cost_model,
    "ranking_config": _ranking_config,
    "metric_table": _metric_table,
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_a_changed_key_input_misses_and_equals_a_fresh_toolchain(change):
    toolchain = SQLCheck()
    stale = toolchain.check(SCRIPT)
    assert toolchain.check(SCRIPT).stats.parallel_mode == "replay"
    CHANGES[change](toolchain)
    after = toolchain.check(SCRIPT)
    assert after.stats.parallel_mode == "serial"
    fresh = SQLCheck()
    CHANGES[change](fresh)
    assert _payload(after) == _payload(fresh.check(SCRIPT))
    assert _payload(after) != _payload(stale)
    # The changed settings are a key of their own, replayed from now on.
    assert toolchain.check(SCRIPT).stats.parallel_mode == "replay"


def test_a_different_source_misses():
    toolchain = SQLCheck()
    toolchain.check(SCRIPT, source="a.sql")
    other = toolchain.check(SCRIPT, source="b.sql")
    assert other.stats.parallel_mode == "serial"
    assert _payload(other) == _payload(SQLCheck().check(SCRIPT, source="b.sql"))
    assert {d["source"] for d in _payload(other)["detections"]} == {"b.sql"}


def test_a_script_and_a_list_of_the_same_texts_are_different_inputs():
    toolchain = SQLCheck()
    toolchain.check(STATEMENTS)
    as_script = toolchain.check(";\n".join(STATEMENTS))
    assert as_script.stats.parallel_mode == "serial"


# ----------------------------------------------------------------------
# a returned report cannot reach the stored one
# ----------------------------------------------------------------------
def _drop_a_detection(report):
    report.detections.pop()


def _edit_metadata(report):
    report.detections[0].detection.metadata["edited"] = True


def _edit_a_fix(report):
    report.fixes[0].explanation = "edited"
    report.fixes[0].statements.append("DROP TABLE users")


@pytest.mark.parametrize("mutate", [_drop_a_detection, _edit_metadata, _edit_a_fix])
def test_mutating_a_returned_report_leaves_the_next_replay_alone(mutate):
    toolchain = SQLCheck()
    first = toolchain.check(SCRIPT)
    expected = _payload(first)
    replayed = toolchain.check(SCRIPT)
    for report in (first, replayed):
        mutate(report)
    again = toolchain.check(SCRIPT)
    assert again.stats.parallel_mode == "replay"
    assert _payload(again) == expected


def test_replay_reports_its_own_stats_object():
    toolchain = SQLCheck()
    toolchain.check(SCRIPT)
    first, second = toolchain.check(SCRIPT), toolchain.check(SCRIPT)
    assert first.stats is not second.stats
    assert first.detections[0] is not second.detections[0]
