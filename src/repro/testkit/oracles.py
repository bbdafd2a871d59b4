"""Differential oracles over the detect→rank→fix pipeline.

Every oracle returns a list of :class:`OracleFailure` (empty = pass):

* :func:`check_cold_warm_batch` — the cache/batch machinery must be pure
  optimisation: a cold detector (caches off), a warm detector (second run
  over the same instance), and ``detect_batch`` must produce byte-identical
  reports over the same corpus;
* :func:`check_prefilter_soundness` — the trigger-token pre-filter may
  skip work, never findings: every rule it skips, run directly, must find
  nothing;
* :func:`check_stats_accounting` — :class:`PipelineStats` totals must equal
  the sum of the stage times, catching double- or un-counted stages on
  any pipeline path;
* :func:`check_dbdeo_agreement` — on planted corpora for the rule subset
  both tools support, sqlcheck must fire, and the deliberately imprecise
  dbdeo baseline must agree on the obviously-planted instances;
* :func:`check_fixer_round_trip` — every concrete rewrite the fixer emits
  must re-parse and must no longer trigger the anti-pattern it fixed;
* :func:`check_scan_equivalence` — live-source ingestion must be pure
  plumbing: ``sqlcheck scan`` over a SQLite database built from given DDL +
  rows, with a query log's frequencies, must produce detections
  byte-identical to the offline path over the equivalent inputs (the same
  DDL applied to the in-repo engine, the same rows, the same statements and
  frequencies);
* :func:`check_cost_model_equivalence` — the pluggable workload cost
  models must degenerate exactly where the design says they do: the
  ``duration`` and ``hybrid`` models under *uniform* durations are
  byte-identical to ``frequency``, and every model over a logless workload
  is byte-identical to the seed ranking (no cost model at all);
* :func:`check_observability_transparency` — instrumentation must be pure
  observation: detections and rankings with metrics on, and with metrics
  *and* tracing on, are byte-identical to a run with all observability
  off;
* :func:`check_service_equivalence` — service mode must be pure transport
  and persistence pure optimisation: detections served over a live
  keep-alive HTTP connection are byte-identical to the in-process
  toolchain (a repeated small request served as a replay included), and
  a warm-restarted process (a fresh detector over the same persistent
  memo file) is byte-identical to its own cold run — including after the
  memo file is corrupted, which must fall back to cold cleanly;
* :func:`check_replay_equivalence` — ``SQLCheck.check``'s replay layer
  must be pure optimisation: a replayed repeat, the first cached run and
  a cache-off run give the same report, byte for byte, and a clean small
  repeat must actually be a replay.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from ..baselines.dbdeo import DBDEO_ANTI_PATTERNS, DBDeo
from ..core.sqlcheck import SQLCheck, SQLCheckOptions
from ..detector.detector import APDetector, DetectorConfig
from ..detector.pipeline import MODE_REPLAY
from ..model.antipatterns import AntiPattern
from ..model.detection import DetectionReport
from ..obs import PipelineStats
from ..rules.registry import RuleRegistry, default_registry
from ..sqlparser import parse
from ..sqlparser.fingerprint import MAX_CACHED_STATEMENTS
from .generator import CorpusGenerator, GeneratedStatement

#: Shared-rule subset on which dbdeo's keyword regexes reliably hit the
#: generator's plantings.  The remaining shared anti-patterns (e.g.
#: DATA_IN_METADATA, INDEX_OVERUSE/UNDERUSE) need context dbdeo does not
#: model, so agreement on them is reported but not enforced.
DBDEO_AGREEMENT_SUBSET: "tuple[AntiPattern, ...]" = (
    AntiPattern.NO_PRIMARY_KEY,
    AntiPattern.ENUMERATED_TYPES,
    AntiPattern.ROUNDING_ERRORS,
    AntiPattern.CLONE_TABLE,
    AntiPattern.ADJACENCY_LIST,
    AntiPattern.GOD_TABLE,
    AntiPattern.MULTI_VALUED_ATTRIBUTE,
    AntiPattern.PATTERN_MATCHING,
)

#: Anti-patterns whose fixes are inherently textual/schema-level guidance;
#: their rewrites restructure DDL rather than silence the detector, so the
#: round-trip oracle only checks that they re-parse.
ROUND_TRIP_PARSE_ONLY: "tuple[AntiPattern, ...]" = (
    AntiPattern.CONCATENATE_NULLS,
)


@dataclass(frozen=True)
class OracleFailure:
    """One violated equivalence or accounting invariant."""

    oracle: str
    subject: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.oracle}] {self.subject}: {self.reason}"


# ----------------------------------------------------------------------
# cold vs. warm vs. batch equivalence
# ----------------------------------------------------------------------
def detection_bytes(report: DetectionReport) -> bytes:
    """Canonical byte serialisation of a report (order-preserving)."""
    payload = {
        "queries_analyzed": report.queries_analyzed,
        "tables_analyzed": report.tables_analyzed,
        "detections": [d.to_dict() for d in report.detections],
    }
    return json.dumps(payload, sort_keys=True, default=str).encode()


def check_cold_warm_batch(
    corpus: "Sequence[str]",
    *,
    config: DetectorConfig | None = None,
) -> "list[OracleFailure]":
    """Cold path ≡ warm cache ≡ batch pipeline, byte for byte."""
    corpus = list(corpus)
    base = config or DetectorConfig()
    failures: list[OracleFailure] = []

    import dataclasses as _dc

    cold_detector = APDetector(_dc.replace(base, enable_cache=False))
    cold = detection_bytes(cold_detector.detect(corpus))

    warm_detector = APDetector(_dc.replace(base, enable_cache=True))
    first = detection_bytes(warm_detector.detect(corpus))
    second = detection_bytes(warm_detector.detect(corpus))
    if first != cold:
        failures.append(OracleFailure(
            "cold-warm-batch", "first cached run",
            "cache-on first pass differs from the cache-off path"))
    if second != cold:
        failures.append(OracleFailure(
            "cold-warm-batch", "warm replay",
            "memo replay differs from the cache-off path"))
    if warm_detector.memo_info["hits"] == 0 and len(corpus) > 1:
        failures.append(OracleFailure(
            "cold-warm-batch", "warm replay",
            "second pass over an identical corpus produced no memo hits"))

    batch_detector = APDetector(_dc.replace(base, enable_cache=True))
    batch_report, stats = batch_detector.detect_batch(corpus)
    if detection_bytes(batch_report) != cold:
        failures.append(OracleFailure(
            "cold-warm-batch", "detect_batch",
            f"batch pipeline ({stats.parallel_mode}) differs from the cache-off path"))
    failures.extend(check_stats_accounting(stats, subject="detect_batch"))
    if stats.statements != len(corpus):
        failures.append(OracleFailure(
            "cold-warm-batch", "detect_batch",
            f"stats counted {stats.statements} statements for a corpus of {len(corpus)}"))
    return failures


# ----------------------------------------------------------------------
# trigger pre-filter soundness
# ----------------------------------------------------------------------
def check_prefilter_soundness(
    corpus: "Sequence[str] | None" = None,
    *,
    seed: int = 2020,
    statements: int = 60,
    config: DetectorConfig | None = None,
    registry: "RuleRegistry | None" = None,
) -> "list[OracleFailure]":
    """The trigger pre-filter never drops a finding.

    The detector runs only the candidates (``rules_for_statement``) that
    ``fused_rules_for`` selects.  This runs every skipped candidate the
    detector would otherwise run (same ``requires_context`` gate) directly
    and fails on any detection, over the fuzzed (or given) corpus and every
    rule's examples (rows loaded), under the given config, intra-query
    only, and strict thresholds.  It also checks each bare column's
    ``RuleContext.resolve_column`` against ``Schema.resolve_column``, and
    fails a run that audits no skipped rule.
    """
    import dataclasses as _dc

    from ..context.builder import ContextBuilder
    from ..rules.base import RuleContext
    from ..rules.thresholds import Thresholds
    from .conformance import _build_database

    registry = registry or default_registry()
    if corpus is None:
        corpus = CorpusGenerator(seed).corpus_sql(statements)
    subjects = [("fuzzed corpus", list(corpus), None)] + [
        (
            f"example {rule.name}/{index}",
            list(example.statements),
            _build_database(example) if example.needs_database else None,
        )
        for rule in registry
        for index, example in enumerate(rule.examples())
    ]
    base = config or DetectorConfig()
    configurations = {
        "default": base,
        "intra-only": _dc.replace(base, enable_inter_query=False),
        "strict-thresholds": _dc.replace(
            base,
            thresholds=Thresholds(
                god_table_columns=5,
                too_many_joins=3,
                enum_max_distinct=4,
                index_overuse_max_indexes=1,
                data_in_metadata_min_columns=2,
            ),
        ),
    }
    builder = ContextBuilder(sample_size=base.sample_size, dialect=base.dialect)
    failures: list[OracleFailure] = []
    audited = 0
    for subject, subject_corpus, database in subjects:
        context = builder.build(
            subject_corpus, database=database, quarantine=base.quarantine
        )
        for config_name, configured in configurations.items():
            rule_context = RuleContext(
                application=context,
                thresholds=configured.thresholds,
                use_inter_query=configured.enable_inter_query,
                use_data=configured.enable_data,
            )
            for annotation in context.queries:
                selected = registry.fused_rules_for(
                    annotation.statement_type, annotation.raw.upper()
                )
                for rule in registry.rules_for_statement(annotation.statement_type):
                    if rule in selected or (
                        rule.requires_context and not configured.enable_inter_query
                    ):
                        continue
                    audited += 1
                    found = rule.check(annotation, rule_context)
                    if found:
                        failures.append(OracleFailure(
                            "prefilter-soundness", f"{subject} [{config_name}]",
                            f"{rule.name} was skipped (trigger tokens "
                            f"{rule.trigger_tokens!r} absent) but finds "
                            f"{len(found)} on {annotation.raw[:80]!r}"))
        rule_context = RuleContext(application=context)
        for annotation in context.queries:
            hints = [table.name for table in annotation.all_tables]
            for reference in annotation.referenced_columns():
                if reference.qualifier:
                    continue
                served = rule_context.resolve_column(reference.name, hints)
                scanned = context.schema.resolve_column(reference.name, hints)
                if served != scanned:
                    failures.append(OracleFailure(
                        "prefilter-soundness", subject,
                        f"RuleContext.resolve_column({reference.name!r}, {hints!r}) "
                        "differs from Schema.resolve_column"))
    if audited == 0:
        failures.append(OracleFailure(
            "prefilter-soundness", "all subjects",
            "the pre-filter skipped no rule, so nothing was audited"))
    return failures


# ----------------------------------------------------------------------
# pipeline-stats accounting
# ----------------------------------------------------------------------
def check_stats_accounting(
    stats: PipelineStats, *, subject: str = "pipeline"
) -> "list[OracleFailure]":
    """Totals ≡ sum of stage times (every run is wall-clock)."""
    failures: list[OracleFailure] = []
    stage_sum = stats.stage_seconds_sum()
    if stats.total_seconds < 0 or stage_sum < 0:
        failures.append(OracleFailure("stats", subject, "negative stage or total time"))
    if not math.isclose(stats.total_seconds, stage_sum, rel_tol=0.05, abs_tol=0.005):
        failures.append(OracleFailure(
            "stats", subject,
            f"total_seconds {stats.total_seconds:.6f} drifts from stage sum "
            f"{stage_sum:.6f} (mode {stats.parallel_mode})"))
    return failures


# ----------------------------------------------------------------------
# dbdeo agreement
# ----------------------------------------------------------------------
def check_dbdeo_agreement(
    groups: "Sequence[GeneratedStatement] | None" = None,
    *,
    seed: int = 2020,
    per_anti_pattern: int = 5,
    config: DetectorConfig | None = None,
) -> "tuple[list[OracleFailure], dict[str, float]]":
    """Detector vs. dbdeo on the shared rule subset.

    Returns ``(failures, agreement)`` where ``agreement`` maps every shared
    planted anti-pattern to dbdeo's hit rate.  Enforced: sqlcheck detects
    every planting; dbdeo agrees on the :data:`DBDEO_AGREEMENT_SUBSET`.
    """
    if groups is None:
        generator = CorpusGenerator(seed)
        shared = [ap for ap in generator.plantable_anti_patterns() if ap in DBDEO_ANTI_PATTERNS]
        groups = [
            generator.planted_statement(ap) for ap in shared for _ in range(per_anti_pattern)
        ]
    detector_config = config or DetectorConfig()
    dbdeo = DBDeo()
    failures: list[OracleFailure] = []
    tallies: "dict[AntiPattern, list[int]]" = {}
    for group in groups:
        statements = list(group.sql)
        sqlcheck_types = APDetector(detector_config).detect(statements).types_detected()
        dbdeo_types = dbdeo.detect_types(statements)
        for anti_pattern in group.planted:
            if anti_pattern not in DBDEO_ANTI_PATTERNS:
                continue
            hits = tallies.setdefault(anti_pattern, [0, 0])
            hits[1] += 1
            if anti_pattern in dbdeo_types:
                hits[0] += 1
            if anti_pattern not in sqlcheck_types:
                failures.append(OracleFailure(
                    "dbdeo-agreement", anti_pattern.value,
                    f"sqlcheck missed its own planted instance: {group.text!r}"))
    agreement = {ap.value: hits / total for ap, (hits, total) in tallies.items()}
    for anti_pattern in DBDEO_AGREEMENT_SUBSET:
        hits, total = tallies.get(anti_pattern, (0, 0))
        if total and hits != total:
            failures.append(OracleFailure(
                "dbdeo-agreement", anti_pattern.value,
                f"dbdeo agreed on only {hits}/{total} obvious plantings"))
    return failures, agreement


# ----------------------------------------------------------------------
# cost-model equivalence
# ----------------------------------------------------------------------
def ranking_bytes(ranked) -> bytes:
    """Canonical byte serialisation of a ranking (order, scores, weights).

    Captures everything a cost model can influence; call it immediately
    after each :meth:`~repro.ranking.ranker.APRanker.rank` run — ranking
    writes scores back onto the shared detections, so a later capture would
    see the latest run's values.
    """
    payload = [
        {
            "rank": entry.rank,
            "score": round(entry.score, 9),
            "workload_weight": round(entry.workload_weight, 9),
            "detection": entry.detection.to_dict(),
        }
        for entry in ranked
    ]
    return json.dumps(payload, sort_keys=True, default=str).encode()


def check_cost_model_equivalence(
    corpus: "Sequence[str] | None" = None,
    *,
    seed: int = 2020,
    statements: int = 60,
) -> "list[OracleFailure]":
    """The cost models' exact degeneracies, byte for byte.

    Over one detected corpus (fuzzed from ``seed`` when not given):

    * ``frequency`` ≡ the seed ranking path (no ``cost_model`` argument);
    * ``duration`` and ``hybrid`` with *uniform* durations ≡ ``frequency``
      — median normalisation makes every relative duration exactly 1.0;
    * every model over a logless workload (no frequencies, no durations)
      ≡ the unweighted seed ranking.
    """
    from ..ranking.cost_model import COST_MODEL_NAMES
    from ..ranking.ranker import APRanker

    if corpus is None:
        corpus = CorpusGenerator(seed).corpus_sql(statements)
    corpus = list(corpus)
    report = APDetector(DetectorConfig()).detect(corpus)
    ranker = APRanker()
    failures: list[OracleFailure] = []

    # Deterministic synthetic workload facts: every other statement ran
    # more than once, every statement took the same mean time.
    indexed = [d.query_index for d in report.detections if d.query_index is not None]
    frequencies = {index: 2 + (index * 7) % 97 for index in indexed[::2]}
    uniform = {index: 12.5 for index in indexed}

    baseline = ranking_bytes(ranker.rank(report, frequencies=frequencies))
    if ranking_bytes(
        ranker.rank(report, frequencies=frequencies, cost_model="frequency")
    ) != baseline:
        failures.append(OracleFailure(
            "cost-model", "frequency",
            "explicit frequency model differs from the default ranking path"))
    for model in ("duration", "hybrid"):
        captured = ranking_bytes(ranker.rank(
            report, frequencies=frequencies, durations=uniform, cost_model=model
        ))
        if captured != baseline:
            failures.append(OracleFailure(
                "cost-model", model,
                "uniform durations must degenerate to the frequency ranking, "
                "byte for byte"))

    logless = ranking_bytes(ranker.rank(report))
    for model in COST_MODEL_NAMES:
        captured = ranking_bytes(ranker.rank(report, cost_model=model))
        if captured != logless:
            failures.append(OracleFailure(
                "cost-model", model,
                "logless ranking differs from the seed (unweighted) ranking"))
    return failures


# ----------------------------------------------------------------------
# live-scan vs. offline equivalence
# ----------------------------------------------------------------------
def check_scan_equivalence(
    ddl: "Sequence[str]",
    rows: "dict[str, list[dict]]",
    workload,
    *,
    db_path,
    options: "SQLCheckOptions | None" = None,
) -> "list[OracleFailure]":
    """Live ``sqlcheck scan`` ≡ offline DDL+rows+queries, byte for byte.

    Builds a SQLite database at ``db_path`` *and* an in-repo engine
    database from the same ``ddl`` and ``rows``, runs the live scanner
    against the file and the offline context path against the engine — both
    over ``workload`` (a :class:`~repro.ingest.workload_log.WorkloadLog`,
    whose real frequencies weight the ranking on both sides) — and fails
    unless detections and fixes serialise identically.
    """
    import sqlite3

    from ..context.builder import ContextBuilder
    from ..engine.database import Database
    from ..ingest import LiveScanner, SQLiteConnector, assign_frequencies

    failures: list[OracleFailure] = []
    options = options or SQLCheckOptions()
    label = str(db_path)

    # Live side: a real SQLite file scanned through the connector.
    connection = sqlite3.connect(str(db_path))
    for statement in ddl:
        connection.execute(statement)
    for table, table_rows in rows.items():
        for row in table_rows:
            columns = ", ".join(row)
            holes = ", ".join("?" for _ in row)
            connection.execute(
                f"INSERT INTO {table} ({columns}) VALUES ({holes})",
                tuple(row.values()),
            )
    connection.commit()
    connection.close()
    live_toolchain = SQLCheck(options)
    with SQLiteConnector(db_path) as connector:
        live = LiveScanner(live_toolchain).scan(connector, workload, source=label)

    # Offline side: the same inputs through the pre-ingestion pipeline.
    engine = Database()
    for statement in ddl:
        engine.execute(statement)
    for table, table_rows in rows.items():
        engine.insert_rows(table, [dict(row) for row in table_rows])
    offline_toolchain = SQLCheck(options)
    context = offline_toolchain._builder.build(
        workload.statements(), database=engine, source=label
    )
    assign_frequencies(context, workload)
    offline = offline_toolchain.check_context(context)

    live_bytes = json.dumps(
        [d.detection.to_dict() for d in live], sort_keys=True, default=str
    )
    offline_bytes = json.dumps(
        [d.detection.to_dict() for d in offline], sort_keys=True, default=str
    )
    if live_bytes != offline_bytes:
        failures.append(OracleFailure(
            "scan-equivalence", label,
            "live sqlite scan detections differ from the offline DDL+rows path"))
    if [round(d.score, 9) for d in live] != [round(d.score, 9) for d in offline]:
        failures.append(OracleFailure(
            "scan-equivalence", label,
            "frequency-weighted scores differ between live and offline runs"))
    live_fixes = json.dumps([f.to_dict() for f in live.fixes], sort_keys=True, default=str)
    offline_fixes = json.dumps([f.to_dict() for f in offline.fixes], sort_keys=True, default=str)
    if live_fixes != offline_fixes:
        failures.append(OracleFailure(
            "scan-equivalence", label,
            "suggested fixes differ between live and offline runs"))
    if live.queries_analyzed != offline.queries_analyzed:
        failures.append(OracleFailure(
            "scan-equivalence", label,
            f"queries_analyzed {live.queries_analyzed} != {offline.queries_analyzed}"))
    return failures


# ----------------------------------------------------------------------
# fixer round trip
# ----------------------------------------------------------------------
def check_fixer_round_trip(
    groups: "Sequence[GeneratedStatement] | None" = None,
    *,
    seed: int = 2020,
    options: SQLCheckOptions | None = None,
) -> "tuple[list[OracleFailure], int]":
    """Every concrete rewrite must re-parse and silence its anti-pattern.

    Returns ``(failures, rewrites_checked)``.  Textual fixes are guidance
    and are skipped; rewrites of the anti-patterns in
    :data:`ROUND_TRIP_PARSE_ONLY` only need to re-parse.
    """
    if groups is None:
        generator = CorpusGenerator(seed)
        groups = [
            generator.planted_statement(ap)
            for ap in generator.plantable_anti_patterns()
            for _ in range(2)
        ]
    toolchain = SQLCheck(options or SQLCheckOptions())
    failures: list[OracleFailure] = []
    rewrites = 0
    for group in groups:
        report = toolchain.check(list(group.sql))
        for fix in report.fixes:
            if not fix.rewritten_query:
                continue
            rewrites += 1
            anti_pattern = fix.detection.anti_pattern
            subject = f"{anti_pattern.value}: {fix.rewritten_query[:80]}"
            try:
                statements = parse(fix.rewritten_query)
            except Exception as error:  # noqa: BLE001 - oracle reports, never raises
                failures.append(OracleFailure(
                    "fixer-round-trip", subject, f"rewritten SQL does not parse: {error}"))
                continue
            if not statements:
                failures.append(OracleFailure(
                    "fixer-round-trip", subject, "rewritten SQL parses to no statements"))
                continue
            if anti_pattern in ROUND_TRIP_PARSE_ONLY:
                continue
            recheck = toolchain.detect([fix.rewritten_query]).types_detected()
            if anti_pattern in recheck:
                failures.append(OracleFailure(
                    "fixer-round-trip", subject,
                    "rewritten SQL still triggers the fixed anti-pattern"))
    return failures, rewrites


# ----------------------------------------------------------------------
# fault isolation
# ----------------------------------------------------------------------
def check_fault_isolation(
    corpus: "Sequence[str] | None" = None,
    *,
    seed: int = 2020,
    statements: int = 60,
    config: DetectorConfig | None = None,
) -> "list[OracleFailure]":
    """Injected faults must be quarantined, never contagious.

    Three chaos scenarios over one corpus (fuzzed from ``seed`` when not
    given), each holding the same invariant: the degraded run's detections
    on the *clean subset* are byte-identical to a clean run's, and every
    injected fault surfaces as a structured
    :class:`~repro.errors.PipelineError` with its stage and provenance.

    1. a :class:`~repro.testkit.chaos.CrashingRule` registered alongside
       the real rules crashes on every statement — the other rules'
       detections must not change, and each crash must be recorded as a
       ``detect``-stage ``rule-error``;
    2. a log corrupted by :func:`~repro.testkit.chaos.corrupt_log_lines`
       (junk-only insertions) read under the degraded reader must yield
       exactly the clean log's statements, one ``ingest``-stage error per
       injected line;
    3. a :class:`~repro.testkit.chaos.FlakyConnector` that recovers within
       the retry budget must scan byte-identically to the bare connector,
       while a :class:`~repro.testkit.chaos.BrokenConnector` (permanent
       mid-scan loss) must degrade to *exactly* the schema-only analysis —
       byte-identical to an offline run over the same schema with no data
       profiles — and record the loss as ``source-unavailable`` provenance.
    """
    import dataclasses as _dc
    import sqlite3
    import tempfile
    from pathlib import Path

    from ..errors import (
        CODE_LOG_MALFORMED,
        CODE_RULE_ERROR,
        CODE_SOURCE_UNAVAILABLE,
        ErrorBudget,
    )
    from ..ingest import (
        LiveScanner,
        SQLiteConnector,
        WorkloadLog,
        iter_log_records,
    )
    from ..ingest.connectors import RetryPolicy
    from ..rules.registry import RuleRegistry, default_registry
    from .chaos import (
        BrokenConnector,
        CrashingRule,
        FaultPlan,
        FlakyConnector,
        corrupt_log_lines,
    )

    if corpus is None:
        corpus = CorpusGenerator(seed).corpus_sql(statements)
    corpus = list(corpus)
    base = config or DetectorConfig()
    failures: list[OracleFailure] = []

    # 1. crashing rule: quarantine must be per-rule, never per-statement.
    clean = detection_bytes(APDetector(_dc.replace(base, enable_cache=False)).detect(corpus))
    chaos_registry = RuleRegistry(list(default_registry()))
    crashing = CrashingRule()
    chaos_registry.register(crashing)
    degraded = APDetector(
        _dc.replace(base, enable_cache=False), registry=chaos_registry
    ).detect(corpus)
    if detection_bytes(degraded) != clean:
        failures.append(OracleFailure(
            "fault-isolation", "crashing rule",
            "a crashing rule changed the other rules' detections"))
    if crashing.calls == 0:
        failures.append(OracleFailure(
            "fault-isolation", "crashing rule",
            "the chaos rule was never invoked — nothing was tested"))
    rule_errors = [
        e for e in degraded.errors
        if e.stage == "detect" and e.code == CODE_RULE_ERROR and e.rule == crashing.name
    ]
    if len(rule_errors) != crashing.calls:
        failures.append(OracleFailure(
            "fault-isolation", "crashing rule",
            f"{crashing.calls} crash(es) produced {len(rule_errors)} "
            "structured rule-error record(s); every fault must be recorded"))
    if any(e.statement_fingerprint is None for e in rule_errors):
        failures.append(OracleFailure(
            "fault-isolation", "crashing rule",
            "a rule-error record lost its statement fingerprint provenance"))

    # 2. corrupted log: insertions must be skipped-and-counted exactly.
    log_lines = [statement.rstrip().rstrip(";") + ";\n" for statement in corpus]
    corrupted, injected = corrupt_log_lines(log_lines, plan=FaultPlan(seed))
    clean_log = WorkloadLog.from_records(iter_log_records(log_lines, "sql"))
    budget = ErrorBudget()
    degraded_log = WorkloadLog.from_records(iter_log_records(corrupted, "sql", budget))
    if degraded_log.statements() != clean_log.statements():
        failures.append(OracleFailure(
            "fault-isolation", "corrupted log",
            "the degraded reader did not preserve the clean statement subset"))
    recorded = [
        e for e in budget if e.stage == "ingest" and e.code == CODE_LOG_MALFORMED
    ]
    if len(recorded) != injected:
        failures.append(OracleFailure(
            "fault-isolation", "corrupted log",
            f"{injected} injected junk line(s) produced {len(recorded)} "
            "ingest error record(s)"))

    # 3. connectors: retry is invisible, permanent loss degrades with
    #    provenance.  Small fixed fixture — the invariants are structural.
    ddl = (
        "CREATE TABLE chaos_orders (order_id INTEGER PRIMARY KEY, "
        "status VARCHAR(16), total FLOAT)",
    )
    scan_workload = [
        "SELECT * FROM chaos_orders",
        "SELECT order_id FROM chaos_orders WHERE status LIKE '%paid%'",
    ]
    fast_retry = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)
    with tempfile.TemporaryDirectory(prefix="sqlcheck-chaos-") as tmp:
        db_path = Path(tmp) / "chaos.db"
        connection = sqlite3.connect(str(db_path))
        for statement in ddl:
            connection.execute(statement)
        connection.executemany(
            "INSERT INTO chaos_orders (order_id, status, total) VALUES (?, ?, ?)",
            [(i, "paid" if i % 2 else "open", 9.99 * i) for i in range(1, 21)],
        )
        connection.commit()
        connection.close()

        def scan_with(connector):
            connector.retry_policy = fast_retry
            with connector:
                return LiveScanner(SQLCheck(SQLCheckOptions())).scan(
                    connector, list(scan_workload), source="chaos"
                )

        baseline = scan_with(SQLiteConnector(db_path))
        flaky_report = scan_with(FlakyConnector(SQLiteConnector(db_path), failures=1))
        broken_report = scan_with(BrokenConnector(SQLiteConnector(db_path)))

        # The degraded twin: the same schema and workload through the
        # offline path with data analysis ablated (no profiles).  Mid-scan
        # source loss must degrade to exactly this — a principled ablation,
        # never a half-broken in-between state.
        twin_toolchain = SQLCheck(SQLCheckOptions())
        with SQLiteConnector(db_path) as twin_connector:
            twin_schema = twin_connector.schema()
        twin_context = twin_toolchain._builder.build(
            list(scan_workload), source="chaos"
        )
        twin_context.schema = twin_schema
        twin_report = twin_toolchain.check_context(twin_context)

        def ranked_bytes(report):
            dicts = [entry.detection.to_dict() for entry in report.detections]
            # Source labels differ per connector wrapper; the invariant is
            # about findings, not the connector's display name.
            for payload in dicts:
                payload.pop("source", None)
            return json.dumps(sorted(
                json.dumps(d, sort_keys=True, default=str) for d in dicts
            ))

        if ranked_bytes(flaky_report) != ranked_bytes(baseline):
            failures.append(OracleFailure(
                "fault-isolation", "flaky connector",
                "a fault recovered within the retry budget changed the scan"))
        if flaky_report.errors:
            failures.append(OracleFailure(
                "fault-isolation", "flaky connector",
                "a recovered transient fault left error records behind"))
        if ranked_bytes(broken_report) != ranked_bytes(twin_report):
            failures.append(OracleFailure(
                "fault-isolation", "broken connector",
                "mid-scan source loss did not degrade to the schema-only "
                "analysis byte-for-byte"))
        loss = [
            e for e in broken_report.errors
            if e.stage == "ingest" and e.code == CODE_SOURCE_UNAVAILABLE
        ]
        if not loss:
            failures.append(OracleFailure(
                "fault-isolation", "broken connector",
                "permanent source loss was not recorded as source-unavailable"))
        elif (loss[0].detail or {}).get("verdict") != "skipped: source unavailable":
            failures.append(OracleFailure(
                "fault-isolation", "broken connector",
                "the source-loss record lost its skipped-verdict provenance"))
    return failures


# ----------------------------------------------------------------------
# observability transparency
# ----------------------------------------------------------------------
def check_observability_transparency(
    corpus: "Sequence[str] | None" = None,
    *,
    seed: int = 2020,
    statements: int = 60,
    config: DetectorConfig | None = None,
) -> "list[OracleFailure]":
    """Observability on ≡ observability off, byte for byte.

    The metrics registry and the tracer are *pure observation*: switching
    them on must not change a single detection or ranking byte.  Over one
    corpus (fuzzed from ``seed`` when not given), three runs are compared:

    1. **obs-off** — metrics disabled, tracer disabled (the baseline);
    2. **metrics-on** — a fresh enabled :class:`~repro.obs.MetricsRegistry`
       swapped in for the run;
    3. **metrics+trace** — the same, with the process tracer enabled too.

    Each mode runs ``detect_batch`` (the instrumented batch path) and a
    full :meth:`~repro.core.sqlcheck.SQLCheck.check` (detect→rank→fix),
    capturing :func:`detection_bytes` and :func:`ranking_bytes`.  The
    instrumented runs must also be *non-vacuous* — metrics-on must record
    rule timings and trace-on must record spans, so a regression that
    silently disables collection cannot pass as "transparent".  All
    process-wide observability state is restored afterwards.
    """
    import dataclasses as _dc

    from ..obs import MetricsRegistry, get_tracer, set_metrics_enabled, swap_registry

    if corpus is None:
        corpus = CorpusGenerator(seed).corpus_sql(statements)
    corpus = list(corpus)
    base = config or DetectorConfig()
    failures: list[OracleFailure] = []
    tracer = get_tracer()

    def run_once() -> "tuple[bytes, bytes]":
        batch_detector = APDetector(_dc.replace(base, enable_cache=True))
        batch_report, _stats = batch_detector.detect_batch(corpus)
        full = SQLCheck(SQLCheckOptions(detector=base)).check(corpus)
        return detection_bytes(batch_report), ranking_bytes(full.detections)

    was_tracing = tracer.enabled
    previous_registry = swap_registry(MetricsRegistry(enabled=False))
    tracer.disable()
    try:
        baseline = run_once()

        metrics_registry = MetricsRegistry(enabled=True)
        swap_registry(metrics_registry)
        with_metrics = run_once()
        if with_metrics != baseline:
            failures.append(OracleFailure(
                "obs-transparency", "metrics-on",
                "enabling the metrics registry changed detections or rankings"))
        timings = sum(
            count for _labels, count, _sum, _buckets
            in metrics_registry.rule_check_seconds.series()
        )
        if timings == 0:
            failures.append(OracleFailure(
                "obs-transparency", "metrics-on",
                "an instrumented run recorded no rule timings — the comparison "
                "was vacuous"))

        swap_registry(MetricsRegistry(enabled=True))
        tracer.enable(reset=True)
        with_trace = run_once()
        spans = len(tracer.spans())
        tracer.disable()
        if with_trace != baseline:
            failures.append(OracleFailure(
                "obs-transparency", "metrics+trace",
                "enabling the tracer changed detections or rankings"))
        if spans == 0:
            failures.append(OracleFailure(
                "obs-transparency", "metrics+trace",
                "a traced run recorded no spans — the comparison was vacuous"))
    finally:
        swap_registry(previous_registry)
        tracer.reset()
        tracer.enabled = was_tracing
    return failures


# ----------------------------------------------------------------------
# service mode ≡ in-process, warm restart ≡ cold
# ----------------------------------------------------------------------
def check_service_equivalence(
    corpus: "Sequence[str] | None" = None,
    *,
    seed: int = 2020,
    statements: int = 40,
    config: DetectorConfig | None = None,
) -> "list[OracleFailure]":
    """Service mode ≡ in-process, and a warm restart ≡ its own cold run.

    Two independent invariants:

    1. **Transport transparency.**  Detections served by a live
       :class:`~repro.interfaces.rest.RestServer` — two requests down one
       HTTP/1.1 keep-alive connection — are byte-identical to the
       in-process toolchain over the same SQL.  The second request rides
       the *same* socket, so a server that drops keep-alive (or returns a
       wrong Content-Length, which desynchronises the connection) cannot
       pass vacuously.
    2. **Persistence transparency.**  With a persistent memo file, a fresh
       detector instance over the already-warm file (a simulated process
       restart) must reproduce its own cold run byte for byte — and must
       actually replay from the store, not re-detect.  Corrupting the file
       afterwards must fall back to a clean cold run: never crash, never
       serve stale bytes.
    """
    import dataclasses as _dc
    import http.client
    import os
    import tempfile

    from ..interfaces.rest import RestServer
    from ..ranking.config import C1

    if corpus is None:
        corpus = CorpusGenerator(seed).corpus_sql(statements)
    corpus = list(corpus)
    base = config or DetectorConfig()
    failures: list[OracleFailure] = []

    # 1. transport transparency over a live keep-alive connection.  The
    # server always builds its pooled toolchains from the default detector
    # config, so the in-process reference must too.  The whole corpus goes
    # twice, then a request small enough for the replay layer goes twice:
    # its repeat must be served as a replay, with the in-process body.
    sql = ";\n".join(corpus)
    small = ";\n".join(corpus[:8])
    reference = SQLCheck(SQLCheckOptions(ranking=C1)).check(sql)
    small_reference = SQLCheck(SQLCheckOptions(ranking=C1)).check(small)
    replayable = (
        not small_reference.errors
        and small_reference.queries_analyzed <= MAX_CACHED_STATEMENTS
    )
    requests = [
        ("first request", sql, reference, False),
        ("keep-alive reuse", sql, reference, False),
        ("small request", small, small_reference, False),
        ("small repeat", small, small_reference, replayable),
    ]
    with RestServer() as server:
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for attempt, query, expected, replay in requests:
                try:
                    connection.request(
                        "POST", "/api/check", json.dumps({"query": query}).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    served = json.loads(response.read())
                except (OSError, http.client.HTTPException) as error:
                    failures.append(OracleFailure(
                        "service-equivalence", attempt,
                        f"request over the shared connection failed: {error}"))
                    break
                if response.version != 11:
                    failures.append(OracleFailure(
                        "service-equivalence", attempt,
                        f"server answered HTTP/1.{response.version % 10}, "
                        "not HTTP/1.1"))
                served_bytes = json.dumps(
                    {
                        "queries_analyzed": served.get("queries_analyzed"),
                        "tables_analyzed": served.get("tables_analyzed"),
                        "detections": served.get("detections"),
                    },
                    sort_keys=True, default=str,
                ).encode()
                if served_bytes != _ranked_detection_bytes(expected):
                    failures.append(OracleFailure(
                        "service-equivalence", attempt,
                        "served detections differ from the in-process toolchain"))
                if replay:
                    if _report_bytes(served) != _report_bytes(expected.to_dict()):
                        failures.append(OracleFailure(
                            "service-equivalence", attempt,
                            "the served replay differs from the in-process report"))
                    mode = (served.get("stats") or {}).get("parallel_mode")
                    if mode != MODE_REPLAY:
                        failures.append(OracleFailure(
                            "service-equivalence", attempt,
                            f"a repeated small request ran {mode!r}, not a replay"))
        finally:
            connection.close()

    # 2. persistence transparency: warm restart ≡ cold, corrupt file ≡ cold
    with tempfile.TemporaryDirectory() as tmp:
        memo_path = os.path.join(tmp, "memo.sqlite")
        persistent = _dc.replace(
            base, enable_cache=True, persistent_memo_path=memo_path
        )
        cold_detector = APDetector(persistent)
        cold_report, _cold_stats = cold_detector.detect_batch(corpus)
        cold = detection_bytes(cold_report)
        cold_detector.close()
        if detection_bytes(APDetector(base).detect(corpus)) != cold:
            failures.append(OracleFailure(
                "service-equivalence", "persistent cold run",
                "enabling the persistent memo changed a cold run's detections"))

        warm_detector = APDetector(persistent)
        warm_report, warm_stats = warm_detector.detect_batch(corpus)
        warm_detector.close()
        if detection_bytes(warm_report) != cold:
            failures.append(OracleFailure(
                "service-equivalence", "warm restart",
                "a restarted process's warm run differs from its own cold run"))
        if warm_stats.parallel_mode != "persistent-replay":
            failures.append(OracleFailure(
                "service-equivalence", "warm restart",
                f"warm restart ran {warm_stats.parallel_mode!r}, not a "
                "persistent replay — the comparison was vacuous"))

        with open(memo_path, "wb") as handle:
            handle.write(b"this is not a sqlite database")
        recovered_detector = APDetector(persistent)
        recovered, recovered_stats = recovered_detector.detect_batch(corpus)
        recovered_detector.close()
        if detection_bytes(recovered) != cold:
            failures.append(OracleFailure(
                "service-equivalence", "corrupt memo file",
                "recovery from a corrupt memo file changed the detections"))
        if recovered_stats.parallel_mode == "persistent-replay":
            failures.append(OracleFailure(
                "service-equivalence", "corrupt memo file",
                "a corrupt memo file still served a persistent replay"))
    return failures


# ----------------------------------------------------------------------
# replayed check ≡ first cached check ≡ cache-off check
# ----------------------------------------------------------------------
def check_replay_equivalence(
    corpus: "Sequence[str] | None" = None,
    *,
    seed: int = 2020,
    statements: int = 40,
    config: DetectorConfig | None = None,
) -> "list[OracleFailure]":
    """A replayed ``check`` ≡ the first cached ``check`` ≡ a cache-off one.

    The sample is the corpus's first 8 statements (fuzzed from ``seed``
    when no corpus is given), sent as a list of texts and as one script,
    each without and with a ``source``.  One cached toolchain checks each
    of the four inputs twice, and a cache-off toolchain once; the three
    reports' ``to_dict()`` without ``stats`` must be equal byte for byte.
    Each first check must run the pipeline (the four keys differ).  The
    repeat must be a replay when the run was clean and within
    :data:`~repro.sqlparser.fingerprint.MAX_CACHED_STATEMENTS`
    statements, and must not be one otherwise; a sample that gives no
    replay at all fails as vacuous.
    """
    import dataclasses as _dc

    if corpus is None:
        corpus = CorpusGenerator(seed).corpus_sql(statements)
    sample = list(corpus)[:8]
    base = config or DetectorConfig()
    cold = SQLCheck(SQLCheckOptions(detector=_dc.replace(base, enable_cache=False)))
    toolchain = SQLCheck(SQLCheckOptions(detector=_dc.replace(base, enable_cache=True)))
    failures: list[OracleFailure] = []
    replayed = 0
    for shape, queries in (("list", sample), ("script", ";\n".join(sample))):
        for source in (None, "selftest.sql"):
            subject = f"{shape} input, source={source!r}"
            reference = _report_bytes(cold.check(queries, source=source).to_dict())
            first = toolchain.check(queries, source=source)
            repeat = toolchain.check(queries, source=source)
            if first.stats.parallel_mode == MODE_REPLAY:
                failures.append(OracleFailure(
                    "replay-equivalence", subject,
                    "the first check of this input was a replay: its key "
                    "matched a different input's"))
            if _report_bytes(first.to_dict()) != reference:
                failures.append(OracleFailure(
                    "replay-equivalence", subject,
                    "the first cached check differs from the cache-off check"))
            if _report_bytes(repeat.to_dict()) != reference:
                failures.append(OracleFailure(
                    "replay-equivalence", subject,
                    "the repeated check differs from the cache-off check"))
            storable = not first.errors and first.queries_analyzed <= MAX_CACHED_STATEMENTS
            if (repeat.stats.parallel_mode == MODE_REPLAY) != storable:
                failures.append(OracleFailure(
                    "replay-equivalence", subject,
                    f"the repeat ran {repeat.stats.parallel_mode!r}; a "
                    f"{'clean' if storable else 'degraded or oversized'} run's "
                    f"repeat must {'' if storable else 'not '}be a replay"))
            replayed += repeat.stats.parallel_mode == MODE_REPLAY
    if not replayed:
        failures.append(OracleFailure(
            "replay-equivalence", "all inputs",
            "no repeat was replayed — the comparison was vacuous"))
    return failures


def _report_bytes(payload: dict) -> bytes:
    """Canonical bytes of a report's ``to_dict()`` without its ``stats``."""
    return json.dumps(
        {key: value for key, value in payload.items() if key != "stats"},
        sort_keys=True, default=str,
    ).encode()


def _ranked_detection_bytes(report) -> bytes:
    """Canonical bytes of a ranked :class:`SQLCheckReport`'s served shape."""
    payload = report.to_dict()
    return json.dumps(
        {
            "queries_analyzed": payload.get("queries_analyzed"),
            "tables_analyzed": payload.get("tables_analyzed"),
            "detections": payload.get("detections"),
        },
        sort_keys=True, default=str,
    ).encode()
