"""ap-detect (Algorithms 1–3).

``APDetector`` builds the application context from queries and an optional
database, applies the registered query rules to every statement
(intra-query and — when enabled — inter-query detection), applies the data
rules to every profiled table, filters out low-confidence findings, and
returns a :class:`DetectionReport`.

Corpus-scale additions: statement-level results are memoized by exact
statement text under a memo scope (registry content digest, thresholds,
analysis flags, dialect and, with inter-query analysis on, the workload),
so repeated statements are detected once and replayed cheaply, and
:meth:`detect_batch` reports per-stage timings in a :class:`PipelineStats`
and replays a whole clean run from the persistent store under
:meth:`APDetector.input_key`, the key ``SQLCheck.check``'s in-memory
replay layer shares.
"""
from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..context.application_context import ApplicationContext
from ..context.builder import ContextBuilder
from ..errors import (
    CODE_DATA_RULE_ERROR,
    CODE_RULE_ERROR,
    CODE_SOURCE_UNAVAILABLE,
    PipelineError,
    SourceUnavailableError,
)
from ..model.detection import Detection, DetectionReport
from ..obs import PipelineStats, get_metrics, get_tracer, observe_stage_seconds
from ..rules.base import RuleContext
from ..rules.registry import RuleRegistry, default_registry
from ..rules.thresholds import Thresholds
from ..sqlparser import AnnotationCache, ParsedStatement, QueryAnnotation
from ..sqlparser.dialects import Dialect
from .pipeline import MODE_PERSISTENT_REPLAY


@dataclass
class DetectorConfig:
    """Configuration of ap-detect.

    ``enable_inter_query`` and ``enable_data`` correspond to the two analysis
    stages the paper ablates in §8.1 (intra-query only vs. intra+inter) and
    §4.2 (data analysis).  ``confidence_threshold`` drops detections whose
    confidence a contextual rule has lowered — this is the mechanism that
    removes false positives when more context is available.

    ``enable_cache`` / ``cache_size`` control the annotation cache and the
    per-statement detection memo.  No setting changes which rules run on a
    statement: those its type's compiled trigger automaton selects.

    Attributes:
        enable_inter_query: apply contextual (whole-workload) refinements.
        enable_data: run data rules over profiled tables.
        confidence_threshold: drop detections below this confidence.
        deduplicate: collapse duplicate (AP, statement, table, column)
            findings, keeping the highest confidence.
        thresholds: the rule thresholds (join counts, column counts, …).
        dialect: SQL dialect hint (``postgresql``, ``mysql``, ``sqlite``).
        sample_size: rows sampled per table by the data profiler.
        enable_cache: annotation cache + detection memo on/off.
        cache_size: LRU capacity (entries) of each cache.
        quarantine: isolate per-statement parse failures and per-rule
            check failures as structured :class:`~repro.errors.PipelineError`
            records on the report instead of aborting the run.  Off, any
            rule or parser exception propagates (fail-fast).
        persistent_memo_path: path of a SQLite file mirroring the warm
            state (annotation templates, detection memo, whole-corpus
            replays) across process restarts.
            Keys embed the registry content digest, thresholds, and
            analysis flags, so rule or configuration changes invalidate
            cleanly back to the cold path; a corrupt or stale file is
            dropped and recreated, never served.  ``None`` (default) keeps
            all caches in-memory only.
    """

    enable_inter_query: bool = True
    enable_data: bool = True
    confidence_threshold: float = 0.5
    deduplicate: bool = True
    thresholds: Thresholds = field(default_factory=Thresholds)
    dialect: "Dialect | str | None" = None
    sample_size: int = 1000
    enable_cache: bool = True
    cache_size: int = 4096
    quarantine: bool = True
    persistent_memo_path: "str | None" = None


def thresholds_key(thresholds: Thresholds) -> bytes:
    """The bytes memo scopes and stored keys digest for ``thresholds``.

    The same bytes as ``repr(dataclasses.astuple(thresholds))`` (the
    fields are ints and floats), without ``astuple``'s field-by-field deep
    copy on every run.
    """
    fields = dataclasses.fields(thresholds)
    return repr(tuple(getattr(thresholds, f.name) for f in fields)).encode()


class APDetector:
    """Finds anti-patterns in a workload (Algorithm 1).

    Entry points: :meth:`detect` (queries + optional live database →
    :class:`~repro.model.detection.DetectionReport`), :meth:`detect_batch`
    (statement list or script → report and
    :class:`~repro.obs.PipelineStats`), :meth:`stream`
    (yield detections as statements are analysed), and
    :meth:`detect_in_context` for a pre-built application context.

    Caching: one LRU class, :class:`~repro.sqlparser.AnnotationCache`,
    backs two caches keyed by exact statement text.  The parse cache
    (``(dialect, text)`` keys) skips re-parsing repeats; the detection memo
    (``(memo scope, text)`` keys, see :meth:`_memo_scope`) replays rule
    results with statement index/offset/source rebound to each occurrence.
    With ``persistent_memo_path`` set, both read and write through to the
    same :class:`~repro.detector.persist.PersistentMemo`.  Observability:
    :attr:`memo_info`, ``annotation_cache.stats``, :meth:`clear_caches`.
    """

    def __init__(
        self,
        config: DetectorConfig | None = None,
        registry: RuleRegistry | None = None,
        *,
        annotation_cache: AnnotationCache | None = None,
    ):
        self.config = config or DetectorConfig()
        self.registry = registry or default_registry()
        self.persistent = self._open_persistent()
        size = self.config.cache_size
        if annotation_cache is not None:
            self.annotation_cache: AnnotationCache | None = annotation_cache
        elif self.config.enable_cache:
            self.annotation_cache = AnnotationCache(
                size, store=self.persistent, layer="annotations"
            )
        else:
            self.annotation_cache = None
        self._builder = ContextBuilder(
            sample_size=self.config.sample_size,
            dialect=self.config.dialect,
            annotation_cache=self.annotation_cache,
        )
        # Detection templates by statement text under the memo scope; unused
        # when the scope is None (caching off, or a context with live data).
        self.memo = AnnotationCache(size, store=self.persistent, layer="memo")

    def _open_persistent(self):
        """Open the persistent memo when configured; ``None`` otherwise."""
        if not self.config.enable_cache or not self.config.persistent_memo_path:
            return None
        from .persist import PersistentMemo

        return PersistentMemo(
            self.config.persistent_memo_path,
            registry_digest=self.registry.content_digest,
        )

    def close(self) -> None:
        """Flush and release the persistent store (no-op without one)."""
        if self.persistent is not None:
            self.persistent.close()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def detect(
        self,
        queries: "Sequence[str | ParsedStatement | QueryAnnotation] | str" = (),
        database: Any | None = None,
        source: str | None = None,
    ) -> DetectionReport:
        """Run detection over queries and (optionally) a live database.

        The run is timed by its own :class:`PipelineStats` and folded into
        the metrics registry once, like every other entry point.
        """
        stats = PipelineStats()
        context = self._builder.build(
            queries,
            database=database,
            source=source,
            stats=stats,
            quarantine=self.config.quarantine,
        )
        with stats.stage("detect"):
            report = self.detect_in_context(context, stats=stats)
        stats.statements = report.queries_analyzed
        observe_stage_seconds(stats)
        return report

    def detect_in_context(
        self, context: ApplicationContext, stats: PipelineStats | None = None
    ) -> DetectionReport:
        """Run detection over a pre-built application context.

        Errors already quarantined while building the context (parse
        failures, skipped log lines, unreachable sources) are carried onto
        the report, joined by any rule failures quarantined here.  The memo
        counts its own lookups; ``stats`` receives the run's hits and misses
        (the delta of ``memo.stats``).
        """
        errors: "list[PipelineError]" = list(context.errors)
        sink = errors if self.config.quarantine else None
        memo = self.memo.stats
        hits, misses = memo.hits, memo.misses
        detections = list(self._iter_detections(context, errors=sink))
        report = DetectionReport(
            detections=detections,
            queries_analyzed=len(context.queries),
            tables_analyzed=len(context.profiles) or context.schema.table_count,
            errors=errors,
        )
        if stats is not None:
            stats.memo_hits += memo.hits - hits
            stats.memo_misses += memo.misses - misses
            stats.errors.extend(errors)
        if self.config.deduplicate:
            report.detections = report.deduplicated()
        return report

    def detect_batch(
        self,
        queries: "Sequence[str] | str",
        *,
        source: str | None = None,
        stats: "PipelineStats | None" = None,
    ) -> "tuple[DetectionReport, PipelineStats]":
        """Corpus-scale detection over a statement list or one script.

        Parses through the context builder's cached path, as :meth:`detect`
        does, then detects over the whole workload so inter-query rules see
        every statement.  Returns the report together with per-stage
        :class:`PipelineStats`: ``stats`` when given, an already-started
        run's (a stream's log read is its first chunk's ``ingest`` stage),
        else a fresh one.
        """
        if not isinstance(queries, str):
            queries = list(queries)
        if stats is None:
            stats = PipelineStats()
        corpus_key = self.input_key(queries, source) if self.persistent is not None else None
        with stats.span("detect_batch") as batch_span:
            # Whole-corpus replay: when a prior clean run of this exact input
            # (ordered exact texts + registry digest + thresholds + flags +
            # source) is in the persistent store, serve its final detections
            # without parsing anything — this is what makes a warm *restart*
            # comparable to the in-memory warm path.
            if corpus_key is not None:
                replayed = self._replay_corpus(corpus_key, stats)
                if replayed is not None:
                    return replayed, stats
            context = self._builder.build(
                queries, source=source, stats=stats, quarantine=self.config.quarantine
            )
            if batch_span is not None:
                batch_span.attributes["statements"] = len(context.queries)
            with stats.stage("detect"):
                report = self.detect_in_context(context, stats=stats)

        stats.statements = len(context.queries)
        if corpus_key is not None and not report.errors:
            # Only clean runs are replayable: a quarantined parse or rule
            # failure carries error records a replay could not reproduce.
            # The payload pickles now (pre-rank, pre-render), so downstream
            # mutation of this report cannot leak into the store.
            self.persistent.put_corpus(
                corpus_key,
                {
                    "queries_analyzed": report.queries_analyzed,
                    "tables_analyzed": report.tables_analyzed,
                    "detections": [
                        dataclasses.replace(d, metadata=dict(d.metadata))
                        for d in report.detections
                    ],
                },
            )
            self.persistent.flush()
        observe_stage_seconds(stats)
        return report, stats

    def stream(
        self,
        queries: "Sequence[str | ParsedStatement | QueryAnnotation] | str" = (),
        source: str | None = None,
        *,
        errors: "list[PipelineError] | None" = None,
    ) -> Iterator[Detection]:
        """Stream detections as statements are analysed (no deduplication).

        Honours ``DetectorConfig.quarantine`` exactly like :meth:`detect`:
        malformed statements and failing rules become structured
        :class:`~repro.errors.PipelineError` records instead of aborting
        the stream.  Streaming has no report to carry them, so pass a list
        via ``errors`` to receive every quarantined record (parse errors
        are appended before the first detection is yielded, rule errors as
        they occur).  With quarantine off, failures propagate as before.
        """
        quarantine = self.config.quarantine
        stats = PipelineStats()
        context = self._builder.build(
            queries, source=source, stats=stats, quarantine=quarantine
        )
        sink = errors if errors is not None else ([] if quarantine else None)
        if sink is not None:
            sink.extend(context.errors)
        # Each step to the next detection is a detect stage.  A stage starts
        # where the previous one ended, so the consumer's time between
        # yields counts toward detect and the stages still tile the run.  An
        # exhausted stream folds its run into the metrics registry once.
        detections = self._iter_detections(context, errors=sink if quarantine else None)
        while True:
            with stats.stage("detect"):
                detection = next(detections, None)
            if detection is None:
                break
            yield detection
        stats.statements = len(context.queries)
        observe_stage_seconds(stats)

    # ------------------------------------------------------------------
    # detection core (streaming)
    # ------------------------------------------------------------------
    def _iter_detections(
        self,
        context: ApplicationContext,
        errors: "list[PipelineError] | None" = None,
    ) -> Iterator[Detection]:
        """Yield kept detections statement by statement, then table by table.

        Query-analysis results are replayed from the memo when the same
        statement text was already analysed under an identical memo scope
        (see :meth:`_memo_scope`).  With an error sink attached
        (quarantine mode), a rule that raises is recorded there and skipped;
        remaining rules, statements, and tables still run.
        """
        # A rule that mutated its statement_types in place would be served
        # stale from the dispatch index (and from the memo, whose scope
        # digests the registry content) — fail loudly once per run instead.
        self.registry.check_integrity()
        rule_context = RuleContext(
            application=context,
            thresholds=self.config.thresholds,
            use_inter_query=self.config.enable_inter_query,
            use_data=self.config.enable_data,
        )
        memo_scope = self._memo_scope(context)
        threshold = self.config.confidence_threshold
        # Query analysis (Algorithm 2): rules chosen by statement type.
        for annotation in context.queries:
            for detection in self._detect_statement(
                annotation, rule_context, memo_scope, errors
            ):
                if detection.confidence >= threshold:
                    yield detection
        # Data analysis (Algorithm 3): rules applied to every profiled table.
        if self.config.enable_data and context.has_data:
            for profile in context.profiles.values():
                for rule in self.registry.data_rules:
                    try:
                        found = list(rule.observed_check_table(profile, rule_context))
                    except SourceUnavailableError as error:
                        # The rows behind this profile are gone (connector
                        # outage mid-scan): the verdict degrades to a
                        # "skipped: source unavailable" record, not a crash.
                        if errors is None:
                            raise
                        errors.append(
                            PipelineError.from_exception(
                                "data",
                                error,
                                code=CODE_SOURCE_UNAVAILABLE,
                                rule=rule.name,
                                source=context.source,
                                detail={
                                    "table": profile.name,
                                    "verdict": "skipped: source unavailable",
                                },
                            )
                        )
                        continue
                    except Exception as error:
                        if errors is None:
                            raise
                        errors.append(
                            PipelineError.from_exception(
                                "data",
                                error,
                                code=CODE_DATA_RULE_ERROR,
                                rule=rule.name,
                                source=context.source,
                                detail={"table": profile.name},
                            )
                        )
                        continue
                    for detection in found:
                        if detection.confidence >= threshold:
                            yield detection
        # One occupancy reading and one buffered write per detection pass
        # (an abandoned stream() flushes on the next pass or at close()).
        metrics = get_metrics()
        if metrics.enabled:
            metrics.memo_entries.set(len(self.memo))
        if self.persistent is not None:
            self.persistent.flush()

    def _detect_statement(
        self,
        annotation: QueryAnnotation,
        rule_context: RuleContext,
        memo_scope: "str | None",
        errors: "list[PipelineError] | None" = None,
    ) -> list[Detection]:
        statement = annotation.statement
        metrics = get_metrics()
        memoize = memo_scope is not None and statement is not None
        if memoize:
            # A hit from either tier replays through the same path, so
            # stored results are byte-identical by construction.
            cached = self.memo.get(annotation.raw, scope=memo_scope)
            if cached is not None:
                return [self._replay(d, annotation) for d in cached]
        detections: list[Detection] = []
        quarantined = False
        # Algorithm 2's RulesForQuery, narrowed by the trigger automaton:
        # rules whose trigger atoms are absent never execute.
        automaton = self.registry.automaton_for(annotation.statement_type)
        rules = automaton.select(annotation.raw.upper())
        if metrics.enabled:
            skipped = len(automaton.rules) - len(rules)
            if rules:
                metrics.prefilter_rules.inc_single("selected", len(rules))
            if skipped > 0:
                metrics.prefilter_rules.inc_single("skipped", skipped)
        for rule in rules:
            if rule.requires_context and not self.config.enable_inter_query:
                continue
            if errors is None:
                detections.extend(rule.observed_check(annotation, rule_context))
                continue
            try:
                detections.extend(rule.observed_check(annotation, rule_context))
            except Exception as error:
                quarantined = True
                errors.append(
                    PipelineError.from_exception(
                        "detect",
                        error,
                        code=CODE_RULE_ERROR,
                        rule=rule.name,
                        source=statement.source if statement is not None else None,
                        statement_fingerprint=(
                            statement.fingerprint if statement is not None else None
                        ),
                        statement_index=statement.index if statement is not None else None,
                        statement_offset=statement.offset if statement is not None else None,
                    )
                )
        if memoize and not quarantined:
            # Store pristine copies: report detections are mutated downstream
            # (ap-rank fills in scores) and must not pollute the memo.  A
            # statement with a quarantined rule failure is never memoized —
            # a replay could not reproduce its error record.
            self.memo.put(
                annotation.raw,
                [dataclasses.replace(d, metadata=dict(d.metadata)) for d in detections],
                scope=memo_scope,
            )
        return detections

    @staticmethod
    def _replay(template: Detection, annotation: QueryAnnotation) -> Detection:
        """Clone a memoized detection, rebound to the current occurrence.

        The call site only memoizes when ``annotation.statement`` is set, so
        the statement is always available to rebind from.
        """
        statement = annotation.statement
        return dataclasses.replace(
            template,
            query_index=statement.index,
            statement_offset=statement.offset,
            statement_line=statement.line,
            statement_length=statement.length,
            statement_end_line=statement.end_line,
            statement_text_exact=statement.span_matches_raw,
            source=statement.source,
            metadata=dict(template.metadata),
        )

    # ------------------------------------------------------------------
    # whole-run keys and the corpus replay (persistent store only)
    # ------------------------------------------------------------------
    def input_key(
        self, queries: "Sequence[str] | str", source: "str | None", scope: bytes = b""
    ) -> "str | None":
        """Digest identifying one run's input, for whole-run replays.

        It covers the ordered exact texts, whether the input is one script
        or a list (a script's statements keep their positions), ``source``,
        and what detection reads besides the input: the registry content
        digest, the thresholds, the analysis flags and the dialect.
        Callers fold in what their later stages read as fixed-length
        ``scope`` bytes (``SQLCheck`` adds its ranking and fix settings'
        generation).  ``None`` when a list element is not a text.  Any
        change to a covered input gives a different key, so stale entries
        are never matched; they age out.
        """
        cfg = self.config
        script = isinstance(queries, str)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"script\x00" if script else b"corpus\x00")
        digest.update(self.registry.content_digest)
        digest.update(thresholds_key(cfg.thresholds))
        digest.update(
            f"{cfg.enable_inter_query}|{cfg.enable_data}|"
            f"{cfg.confidence_threshold!r}|{cfg.deduplicate}|{cfg.quarantine}|"
            f"{self._builder.dialect.name}|{source!r}".encode("utf-8", "replace")
        )
        digest.update(scope)
        for text in (queries,) if script else queries:
            if not isinstance(text, str):
                return None
            digest.update(text.encode("utf-8", "replace"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def _replay_corpus(
        self, corpus_key: str, stats: PipelineStats
    ) -> "DetectionReport | None":
        """Serve a whole ``detect_batch`` run from the store, or ``None``.

        The lookup is the run's first detect stage, hit or miss: a miss's
        lookup counts toward detect, ahead of the parse that follows it.
        """
        with get_tracer().span("detect_batch:persistent-replay"), stats.stage("detect"):
            cached = self.persistent.get_corpus(corpus_key)
            if cached is None:
                return None
            detections = [
                dataclasses.replace(d, metadata=dict(d.metadata))
                for d in cached["detections"]
            ]
            report = DetectionReport(
                detections=detections,
                queries_analyzed=cached["queries_analyzed"],
                tables_analyzed=cached["tables_analyzed"],
                errors=[],
            )
        stats.statements = cached["queries_analyzed"]
        # Every statement's results came from the store.
        stats.memo_hits = cached["queries_analyzed"]
        stats.parallel_mode = MODE_PERSISTENT_REPLAY
        observe_stage_seconds(stats)
        return report

    # ------------------------------------------------------------------
    # memo scoping
    # ------------------------------------------------------------------
    def _memo_scope(self, context: ApplicationContext) -> "str | None":
        """Signature under which per-statement results are reusable.

        Statement-level results depend on the rule set, the thresholds, the
        analysis flags, and — through inter-query rules — on the whole
        workload.  The scope hashes all of these; contexts backed by a live
        database or data profiles are never memoized (data refreshes would
        not be observable in the key).
        """
        if not self.config.enable_cache:
            return None
        if context.database is not None or context.profiles:
            return None
        digest = hashlib.blake2b(digest_size=16)
        # The registry's *content* digest: mutations re-scope the memo, and
        # the same digest re-derives in a restarted process, which is what
        # lets the persistent store share entries across runs.
        digest.update(self.registry.content_digest)
        digest.update(thresholds_key(self.config.thresholds))
        digest.update(
            f"{self.config.enable_inter_query}|{self.config.enable_data}|"
            f"{getattr(context.dialect, 'name', context.dialect)}".encode()
        )
        # The workload signature only matters when inter-query rules can
        # run: intra-only configurations gate every contextual read
        # (schema_available/data_available are False, context.queries is
        # empty), so per-statement results are workload-independent and the
        # memo replays across workloads and batches.
        if self.config.enable_inter_query:
            for annotation in context.queries:
                digest.update(annotation.raw.encode("utf-8", "replace"))
                digest.update(b"\x00")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # cache maintenance
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop the detection memo and the annotation cache."""
        self.memo.clear()
        if self.annotation_cache is not None:
            self.annotation_cache.clear()

    @property
    def memo_info(self) -> dict:
        info = {
            "entries": len(self.memo),
            "hits": self.memo.stats.hits,
            "misses": self.memo.stats.misses,
        }
        if self.persistent is not None:
            info["persistent"] = self.persistent.info()
        return info
