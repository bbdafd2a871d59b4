"""The SQLCheck toolchain (Figure 4).

``SQLCheck`` wires the three components together: ap-detect finds the
anti-patterns, ap-rank orders them by estimated impact, and ap-fix produces
one suggested fix per detection.  The optional "upload to the online AP
repository" step of the paper's workflow is modelled as a local JSON export.

Corpus-scale additions: every run records per-stage timings in a
:class:`PipelineStats`, and :meth:`SQLCheck.check_many` runs independent
corpora (repositories, applications, files) one after another through
:meth:`SQLCheck.check` — each corpus is an independent application
context, so per-corpus results are identical to running :meth:`check` on
it directly.  An exact repeat of a small clean :meth:`SQLCheck.check`
input is answered from an in-memory replay layer of finished reports,
without running the pipeline.
"""
from __future__ import annotations

import dataclasses
import json
import pickle
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..context.application_context import ApplicationContext
from ..detector.detector import APDetector, DetectorConfig
from ..detector.persist import _dumps
from ..errors import CODE_FIX_ERROR, CODE_RANK_ERROR, PipelineError
from ..detector.pipeline import MODE_REPLAY
from ..fixer.fix import Fix
from ..fixer.repair_engine import APFixer, QueryRepairEngine
from ..model.antipatterns import AntiPattern
from ..model.detection import DetectionReport
from ..obs import PipelineStats, get_tracer, now, observe_stage_seconds
from ..ranking.config import C1, RankingConfig
from ..ranking.cost_model import WorkloadCostModel, resolve_cost_model
from ..ranking.metrics import APMetrics
from ..ranking.ranker import APRanker, RankedDetection
from ..rules.registry import RuleRegistry, default_registry
from ..rules.thresholds import Thresholds
from ..sqlparser import AnnotationCache
from ..sqlparser.fingerprint import MAX_CACHED_STATEMENTS


@dataclass
class SQLCheckOptions:
    """End-to-end configuration of the toolchain.

    Attributes:
        detector: the ap-detect configuration (:class:`DetectorConfig`) —
            analysis stages, confidence threshold, dialect and cache
            knobs.
        ranking: the ap-rank configuration; ``C1`` (default) and ``C2``
            are the two configurations evaluated in Figure 7a.
        metrics: optional per-anti-pattern metric overrides for the
            ranking model.
        suggest_fixes: run ap-fix over the ranked detections (disable to
            reproduce the detection-only ablations).
        cost_model: the workload cost model name (``frequency``,
            ``duration``, ``hybrid``) or a
            :class:`~repro.ranking.cost_model.WorkloadCostModel` instance;
            folds a query log's frequencies and durations into the ranking
            weights.  The default ``frequency`` reproduces the seed
            behavior exactly.
    """

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    ranking: RankingConfig = C1
    metrics: dict[AntiPattern, APMetrics] | None = None
    suggest_fixes: bool = True
    cost_model: "WorkloadCostModel | str | None" = None


@dataclass
class SQLCheckReport:
    """The output of one sqlcheck run: ranked detections and their fixes.

    Iterating the report yields :class:`~repro.ranking.ranker.RankedDetection`
    entries in rank order; ``len(report)`` is the detection count.  Use
    :meth:`fix_for` to find the fix attached to a ranked entry,
    :meth:`to_dict` / :meth:`to_json` for the machine-readable form, and
    :func:`repro.reporting.render_report` to render the report as
    Markdown, HTML, or SARIF 2.1.0.

    Attributes:
        detections: ranked detections, highest impact first.
        fixes: one suggested :class:`~repro.fixer.fix.Fix` per detection
            the repair engine could handle (empty when fixes are disabled).
        queries_analyzed: number of statements the detector analysed.
        tables_analyzed: number of tables profiled or seen in the schema.
        stats: per-stage :class:`~repro.obs.PipelineStats`
            (parse/context/detect/rank/fix timings, cache hit rates).
        errors: quarantined :class:`~repro.errors.PipelineError` records;
            non-empty means the run is :attr:`degraded` — the results cover
            everything that analysed cleanly, with each isolated failure
            accounted for here.
    """

    detections: list[RankedDetection] = field(default_factory=list)
    fixes: list[Fix] = field(default_factory=list)
    queries_analyzed: int = 0
    tables_analyzed: int = 0
    stats: PipelineStats | None = None
    #: name of the workload cost model the ranking used (report documents
    #: carry it so a reader knows what the scores mean).
    cost_model: str = "frequency"
    errors: "list[PipelineError]" = field(default_factory=list)
    _fix_index: "dict[int, Fix] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self):
        return iter(self.detections)

    @property
    def degraded(self) -> bool:
        """True when any pipeline stage quarantined a failure."""
        return bool(self.errors)

    def __getstate__(self) -> dict:
        # The fix index keys on object identity, which does not survive
        # pickling (the replay layer keeps reports pickled).
        state = self.__dict__.copy()
        state["_fix_index"] = None
        return state

    def anti_patterns(self) -> list[AntiPattern]:
        return [entry.anti_pattern for entry in self.detections]

    def counts(self) -> "Counter[AntiPattern]":
        return Counter(entry.anti_pattern for entry in self.detections)

    def fix_for(self, ranked: RankedDetection) -> Fix | None:
        """O(1) lookup of the fix for a ranked detection.

        Assumes ``fixes`` is not replaced element-wise after the first
        lookup: the identity index rebuilds on a miss or a length change,
        but a same-length in-place swap of a Fix for the *same* detection
        would return the stale object.  Reports are built once by
        ``check_context`` and not mutated, so this does not arise in the
        toolchain itself.
        """
        if self._fix_index is None or len(self._fix_index) != len(self.fixes):
            self._fix_index = {id(fix.detection): fix for fix in self.fixes}
        fix = self._fix_index.get(id(ranked.detection))
        if fix is None and self.fixes:
            # The fixes list may have been mutated in place; rebuild once.
            self._fix_index = {id(fix.detection): fix for fix in self.fixes}
            fix = self._fix_index.get(id(ranked.detection))
        return fix

    def to_dict(self) -> dict:
        return {
            "queries_analyzed": self.queries_analyzed,
            "tables_analyzed": self.tables_analyzed,
            "cost_model": self.cost_model,
            "detections": [
                {
                    **entry.detection.to_dict(),
                    "rank": entry.rank,
                    "score": round(entry.score, 4),
                    "workload_weight": round(entry.workload_weight, 4),
                }
                for entry in self.detections
            ],
            "fixes": [fix.to_dict() for fix in self.fixes],
            "stats": self.stats.to_dict() if self.stats is not None else None,
            "degraded": self.degraded,
            "errors": [error.to_dict() for error in self.errors],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def export(self, path: str) -> None:
        """Write the report to a JSON file (the local stand-in for uploading
        detections to the online AP repository in the paper's workflow)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


@dataclass
class BatchReport:
    """The output of :meth:`SQLCheck.check_many`: one report per corpus."""

    reports: dict[str, SQLCheckReport] = field(default_factory=dict)
    stats: PipelineStats = field(default_factory=PipelineStats)

    def __len__(self) -> int:
        return sum(len(report) for report in self.reports.values())

    def __iter__(self):
        """Iterate ranked detections across all corpora (matching ``len``);
        use ``.reports`` for per-corpus access."""
        for report in self.reports.values():
            yield from report

    def report_for(self, source: str) -> SQLCheckReport | None:
        return self.reports.get(source)

    def counts(self) -> "Counter[AntiPattern]":
        total: "Counter[AntiPattern]" = Counter()
        for report in self.reports.values():
            total.update(report.counts())
        return total

    def to_dict(self) -> dict:
        return {
            "corpora": {source: report.to_dict() for source, report in self.reports.items()},
            "stats": self.stats.to_dict(),
        }


class SQLCheck:
    """The end-to-end toolchain: detect, rank, and fix anti-patterns.

    The three paper components run in sequence over a shared application
    context: ap-detect (:class:`~repro.detector.detector.APDetector`),
    ap-rank (:class:`~repro.ranking.ranker.APRanker`), and ap-fix
    (:class:`~repro.fixer.repair_engine.APFixer`).

    Entry points:

    * :meth:`check` — one corpus (SQL text or statement list, optionally a
      live database) → :class:`SQLCheckReport`;
    * :meth:`check_many` — many independent corpora → :class:`BatchReport`,
      each run through :meth:`check` on this toolchain;
    * :meth:`check_context` — run over a pre-built
      :class:`~repro.context.application_context.ApplicationContext`;
    * :meth:`detect` — detection only, skipping ranking and fixes.

    Example::

        report = SQLCheck().check("SELECT * FROM t", source="app.sql")
        for entry in report:
            print(entry.rank, entry.detection.display_name)
    """

    def __init__(
        self,
        options: SQLCheckOptions | None = None,
        *,
        registry: RuleRegistry | None = None,
        repair_engine: QueryRepairEngine | None = None,
    ):
        self.options = options or SQLCheckOptions()
        self.registry = registry or default_registry()
        self.repair_engine = repair_engine or QueryRepairEngine()
        self.detector = APDetector(self.options.detector, registry=self.registry)
        self.ranker = APRanker(self.options.ranking, metrics=self.options.metrics)
        self.fixer = APFixer(self.repair_engine)
        # The detector's builder, so check() and detect() share one parse
        # cache; LiveScanner and the offline oracles build contexts with it.
        self._builder = self.detector._builder
        # check()'s replay layer: finished reports of small clean runs,
        # pickled, under APDetector.input_key plus what rank and fix read.
        config = self.options.detector
        self.replays: AnnotationCache | None = (
            AnnotationCache(config.cache_size, layer="replay") if config.enable_cache else None
        )
        self._replay_settings: "tuple[int, tuple | None]" = (0, None)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def check(
        self,
        queries: "Sequence[str] | str" = (),
        database: Any | None = None,
        source: str | None = None,
    ) -> SQLCheckReport:
        """Run the full pipeline over queries and an optional database.

        Without a database, a script or a list of statement texts is first
        looked up in the replay layer (:attr:`replays`, off with
        ``enable_cache=False``).  A hit is the finished report of an
        earlier run over the same exact input under the same rules,
        thresholds, flags, dialect, ``source``, ranking and fix settings:
        it is unpickled fresh and nothing is parsed, detected, ranked or
        fixed.  Its stats hold one detect stage, ``parallel_mode ==
        "replay"``.  A run is stored when it quarantined nothing and
        analysed at most :data:`~repro.sqlparser.fingerprint.MAX_CACHED_STATEMENTS`
        statements.
        """
        stats = PipelineStats()
        with get_tracer().span("check", source=source):
            key = None
            if self.replays is not None and database is None:
                if not isinstance(queries, str):
                    queries = list(queries)
                key, report = self._replay(queries, source, stats)
                if report is not None:
                    return report
            context = self._builder.build(
                queries,
                database=database,
                source=source,
                stats=stats,
                quarantine=self.options.detector.quarantine,
            )
            report = self._finish(context, stats)
            if (
                key is not None
                and not report.errors
                and report.queries_analyzed <= MAX_CACHED_STATEMENTS
            ):
                # The pickle is the run's last work; the fix stage holds it.
                with stats.stage("fix"):
                    self._store(key, report)
            observe_stage_seconds(stats)
            return report

    def _replay(
        self, queries: "Sequence[str] | str", source: "str | None", stats: PipelineStats
    ) -> "tuple[str | None, SQLCheckReport | None]":
        """Look ``queries`` up in the replay layer: ``(key, report or None)``.

        The lookup is the run's first detect stage, hit or miss; a replayed
        run ends with it and is folded into the metrics registry here.
        """
        with get_tracer().span("check:replay"), stats.stage("detect"):
            key = self.detector.input_key(queries, source, self._replay_scope())
            blob = self.replays.get(key) if key is not None else None
            report = pickle.loads(blob) if blob is not None else None
        if report is not None:
            report.stats = stats
            stats.statements = report.queries_analyzed
            stats.parallel_mode = MODE_REPLAY
            observe_stage_seconds(stats)
        return key, report

    def _replay_scope(self) -> bytes:
        """What rank and fix read besides the detections, for replay keys.

        The ranking config, metric table, ``suggest_fixes``, cost model
        and fix rules are compared with a copy of their values at the last
        call (about 1 µs; a repr of the 27-entry metric table alone takes
        about 60 µs).  Any difference starts a new generation, and the
        key carries the generation.  The copy holds the fix rules
        themselves, so a rule is compared by identity, never by an id a
        new object could reuse.
        """
        ranker = self.ranker
        settings = (
            ranker.config,
            ranker.metrics,
            self.options.suggest_fixes,
            resolve_cost_model(self.options.cost_model).describe(),
            self.fixer.engine.rules,
        )
        generation, seen = self._replay_settings
        if settings != seen:
            generation += 1
            config, metrics, suggest, model, rules = settings
            self._replay_settings = (
                generation,
                (config, dict(metrics), suggest, model, list(rules)),
            )
        return generation.to_bytes(8, "little")

    def _store(self, key: str, report: SQLCheckReport) -> None:
        """Keep ``report`` in the replay layer as bytes, never as objects:
        each hit unpickles a fresh copy, so a caller that mutates its
        report cannot reach the stored one."""
        blob = _dumps(dataclasses.replace(report, stats=None))
        if blob is not None:  # an unpicklable report is simply not kept
            self.replays.put(key, blob)

    def check_context(
        self, context: ApplicationContext, stats: PipelineStats | None = None
    ) -> SQLCheckReport:
        """Run the full pipeline over a pre-built application context.

        Every run that reaches here (``check``, ``scan``, ``stream`` and
        direct calls) folds its stage timings into the metrics registry once.
        Detect, rank and fix run under ``stats``' stage clock, continuing
        the stages it already timed (a built context's parse and context).
        """
        stats = stats if stats is not None else PipelineStats()
        report = self._finish(context, stats)
        observe_stage_seconds(stats)
        return report

    def _finish(self, context: ApplicationContext, stats: PipelineStats) -> SQLCheckReport:
        """Detect, rank and fix over a built context, under ``stats``' clock."""
        with stats.stage("detect"):
            detection_report = self.detector.detect_in_context(context, stats=stats)
        quarantine = self.options.detector.quarantine
        errors: "list[PipelineError]" = list(detection_report.errors)

        def record(stage: str, code: str, error: BaseException) -> None:
            entry = PipelineError.from_exception(
                stage, error, code=code, source=context.source
            )
            errors.append(entry)
            stats.errors.append(entry)

        # Real workload facts (live-source ingestion attaches frequencies
        # and durations to the context) weight the ranking through the
        # configured cost model; absent a log every weight is 1.
        model = resolve_cost_model(self.options.cost_model)
        with stats.stage("rank"):
            try:
                ranked = self.ranker.rank(
                    detection_report,
                    frequencies=context.frequencies or None,
                    durations=context.durations or None,
                    cost_model=model,
                )
            except Exception as error:
                if not quarantine:
                    raise
                # A broken (likely user-supplied) cost model degrades the run
                # to the default weighting instead of losing the findings.
                record("rank", CODE_RANK_ERROR, error)
                model = resolve_cost_model(None)
                ranked = self.ranker.rank(detection_report)
        with stats.stage("fix"):
            if self.options.suggest_fixes:
                try:
                    fixes = self.fixer.fix(ranked, context)
                except Exception as error:
                    if not quarantine:
                        raise
                    # Findings are still reported, just without suggested fixes.
                    record("fix", CODE_FIX_ERROR, error)
                    fixes = []
            else:
                fixes = []
        stats.statements = detection_report.queries_analyzed
        return SQLCheckReport(
            detections=ranked,
            fixes=fixes,
            queries_analyzed=detection_report.queries_analyzed,
            tables_analyzed=detection_report.tables_analyzed,
            stats=stats,
            cost_model=model.name,
            errors=errors,
        )

    def check_many(
        self,
        corpora: "Mapping[str, Sequence[str] | str] | Iterable[tuple[str, Sequence[str] | str]]",
        *,
        workers: int | None = None,
    ) -> BatchReport:
        """Run the full pipeline over many independent corpora.

        ``corpora`` maps a source label (repository, application, file) to
        its statements.  Each corpus is an independent application context
        (inter-query rules never see across corpus boundaries) and runs
        through :meth:`check` on this toolchain, in order, sharing its warm
        caches, so per-corpus reports are identical to calling :meth:`check`
        directly.  Duplicate source labels are kept as distinct corpora
        under suffixed keys (``label#2``, ...).  The batch's stats merge the
        corpora's, with the wall-clock time of the whole batch as total.
        ``workers`` is accepted and ignored, so callers that pass it keep
        working: every batch runs in this process.
        """
        batch = BatchReport()
        start = now()
        for source, queries in self._unique_labels(
            corpora.items() if isinstance(corpora, Mapping) else corpora
        ):
            report = batch.reports[source] = self.check(queries, source=source)
            batch.stats.merge(report.stats)
        # Each corpus's stats count itself once; the batch is their count.
        batch.stats.corpora = len(batch.reports)
        batch.stats.total_seconds = now() - start
        return batch

    @staticmethod
    def _unique_labels(
        items: "Iterable[tuple[str, Sequence[str] | str]]",
    ) -> "list[tuple[str, Sequence[str] | str]]":
        """Suffix colliding source labels so no corpus is silently dropped."""
        seen: set[str] = set()
        unique: "list[tuple[str, Sequence[str] | str]]" = []
        for label, queries in items:
            key, attempt = label, 1
            while key in seen:
                attempt += 1
                key = f"{label}#{attempt}"
            seen.add(key)
            unique.append((key, queries))
        return unique

    def detect(self, queries: "Sequence[str] | str" = (), database: Any | None = None) -> DetectionReport:
        """Detection only (no ranking or fixes)."""
        return self.detector.detect(queries, database=database)

    def thresholds(self) -> Thresholds:
        return self.options.detector.thresholds
