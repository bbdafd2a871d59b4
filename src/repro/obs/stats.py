"""``PipelineStats``: one run's stage timings and cache accounting.

Every entry point times its stages through one clock,
:meth:`PipelineStats.stage`.  A run's first stage starts at a clock
reading and each later stage at the reading where the previous one ended,
so the stages tile the run (time between two stages counts toward the one
that follows) and ``total_seconds``, last end − first start, is their sum.
While tracing, each stage's ``stage:<name>`` span opens and closes at the
same two readings.  The cache fields are deltas of the caches' own
:class:`~repro.sqlparser.fingerprint.CacheStats` over the run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .trace import _NOOP_SPAN, _SpanContext, get_tracer, now


class _StageClock:
    """One ``with stats.stage(name):`` block (see :meth:`PipelineStats.stage`).

    A ``__slots__`` class rather than a generator-based context manager:
    it runs once per stage on every check, hot served requests included.
    """

    __slots__ = ("_stats", "_name", "_field", "_start", "_span")

    def __init__(self, stats: "PipelineStats", name: str):
        self._stats = stats
        self._name = name
        self._field = f"{name}_seconds"

    def __enter__(self) -> None:
        stats = self._stats
        start = stats._mark
        if start is None:
            start = stats._origin = now()
        self._start = start
        tracer = get_tracer()
        self._span = tracer._open(f"stage:{self._name}", {}, start) if tracer.enabled else None

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = now()
        stats = self._stats
        setattr(stats, self._field, getattr(stats, self._field) + (end - self._start))
        stats._mark = end
        stats.total_seconds = end - stats._origin
        span = self._span
        if span is not None:
            if exc_type is not None:
                span.attributes.setdefault("error", exc_type.__name__)
            get_tracer()._close(span, end)
        return False


@dataclass
class PipelineStats:
    """Per-stage timing and cache accounting for one pipeline run.

    Stage seconds and ``total_seconds`` are wall-clock.  A ``check_many``
    batch merges its corpora's stages and times the whole batch as its
    total, so there the stages sum to at most the total.
    """

    statements: int = 0
    #: a scan's workload-log read (and database connect), before parsing.
    ingest_seconds: float = 0.0
    parse_seconds: float = 0.0
    context_seconds: float = 0.0
    detect_seconds: float = 0.0
    rank_seconds: float = 0.0
    fix_seconds: float = 0.0
    total_seconds: float = 0.0
    parallel_mode: str = "serial"
    annotation_cache_hits: int = 0
    annotation_cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    corpora: int = 1
    #: quarantined :class:`repro.errors.PipelineError` records for this run;
    #: mirrors the report's error list so ``--stats`` consumers see them.
    errors: list = field(default_factory=list)

    # The stage clock's readings (class defaults, not dataclass fields):
    # where the run's first stage started and where its last one ended.
    _origin = None
    _mark = None

    def stage(self, name: str) -> _StageClock:
        """Time the ``with`` block as stage ``name`` (``ingest``, ``parse``,
        ``context``, ``detect``, ``rank`` or ``fix``) of this run; see the
        module docstring."""
        return _StageClock(self, name)

    def span(self, name: str, **attributes: Any):
        """A tracer span around the rest of this run; no-op when tracing is
        off.  It opens at the stage clock's current reading, so a run that
        continues a stage timed before the call (a stream's ``ingest``
        stage, ahead of its first chunk) keeps its later stages inside the
        span; a run that has not started opens it now, as
        :meth:`Tracer.span` does."""
        tracer = get_tracer()
        if not tracer.enabled:
            return _NOOP_SPAN
        return _SpanContext(tracer, name, attributes, self._mark)

    @property
    def degraded(self) -> bool:
        """True when any stage quarantined a failure during this run."""
        return bool(self.errors)

    def stage_seconds_sum(self) -> float:
        """Sum of the stage timings.

        On a run timed by :meth:`stage` the stages tile the run, so this
        equals ``total_seconds`` exactly (up to float rounding) — the
        invariant the stats-accounting oracle checks
        (:func:`repro.testkit.oracles.check_stats_accounting`).
        """
        return (
            self.ingest_seconds
            + self.parse_seconds
            + self.context_seconds
            + self.detect_seconds
            + self.rank_seconds
            + self.fix_seconds
        )

    @property
    def statements_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.statements / self.total_seconds

    @property
    def annotation_cache_hit_rate(self) -> float:
        lookups = self.annotation_cache_hits + self.annotation_cache_misses
        return self.annotation_cache_hits / lookups if lookups else 0.0

    @property
    def memo_hit_rate(self) -> float:
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    def merge(self, other: "PipelineStats") -> "PipelineStats":
        """Accumulate another run's stats into this one (stage times and
        corpus counts add).  Totals and ``parallel_mode`` are the caller's."""
        self.statements += other.statements
        self.ingest_seconds += other.ingest_seconds
        self.parse_seconds += other.parse_seconds
        self.context_seconds += other.context_seconds
        self.detect_seconds += other.detect_seconds
        self.rank_seconds += other.rank_seconds
        self.fix_seconds += other.fix_seconds
        self.annotation_cache_hits += other.annotation_cache_hits
        self.annotation_cache_misses += other.annotation_cache_misses
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.corpora += other.corpora
        self.errors.extend(other.errors)
        return self

    def to_dict(self) -> dict:
        """JSON-friendly form; ``stages`` lists ``ingest`` only for runs
        that had one (scans)."""
        stages = {"ingest": round(self.ingest_seconds, 6)} if self.ingest_seconds else {}
        stages.update(
            parse=round(self.parse_seconds, 6),
            context=round(self.context_seconds, 6),
            detect=round(self.detect_seconds, 6),
            rank=round(self.rank_seconds, 6),
            fix=round(self.fix_seconds, 6),
        )
        return {
            "statements": self.statements,
            "statements_per_second": round(self.statements_per_second, 2),
            "stages": stages,
            "total_seconds": round(self.total_seconds, 6),
            "parallel_mode": self.parallel_mode,
            "corpora": self.corpora,
            "annotation_cache": {
                "hits": self.annotation_cache_hits,
                "misses": self.annotation_cache_misses,
                "hit_rate": round(self.annotation_cache_hit_rate, 4),
            },
            "detection_memo": {
                "hits": self.memo_hits,
                "misses": self.memo_misses,
                "hit_rate": round(self.memo_hit_rate, 4),
            },
            "degraded": self.degraded,
            "errors": [e.to_dict() for e in self.errors],
        }
