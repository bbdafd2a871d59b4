"""Pipeline accounting shared by the batch entry points.

The evaluation workloads run ap-detect over hundreds of thousands of
statements (§8.1's GitHub corpus).  :meth:`APDetector.detect_batch` parses
them through the context builder's cached path, like every other entry
point; :meth:`SQLCheck.check_many` fans independent corpora out over a
process pool.  This module holds what both report:

* :class:`PipelineStats` — per-stage wall-clock timings (``parse``,
  ``context``, ``detect``, ``rank``, ``fix``), cache hit rates, and the
  worker count and ``parallel_mode`` of a run, surfaced through the CLI
  (``--stats``), the REST API, and the workload drivers;
* :func:`resolve_workers` and the ``parallel_mode`` vocabulary of
  ``check_many``'s corpus pool.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

# Unused here: perfbench/tracing.py wraps ``pipeline.parse``/``annotate`` by name.
from ..sqlparser import annotate, parse  # noqa: F401

#: Below this many statements the process-pool fan-out is never worth the
#: spawn + pickle overhead; the serial path is used instead.
MIN_PARALLEL_STATEMENTS = 64

#: ``PipelineStats.parallel_mode`` vocabulary — shared by every batch entry
#: point (detect_batch, check_many) so the surfaced strings cannot diverge.
MODE_SERIAL = "serial"
MODE_PROCESS_POOL = "process-pool"
#: the whole batch was replayed from the persistent corpus memo — no parse,
#: no rule execution; detection bytes come from a verified prior clean run.
MODE_PERSISTENT_REPLAY = "persistent-replay"
REASON_SINGLE_CPU = "single-cpu"
REASON_SMALL_INPUT = "small-input"
REASON_SINGLE_CORPUS = "single-corpus"
REASON_EXECUTOR_ERROR = "executor-error"
#: the tracer was on: one process gives one trace, so corpora run in-process.
REASON_TRACED = "traced"


def serial_mode(requested_workers: int, reason: str) -> str:
    """Mode string for a run that stayed serial: plain ``serial`` when serial
    was requested, ``serial-fallback:<reason>`` when a fan-out downgraded."""
    return MODE_SERIAL if requested_workers <= 1 else f"serial-fallback:{reason}"


def merged_label(left: str, right: str) -> str:
    """Combine two mode/semantics labels into an explicit ``mixed(...)``.

    :meth:`PipelineStats.merge` uses this so a merge across runs that took
    different paths (one corpus fanned out, another stayed serial) is
    surfaced instead of silently keeping the left side's label.  Existing
    ``mixed(...)`` labels are unwrapped so repeated merges stay flat.
    """
    parts: "set[str]" = set()
    for label in (left, right):
        if label.startswith("mixed(") and label.endswith(")"):
            parts.update(p.strip() for p in label[len("mixed(") : -1].split(","))
        else:
            parts.add(label)
    if len(parts) == 1:
        return parts.pop()
    return f"mixed({', '.join(sorted(parts))})"


@dataclass
class PipelineStats:
    """Per-stage timing and cache accounting for one pipeline run.

    ``total_seconds`` is always wall-clock.  Stage seconds are wall-clock
    too, except after a process-pool ``check_many`` merge, where they are
    summed across concurrently-running workers (CPU-aggregate) and can
    therefore exceed ``total_seconds`` — ``stage_semantics`` records which
    interpretation applies.
    """

    statements: int = 0
    parse_seconds: float = 0.0
    context_seconds: float = 0.0
    detect_seconds: float = 0.0
    rank_seconds: float = 0.0
    fix_seconds: float = 0.0
    total_seconds: float = 0.0
    workers: int = 1
    parallel_mode: str = "serial"
    annotation_cache_hits: int = 0
    annotation_cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    corpora: int = 1
    stage_semantics: str = "wall-clock"
    #: quarantined :class:`repro.errors.PipelineError` records for this run;
    #: mirrors the report's error list so ``--stats`` consumers see them.
    errors: list = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any stage quarantined a failure during this run."""
        return bool(self.errors)

    def stage_seconds_sum(self) -> float:
        """Sum of the five stage timings.

        On wall-clock runs every moment between the pipeline's first and
        last boundary timestamp is attributed to exactly one stage, so this
        equals ``total_seconds`` up to the glue between timing scopes — the
        invariant the stats-accounting oracle enforces
        (:func:`repro.testkit.oracles.check_stats_accounting`).
        """
        return (
            self.parse_seconds
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
        corpus counts add; worker counts take the maximum; totals are the
        caller's).  Merging runs whose ``parallel_mode`` or
        ``stage_semantics`` differ marks the field ``mixed(...)`` instead of
        silently keeping the left side's label."""
        self.statements += other.statements
        self.parse_seconds += other.parse_seconds
        self.context_seconds += other.context_seconds
        self.detect_seconds += other.detect_seconds
        self.rank_seconds += other.rank_seconds
        self.fix_seconds += other.fix_seconds
        self.workers = max(self.workers, other.workers)
        self.parallel_mode = merged_label(self.parallel_mode, other.parallel_mode)
        self.stage_semantics = merged_label(self.stage_semantics, other.stage_semantics)
        self.annotation_cache_hits += other.annotation_cache_hits
        self.annotation_cache_misses += other.annotation_cache_misses
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.corpora += other.corpora
        self.errors.extend(other.errors)
        return self

    def to_dict(self) -> dict:
        return {
            "statements": self.statements,
            "statements_per_second": round(self.statements_per_second, 2),
            "stages": {
                "parse": round(self.parse_seconds, 6),
                "context": round(self.context_seconds, 6),
                "detect": round(self.detect_seconds, 6),
                "rank": round(self.rank_seconds, 6),
                "fix": round(self.fix_seconds, 6),
            },
            "total_seconds": round(self.total_seconds, 6),
            "stage_semantics": self.stage_semantics,
            "workers": self.workers,
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


def resolve_workers(requested: int) -> int:
    """Clamp a requested worker count to the CPUs actually available.

    Oversubscribing CPU-bound corpus checks only adds scheduling and pickle
    overhead, so a single-CPU container always degrades to the serial path.
    """
    if requested <= 1:
        return 1
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(1, min(requested, available))
