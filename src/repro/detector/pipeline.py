"""The vocabulary of the batch entry points.

The evaluation workloads run ap-detect over hundreds of thousands of
statements (§8.1's GitHub corpus).  :meth:`APDetector.detect_batch` parses
them through the context builder's cached path, like every other entry
point; :meth:`SQLCheck.check_many` fans independent corpora out over a
process pool.  This module holds :func:`resolve_workers` and the
``parallel_mode`` strings both record on their
:class:`~repro.obs.stats.PipelineStats` (which lives in :mod:`repro.obs`
and is re-exported here).
"""
from __future__ import annotations

import os

# Re-exported: ``repro.detector.pipeline.PipelineStats`` stays importable.
from ..obs.stats import PipelineStats  # noqa: F401
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
#: ``SQLCheck.check`` answered an exact repeat from its in-memory replay
#: layer: the finished report of an earlier run, with nothing re-run.
MODE_REPLAY = "replay"
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
