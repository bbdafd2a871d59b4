"""The vocabulary of the batch entry points.

The evaluation workloads run ap-detect over hundreds of thousands of
statements (§8.1's GitHub corpus).  :meth:`APDetector.detect_batch` parses
them through the context builder's cached path, like every other entry
point, and :meth:`SQLCheck.check_many` runs independent corpora through
:meth:`SQLCheck.check` one after another.  This module holds the
``parallel_mode`` strings runs record on their
:class:`~repro.obs.stats.PipelineStats` (which lives in :mod:`repro.obs`
and is re-exported here).
"""
from __future__ import annotations

# Re-exported: ``repro.detector.pipeline.PipelineStats`` stays importable.
from ..obs.stats import PipelineStats  # noqa: F401
# Unused here: perfbench/tracing.py wraps ``pipeline.parse``/``annotate`` by name.
from ..sqlparser import annotate, parse  # noqa: F401

#: ``PipelineStats.parallel_mode`` vocabulary — shared by every entry point
#: so the surfaced strings cannot diverge.
MODE_SERIAL = "serial"
#: the whole batch was replayed from the persistent corpus memo — no parse,
#: no rule execution; detection bytes come from a verified prior clean run.
MODE_PERSISTENT_REPLAY = "persistent-replay"
#: ``SQLCheck.check`` answered an exact repeat from its in-memory replay
#: layer: the finished report of an earlier run, with nothing re-run.
MODE_REPLAY = "replay"
