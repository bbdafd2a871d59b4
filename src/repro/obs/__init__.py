"""Observability: tracing spans, the metrics registry, and exporters.

The telemetry subsystem behind the ROADMAP's always-on-fleet north star:

* :mod:`repro.obs.trace` — hierarchical spans (run → stage → per-rule /
  per-connector-call) with a no-op fast path and JSONL export
  (``sqlcheck ... --trace FILE``); also home of :data:`now`, the one
  sanctioned monotonic clock (``tests/conformance/test_timing_hygiene.py``
  forbids raw ``time.perf_counter()`` elsewhere);
* :mod:`repro.obs.stats` — :class:`PipelineStats`, one run's stage
  timings and cache accounting, timed by its one stage clock
  (``with stats.stage(name):``), which also opens the ``stage:*`` spans;
* :mod:`repro.obs.metrics` — the process-wide registry of counters,
  gauges, and fixed-bucket histograms instrumenting the hot paths
  (caches, pre-filter, per-rule latency, quarantine, connectors,
  ingestion);
* :mod:`repro.obs.prometheus` — the text exposition served at
  ``GET /metrics``;
* :mod:`repro.obs.profile` — the ``sqlcheck profile`` implementation
  (imported lazily by the CLI; it depends on the toolchain, everything
  above is dependency-free).

Instrumentation is byte-transparent by contract: the
``check_observability_transparency`` oracle (selftest step 9) holds
detections byte-identical with everything here enabled vs. disabled, and
``benchmarks/test_perf_observability.py`` enforces the ≤5% overhead budget
on the fused cold path.
"""
from .metrics import (
    MetricsRegistry,
    attach_snapshot,
    get_metrics,
    observe_stage_seconds,
    set_metrics_enabled,
    swap_registry,
)
from .prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .prometheus import render_prometheus
from .stats import PipelineStats
from .trace import Span, Tracer, get_tracer, now

__all__ = [
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "PipelineStats",
    "Span",
    "Tracer",
    "attach_snapshot",
    "get_metrics",
    "get_tracer",
    "now",
    "observe_stage_seconds",
    "render_prometheus",
    "set_metrics_enabled",
    "swap_registry",
]
