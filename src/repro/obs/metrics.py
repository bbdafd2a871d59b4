"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The paper's evaluation (§8) is entirely about where detection time goes;
``PipelineStats`` answers that for one run and dies with it.  This registry
is the process-wide accumulation behind the fleet-facing surfaces — the
Prometheus text exposition at ``GET /metrics``, the ``metrics`` block on
``--stats`` payloads, and ``sqlcheck profile``.

Design constraints, in order:

* **zero dependencies** — this module must be importable from anywhere in
  the package (``repro.errors`` hooks into it), so it imports nothing from
  ``repro``;
* **cheap when enabled, near-free when disabled** — every mutator
  early-returns on ``registry.enabled``; hot call sites additionally guard
  with ``get_metrics().enabled`` so they skip timing work entirely;
* **byte-transparent** — nothing here ever touches detection results; the
  ``check_observability_transparency`` oracle holds runs with the registry
  on and off byte-identical.

Instruments are plain in-memory dicts without locks: under the GIL each
series update is a single dict assignment, and telemetry tolerates the
(rare, REST-threaded) lost increment far better than it would tolerate a
lock on the per-rule hot path.

Label values are coerced to ``str``; keep cardinality bounded at the call
site (rule names, stage names, error codes — never file paths or raw SQL).
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Mapping, Sequence

#: every instrument name carries this prefix so scrapes from mixed fleets
#: group cleanly; kept explicit in the registered names (no magic joining).
NAMESPACE = "sqlcheck"

#: per-rule check latency buckets (seconds): rules run in the 10µs–10ms
#: range on the fused path; the tail buckets catch pathological workloads.
RULE_SECONDS_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: pipeline-stage latency buckets (seconds): stages span milliseconds for
#: one query to minutes for a corpus batch.
STAGE_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _label_key(
    label_names: "tuple[str, ...]", labels: Mapping[str, object]
) -> "tuple[str, ...]":
    if len(labels) != len(label_names):
        raise ValueError(
            f"expected labels {list(label_names)}, got {sorted(labels)}"
        )
    try:
        # Single-label instruments sit on the per-rule hot path; skip the
        # generator machinery for them.
        if len(label_names) == 1:
            return (str(labels[label_names[0]]),)
        return tuple(str(labels[name]) for name in label_names)
    except KeyError as error:
        raise ValueError(
            f"expected labels {list(label_names)}, got {sorted(labels)}"
        ) from error


class _Instrument:
    """Shared bookkeeping: name, help text, label schema, series store."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        label_names: "Sequence[str]" = (),
    ):
        self._registry = registry
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._series: dict = {}

    def clear(self) -> None:
        self._series.clear()

    def labels_of(self, key: "tuple[str, ...]") -> "dict[str, str]":
        return dict(zip(self.label_names, key))


class Counter(_Instrument):
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled or amount == 0:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(self.label_names, labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def inc_single(self, label_value: str, amount: float = 1.0) -> None:
        """Validation-free increment for a single-label counter.

        The per-statement hot path (memo/prefilter accounting) pays for
        ``inc``'s keyword plumbing tens of thousands of times per corpus;
        this skips it.  Callers own the schema: exactly one label name,
        ``label_value`` already a string.
        """
        if not self._registry.enabled or amount == 0:
            return
        key = (label_value,)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(self.label_names, labels), 0.0)

    def total(self) -> float:
        return sum(self._series.values())

    def series(self) -> "Iterator[tuple[dict[str, str], float]]":
        for key, value in self._series.items():
            yield self.labels_of(key), value


class Gauge(_Instrument):
    """A value that can go up and down (cache sizes, in-flight work)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        self._series[_label_key(self.label_names, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self.label_names, labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(self.label_names, labels), 0.0)

    def series(self) -> "Iterator[tuple[dict[str, str], float]]":
        for key, value in self._series.items():
            yield self.labels_of(key), value


class Histogram(_Instrument):
    """Fixed-bucket latency distribution (cumulative buckets + sum + count).

    Buckets are upper bounds in ascending order; an implicit ``+Inf``
    bucket always exists.  Per-series state is ``[bucket_counts, sum,
    count]`` with *non*-cumulative bucket counts internally (one increment
    per observation); the exposition layer accumulates them into the
    Prometheus cumulative form.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        label_names: "Sequence[str]" = (),
        buckets: "Sequence[float]" = RULE_SECONDS_BUCKETS,
    ):
        super().__init__(registry, name, help_text, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self.label_names, labels)
        state = self._series.get(key)
        if state is None:
            # one slot per finite bucket plus the +Inf overflow slot
            state = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._series[key] = state
        state[0][bisect_left(self.buckets, value)] += 1
        state[1] += value
        state[2] += 1

    def observe_single(self, value: float, label_value: str) -> None:
        """Validation-free observation for a single-label histogram.

        The per-rule timing hook calls this once per rule invocation —
        the hottest instrument in the process; see :meth:`Counter.inc_single`
        for the contract.
        """
        if not self._registry.enabled:
            return
        key = (label_value,)
        state = self._series.get(key)
        if state is None:
            state = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._series[key] = state
        state[0][bisect_left(self.buckets, value)] += 1
        state[1] += value
        state[2] += 1

    def series(self) -> "Iterator[tuple[dict[str, str], int, float, list[int]]]":
        """Yield ``(labels, count, sum, bucket_counts)`` per series."""
        for key, (counts, total, count) in self._series.items():
            yield self.labels_of(key), count, total, list(counts)

    def count(self, **labels: object) -> int:
        state = self._series.get(_label_key(self.label_names, labels))
        return state[2] if state is not None else 0

    def sum(self, **labels: object) -> float:
        state = self._series.get(_label_key(self.label_names, labels))
        return state[1] if state is not None else 0.0


class MetricsRegistry:
    """One process's instruments, pre-declared for every sqlcheck hot path.

    ``enabled`` gates every mutator; flipping it off turns instrumentation
    into attribute loads and early returns.  :func:`get_metrics` returns
    the process-wide instance — call sites must fetch it per use (never
    cache instruments) so ``sqlcheck profile`` can swap in a fresh registry
    for an isolated measurement window.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._instruments: "dict[str, _Instrument]" = {}
        self._declare_defaults()

    # ------------------------------------------------------------------
    # instrument declaration
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help_text: str, label_names: "Sequence[str]" = ()
    ) -> Counter:
        return self._register(Counter(self, name, help_text, label_names))

    def gauge(
        self, name: str, help_text: str, label_names: "Sequence[str]" = ()
    ) -> Gauge:
        return self._register(Gauge(self, name, help_text, label_names))

    def histogram(
        self,
        name: str,
        help_text: str,
        label_names: "Sequence[str]" = (),
        buckets: "Sequence[float]" = RULE_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(self, name, help_text, label_names, buckets))

    def _register(self, instrument: _Instrument):
        if instrument.name in self._instruments:
            raise ValueError(f"metric {instrument.name!r} already registered")
        self._instruments[instrument.name] = instrument
        return instrument

    def _declare_defaults(self) -> None:
        # caches: the lookup paths whose hit rates decide cold vs. warm,
        # counted by the cache itself (``AnnotationCache.get``)
        self.annotation_cache_lookups = self.counter(
            f"{NAMESPACE}_annotation_cache_lookups_total",
            "Annotation-cache lookups by result (hit/miss).",
            ("result",),
        )
        self.memo_lookups = self.counter(
            f"{NAMESPACE}_detection_memo_lookups_total",
            "Detection-memo lookups by result (hit/miss).",
            ("result",),
        )
        self.replay_lookups = self.counter(
            f"{NAMESPACE}_replay_lookups_total",
            "Replay-layer lookups by result (hit/miss): a hit answers a "
            "check from a finished report without running the pipeline.",
            ("result",),
        )
        self.annotation_cache_entries = self.gauge(
            f"{NAMESPACE}_annotation_cache_entries",
            "Entries resident in the annotation cache after the last run.",
        )
        self.memo_entries = self.gauge(
            f"{NAMESPACE}_detection_memo_entries",
            "Entries resident in the detection memo after the last run.",
        )
        # persistent memo: the SQLite-backed warm state shared across
        # restarts and processes
        self.persistent_memo_lookups = self.counter(
            f"{NAMESPACE}_persistent_memo_lookups_total",
            "Persistent-memo lookups by layer (memo/annotations/corpus) "
            "and result (hit/miss); a workload-bound run reads its memo row once.",
            ("layer", "result"),
        )
        self.persistent_memo_invalidations = self.counter(
            f"{NAMESPACE}_persistent_memo_invalidations_total",
            "Persistent-memo entries or files invalidated, by reason "
            "(registry-change/format-version/corrupt-file/corrupt-entry/"
            "io-error).",
            ("reason",),
        )
        self.persistent_memo_entries = self.gauge(
            f"{NAMESPACE}_persistent_memo_entries",
            "Rows resident in the persistent memo store after the last flush.",
        )
        # fused matcher: how much work the trigger automaton pre-filter skips
        self.prefilter_rules = self.counter(
            f"{NAMESPACE}_prefilter_rules_total",
            "Per-statement rule candidates by pre-filter outcome "
            "(selected = executed, skipped = trigger tokens absent).",
            ("outcome",),
        )
        # per-rule cost and yield
        self.rule_fires = self.counter(
            f"{NAMESPACE}_rule_fires_total",
            "Detections produced, by rule.",
            ("rule",),
        )
        self.rule_check_seconds = self.histogram(
            f"{NAMESPACE}_rule_check_seconds",
            "Latency of one rule check call, by rule.",
            ("rule",),
            buckets=RULE_SECONDS_BUCKETS,
        )
        # pipeline stages and volume
        self.stage_seconds = self.histogram(
            f"{NAMESPACE}_stage_seconds",
            "Wall-clock seconds spent per pipeline stage per run.",
            ("stage",),
            buckets=STAGE_SECONDS_BUCKETS,
        )
        self.statements = self.counter(
            f"{NAMESPACE}_statements_total",
            "Statements analysed across all runs.",
        )
        # fault isolation: what was quarantined, retried, or tripped
        self.quarantined_errors = self.counter(
            f"{NAMESPACE}_quarantined_errors_total",
            "Quarantined PipelineError records by stage and taxonomy code.",
            ("stage", "code"),
        )
        self.connector_retries = self.counter(
            f"{NAMESPACE}_connector_retries_total",
            "Connector operations retried after a transient failure.",
        )
        self.connector_breaker_trips = self.counter(
            f"{NAMESPACE}_connector_breaker_trips_total",
            "Connector circuit-breaker open transitions.",
        )
        # ingestion: log lines folded into the workload vs. skipped
        self.ingest_lines = self.counter(
            f"{NAMESPACE}_ingest_lines_total",
            "Workload-log records by outcome (folded/skipped).",
            ("outcome",),
        )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __iter__(self) -> "Iterator[_Instrument]":
        return iter(self._instruments.values())

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> "_Instrument | None":
        return self._instruments.get(name)

    def reset(self) -> None:
        """Zero every series (instrument declarations stay)."""
        for instrument in self._instruments.values():
            instrument.clear()

    def snapshot(self) -> dict:
        """JSON-friendly dump of every non-empty series.

        This is the ``metrics`` block attached to ``--stats`` and REST
        stats payloads; histogram series are summarised as count/sum (the
        full bucket vectors live in the Prometheus exposition).
        """
        out: dict = {}
        for instrument in self._instruments.values():
            values: list = []
            if isinstance(instrument, Histogram):
                for labels, count, total, _ in instrument.series():
                    values.append(
                        {"labels": labels, "count": count, "sum": round(total, 9)}
                    )
            else:
                for labels, value in instrument.series():
                    values.append({"labels": labels, "value": value})
            if values:
                out[instrument.name] = {
                    "type": instrument.kind,
                    "help": instrument.help,
                    "values": values,
                }
        return out


#: the process-wide registry — metrics are on by default (the overhead
#: budget is enforced by ``benchmarks/test_perf_observability.py``); the
#: tracer, by contrast, is opt-in.
_REGISTRY = MetricsRegistry(enabled=True)


def get_metrics() -> MetricsRegistry:
    """The process-wide registry.  Fetch per use; never cache instruments."""
    return _REGISTRY


def set_metrics_enabled(enabled: bool) -> bool:
    """Flip collection on/off; returns the previous state."""
    global _REGISTRY
    previous = _REGISTRY.enabled
    _REGISTRY.enabled = enabled
    return previous


def swap_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry, returning the previous one.

    ``sqlcheck profile`` swaps in a fresh registry so its report reflects
    exactly one measured run, then restores the original.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def observe_stage_seconds(stats) -> None:
    """Fold one run's ``PipelineStats`` stage timings into the registry.

    Duck-typed (this module cannot import the detector); call once per
    completed run.  ``SQLCheck.check`` and ``check_context`` do, as do
    ``APDetector.detect``, ``stream`` and ``detect_batch``; a
    ``check_many`` batch records one run per corpus through ``check``.
    """
    registry = _REGISTRY
    if not registry.enabled:
        return
    if stats.ingest_seconds:  # a scan, or a stream's first chunk: its log read
        registry.stage_seconds.observe(stats.ingest_seconds, stage="ingest")
    registry.stage_seconds.observe(stats.parse_seconds, stage="parse")
    registry.stage_seconds.observe(stats.context_seconds, stage="context")
    registry.stage_seconds.observe(stats.detect_seconds, stage="detect")
    registry.stage_seconds.observe(stats.rank_seconds, stage="rank")
    registry.stage_seconds.observe(stats.fix_seconds, stage="fix")
    registry.statements.inc(stats.statements)


def attach_snapshot(payload: dict) -> None:
    """Fold a :meth:`~MetricsRegistry.snapshot` into ``payload["stats"]``.

    The one path behind the CLI's ``--stats`` and a REST request's
    ``"stats": true``.  Nothing is attached when metrics are disabled or
    the payload carries no stats block, so those payloads stay byte-stable.
    """
    registry = _REGISTRY
    if registry.enabled and isinstance(payload.get("stats"), dict):
        payload["stats"]["metrics"] = registry.snapshot()
