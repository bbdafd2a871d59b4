"""In-memory span tracing of SQLCheck's layers, installed from outside.

The benchmark does not instrument the program's source.  :class:`Tracer`
replaces each layer entry point at the name its callers look up (a module
global or a class attribute) with a wrapper that records a span — layer
name, start, end, parent span and, on ``serve_mixed``, the request id —
and, for some layers, a count taken from the call's arguments or result.
:meth:`Tracer.uninstall` restores the originals.

Spans stay in memory; :meth:`Tracer.write` dumps them as JSON lines when the
run ends.  A layer's *self time* is its spans' durations minus the time
their direct child spans cover.  Spans with no parent are the roots the
benchmark opens itself (one per pass) or, on the server, one per HTTP
request; their self time is the time no layer accounts for
(``unattributed_s``).
"""
from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Per-layer time metrics (self seconds) in report order.
TIME_METRICS = (
    "sqlparser.lex_s",
    "sqlparser.parse_s",
    "sqlparser.annotate_s",
    "context.build_s",
    "context.lookup_s",
    "fixer.fix_s",
    "detector.detect_s",
    "detector.persist_flush_s",
    "ranking.rank_s",
    "ingest.log_read_s",
    "ingest.fetch_s",
    "profiler.profile_s",
    "reporting.document_s",
    "reporting.render_s",
    "rest.handler_s",
    "rest.lock_wait_s",
)
#: Per-layer counts recorded at the same boundaries.
COUNT_METRICS = (
    "sqlparser.tokens",
    "context.lookup_calls",
    "context.queries_scanned",
    "fixer.fixes",
    "ingest.log_lines",
    "ingest.rows_fetched",
    "reporting.bytes",
)
#: Metrics the size sweep fits a growth exponent for.
EXPONENT_METRICS = tuple(
    m for m in TIME_METRICS + COUNT_METRICS if not m.startswith("rest.")
) + ("unattributed_s",)
#: Every per-layer metric a traced run reports, in report order (the
#: ``per_layer`` list of BENCHMARK.json).
PER_LAYER = (
    TIME_METRICS
    + COUNT_METRICS
    + (
        "unattributed_s",
        "sqlparser.cache_hit_ratio",
        "sqlparser.cache_lookups",
        "detector.memo_hit_ratio",
        "detector.memo_lookups",
        "rest.transport_s",
        "loadgen.lag_ms",
        "pass_s",
        "trace.overhead_ratio",
    )
    + tuple(f"{m}.exponent" for m in EXPONENT_METRICS)
)
#: The span name that marks a root opened by the benchmark itself.
ROOT = "root"

#: ApplicationContext lookups that scan every annotation of the context.
#: ``queries_referencing_column`` is a lookup call too, but its scan is the
#: nested ``queries_referencing`` call, so it adds no scanned annotations.
_SCANNING_LOOKUPS = ("queries_referencing", "join_pairs", "join_columns_between", "column_usage")


def _size(value: Any) -> int:
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, dict):
        return len(json.dumps(value, default=str).encode("utf-8"))
    return 0


class _TimedLock:
    """Stand-in for a pooled toolchain lock that records the wait to acquire it."""

    def __init__(self, lock: Any, tracer: "Tracer"):
        self._lock = lock
        self._tracer = tracer

    def __enter__(self):
        with self._tracer.span("rest.lock_wait"):
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class Tracer:
    """Records spans around SQLCheck's layer entry points."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, request id or None]
        self.spans: "list[list]" = []
        self.counts: "defaultdict[str, int]" = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: "list[tuple[Any, str, Any]]" = []

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: "str | None") -> None:
        """Tag the spans this thread records next with ``request_id``."""
        self._local.request = request_id

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                  getattr(self._local, "request", None)]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, metric: str, amount: int) -> None:
        with self._lock:
            self.counts[metric] += amount

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        counter: "Callable[[tuple, Any], dict[str, int]] | None" = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                for metric, amount in counter(args, result).items():
                    tracer.count(metric, amount)
            return result

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self) -> "Tracer":
        """Wrap every layer entry point the benchmark measures."""
        import repro.catalog.ddl_builder as ddl_builder
        import repro.context.builder as builder
        import repro.detector.pipeline as pipeline
        import repro.ingest.scanner as scanner
        import repro.interfaces.rest as rest
        import repro.reporting as reporting
        from repro.context.application_context import ApplicationContext
        from repro.detector.detector import APDetector
        from repro.detector.persist import PersistentMemo
        from repro.fixer.repair_engine import APFixer
        from repro.ingest.connectors import Connector, SQLiteConnector
        from repro.profiler.profiler import DataProfiler
        from repro.ranking.ranker import APRanker
        from repro.sqlparser.lexer import Lexer

        self.wrap(Lexer, "tokenize", "sqlparser.lex",
                  lambda args, tokens: {"sqlparser.tokens": len(tokens)})
        for module in (builder, pipeline, ddl_builder):
            self.wrap(module, "parse", "sqlparser.parse")
        self.wrap(ddl_builder, "parse_statement", "sqlparser.parse")
        for module in (builder, pipeline):
            self.wrap(module, "annotate", "sqlparser.annotate")
        self.wrap(builder.ContextBuilder, "build", "context.build")
        for name in _SCANNING_LOOKUPS:
            self.wrap(ApplicationContext, name, "context.lookup",
                      lambda args, _: {"context.lookup_calls": 1,
                                       "context.queries_scanned": len(args[0].queries)})
        self.wrap(ApplicationContext, "queries_referencing_column", "context.lookup",
                  lambda args, _: {"context.lookup_calls": 1})
        self.wrap(APFixer, "fix", "fixer.fix",
                  lambda args, fixes: {"fixer.fixes": len(fixes)})
        self.wrap(APDetector, "detect_in_context", "detector.detect")
        self.wrap(PersistentMemo, "flush", "detector.persist_flush")
        self.wrap(APRanker, "rank", "ranking.rank")
        self.wrap(scanner, "read_workload_log", "ingest.log_read",
                  lambda args, log: {"ingest.log_lines": int(log.total_statements)})
        self.wrap(Connector, "fetch_rows", "ingest.fetch",
                  lambda args, rows: {"ingest.rows_fetched": len(rows)})
        self.wrap(Connector, "fetch_row_count", "ingest.fetch")
        self.wrap(SQLiteConnector, "introspect_schema", "ingest.fetch")
        self.wrap(DataProfiler, "profile_rows", "profiler.profile")
        for module in (reporting, rest):
            self.wrap(module, "build_document", "reporting.document")
        self.wrap(reporting, "build_documents", "reporting.document")
        rendered = lambda args, out: {"reporting.bytes": _size(out)}  # noqa: E731
        self.wrap(reporting, "render_sarif", "reporting.render", rendered)
        for name in ("to_sarif", "render_markdown", "render_html"):
            self.wrap(rest, name, "reporting.render", rendered)
        self.wrap(rest, "handle_check_request", "rest.handler")
        self._wrap_http(rest)
        self._wrap_pool(rest)
        return self

    def _wrap_http(self, rest: Any) -> None:
        """One root span per HTTP request, tagged with its request id."""
        original = rest._Handler.do_POST
        tracer = self

        @functools.wraps(original)
        def do_post(handler):
            tracer.set_request(handler.headers.get("X-Request-Id"))
            with tracer.span("rest.http"):
                original(handler)
            tracer.set_request(None)

        self._patched.append((rest._Handler, "do_POST", original))
        rest._Handler.do_POST = do_post

    def _wrap_pool(self, rest: Any) -> None:
        """Hand out pooled toolchain locks that time their acquisition."""
        original = rest.ToolchainPool.acquire
        tracer = self

        @functools.wraps(original)
        def acquire(pool, key, factory):
            toolchain, lock = original(pool, key, factory)
            return toolchain, _TimedLock(lock, tracer)

        self._patched.append((rest.ToolchainPool, "acquire", original))
        rest.ToolchainPool.acquire = acquire

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> "dict[str, float]":
        """Self seconds per span name (duration minus direct children)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: "defaultdict[str, float]" = defaultdict(float)
        for (name, start, end, _, _), children in zip(spans, child_time):
            totals[name] += (end - start) - children
        return dict(totals)

    def inclusive_by_request(self, name: str) -> "dict[str, float]":
        """Inclusive seconds of ``name`` spans per request id."""
        out: "defaultdict[str, float]" = defaultdict(float)
        for span_name, start, end, _, request in self.spans:
            if span_name == name and request is not None:
                out[request] += end - start
        return dict(out)

    def layer_metrics(self) -> "dict[str, float]":
        """Every per-layer time and count metric, 0 where the layer did no work.

        Root spans (the benchmark's own pass spans and the server's
        per-request HTTP spans) make up ``unattributed_s``.
        """
        selfs = self.self_times()
        metrics = {metric: selfs.get(metric[: -len("_s")], 0.0) for metric in TIME_METRICS}
        metrics.update({metric: float(self.counts.get(metric, 0)) for metric in COUNT_METRICS})
        metrics["unattributed_s"] = selfs.get(ROOT, 0.0) + selfs.get("rest.http", 0.0)
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "request": request}
                ) + "\n")
