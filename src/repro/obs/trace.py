"""Hierarchical tracing: run → stage → per-rule / per-connector call.

A zero-dependency tracer with a no-op fast path.  Spans form a tree via
``parent_id``; the current parent is tracked per thread, so nesting works
without threading span objects through every call signature.  Disabled
(the default), ``span()`` returns a shared no-op context manager and
``record()`` returns immediately — the hot paths additionally guard on
``tracer.enabled`` so they skip clock reads entirely.

``now`` is the one sanctioned monotonic clock for pipeline timing — the
timing-hygiene conformance test forbids raw clock reads outside this
package and reads of ``now`` outside it beyond two allowlisted sites, so
all new timing flows through here.  ``stage:*`` spans are opened only by
the stage clock (:meth:`repro.obs.stats.PipelineStats.stage`), at the
readings its stats account with.
"""
from __future__ import annotations

import json
import time
from typing import Any

#: the sanctioned monotonic clock (see module docstring).
now = time.perf_counter

#: spans kept per trace before new ones are counted as dropped — bounds
#: memory when someone traces a corpus-scale batch with per-rule spans.
DEFAULT_MAX_SPANS = 200_000

#: JSONL schema version stamped into every exported span line.
SCHEMA_VERSION = 1


class Span:
    """One timed operation; ``start``/``end`` are tracer-relative seconds."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attributes")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: "int | None",
        start: float,
        end: float = 0.0,
        attributes: "dict[str, Any] | None" = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attributes = attributes or {}

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "v": SCHEMA_VERSION,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": round(self.start * 1000.0, 6),
            "duration_ms": round(self.duration * 1000.0, 6),
            "attributes": self.attributes,
        }


class _NoopSpanContext:
    """The shared disabled-path context manager (stateless, reentrant)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_SPAN = _NoopSpanContext()


class _SpanContext:
    """Context manager for one live span: times it and manages the stack."""

    __slots__ = ("_tracer", "_name", "_attributes", "_start", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: "dict[str, Any]",
        start: "float | None" = None,
    ):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._start = start
        self._span: "Span | None" = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attributes, self._start)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._span is not None
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects one process's spans; export as JSONL via :meth:`export`.

    Span times are seconds relative to the tracer's epoch (set at
    construction and on :meth:`reset`).
    """

    def __init__(self, *, enabled: bool = False, max_spans: int = DEFAULT_MAX_SPANS):
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: "list[Span]" = []
        self._next_id = 1
        # One stack, not thread-local: the CLI traces one run at a time,
        # and cross-thread REST runs are simply not traced (enabled stays
        # False on the server path unless a caller opts in).
        self._stack: "list[Span]" = []
        self._epoch_perf = now()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self, *, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.dropped = 0
        self._next_id = 1
        self._epoch_perf = now()

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """Context manager timing one operation as a child of the current
        span; no-op (and allocation-free) when tracing is disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return _SpanContext(self, name, attributes)

    def record(self, name: str, start: float, end: float, **attributes: Any) -> "Span | None":
        """Add a pre-timed child of the current span (``start``/``end``
        from :data:`now`).  Used by the rule timing hook, whose two
        readings also feed the per-rule latency histogram."""
        if not self.enabled:
            return None
        span = self._open(name, attributes, start)
        self._close(span, end)
        return span

    def current(self) -> "Span | None":
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _open(
        self, name: str, attributes: "dict[str, Any]", start: "float | None" = None
    ) -> Span:
        """Open a span as a child of the current one; ``start`` is a
        :data:`now` reading taken by the caller (the stage clock), else
        the clock is read here."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            self._allocate_id(),
            parent.span_id if parent is not None else None,
            (now() if start is None else start) - self._epoch_perf,
            attributes=dict(attributes),
        )
        self._stack.append(span)
        return span

    def _close(self, span: Span, end: "float | None" = None) -> None:
        span.end = (now() if end is None else end) - self._epoch_perf
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # mispaired exits: drop through to it
            while self._stack and self._stack.pop() is not span:
                pass
        self._append(span)

    def _append(self, span: Span) -> None:
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return
        self._spans.append(span)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def spans(self) -> "list[Span]":
        return list(self._spans)

    def to_dicts(self) -> "list[dict]":
        return [span.to_dict() for span in self._spans]

    def export(self, path) -> int:
        """Write the trace as JSONL (one span object per line; children
        precede their after-the-fact parents — consumers index by id).
        Returns the number of spans written."""
        lines = [json.dumps(d, sort_keys=True, default=str) for d in self.to_dicts()]
        if self.dropped:
            lines.append(
                json.dumps(
                    {
                        "v": SCHEMA_VERSION,
                        "span_id": None,
                        "parent_id": None,
                        "name": "tracer:dropped",
                        "start_ms": 0.0,
                        "duration_ms": 0.0,
                        "attributes": {"dropped_spans": self.dropped},
                    },
                    sort_keys=True,
                )
            )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        return len(self._spans)


#: the process-wide tracer — off by default (opt in via ``--trace`` or
#: ``get_tracer().enable()``).
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER
