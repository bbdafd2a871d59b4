"""Counted contracts and a fold oracle for the live scan's ingest path.

The counts are deterministic (no wall clock): folding a log normalises each
distinct record text once, and profiling a newline-free column of native
values or plain texts calls no per-value helper.  The fold oracle holds
:meth:`WorkloadLog.extend` to the per-record fold it replaced, kept verbatim
below as the reference.
"""
from __future__ import annotations

from typing import Iterable

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ingest.workload_log as workload_log_module
import repro.profiler.column_profile as column_profile_module
from benchmarks.test_perf_log_ingestion import LOG_LINES, UNIQUE_TEMPLATES, _log_lines, _statements
from repro.ingest import LogRecord, WorkloadLog, iter_log_records
from repro.ingest.workload_log import WorkloadEntry, statement_key
from repro.obs import get_metrics
from repro.obs.metrics import MetricsRegistry, swap_registry
from repro.profiler.column_profile import profile_column
from repro.sqlparser import split


def _counting(monkeypatch, module, name: str) -> "list[int]":
    """Replace ``module.name`` with a wrapper counting its calls."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# counted contracts
# ---------------------------------------------------------------------------


def test_log_fold_keys_each_distinct_text_once(monkeypatch):
    lines = _log_lines("postgres-csv", _statements(UNIQUE_TEMPLATES), LOG_LINES)
    calls = _counting(monkeypatch, workload_log_module, "statement_key")
    log = WorkloadLog.from_records(iter_log_records(iter(lines), "postgres-csv"))
    assert log.total_statements == LOG_LINES
    assert calls[0] == UNIQUE_TEMPLATES  # one per line before the per-text fold


def test_whole_columns_call_no_per_value_helper(monkeypatch):
    helpers = ("infer_type_from_value", "value_has_timezone", "_as_number")
    calls = {name: _counting(monkeypatch, column_profile_module, name) for name in helpers}
    columns = {
        "str": [f"user {i}, joined 2020-01-{i % 28 + 1:02d}" for i in range(1000)],
        "int": list(range(1000)),
        "float": [i * 0.25 for i in range(1000)],
    }
    for kind, values in columns.items():
        profile_column(kind, values)
        assert {name: count[0] for name, count in calls.items()} == dict.fromkeys(helpers, 0), kind
    # Texts with a newline are folded value by value: the counter is live.
    profile_column("notes", [f"line {i}\nmore" for i in range(1000)])
    assert calls["infer_type_from_value"][0] == 1000


# ---------------------------------------------------------------------------
# fold oracle
# ---------------------------------------------------------------------------


class ReferenceLog(WorkloadLog):
    """The per-record fold as it stood before the per-text cache, verbatim."""

    def add(self, record: LogRecord) -> None:
        """Fold one log record in (multi-statement records are split)."""
        if record.is_empty or record.count <= 0:
            return
        self.records_read += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.ingest_lines.inc(outcome="folded")
        text = record.statement.strip()
        # A record holding several ;-separated statements (SQL dumps, some
        # trace formats) is split so every entry is exactly one statement —
        # frequency/index alignment downstream relies on it.
        parts = [text]
        if ";" in text.rstrip().rstrip(";"):
            parts = split(text) or [text]
        # A record's duration covers the whole record; when it splits into
        # several statements the time is spread across them, so totals never
        # double-count.
        part_duration = (
            record.duration_ms / len(parts) if record.duration_ms is not None else None
        )
        for part in parts:
            cleaned = part.strip().rstrip(";").strip()
            if not cleaned:
                continue
            key = statement_key(cleaned)
            entry = self._entries.get(key)
            if entry is None:
                entry = WorkloadEntry(statement=cleaned, first_line=record.line)
                self._entries[key] = entry
            entry.frequency += record.count
            if part_duration is not None:
                entry.total_duration_ms += part_duration

    def extend(self, records: Iterable[LogRecord]) -> "WorkloadLog":
        for record in records:
            self.add(record)
        return self


_STATEMENTS = (
    "SELECT * FROM t",
    "SELECT a FROM u WHERE x = 1",
    "SELECT a  FROM u WHERE x = 1",
    "INSERT INTO t VALUES (1)",
    "UPDATE t SET a = 'x;y'",
)
_statement = st.builds(
    lambda statement, left, right, end: left + statement + end + right,
    st.sampled_from(_STATEMENTS),
    st.sampled_from(["", " ", "\n\t"]),
    st.sampled_from(["", " ", "\n"]),
    st.sampled_from(["", ";", " ;", ";;"]),
)
_text = st.one_of(
    _statement,
    # multi-statement records, empty parts included
    st.lists(st.one_of(_statement, st.sampled_from(["", " ", ";"])), min_size=2, max_size=4)
    .map(";".join),
    st.sampled_from(["", "   ", ";", " ; ", ";;"]),
)
_record = st.builds(
    LogRecord,
    statement=_text,
    duration_ms=st.one_of(st.none(), st.floats(0, 1e4), st.sampled_from([0.1, 0.2, 1e-9])),
    line=st.one_of(st.none(), st.integers(1, 10**6)),
    count=st.integers(-1, 4),
)
_stream = st.lists(_record, max_size=40)


def _state(log: WorkloadLog, registry: MetricsRegistry) -> tuple:
    return (
        [
            (e.statement, e.frequency, e.total_duration_ms.hex(), e.first_line)
            for e in log.entries()
        ],
        log.records_read,
        registry.ingest_lines.value(outcome="folded"),
    )


def _run(cls, streams) -> tuple:
    """Fold ``streams`` with ``cls`` under a fresh registry: the first
    through ``extend``, the second merged in as its own log, the third one
    ``add`` at a time after the merge."""
    registry = MetricsRegistry(enabled=True)
    previous = swap_registry(registry)
    try:
        first, second, third = streams
        log = cls().extend(first)
        log.merge(cls().extend(second))
        for record in third:
            log.add(record)
        return _state(log, registry)
    finally:
        swap_registry(previous)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.tuples(_stream, _stream, _stream))
def test_fold_equals_the_per_record_reference(streams):
    assert _run(WorkloadLog, streams) == _run(ReferenceLog, streams)
