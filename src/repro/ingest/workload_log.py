"""The normalized query-workload log.

Every query-log reader (:mod:`repro.ingest.log_readers`) emits a stream of
:class:`LogRecord` objects; :class:`WorkloadLog` folds that stream into one
entry per distinct statement with its observed **frequency** and cumulative
**duration** — the two workload facts the paper's ranking model weighs a
finding by (a wildcard projection executed 40 000 times outranks one that
ran twice).

Aggregation is bounded-memory by construction: folding keeps one entry per
*distinct* statement, never one per log line, so a million-line log of a few
hundred ORM templates stays a few hundred entries.  Statements are
deduplicated by exact text (whitespace-insensitive), **not** by fingerprint:
two literal variants of a template can differ in rule-relevant content
(``LIKE 'INV%'`` vs ``LIKE '%offer%'``), so each distinct text is analysed
on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..obs import get_metrics
from ..sqlparser import split


def statement_key(text: str) -> str:
    """Whitespace-insensitive identity of a statement's exact text.

    Trailing semicolons and runs of whitespace do not distinguish two log
    occurrences of the same statement; literal content does (see module
    docstring), so nothing beyond whitespace is normalised.
    """
    return " ".join(text.strip().rstrip(";").split())


@dataclass(frozen=True)
class LogRecord:
    """One raw query-log event: a statement plus optional timing facts.

    ``count`` is the number of executions the record stands for — 1 for a
    line-per-execution log, ``calls`` for pre-aggregated sources such as a
    ``pg_stat_statements`` snapshot.  ``duration_ms`` is the **total** time
    the record covers (for a single execution that is its duration; for an
    aggregated record, ``mean time × count``).
    """

    statement: str
    duration_ms: float | None = None
    line: int | None = None
    count: int = 1

    @property
    def is_empty(self) -> bool:
        return not self.statement.strip().strip(";").strip()


@dataclass
class WorkloadEntry:
    """One distinct statement with its aggregated workload facts."""

    statement: str
    frequency: int = 0
    total_duration_ms: float = 0.0
    first_line: int | None = None

    @property
    def mean_duration_ms(self) -> float | None:
        if self.frequency == 0 or self.total_duration_ms == 0.0:
            return None
        return self.total_duration_ms / self.frequency

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "frequency": self.frequency,
            "total_duration_ms": round(self.total_duration_ms, 3),
            "first_line": self.first_line,
        }


class WorkloadLog:
    """(statement, frequency, duration) records folded from a query log.

    Entries keep first-seen order, so :meth:`statements` feeds the detector
    the workload in log order and ``frequencies()[i]`` is the observed
    frequency of ``statements()[i]``.
    """

    def __init__(self, source: str | None = None, log_format: str | None = None):
        self.source = source
        self.log_format = log_format
        self.records_read = 0
        #: :class:`repro.errors.PipelineError` records for malformed lines
        #: skipped while reading this log (degraded ingestion).
        self.errors: list = []
        self._entries: "dict[str, WorkloadEntry]" = {}
        #: raw record text -> (entries it feeds, statement count); see extend
        self._folds: "dict[str, tuple[tuple[WorkloadEntry, ...], int]]" = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, record: LogRecord) -> None:
        """Fold one log record in (multi-statement records are split)."""
        self.extend((record,))

    def extend(self, records: Iterable[LogRecord]) -> "WorkloadLog":
        """Fold a record stream in.

        Each distinct raw record text is normalised once (:meth:`_fold`) and
        cached with the entries it feeds, so a repeat costs one dict lookup.
        The cache holds one item per distinct raw text, so it grows with the
        distinct statements, not the lines (whitespace variants of one
        statement are items of their own).
        """
        folds = self._folds
        folded = 0
        try:
            for record in records:
                if record.count <= 0:
                    continue
                fold = folds.get(record.statement)
                if fold is None:
                    fold = folds[record.statement] = self._fold(record)
                entries, parts = fold
                if not parts:
                    continue
                folded += 1
                # A record's duration covers the whole record; when it splits
                # into several statements the time is spread across them, so
                # totals never double-count.
                part_duration = (
                    record.duration_ms / parts if record.duration_ms is not None else None
                )
                for entry in entries:
                    entry.frequency += record.count
                    if part_duration is not None:
                        entry.total_duration_ms += part_duration
        finally:
            self.records_read += folded
            get_metrics().ingest_lines.inc(folded, outcome="folded")
        return self

    def _fold(self, record: LogRecord) -> "tuple[tuple[WorkloadEntry, ...], int]":
        """The entries ``record``'s text feeds, one per non-empty statement
        (created on first sight), and the number of parts it splits into;
        ``((), 0)`` for an empty record."""
        if record.is_empty:
            return (), 0
        text = record.statement.strip()
        # A record holding several ;-separated statements (SQL dumps, some
        # trace formats) is split so every entry is exactly one statement —
        # frequency/index alignment downstream relies on it.
        parts = [text]
        if ";" in text.rstrip().rstrip(";"):
            parts = split(text) or [text]
        entries: "list[WorkloadEntry]" = []
        for part in parts:
            cleaned = part.strip().rstrip(";").strip()
            if not cleaned:
                continue
            key = statement_key(cleaned)
            entry = self._entries.get(key)
            if entry is None:
                entry = WorkloadEntry(statement=cleaned, first_line=record.line)
                self._entries[key] = entry
            entries.append(entry)
        return tuple(entries), len(parts)

    @classmethod
    def from_records(
        cls,
        records: Iterable[LogRecord],
        *,
        source: str | None = None,
        log_format: str | None = None,
    ) -> "WorkloadLog":
        """Fold a (lazily consumed) record stream into a workload log."""
        return cls(source=source, log_format=log_format).extend(records)

    @classmethod
    def from_statements(
        cls, statements: Iterable[str], *, source: str | None = None
    ) -> "WorkloadLog":
        """A workload log from plain statements (each counts once)."""
        return cls(source=source, log_format="sql").extend(
            LogRecord(statement=s) for s in statements
        )

    def merge(self, other: "WorkloadLog") -> "WorkloadLog":
        """Fold another log's entries into this one (frequencies add up)."""
        for entry in other.entries():
            key = statement_key(entry.statement)
            mine = self._entries.get(key)
            if mine is None:
                self._entries[key] = WorkloadEntry(
                    statement=entry.statement,
                    frequency=entry.frequency,
                    total_duration_ms=entry.total_duration_ms,
                    first_line=entry.first_line,
                )
            else:
                mine.frequency += entry.frequency
                mine.total_duration_ms += entry.total_duration_ms
        self.records_read += other.records_read
        self.errors.extend(other.errors)
        return self

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[WorkloadEntry]:
        return iter(self._entries.values())

    def entries(self) -> "list[WorkloadEntry]":
        return list(self._entries.values())

    def entry_for(self, statement: str) -> WorkloadEntry | None:
        return self._entries.get(statement_key(statement))

    def statements(self) -> "list[str]":
        """Distinct statements in first-seen order (the detector's input)."""
        return [entry.statement for entry in self._entries.values()]

    def frequencies(self) -> "dict[str, int]":
        """Observed frequency per :func:`statement_key`."""
        return {key: entry.frequency for key, entry in self._entries.items()}

    def frequency_of(self, statement: str) -> int:
        entry = self.entry_for(statement)
        return entry.frequency if entry is not None else 0

    @property
    def total_statements(self) -> int:
        """Total executions observed (sum of frequencies)."""
        return sum(entry.frequency for entry in self._entries.values())

    @property
    def total_duration_ms(self) -> float:
        return sum(entry.total_duration_ms for entry in self._entries.values())

    def top(self, n: int = 10) -> "list[WorkloadEntry]":
        """The ``n`` most frequently executed statements."""
        return sorted(self._entries.values(), key=lambda e: -e.frequency)[:n]

    def provenance(self) -> dict:
        """The ``workload`` provenance block every report format shares.

        ``degraded``/``lines_skipped`` only appear for degraded ingestion,
        keeping the clean-scan payload shape byte-identical.
        """
        info: dict = {
            "distinct_statements": len(self),
            "total_statements": self.total_statements,
            "total_duration_ms": round(self.total_duration_ms, 3),
            "log_format": self.log_format,
        }
        if self.errors:
            info["degraded"] = True
            info["lines_skipped"] = len(self.errors)
        return info

    def chunks(self, chunk_size: int) -> "Iterator[list[str]]":
        """Distinct statements in bounded-size chunks (streaming detection)."""
        for piece in self.slices(chunk_size):
            yield piece.statements()

    def slices(self, chunk_size: int) -> "Iterator[WorkloadLog]":
        """Split into sub-logs of at most ``chunk_size`` distinct statements
        each (entries are shared, not copied — treat slices as read-only)."""
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        piece = WorkloadLog(source=self.source, log_format=self.log_format)
        for key, entry in self._entries.items():
            piece._entries[key] = entry
            piece.records_read += entry.frequency
            if len(piece) >= chunk_size:
                yield piece
                piece = WorkloadLog(source=self.source, log_format=self.log_format)
        if piece:
            yield piece

    def to_dict(self) -> dict:
        payload = {
            "source": self.source,
            "log_format": self.log_format,
            "records_read": self.records_read,
            "distinct_statements": len(self._entries),
            "total_statements": self.total_statements,
            "total_duration_ms": round(self.total_duration_ms, 3),
            "entries": [entry.to_dict() for entry in self._entries.values()],
        }
        # Clean reads keep the historical payload shape exactly.
        if self.errors:
            payload["errors"] = [error.to_dict() for error in self.errors]
        return payload
