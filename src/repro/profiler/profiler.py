"""The data analyser: profiles tables and produces table/column statistics.

Algorithm 3's outer loop ("for table t in D.tables: sample tuples, apply
data rules") uses the profiles computed here.  The profiler takes plain row
dictionaries: a live database's rows arrive through its connector
(:meth:`~repro.ingest.connectors.Connector.profiles`), and tests can hand
it rows directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

from ..catalog.schema import Table
from .column_profile import ColumnProfile, profile_column
from .sampler import Sampler


@dataclass
class TableProfile:
    """Profile of one table: row count and per-column statistics."""

    name: str
    row_count: int = 0
    sampled_rows: int = 0
    columns: dict[str, ColumnProfile] = field(default_factory=dict)
    definition: Table | None = None

    def column(self, name: str) -> ColumnProfile | None:
        return self.columns.get(name.lower())

    def column_names(self) -> list[str]:
        return [profile.name for profile in self.columns.values()]

    @property
    def column_count(self) -> int:
        return len(self.columns)


class DataProfiler:
    """Builds :class:`TableProfile` objects from stored rows."""

    def __init__(self, sampler: Sampler | None = None):
        self.sampler = sampler or Sampler()

    # ------------------------------------------------------------------
    # profiling entry points
    # ------------------------------------------------------------------
    def profile_rows(
        self,
        table_name: str,
        rows: Sequence[Mapping[str, Any]],
        definition: Table | None = None,
    ) -> TableProfile:
        """Profile a table given its rows (each a mapping column -> value)."""
        rows = list(rows)
        sampled = self.sampler.sample(rows)
        profile = TableProfile(
            name=table_name,
            row_count=len(rows),
            sampled_rows=len(sampled),
            definition=definition,
        )
        for column in self._column_names(sampled, definition):
            try:
                values = list(map(itemgetter(column), sampled))
            except KeyError:
                # a row without the exact key: match it case-insensitively
                values = [
                    row[column] if column in row else self._value(row, column)
                    for row in sampled
                ]
            profile.columns[column.lower()] = profile_column(column, values, table=table_name)
        return profile

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _column_names(
        self, rows: Sequence[Mapping[str, Any]], definition: Table | None
    ) -> list[str]:
        if definition is not None and definition.columns:
            return definition.column_names
        names: list[str] = []
        seen: set[str] = set()
        for row in rows:
            for key in row:
                if key.lower() not in seen:
                    seen.add(key.lower())
                    names.append(key)
        return names

    def _value(self, row: Mapping[str, Any], column: str) -> Any:
        if column in row:
            return row[column]
        lowered = column.lower()
        for key, value in row.items():
            if key.lower() == lowered:
                return value
        return None
