"""The application context.

Algorithm 1 builds an application context from (1) query analysis and
(2) data analysis, then every detection rule receives that context.  The
context "exports a queryable interface for applying contextual rules on the
queries, schema, and other application-specific metadata" (§4.1) — the
methods on :class:`ApplicationContext` are that interface.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..catalog.schema import Column, Index, Schema, Table
from ..profiler.profiler import TableProfile
from ..sqlparser import ColumnReference, QueryAnnotation
from ..sqlparser.dialects import Dialect, GENERIC


@dataclass
class ColumnUsage:
    """How a column is used across the whole workload.

    The index-overuse / index-underuse rules need to know which columns
    actually appear in selective predicates, join conditions, GROUP BY
    clauses, and UPDATE SET lists (Example 5 in the paper).
    """

    table: str
    column: str
    where_count: int = 0
    join_count: int = 0
    group_by_count: int = 0
    order_by_count: int = 0
    update_count: int = 0
    insert_count: int = 0
    select_count: int = 0

    @property
    def read_lookups(self) -> int:
        """Uses that an index could accelerate."""
        return self.where_count + self.join_count + self.group_by_count + self.order_by_count

    @property
    def writes(self) -> int:
        return self.update_count + self.insert_count


#: One query in the lookup index with its lower-cased column facts:
#: qualified ``(resolved table, column)`` keys, bare column names, and the
#: sole table of a single-table query (else ``None``).
_IndexEntry = tuple[QueryAnnotation, set[tuple[str, str]], set[str], "str | None"]


class _LookupIndex:
    """Table → queries map over one snapshot of a context's ``queries``.

    Built in one pass, so each lookup after it costs time in proportion to
    its answer rather than to the workload.  ``tables`` maps a lower-cased
    table name to the entries of the queries whose ``all_tables`` name it,
    in workload order and each query once.  Schema facts are deliberately
    absent: the schema can be replaced after the build.
    """

    __slots__ = ("queries", "size", "tables")

    def __init__(self, queries: list[QueryAnnotation]):
        self.queries = queries
        self.size = len(queries)
        self.tables: dict[str, list[_IndexEntry]] = {}
        for query in queries:
            names = [t.name.lower() for t in query.all_tables]
            if not names:
                continue
            alias_map = query.alias_map
            qualified: set[tuple[str, str]] = set()
            bare: set[str] = set()
            for reference in query.referenced_columns():
                if reference.qualifier:
                    resolved = alias_map.get(reference.qualifier.lower(), reference.qualifier)
                    qualified.add((resolved.lower(), reference.name.lower()))
                else:
                    bare.add(reference.name.lower())
            entry = (query, qualified, bare, names[0] if len(names) == 1 else None)
            for name in dict.fromkeys(names):
                self.tables.setdefault(name, []).append(entry)

    def covers(self, queries: list[QueryAnnotation]) -> bool:
        """Whether this index still describes ``queries`` (the same list,
        not grown or shrunk since the build)."""
        return self.queries is queries and self.size == len(queries)


@dataclass
class ApplicationContext:
    """Everything ap-detect knows about the target application."""

    queries: list[QueryAnnotation] = field(default_factory=list)
    schema: Schema = field(default_factory=Schema)
    profiles: dict[str, TableProfile] = field(default_factory=dict)
    database: Any | None = None
    dialect: Dialect = GENERIC
    source: str | None = None
    #: observed execution frequency per statement index (from a query log);
    #: statements absent from the map count as executed once.  ap-rank
    #: weights detection scores by these when present.
    frequencies: dict[int, int] = field(default_factory=dict)
    #: observed mean execution time in milliseconds per statement index
    #: (from a query log that carries timings); sparse like
    #: ``frequencies``.  The ``duration``/``hybrid`` cost models fold these
    #: into the ranking weights.
    durations: dict[int, float] = field(default_factory=dict)
    #: quarantined :class:`repro.errors.PipelineError` records accumulated
    #: while building the context (parse failures, skipped log lines,
    #: unreachable sources); the detector folds them into its report so
    #: degraded provenance survives to every surface.
    errors: list = field(default_factory=list)
    #: the lookup index over ``queries``, built on the first table or column
    #: lookup and rebuilt when ``queries`` is replaced or changes length
    #: (``ContextBuilder.extend`` appends to it); a cache, so it takes no
    #: part in ``==`` or ``repr``.
    _lookups: _LookupIndex | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # schema access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table | None:
        return self.schema.get_table(name)

    def table_names(self) -> list[str]:
        return self.schema.table_names

    def column(self, table: str, column: str) -> Column | None:
        table_def = self.schema.get_table(table)
        if table_def is None:
            return None
        return table_def.get_column(column)

    def indexes_for(self, table: str) -> list[Index]:
        table_def = self.schema.get_table(table)
        if table_def is None:
            return []
        return list(table_def.indexes.values())

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    @property
    def has_data(self) -> bool:
        return bool(self.profiles)

    def profile(self, table: str) -> TableProfile | None:
        return self.profiles.get(table.lower())

    def column_profile(self, table: str, column: str):
        table_profile = self.profile(table)
        if table_profile is None:
            return None
        return table_profile.column(column)

    # ------------------------------------------------------------------
    # query access
    # ------------------------------------------------------------------
    @property
    def query_count(self) -> int:
        return len(self.queries)

    def frequency_of(self, query_index: int | None) -> int:
        """Observed execution count of a statement (1 when unknown)."""
        if query_index is None:
            return 1
        return max(1, self.frequencies.get(query_index, 1))

    def duration_of(self, query_index: int | None) -> "float | None":
        """Observed mean execution time in ms (``None`` when unknown)."""
        if query_index is None:
            return None
        return self.durations.get(query_index)

    def queries_of_type(self, *statement_types: str) -> list[QueryAnnotation]:
        wanted = set(statement_types)
        return [q for q in self.queries if q.statement_type in wanted]

    def _lookup_entries(self, lowered_table: str) -> list[_IndexEntry]:
        index = self._lookups
        if index is None or not index.covers(self.queries):
            index = self._lookups = _LookupIndex(self.queries)
        return index.tables.get(lowered_table, [])

    def queries_referencing(self, table: str) -> list[QueryAnnotation]:
        """Queries naming the table anywhere in FROM or a JOIN, in workload order."""
        return [entry[0] for entry in self._lookup_entries(table.lower())]

    def queries_referencing_column(self, table: str, column: str) -> list[QueryAnnotation]:
        """Queries whose predicates, projections, or assignments touch the column.

        A qualified reference belongs to the table its qualifier resolves
        to.  A bare one belongs to the table when the schema gives the table
        that column or, without such schema facts, when the query reads no
        other table.  The schema test runs per call, since the scanner
        replaces ``schema`` after the context is built.
        """
        lowered_table = table.lower()
        lowered_column = column.lower()
        key = (lowered_table, lowered_column)
        table_def = self.schema.get_table(table)
        owned = table_def is not None and table_def.has_column(column)
        return [
            query
            for query, qualified, bare, sole in self._lookup_entries(lowered_table)
            if key in qualified
            or (lowered_column in bare and (owned or sole == lowered_table))
        ]

    def join_pairs(self) -> list[tuple[str, str]]:
        """Pairs of tables that are joined anywhere in the workload."""
        pairs: list[tuple[str, str]] = []
        for query in self.queries:
            tables = [t.name for t in query.all_tables]
            if len(tables) < 2:
                continue
            base = tables[0]
            for other in tables[1:]:
                pairs.append((base, other))
        return pairs

    def join_columns_between(self, left: str, right: str) -> list[tuple[str, str]]:
        """Column pairs used to join ``left`` and ``right`` across the workload."""
        results: list[tuple[str, str]] = []
        for query in self.queries:
            alias_map = query.alias_map
            for predicate in query.predicates:
                if predicate.clause not in ("on", "where") or not predicate.is_column_comparison:
                    continue
                left_table = alias_map.get((predicate.column.qualifier or "").lower())
                right_table = alias_map.get((predicate.value_column.qualifier or "").lower())
                if left_table is None or right_table is None:
                    continue
                names = {left_table.lower(), right_table.lower()}
                if names == {left.lower(), right.lower()}:
                    if left_table.lower() == left.lower():
                        results.append((predicate.column.name, predicate.value_column.name))
                    else:
                        results.append((predicate.value_column.name, predicate.column.name))
        return results

    # ------------------------------------------------------------------
    # workload statistics
    # ------------------------------------------------------------------
    def column_usage(self, owners: "dict | None" = None) -> dict[tuple[str, str], ColumnUsage]:
        """Aggregate how every (table, column) pair is used across queries.

        Bare columns resolve through ``owners``, this schema's
        ``column_owners()`` (built here unless the caller holds it).
        """
        usage: dict[tuple[str, str], ColumnUsage] = {}

        def bump(table: str | None, column: str, attribute: str) -> None:
            if not table:
                return
            key = (table.lower(), column.lower())
            entry = usage.get(key)
            if entry is None:
                entry = ColumnUsage(table=table, column=column)
                usage[key] = entry
            setattr(entry, attribute, getattr(entry, attribute) + 1)

        if owners is None:
            owners = self.schema.column_owners()

        for query in self.queries:
            alias_map = query.alias_map
            default_table = query.tables[0].name if query.tables else None
            hint_names = None

            def resolve(reference: ColumnReference) -> str | None:
                nonlocal hint_names
                if reference.qualifier:
                    return alias_map.get(reference.qualifier.lower(), reference.qualifier)
                candidates = owners.get(reference.name.lower())
                if candidates:
                    if hint_names is None:
                        hint_names = {t.name.lower() for t in query.all_tables}
                    for table_def, _ in candidates:
                        if table_def.name.lower() in hint_names:
                            return table_def.name
                    return candidates[0][0].name
                return default_table

            for predicate in query.predicates:
                if predicate.column is not None:
                    attribute = "join_count" if predicate.is_column_comparison else "where_count"
                    bump(resolve(predicate.column), predicate.column.name, attribute)
                if predicate.value_column is not None:
                    bump(resolve(predicate.value_column), predicate.value_column.name, "join_count")
            for reference in query.group_by_columns:
                bump(resolve(reference), reference.name, "group_by_count")
            for reference in query.order_by_columns:
                bump(resolve(reference), reference.name, "order_by_count")
            for reference in query.select_columns:
                bump(resolve(reference), reference.name, "select_count")
            if query.statement_type == "UPDATE":
                for column, _ in query.update_assignments:
                    bump(default_table, column, "update_count")
            if query.statement_type == "INSERT" and query.insert_columns:
                for column in query.insert_columns:
                    bump(default_table, column, "insert_count")
        return usage
