"""Database connectors: introspect a *live* database into the catalog.

The paper's pipeline runs against a live application — Algorithm 1 builds
the application context from the database's catalog and sampled tuples, not
from DDL text.  A :class:`Connector` is that bridge: it introspects a
running database into a :class:`~repro.catalog.schema.Schema` and hands the
data analyser real rows to profile.

:class:`SQLiteConnector` serves any SQLite database file (or open stdlib
``sqlite3`` connection).  The catalog is rebuilt by feeding the CREATE
statements SQLite itself stores in ``sqlite_master`` through the same
:class:`~repro.catalog.ddl_builder.DDLBuilder` the offline path uses, so a
live scan and an offline scan of the same DDL agree byte-for-byte; tables
whose stored DDL the tolerant parser cannot use fall back to ``PRAGMA
table_info`` introspection.  Every database-backed run reaches its
database through a connector (:meth:`ContextBuilder.attach
<repro.context.builder.ContextBuilder.attach>`).

Client/server engines (PostgreSQL, MySQL) need driver packages this
offline environment does not ship; :func:`connect` recognises their URLs
and raises a :class:`ConnectorError` that points at the query-log readers
(``--log``) as the supported ingestion path for them.
"""
from __future__ import annotations

import random
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ..catalog.ddl_builder import DDLBuilder
from ..catalog.schema import Column, Schema, Table
from ..catalog.types import parse_type
from ..errors import SourceUnavailableError
from ..obs import get_metrics, get_tracer
from ..profiler.profiler import DataProfiler, TableProfile

_T = TypeVar("_T")

#: Seed of every connector-side row sample: a capped scan of an unchanged
#: table sees the same rows each time.
SAMPLE_SEED = 7


def sample_positions(population: int, limit: int, table: str) -> "list[int]":
    """``limit`` distinct positions out of ``range(population)``, ascending
    (all of them when ``population <= limit``).

    The draw is seeded per table (:data:`SAMPLE_SEED` and the lower-cased
    name), so it repeats across scans and processes.
    """
    if population <= limit:
        return list(range(population))
    rng = random.Random(f"{SAMPLE_SEED}:{table.lower()}")
    return sorted(rng.sample(range(population), limit))


class ConnectorError(SourceUnavailableError):
    """Raised when a database URL cannot be served by any connector.

    Subclasses :class:`~repro.errors.SourceUnavailableError`, so the
    detector can degrade a data-rule verdict to "skipped: source
    unavailable" when the rows behind it vanish mid-scan.
    """


class CircuitOpenError(ConnectorError):
    """The connector's circuit breaker is open: the source failed too many
    consecutive times this scan, and further fetches are refused without
    touching it (no retries — the scan degrades immediately)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient connector failures.

    ``attempts`` counts total tries (1 = no retry).  The delay before retry
    ``n`` (0-based) is ``base_delay × 2**n``, capped at ``max_delay`` — with
    the defaults: 50 ms, 100 ms, for 3 attempts ≈ 150 ms worst-case extra
    latency per operation.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (0-based)."""
        return min(self.max_delay, self.base_delay * (2 ** attempt))


#: Retry nothing: the policy of code paths that must observe failures raw.
NO_RETRY = RetryPolicy(attempts=1, base_delay=0.0)

#: Default policy of every connector fetch.
DEFAULT_RETRY_POLICY = RetryPolicy()


class CircuitBreaker:
    """Per-scan consecutive-failure counter that trips open.

    After ``threshold`` consecutive failed operations the breaker opens and
    every further guarded fetch raises :class:`CircuitOpenError` without
    touching the source; one success closes it again.  This bounds the
    worst case of a dead source to ``threshold × retry budget`` instead of
    one retry storm per table × rule.
    """

    def __init__(self, threshold: int = 5):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.failures = 0

    @property
    def is_open(self) -> bool:
        return self.failures >= self.threshold

    def record_success(self) -> None:
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1

    def reset(self) -> None:
        self.failures = 0


class ConnectedTable:
    """One table's rows, fetched on first use.

    Data rules and fix rules reach the raw rows through
    ``context.database.get_table(name).all_rows()``; this serves that
    contract for any connector.
    """

    def __init__(self, connector: "Connector", definition: Table):
        self._connector = connector
        self.definition = definition
        self.name = definition.name
        self._rows: "list[dict[str, Any]] | None" = None

    def all_rows(self) -> "list[dict[str, Any]]":
        if self._rows is None:
            # Under a scan's sampling cap (Connector.sampling) a larger table
            # is served as its seeded sample; the profiler and the data rules
            # both read it from here.
            limit = self._connector.sample_limit
            if (
                limit is not None
                and limit > 0
                and self._connector.fetch_row_count(self.name) > limit
            ):
                self._rows = self._connector.fetch_rows(self.name, limit=limit)
            else:
                self._rows = self._connector.fetch_rows(self.name)
        return self._rows

    @property
    def row_count(self) -> int:
        return len(self.all_rows())


class Connector:
    """Read-only view of a live database: schema introspection + row access.

    Subclasses implement :meth:`introspect_schema` and :meth:`table_rows`;
    profiling and the ``get_table`` row access the data rules use are
    shared.  ``dialect`` is the SQL dialect hint handed to the parser for
    the workload that accompanies the database.
    """

    #: provenance label (file path) used as the scan source.
    name: str = "<database>"
    dialect: "str | None" = None
    #: the row cap of the scan in progress, set only inside
    #: :meth:`sampling`: every row fetch through :meth:`get_table` is capped
    #: at this many rows — larger tables are sampled in-database, never
    #: pulled whole.
    sample_limit: "int | None" = None
    #: transient-failure policy of every guarded operation (schema
    #: introspection, row fetches, counts); replace with :data:`NO_RETRY`
    #: to observe failures raw.
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
    _schema_cache: "Schema | None" = None
    _table_cache: "dict[str, ConnectedTable] | None" = None
    _circuit: "CircuitBreaker | None" = None

    # ------------------------------------------------------------------
    # fault isolation: retry/backoff + circuit breaker
    # ------------------------------------------------------------------
    @property
    def circuit(self) -> CircuitBreaker:
        """This connector's circuit breaker (created on first use)."""
        if self._circuit is None:
            self._circuit = CircuitBreaker()
        return self._circuit

    def reset_circuit(self) -> None:
        """Close the breaker — :class:`~repro.ingest.scanner.LiveScanner`
        calls this at the start of every scan so the breaker is per-scan."""
        self.circuit.reset()

    def _guarded(self, operation: "Callable[..., _T]", *args: Any, **kwargs: Any) -> _T:
        """Run one source operation under the retry policy and breaker.

        Only :class:`ConnectorError` is retried — it marks source
        unavailability; anything else is a bug and propagates immediately.
        """
        circuit = self.circuit
        if circuit.is_open:
            raise CircuitOpenError(
                f"circuit breaker open for {self.name}: "
                f"{circuit.failures} consecutive failure(s), source fetches suspended"
            )
        metrics = get_metrics()
        tracer = get_tracer()
        policy = self.retry_policy
        attempts = max(1, policy.attempts)
        op_name = getattr(operation, "__name__", "operation")
        last: "ConnectorError | None" = None
        for attempt in range(attempts):
            try:
                if tracer.enabled:
                    with tracer.span(
                        f"connector:{op_name}", source=self.name, attempt=attempt
                    ):
                        result = operation(*args, **kwargs)
                else:
                    result = operation(*args, **kwargs)
            except CircuitOpenError:
                raise
            except ConnectorError as error:
                last = error
                if attempt + 1 < attempts:
                    if metrics.enabled:
                        metrics.connector_retries.inc()
                    time.sleep(policy.delay(attempt))
                continue
            circuit.record_success()
            return result
        was_open = circuit.is_open
        circuit.record_failure()
        if metrics.enabled and circuit.is_open and not was_open:
            metrics.connector_breaker_trips.inc()
        assert last is not None
        raise last

    def fetch_rows(self, table: str, limit: "int | None" = None) -> "list[dict[str, Any]]":
        """:meth:`table_rows` under the retry policy and circuit breaker."""
        if limit is None:
            return self._guarded(self.table_rows, table)
        return self._guarded(self.table_rows, table, limit=limit)

    def fetch_row_count(self, table: str) -> int:
        """:meth:`table_row_count` under the retry policy and breaker."""
        return self._guarded(self.table_row_count, table)

    def introspect_schema(self) -> Schema:
        raise NotImplementedError

    def table_rows(self, table: str, limit: "int | None" = None) -> "list[dict[str, Any]]":
        """Rows of ``table`` — all of them, or a seeded sample of ``limit``.

        A sample holds the rows at :func:`sample_positions` in table order,
        the same rows on every call while the table is unchanged.
        Connectors push the pick down into the database where they can, so
        a table too large to fetch whole never crosses the wire.
        """
        raise NotImplementedError

    def table_row_count(self, table: str) -> int:
        """Row count of ``table`` (pushed down where the database can count
        without materialising the rows)."""
        return len(self.table_rows(table))

    def schema(self) -> Schema:
        """The introspected catalog (computed once per connector)."""
        if self._schema_cache is None:
            self._schema_cache = self._guarded(self.introspect_schema)
        return self._schema_cache

    def refresh(self) -> Schema:
        """Drop the cached catalog and rows, re-introspect (schema changes)."""
        self._schema_cache = None
        self._table_cache = None
        return self.schema()

    @contextmanager
    def sampling(self, limit: "int | None") -> "Iterator[Connector]":
        """Cap every row fetch at ``limit`` rows for the length of one scan.

        Inside the block, :meth:`get_table` serves a table larger than
        ``limit`` as one seeded sample (:meth:`table_rows`), fetched once
        and shared by the profiler and the data rules.  On exit the cap and
        the sampled rows are dropped, so a later unsampled scan through
        this connector sees every row.  ``None`` changes nothing.
        """
        if limit is None or limit <= 0 or limit == self.sample_limit:
            yield self
            return
        saved = self.sample_limit, self._table_cache
        self.sample_limit, self._table_cache = limit, None
        try:
            yield self
        finally:
            self.sample_limit, self._table_cache = saved

    def get_table(self, name: str) -> "ConnectedTable | None":
        """Row access for the data rules.

        Tables are cached per connector so the rows behind one scan are
        fetched at most once — the profiler and the data rules share them.
        """
        if self._table_cache is None:
            self._table_cache = {}
        cached = self._table_cache.get(name.lower())
        if cached is not None:
            return cached
        definition = self.schema().get_table(name)
        if definition is None:
            return None
        table = ConnectedTable(self, definition)
        self._table_cache[name.lower()] = table
        return table

    def profiles(
        self,
        profiler: "DataProfiler | None" = None,
        *,
        sample_limit: "int | None" = None,
        exclude: "Iterable[str]" = (),
    ) -> "dict[str, TableProfile]":
        """Profile every table exactly as the offline data analyser does.

        Rows go through :meth:`get_table`'s cache, so the data rules running
        later in the same scan reuse them instead of re-fetching.  With
        ``sample_limit`` set, the profiles are taken inside
        :meth:`sampling`: a table larger than the limit is profiled from its
        pushed-down seeded sample, and nothing sampled outlives the call —
        the bounded-memory path for tables too big to pull whole.
        ``exclude`` names telemetry tables (e.g. a ``pg_stat_statements``
        snapshot) that are inputs, not application schema.
        """
        profiler = profiler or DataProfiler()
        schema = self.schema()
        excluded = {name.lower() for name in exclude}
        profiles: "dict[str, TableProfile]" = {}
        with self.sampling(sample_limit):
            for table in schema.tables.values():
                if table.name.lower() in excluded:
                    continue
                stored = self.get_table(table.name)
                rows = stored.all_rows() if stored is not None else []
                profiles[table.name.lower()] = profiler.profile_rows(
                    table.name, rows, definition=table
                )
        return profiles

    def close(self) -> None:  # pragma: no cover - default is a no-op
        return

    def __enter__(self) -> "Connector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SQLiteConnector(Connector):
    """Connector over a SQLite database file / stdlib connection.

    SQLite stores every object's original CREATE statement in
    ``sqlite_master``; replaying those through :class:`DDLBuilder` yields a
    catalog identical to parsing the same DDL offline (the round-trip the
    conformance suite locks).  ``PRAGMA table_info`` fills in any table the
    stored DDL did not produce.  Every query runs on a cursor of its own
    that fetches plain tuples, so a caller's connection keeps its
    ``row_factory``.
    """

    dialect = "sqlite"

    def __init__(
        self, database: "str | Path | sqlite3.Connection", *, timeout: float = 5.0
    ):
        if isinstance(database, sqlite3.Connection):
            self._connection = database
            self.name = "sqlite:<connection>"
            self._owns_connection = False
        else:
            path = Path(database)
            if not path.exists():
                raise ConnectorError(f"SQLite database not found: {path}")
            try:
                # A bounded busy timeout: a scan blocked behind another
                # writer's lock errors out instead of hanging the pipeline.
                self._connection = sqlite3.connect(str(path), timeout=timeout)
            except sqlite3.Error as error:
                # Directories and unreadable files pass the exists() check
                # but fail to open — keep the clean-error contract.
                raise ConnectorError(
                    f"cannot open SQLite database {path}: {error}"
                ) from error
            self.name = str(path)
            self._owns_connection = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def master_entries(self) -> "list[tuple[str, str, str | None]]":
        """(type, name, sql) rows of every user table and index, in
        creation order."""
        try:
            return self._tuples(
                "SELECT type, name, sql FROM sqlite_master "
                "WHERE type IN ('table', 'index') AND name NOT LIKE 'sqlite_%' "
                "ORDER BY rowid"
            ).fetchall()
        except sqlite3.Error as error:
            # Any existing path resolves to this connector, so a non-SQLite
            # file lands here ("file is not a database") — surface it as the
            # error type the CLI/REST surfaces report cleanly.
            raise ConnectorError(
                f"cannot read SQLite catalog from {self.name}: {error}"
            ) from error

    def introspect_schema(self) -> Schema:
        builder = DDLBuilder()
        for kind, name, sql in self.master_entries():
            if sql:
                builder.apply(sql)
            if kind == "table" and builder.schema.get_table(name) is None:
                self._pragma_table(builder.schema, name)
        return builder.schema

    def _pragma_table(self, schema: Schema, name: str) -> None:
        """Fallback introspection through ``PRAGMA table_info`` for tables
        whose stored DDL did not make it through the tolerant parser."""
        table = Table(name=name)
        pk: "list[tuple[int, str]]" = []
        try:
            info = self._tuples(f"PRAGMA table_info({self._quote(name)})").fetchall()
        except sqlite3.Error as error:
            raise ConnectorError(
                f"cannot introspect table {name!r} in {self.name}: {error}"
            ) from error
        for _, column_name, sql_type, notnull, default, position in info:
            column = Column(
                name=column_name,
                sql_type=parse_type(sql_type or "TEXT"),
                nullable=not notnull,
                default=default,
                is_primary_key=bool(position),
            )
            table.add_column(column)
            if position:
                pk.append((position, column_name))
        if pk:
            table.primary_key = tuple(name for _, name in sorted(pk))
        if table.columns:
            schema.add_table(table)

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def table_rows(self, table: str, limit: "int | None" = None) -> "list[dict[str, Any]]":
        # Sampling push-down: with a limit, only the rowids are read, the
        # seeded pick is made over them, and only ``limit`` rows are shipped
        # — the whole point for tables too large to fetch over the wire.
        query = f"SELECT * FROM {self._quote(table)}"
        try:
            if limit is not None:
                return self._sample_rows(table, query, int(limit))
            cursor = self._tuples(query)
        except sqlite3.Error as error:
            raise ConnectorError(f"cannot read table {table!r}: {error}") from error
        return _dict_rows(cursor, cursor.fetchall())

    def _tuples(self, query: str, parameters: "Sequence[Any]" = ()) -> sqlite3.Cursor:
        """``query`` on a cursor that fetches plain tuples."""
        cursor = self._connection.cursor()
        cursor.row_factory = None
        return cursor.execute(query, parameters)

    def _sample_rows(self, table: str, query: str, limit: int) -> "list[dict[str, Any]]":
        columns = {entry[0].lower() for entry in self._tuples(query + " LIMIT 0").description}
        # A user column may shadow a rowid alias; WITHOUT ROWID tables have none.
        alias = next((a for a in ("rowid", "_rowid_", "oid") if a not in columns), None)
        try:
            rowids = None if alias is None else [
                row[0]
                for row in self._tuples(
                    f"SELECT {alias} FROM {self._quote(table)} ORDER BY {alias}"
                )
            ]
        except sqlite3.OperationalError:
            rowids = None
        if rowids is None:
            # No rowid to pick by: stream the table once and keep the rows
            # at the seeded positions, so memory stays bounded by the sample.
            wanted = set(sample_positions(self.table_row_count(table), limit, table))
            cursor = self._tuples(query)
            return _dict_rows(
                cursor, (row for position, row in enumerate(cursor) if position in wanted)
            )
        picked = [rowids[i] for i in sample_positions(len(rowids), limit, table)]
        rows: "list[dict[str, Any]]" = []
        # Chunked under SQLite's smallest bound-parameter limit (999).
        for start in range(0, len(picked), 900):
            chunk = picked[start:start + 900]
            marks = ", ".join("?" * len(chunk))
            cursor = self._tuples(f"{query} WHERE {alias} IN ({marks}) ORDER BY {alias}", chunk)
            rows.extend(_dict_rows(cursor, cursor))
        return rows

    def table_row_count(self, table: str) -> int:
        try:
            cursor = self._tuples(f"SELECT COUNT(*) FROM {self._quote(table)}")
        except sqlite3.Error as error:
            raise ConnectorError(f"cannot count table {table!r}: {error}") from error
        return int(cursor.fetchone()[0])

    @staticmethod
    def _quote(identifier: str) -> str:
        return '"' + identifier.replace('"', '""') + '"'

    def close(self) -> None:
        if self._owns_connection:
            self._connection.close()


def _dict_rows(cursor: sqlite3.Cursor, rows: "Iterable[tuple]") -> "list[dict[str, Any]]":
    """``cursor``'s tuple ``rows`` as column -> value dicts, the shape
    ``dict(sqlite3.Row)`` gives (a table's column names are unique)."""
    names = [column[0] for column in cursor.description]
    return list(map(dict, map(zip, repeat(names), rows)))


#: URL schemes that name client/server engines whose drivers are not
#: available offline — their workloads arrive through the log readers.
_UNSUPPORTED_SCHEMES = ("postgres", "postgresql", "mysql", "mariadb", "mssql", "oracle")

#: File suffixes treated as SQLite databases when no scheme is given.
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3", ".db3")


def connect(target: "str | Path | sqlite3.Connection | Connector") -> Connector:
    """Open a connector for a database URL, file path, or open connection.

    Accepted targets — what every ``database=`` argument accepts:

    * ``sqlite:///relative/path.db`` / ``sqlite:////abs/path.db`` URLs,
      bare paths ending in ``.db``/``.sqlite``/``.sqlite3``/``.db3``, or an
      open ``sqlite3.Connection`` (an in-memory database included);
    * a :class:`Connector`, returned as is;
    * PostgreSQL / MySQL URLs raise :class:`ConnectorError` with the
      supported alternative (their query logs via ``--log``).
    """
    if isinstance(target, Connector):
        return target
    if isinstance(target, sqlite3.Connection):
        return SQLiteConnector(target)
    if isinstance(target, Path):
        return SQLiteConnector(target)
    if not isinstance(target, str):
        raise ConnectorError(f"cannot build a connector for {target!r}")

    url = target.strip()
    scheme, _, rest = url.partition("://")
    scheme = scheme.lower() if rest or url.startswith("sqlite:") else ""
    # SQLAlchemy/Django-style driver qualifiers ("postgresql+psycopg2")
    # still name the engine before the "+".
    if scheme.partition("+")[0] in _UNSUPPORTED_SCHEMES:
        raise ConnectorError(
            f"no {scheme} driver is available in this environment; point "
            "sqlcheck at the server's query log instead (--log FILE "
            "--log-format postgres-csv|postgres|mysql) or export the schema "
            "to a .sql file"
        )
    if scheme == "sqlite" or url.lower().startswith("sqlite:"):
        path = rest if rest else url.split(":", 1)[1]
        path = path.lstrip("/") if not path.startswith("//") else path[1:]
        if path in (":memory:", ""):
            raise ConnectorError(
                "sqlite::memory: has no catalog to introspect; pass an open "
                "sqlite3.Connection instead"
            )
        return SQLiteConnector(path)
    if url.lower().endswith(_SQLITE_SUFFIXES) or Path(url).exists():
        return SQLiteConnector(url)
    raise ConnectorError(
        f"cannot infer a database kind from {url!r} (expected a sqlite:/// "
        f"URL or a path ending in {', '.join(_SQLITE_SUFFIXES)})"
    )
