"""ContextBuilder (Algorithm 1, lines 1–7).

Builds the :class:`ApplicationContext` from the application's queries and —
when available — its database.  Query analysis always runs; schema context
comes from the live database's catalog when connected, otherwise from the
DDL statements found in the workload; data context comes from profiling the
database's tables.  A database enters a context only through its connector
(:meth:`ContextBuilder.attach`), the path a live scan takes.
"""
from __future__ import annotations

import copy
import gc
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

from ..catalog.ddl_builder import DDLBuilder
from ..catalog.schema import Schema, Table
from ..errors import (
    CODE_CIRCUIT_OPEN,
    CODE_PARSE_ERROR,
    CODE_SOURCE_UNAVAILABLE,
    PipelineError,
)
from ..obs import PipelineStats, get_metrics
from ..profiler.profiler import DataProfiler
from ..profiler.sampler import Sampler
from ..sqlparser import AnnotationCache, ParsedStatement, QueryAnnotation, annotate, parse
from ..sqlparser.dialects import Dialect, get_dialect
from ..sqlparser.fingerprint import MAX_CACHED_STATEMENTS
from .application_context import ApplicationContext


@contextmanager
def collector_paused() -> "Iterator[None]":
    """Hold the cyclic garbage collector off for the length of one run.

    A run's tokens, parse trees, annotations and detections stay reachable
    until it ends, so collections inside it free nothing: a cold detect of
    10,275 statements ran six full collections over a heap growing to
    600,000 objects, collected none, and spent a fifth of its time there.
    Cyclic garbage made meanwhile waits for the first collection after the
    run.  A collector that is already off is left alone; a concurrent run
    on another thread may turn it back on early, which costs only speed.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class ContextBuilder:
    """Builds and (incrementally) refreshes application contexts.

    When an :class:`AnnotationCache` is attached, string inputs are looked up
    by exact text (under the dialect's name) before parsing: corpus
    workloads are dominated by repeated statements, and a cache hit
    replays the stored parse + annotation through cheap shallow copies whose
    index and source are rebound to the current occurrence — so cached
    output is identical to the cold path.  A cached CREATE TABLE also keeps
    the table :meth:`DDLBuilder.derive_table` built from it, and the schema
    gets a copy of that table instead of re-deriving it.  The cache counts
    its own lookups; ``build`` adds the run's hits and misses (the delta of
    ``annotation_cache.stats``) to the ``stats`` it is given.
    """

    def __init__(
        self,
        *,
        sample_size: int = 1000,
        dialect: "Dialect | str | None" = None,
        profiler: DataProfiler | None = None,
        annotation_cache: AnnotationCache | None = None,
    ):
        self.profiler = profiler or DataProfiler(Sampler(sample_size=sample_size))
        self.annotation_cache = annotation_cache
        if isinstance(dialect, Dialect):
            self.dialect = dialect
        else:
            self.dialect = get_dialect(dialect)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def build(
        self,
        queries: "Sequence[str | ParsedStatement | QueryAnnotation] | str" = (),
        database: Any | None = None,
        source: str | None = None,
        stats: PipelineStats | None = None,
        *,
        quarantine: bool = False,
    ) -> ApplicationContext:
        """Build a context from queries and an optional live database.

        ``database`` is anything :func:`~repro.ingest.connectors.connect`
        accepts (an open ``sqlite3.Connection``, a path, a ``sqlite:///``
        URL, a connector); :meth:`attach` connects it as a scan does.

        ``stats`` (a :class:`~repro.obs.PipelineStats`; a fresh one when
        omitted, so a traced run keeps its stage spans) times the parse
        stage apart from schema building and data profiling, so
        database-backed runs don't misattribute profiling I/O to the
        parser, and receives the run's parse-cache hits and misses.

        With ``quarantine=True`` a statement that fails to parse or annotate
        is recorded as a :class:`~repro.errors.PipelineError` on
        ``context.errors`` and dropped; the remaining statements still build
        normally, and a database lost after introspection degrades the run
        (see :meth:`attach`).  Off (the default), failures propagate.
        """
        errors: "list[PipelineError] | None" = [] if quarantine else None
        if stats is None:
            stats = PipelineStats()
        cache = self.annotation_cache
        hits, misses = (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
        with stats.stage("parse"):
            annotations, tables = self._annotate_queries(queries, source, errors=errors)
            if cache is not None:
                stats.annotation_cache_hits += cache.stats.hits - hits
                stats.annotation_cache_misses += cache.stats.misses - misses
        with stats.stage("context"):
            builder = DDLBuilder()
            _apply_ddl(builder, annotations, tables)
            context = ApplicationContext(
                queries=annotations,
                schema=builder.schema,
                dialect=self.dialect,
                source=source,
                errors=list(errors or ()),
            )
            if database is not None:
                self.attach(context, database, degrade=quarantine)
            return context

    @contextmanager
    def connected(self, database: Any) -> "Iterator[Any]":
        """``database``'s connector for the length of one run (None without
        a database).  A connector opened here, from a path or a URL, is
        closed on exit; the caller's own connector or connection stays
        open."""
        if database is None:
            yield None
            return
        from ..ingest.connectors import connect

        connector = connect(database)
        try:
            yield connector
        finally:
            if connector is not database:
                connector.close()

    def attach(
        self,
        context: ApplicationContext,
        database: Any,
        *,
        exclude: "Iterable[str]" = (),
        degrade: bool = False,
    ) -> None:
        """Connect ``database`` to ``context`` through its connector.

        The live catalog replaces the workload's DDL schema when it has
        tables (Algorithm 1 prefers it), every table is profiled, and the
        connector becomes ``context.database``, which serves the data rules
        their rows.  ``exclude`` names telemetry tables (a
        ``pg_stat_statements`` snapshot) left out of schema and profiles.
        A database that cannot be opened or introspected fails hard; one
        lost after introspection raises too unless ``degrade`` is set, which
        keeps the catalog, skips data analysis and records the loss on
        ``context.errors``.  The connector's circuit breaker is reset first,
        so it guards one run.
        """
        # Imported here: the ingest package imports the toolchain, which
        # imports this module.
        from ..ingest.connectors import CircuitOpenError, ConnectorError, connect

        connector = connect(database)
        connector.reset_circuit()
        live_schema = connector.schema()
        excluded = {name.lower() for name in exclude}
        if excluded and any(name in live_schema.tables for name in excluded):
            # Copy-on-exclude: the connector's cached schema object must stay
            # intact for later runs through it.
            trimmed = Schema()
            for table in live_schema.tables.values():
                if table.name.lower() not in excluded:
                    trimmed.add_table(table)
            live_schema = trimmed
        if live_schema.tables or not context.schema.tables:
            context.schema = live_schema
        try:
            context.profiles = connector.profiles(self.profiler, exclude=excluded)
            context.database = connector
        except ConnectorError as error:
            if not degrade:
                raise
            context.profiles = {}
            context.errors.append(
                PipelineError.from_exception(
                    "ingest",
                    error,
                    code=(
                        CODE_CIRCUIT_OPEN
                        if isinstance(error, CircuitOpenError)
                        else CODE_SOURCE_UNAVAILABLE
                    ),
                    source=connector.name,
                    detail={"verdict": "skipped: source unavailable"},
                )
            )

    def refresh_data(self, context: ApplicationContext) -> ApplicationContext:
        """Re-introspect and re-profile the context's database (the paper
        notes the data analyser periodically refreshes the context and
        re-profiles on schema change)."""
        if context.database is not None:
            context.database.refresh()
            self.attach(context, context.database)
        return context

    def extend(
        self,
        context: ApplicationContext,
        queries: "Sequence[str | ParsedStatement | QueryAnnotation] | str",
        source: str | None = None,
    ) -> ApplicationContext:
        """Add more queries to an existing context (incremental analysis).

        New statements continue the context's numbering, so ``query_index``
        (and the per-statement report labels built from it) stays unique
        across the extended workload.
        """
        additional, tables = self._annotate_queries(
            queries, source, start_index=len(context.queries)
        )
        context.queries.extend(additional)
        if context.database is None:
            _apply_ddl(DDLBuilder(context.schema), additional, tables)
        return context

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _annotate_queries(
        self,
        queries: "Sequence[str | ParsedStatement | QueryAnnotation] | str",
        source: str | None,
        *,
        start_index: int = 0,
        errors: "list[PipelineError] | None" = None,
    ) -> "tuple[list[QueryAnnotation], list[Table | None]]":
        """Annotate a workload, preserving input order and indexing every
        statement by its workload position (from ``start_index``, so
        :meth:`extend` continues an existing context's numbering).
        Alongside the annotations comes each one's cached CREATE TABLE
        table, or None (see :meth:`_parse_text`).

        Positions (offset/line/length) are cleared only on statements we
        parsed from *list elements* of strings: those were parsed one by
        one, so their offsets are element-relative, not positions in any
        containing file.  A single text parsed as one script
        keeps its valid anchors, and caller-supplied ParsedStatement /
        QueryAnnotation objects keep whatever positions the caller parsed.
        """
        # (statement, annotation-or-None, clear-positions, table-or-None)
        # in workload order; cache hits and passthrough annotations arrive
        # pre-annotated, everything else is annotated below.
        pending: "list[tuple[ParsedStatement | None, QueryAnnotation | None, bool, Table | None]]" = []

        def parse_element(text: str, clear_positions: bool) -> None:
            # With an error sink attached (quarantine mode), a text that the
            # parser rejects becomes one structured record and zero
            # statements; the rest of the workload is unaffected.
            if errors is None:
                parsed = self._parse_text(text, source)
            else:
                try:
                    parsed = self._parse_text(text, source)
                except Exception as error:
                    errors.append(
                        PipelineError.from_exception(
                            "parse",
                            error,
                            code=CODE_PARSE_ERROR,
                            source=source,
                            statement_index=start_index + len(pending),
                        )
                    )
                    return
            pending.extend((s, a, clear_positions, t) for s, a, t in parsed)

        if isinstance(queries, str):
            parse_element(queries, False)
        else:
            for query in queries:
                if isinstance(query, QueryAnnotation):
                    pending.append((query.statement, query, False, None))
                elif isinstance(query, ParsedStatement):
                    pending.append((query, None, False, None))
                else:
                    parse_element(query, True)
        annotations: list[QueryAnnotation] = []
        tables: "list[Table | None]" = []
        for statement, annotation, clear_positions, table in pending:
            if statement is not None:
                statement.index = start_index + len(annotations)
                if clear_positions:
                    statement.clear_position()
            if annotation is None:
                if errors is None:
                    annotation = annotate(statement)
                else:
                    try:
                        annotation = annotate(statement)
                    except Exception as error:
                        errors.append(
                            PipelineError.from_exception(
                                "parse",
                                error,
                                code=CODE_PARSE_ERROR,
                                source=source,
                                statement_fingerprint=getattr(statement, "fingerprint", None),
                                statement_index=start_index + len(annotations),
                            )
                        )
                        continue
            annotations.append(annotation)
            tables.append(table)
        if self.annotation_cache is not None:
            get_metrics().annotation_cache_entries.set(len(self.annotation_cache))
        return annotations, tables

    def _parse_text(
        self, text: str, source: str | None
    ) -> "list[tuple[ParsedStatement, QueryAnnotation, Table | None]]":
        """Parse + annotate one SQL string, through the cache when attached.

        A cached template is a (statement, annotation, table) triple: the
        table a CREATE TABLE defines, None for other statements.  Texts the
        cache declines carry no table, so the schema build derives theirs.
        """
        cache = self.annotation_cache
        if cache is None:
            return [(s, annotate(s), None) for s in parse(text, source=source)]
        templates = cache.get(text, scope=self.dialect.name)
        if templates is None:
            statements = parse(text, source=source)
            # Large multi-statement scripts are not worth caching whole: one
            # entry would pin an entire corpus parse tree, and any edit to
            # the script misses it anyway.  Per-statement reuse comes from
            # list-of-statements inputs (the batch paths).
            if len(statements) > MAX_CACHED_STATEMENTS:
                return [(s, annotate(s), None) for s in statements]
            # The table is a function of its statement alone, so it is
            # derived once here and lives (and is evicted) with its template.
            derive = DDLBuilder().derive_table
            templates = [(s, annotate(s), derive(s)) for s in statements]
            cache.put(text, templates, scope=self.dialect.name)
            # Fall through to the rebind loop: callers mutate the returned
            # statements (index rebinding, position clearing), and cached
            # templates must stay pristine for future occurrences.
        rebound = []
        for template_statement, template_annotation, table in templates:
            statement = copy.copy(template_statement)
            statement.source = source
            annotation = copy.copy(template_annotation)
            annotation.statement = statement
            rebound.append((statement, annotation, table))
        return rebound


def _apply_ddl(
    builder: DDLBuilder,
    annotations: "list[QueryAnnotation]",
    tables: "list[Table | None]",
) -> None:
    """Apply a workload's DDL to ``builder``'s schema in workload order.

    A CREATE TABLE whose table came with its cached template adds a copy
    of that table instead of re-deriving it; the copy keeps later DDL on
    this schema (ALTER TABLE, CREATE INDEX) out of the cache.
    """
    for annotation, table in zip(annotations, tables):
        if table is not None:
            builder.schema.add_table(table.copy())
        elif annotation.statement is not None and annotation.statement.is_ddl:
            builder.apply(annotation.statement)


def build_context(
    queries: "Sequence[str | ParsedStatement | QueryAnnotation] | str" = (),
    database: Any | None = None,
    *,
    dialect: "Dialect | str | None" = None,
    sample_size: int = 1000,
    source: str | None = None,
) -> ApplicationContext:
    """Convenience wrapper around :class:`ContextBuilder`."""
    return ContextBuilder(sample_size=sample_size, dialect=dialect).build(
        queries, database=database, source=source
    )
