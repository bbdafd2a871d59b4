"""ContextBuilder (Algorithm 1, lines 1–7).

Builds the :class:`ApplicationContext` from the application's queries and —
when available — its database.  Query analysis always runs; schema context
comes from the live database's catalog when connected, otherwise from the
DDL statements found in the workload; data context comes from profiling the
database's tables.
"""
from __future__ import annotations

import copy
from typing import Any, Sequence

from ..catalog.ddl_builder import DDLBuilder
from ..catalog.schema import Schema, Table
from ..errors import CODE_PARSE_ERROR, CODE_PROFILE_ERROR, PipelineError
from ..obs import PipelineStats, get_metrics
from ..profiler.profiler import DataProfiler
from ..profiler.sampler import Sampler
from ..sqlparser import AnnotationCache, ParsedStatement, QueryAnnotation, annotate, parse
from ..sqlparser.dialects import Dialect, get_dialect
from ..sqlparser.fingerprint import MAX_CACHED_STATEMENTS
from .application_context import ApplicationContext


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
        """Build a context from queries and an optional engine database.

        ``stats`` (a :class:`~repro.obs.PipelineStats`; a fresh one when
        omitted, so a traced run keeps its stage spans) times the parse
        stage apart from schema building and data profiling, so
        database-backed runs don't misattribute profiling I/O to the
        parser, and receives the run's parse-cache hits and misses.

        With ``quarantine=True`` a statement that fails to parse or annotate
        is recorded as a :class:`~repro.errors.PipelineError` on
        ``context.errors`` and dropped; the remaining statements still build
        normally.  Off (the default), failures propagate as before.
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
            schema = self._build_schema(annotations, tables, database)
            if database is not None:
                if errors is None:
                    profiles = self.profiler.profile_database(database)
                else:
                    try:
                        profiles = self.profiler.profile_database(database)
                    except Exception as error:
                        profiles = {}
                        errors.append(
                            PipelineError.from_exception(
                                "data", error, code=CODE_PROFILE_ERROR, source=source
                            )
                        )
            else:
                profiles = {}
            return ApplicationContext(
                queries=annotations,
                schema=schema,
                profiles=profiles,
                database=database,
                dialect=self.dialect,
                source=source,
                errors=list(errors or ()),
            )

    def refresh_data(self, context: ApplicationContext) -> ApplicationContext:
        """Re-profile the database (the paper notes the data analyser
        periodically refreshes the context and re-profiles on schema change)."""
        if context.database is not None:
            context.profiles = self.profiler.profile_database(context.database)
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

    def _build_schema(
        self,
        annotations: "list[QueryAnnotation]",
        tables: "list[Table | None]",
        database: Any | None,
    ) -> Schema:
        if database is not None and getattr(database, "schema", None) is not None:
            return database.schema
        builder = DDLBuilder()
        _apply_ddl(builder, annotations, tables)
        return builder.schema


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
