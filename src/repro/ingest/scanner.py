"""Workload-weighted scanning: live database + query log → ranked report.

This is Algorithm 1 run against the inputs the paper actually evaluates —
a live schema, stored data, and the executed workload — instead of offline
SQL text:

1. the workload log's *distinct* statements are annotated (query analysis);
2. the connector introspects the live catalog and profiles sampled rows
   (schema + data analysis), fully populating the
   :class:`~repro.context.application_context.ApplicationContext`;
3. detection runs over that context, and ap-rank weights every finding by
   the statement's **real execution frequency** from the log.

Equivalence contract: scanning a live database is the same computation as
the offline path over equivalent inputs (the same DDL, rows, and
statements) — the conformance suite's differential oracle holds the two
byte-identical.  :func:`stream_scan` trades whole-workload context for a
bounded memory footprint: the log is folded chunk-by-chunk and each chunk
flows through the cached detection pipeline independently.
"""
from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..context.application_context import ApplicationContext
from ..context.builder import collector_paused
from ..core.sqlcheck import SQLCheck, SQLCheckOptions, SQLCheckReport
from ..obs import PipelineStats, get_tracer
from .connectors import ConnectorError
from .log_readers import read_workload_log
from .workload_log import WorkloadLog, statement_key

#: Default distinct-statement chunk size of :func:`stream_scan`.
DEFAULT_STREAM_CHUNK = 512


def assign_frequencies(context: ApplicationContext, log: WorkloadLog) -> ApplicationContext:
    """Attach the log's workload facts to a built context.

    Annotations are matched to log entries by whitespace-insensitive
    statement text (:func:`~repro.ingest.workload_log.statement_key`).
    Execution counts land in ``context.frequencies`` (statements the log
    never saw keep the default frequency of 1) and mean execution times,
    when the log carries timings, in ``context.durations`` — the facts the
    ``frequency``/``duration``/``hybrid`` cost models weight the ranking
    by.
    """
    by_key = {statement_key(entry.statement): entry for entry in log}
    for annotation in context.queries:
        statement = annotation.statement
        if statement is None:
            continue
        entry = by_key.get(statement_key(annotation.raw))
        if entry is None:
            continue
        if entry.frequency > 1:
            context.frequencies[statement.index] = entry.frequency
        mean_duration = entry.mean_duration_ms
        if mean_duration is not None and mean_duration > 0:
            context.durations[statement.index] = mean_duration
    return context


def _coerce_workload(
    workload: Any,
    log_format: "str | None",
    *,
    max_errors: "int | None" = None,
    strict: bool = False,
) -> "WorkloadLog | None":
    """Accept a WorkloadLog, a log-file path, raw SQL text, or statements."""
    if workload is None:
        return None
    if isinstance(workload, WorkloadLog):
        return workload
    if isinstance(workload, Path):
        return read_workload_log(workload, log_format, max_errors=max_errors, strict=strict)
    if isinstance(workload, str):
        candidate = Path(workload)
        if candidate.exists():
            return read_workload_log(
                candidate, log_format, max_errors=max_errors, strict=strict
            )
        return WorkloadLog.from_statements([workload])
    return WorkloadLog.from_statements(workload)


class LiveScanner:
    """Scans live sources through a shared :class:`~repro.core.sqlcheck.SQLCheck`.

    One scanner can serve many scans; the toolchain's annotation cache and
    detection memo stay warm across them (the memo itself is bypassed for
    database-backed contexts, where data refreshes must be observable).
    """

    def __init__(self, toolchain: "SQLCheck | None" = None, *,
                 options: "SQLCheckOptions | None" = None):
        self.toolchain = toolchain or SQLCheck(options)

    def scan(
        self,
        database: "Any | None" = None,
        workload: "WorkloadLog | str | Path | Iterable[str] | None" = None,
        *,
        log_format: "str | None" = None,
        source: "str | None" = None,
        sample_limit: "int | None" = None,
        exclude_tables: "Iterable[str]" = (),
        max_errors: "int | None" = None,
        strict: bool = False,
    ) -> SQLCheckReport:
        """Run the full pipeline over a live database and/or a query log.

        ``database`` is anything :func:`~repro.ingest.connectors.connect`
        accepts (sqlite URL/path/open connection, connector), attached
        through :meth:`ContextBuilder.attach
        <repro.context.builder.ContextBuilder.attach>` as in every
        database-backed run;
        ``workload`` is a :class:`WorkloadLog`, a log-file path (parsed per
        ``log_format``, auto-detected by default), SQL text, or an iterable
        of statements.  At least one of the two must be given.
        ``sample_limit`` caps the rows analysed per table for this scan
        only: a table larger than the cap is sampled *inside* the database
        (connector push-down of a seeded pick) instead of fetched whole —
        the knob for databases too big to pull across the wire.  The
        profiler and the data rules see the same sampled rows, and the
        same rows on every scan of an unchanged table.
        ``exclude_tables`` names telemetry tables (a ``pg_stat_statements``
        snapshot, migration bookkeeping) to leave out of the analysed
        schema and profiles.

        Failure semantics: a workload-log file is read degraded (malformed
        lines skipped and recorded; ``max_errors`` caps them, ``strict=True``
        restores fail-fast), and a connector that dies *mid-scan* — after
        the catalog was introspected — degrades profiling and data-rule
        verdicts to "source unavailable" provenance on the report instead
        of aborting.  A database that cannot be opened or introspected at
        all is still a hard :class:`ConnectorError`: there is nothing to
        degrade to.  The connector's circuit breaker is reset per scan, and
        a database this scan opened from a path or URL is closed when it
        ends.
        """
        toolchain = self.toolchain
        builder = toolchain._builder
        stats = PipelineStats()
        quarantine = toolchain.options.detector.quarantine
        with get_tracer().span("scan") as scan_span, ExitStack() as scope:
            scope.enter_context(collector_paused())
            # Opening the sources and reading the workload log is the scan's
            # first stage, so its stages cover the whole run.
            with stats.stage("ingest"):
                connector = scope.enter_context(builder.connected(database))
                log = _coerce_workload(
                    workload, log_format, max_errors=max_errors, strict=strict
                )
                statements = log.statements() if log is not None else []
            if connector is None and log is None:
                raise ConnectorError("scan needs a database, a workload log, or both")
            label = source or (log.source if log is not None else None) or (
                connector.name if connector is not None else None
            )
            if scan_span is not None:
                scan_span.attributes["source"] = label
            if connector is not None:
                # The cap holds for *every* row fetch in this scan — the
                # profiler below and any data rule pulling rows later — and
                # for no other.
                scope.enter_context(connector.sampling(sample_limit))
            context = builder.build(statements, source=label, stats=stats, quarantine=quarantine)
            if log is not None and log.errors:
                # Malformed-line records from the degraded log read travel with
                # the context so every report surface can account for them.
                context.errors.extend(log.errors)
            # Introspection, profiling and the log's workload facts are
            # context work: one more context stage holds them and the
            # connector:* calls.  The database is attached as every
            # database-backed run attaches it; only a source lost *after*
            # introspection degrades the scan.
            with stats.stage("context"):
                if connector is not None:
                    builder.attach(
                        context,
                        connector,
                        exclude=exclude_tables,
                        degrade=quarantine and not strict,
                    )
                if log is not None:
                    assign_frequencies(context, log)
            report = toolchain.check_context(context, stats=stats)
            # Freed while the collector is off, so it never walks the run.
            del context
        return report

    def stream(
        self,
        workload: "WorkloadLog | str | Path | Iterable[str]",
        *,
        log_format: "str | None" = None,
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        source: "str | None" = None,
    ) -> "Iterator[SQLCheckReport]":
        """Scan a workload log in bounded-memory chunks.

        At most ``chunk_size`` distinct statements are resident at a time;
        each chunk runs through the cached detection pipeline (via the
        batch path's context assembly) and yields its own report.
        Inter-query context and frequency weights are chunk-local — the
        memory bound is the trade-off, and corpus-scale logs whose
        statements exceed main memory are the only reason to prefer this
        over :meth:`scan`.  Reading the workload log is the first chunk's
        ``ingest`` stage.
        """
        stats = PipelineStats()
        with stats.stage("ingest"):
            log = _coerce_workload(workload, log_format)
        if log is None:
            raise ConnectorError("stream needs a workload log")
        label = source or log.source
        for piece in log.slices(chunk_size):
            context = self.toolchain._builder.build(
                piece.statements(),
                source=label,
                stats=stats,
                quarantine=self.toolchain.options.detector.quarantine,
            )
            with stats.stage("context"):
                assign_frequencies(context, piece)
            yield self.toolchain.check_context(context, stats=stats)
            stats = PipelineStats()

    def stream_detect(
        self,
        workload: "WorkloadLog | str | Path | Iterable[str]",
        *,
        log_format: "str | None" = None,
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        source: "str | None" = None,
    ):
        """Detection-only streaming through :meth:`APDetector.detect_batch`.

        Yields ``(DetectionReport, PipelineStats)`` per chunk — the raw
        corpus-scale path, with no ranking or fixes.  Reading the workload
        log is the first chunk's ``ingest`` stage, as in :meth:`stream`.
        """
        stats = PipelineStats()
        with stats.stage("ingest"):
            log = _coerce_workload(workload, log_format)
        if log is None:
            raise ConnectorError("stream_detect needs a workload log")
        label = source or log.source
        for piece in log.slices(chunk_size):
            yield self.toolchain.detector.detect_batch(
                piece.statements(), source=label, stats=stats
            )
            stats = PipelineStats()


def scan(
    database: "Any | None" = None,
    workload: "WorkloadLog | str | Path | Iterable[str] | None" = None,
    *,
    log_format: "str | None" = None,
    options: "SQLCheckOptions | None" = None,
    source: "str | None" = None,
    sample_limit: "int | None" = None,
    max_errors: "int | None" = None,
    strict: bool = False,
) -> SQLCheckReport:
    """One-shot convenience wrapper around :class:`LiveScanner`.

    Example::

        from repro.ingest import scan
        report = scan("sqlite:///app.db", "postgres.csv", log_format="postgres-csv")
    """
    return LiveScanner(options=options).scan(
        database, workload, log_format=log_format, source=source,
        sample_limit=sample_limit, max_errors=max_errors, strict=strict,
    )


def stream_scan(
    workload: "WorkloadLog | str | Path | Iterable[str]",
    *,
    log_format: "str | None" = None,
    options: "SQLCheckOptions | None" = None,
    chunk_size: int = DEFAULT_STREAM_CHUNK,
    source: "str | None" = None,
) -> "Iterator[SQLCheckReport]":
    """Module-level form of :meth:`LiveScanner.stream`."""
    return LiveScanner(options=options).stream(
        workload, log_format=log_format, chunk_size=chunk_size, source=source
    )
