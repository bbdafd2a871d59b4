"""Query-log readers: DBMS log files → :class:`~repro.ingest.workload_log.WorkloadLog`.

The paper evaluates sqlcheck over *live applications*, whose workload is
what the DBMS actually executed — not a curated ``.sql`` file.  Each reader
here parses one real log dialect into a stream of
:class:`~repro.ingest.workload_log.LogRecord` objects (statement text plus,
when the log carries it, the execution duration):

========================  ====================================================
format name               source
========================  ====================================================
``postgres-csv``          PostgreSQL ``log_destination = csvlog`` files
``postgres``              PostgreSQL stderr logs (``log_statement = all`` /
                          ``log_min_duration_statement``)
``pg_stat_statements``    CSV export of the ``pg_stat_statements`` view
                          (pre-aggregated: ``calls`` × ``mean_exec_time``
                          per normalized statement); the same snapshot
                          stored as a *table* is read by
                          :func:`read_pg_stat_table`
``mysql``                 MySQL general query log (``general_log = ON``)
``sqlite-trace``          SQLite shell ``.trace`` / ``sqlite3_trace_v2`` output
``sql``                   plain SQL text (one or more ``;``-separated
                          statements, e.g. a dump or migration script)
========================  ====================================================

Readers are generators over a line iterable: a log is consumed in one
forward pass and never materialised, so ingestion memory is bounded by the
longest single statement plus the distinct-statement fold in
:class:`WorkloadLog` — not by the log's line count.
"""
from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..errors import CODE_LOG_UNDETECTABLE, ErrorBudget
from .workload_log import LogRecord, WorkloadLog


class LogFormatError(ValueError):
    """Raised for an unknown log format name."""


class LogDetectionError(LogFormatError):
    """No log format could be inferred from the file's name or content.

    ``probed`` lists the formats detection considered, so the caller can
    surface "tried these, none matched" instead of misclassifying an empty
    or binary file as SQL.
    """

    def __init__(self, message: str, *, probed: "tuple[str, ...] | None" = None):
        super().__init__(message)
        self.code = CODE_LOG_UNDETECTABLE
        self.probed: "tuple[str, ...]" = probed if probed is not None else LOG_FORMATS


# ----------------------------------------------------------------------
# degraded ingestion: malformed lines are skipped and counted
# ----------------------------------------------------------------------
def _is_junk_line(line: str) -> bool:
    """A line that cannot be text in any supported log dialect.

    Files are opened with ``errors="replace"``, so undecodable bytes arrive
    as U+FFFD; NULs survive decoding and equally mark binary content.
    """
    return "\x00" in line or "�" in line


def _clean_lines(
    lines: Iterable[str], budget: ErrorBudget, source: "str | None" = None
) -> Iterator[str]:
    """Drop-and-count binary junk lines before a reader parses the stream.

    Only used when a budget is attached (degraded ingestion); without one,
    readers see the raw stream exactly as before.
    """
    for number, raw in enumerate(lines, start=1):
        if _is_junk_line(raw):
            budget.record(
                f"line {number}: undecodable bytes (binary junk), skipped",
                source=source,
                line=number,
            )
            continue
        yield raw


# ----------------------------------------------------------------------
# PostgreSQL — shared message parsing
# ----------------------------------------------------------------------
#: csvlog / stderr message bodies that carry SQL.  ``log_duration`` writes the
#: duration as its own message; ``log_min_duration_statement`` prefixes the
#: statement message with it.
_PG_STATEMENT_RE = re.compile(
    r"^(?:duration:\s*(?P<duration>[\d.]+)\s*ms\s+)?"
    r"(?:statement|execute\s+[^:]*):\s*(?P<sql>.*)$",
    re.DOTALL,
)
_PG_DURATION_ONLY_RE = re.compile(r"^duration:\s*(?P<duration>[\d.]+)\s*ms\s*$")

#: stderr log prefix: anything up to the severity tag (``log_line_prefix`` is
#: site-configurable, so nothing before the tag is assumed).
_PG_STDERR_RE = re.compile(r"^(?P<prefix>.*?)\b(?P<severity>LOG|STATEMENT):\s{1,2}(?P<message>.*)$")

#: csvlog columns (PostgreSQL docs, table "csvlog fields"): the message is
#: field 14 (0-based 13); earlier fields include the command tag at 7.
_PG_CSV_MESSAGE_FIELD = 13


def _pg_message_records(
    messages: "Iterable[tuple[str, int | None]]",
) -> Iterator[LogRecord]:
    """Fold (message, line) pairs into records, attaching trailing
    ``duration:``-only messages (``log_duration = on``) to the statement
    they time."""
    pending: "LogRecord | None" = None
    for message, line in messages:
        match = _PG_STATEMENT_RE.match(message.strip())
        if match and match.group("sql").strip():
            if pending is not None:
                yield pending
            duration = match.group("duration")
            pending = LogRecord(
                statement=match.group("sql").strip(),
                duration_ms=float(duration) if duration else None,
                line=line,
            )
            continue
        duration_only = _PG_DURATION_ONLY_RE.match(message.strip())
        if duration_only and pending is not None:
            yield LogRecord(
                statement=pending.statement,
                duration_ms=float(duration_only.group("duration")),
                line=pending.line,
            )
            pending = None
    if pending is not None:
        yield pending


def read_postgres_csvlog(
    lines: Iterable[str], budget: "ErrorBudget | None" = None
) -> Iterator[LogRecord]:
    """PostgreSQL csvlog.  The csv module handles quoted multi-line
    messages, so statements with embedded newlines arrive intact.

    With a budget attached, rows the csv module rejects and non-empty rows
    too short to carry a message field are recorded and skipped instead of
    aborting (or being silently dropped)."""
    if budget is not None:
        lines = _clean_lines(lines, budget)

    def messages() -> "Iterator[tuple[str, int | None]]":
        reader = csv.reader(lines)
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as error:
                if budget is None:
                    raise
                budget.record(
                    f"line {reader.line_num}: bad CSV row ({error}), skipped",
                    error=error,
                    line=reader.line_num,
                )
                continue
            if len(row) <= _PG_CSV_MESSAGE_FIELD:
                if budget is not None and row:
                    budget.record(
                        f"line {reader.line_num}: csvlog row has {len(row)} "
                        f"field(s), expected > {_PG_CSV_MESSAGE_FIELD}, skipped",
                        line=reader.line_num,
                    )
                continue
            yield row[_PG_CSV_MESSAGE_FIELD], reader.line_num

    return _pg_message_records(messages())


def read_postgres_stderr(
    lines: Iterable[str], budget: "ErrorBudget | None" = None
) -> Iterator[LogRecord]:
    """PostgreSQL stderr log (``log_statement`` / duration messages).

    Continuation lines of a multi-line statement carry no severity tag and
    are appended to the current message.
    """
    if budget is not None:
        lines = _clean_lines(lines, budget)

    def messages() -> "Iterator[tuple[str, int | None]]":
        current: "list[str] | None" = None
        start_line: "int | None" = None
        for number, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            match = _PG_STDERR_RE.match(line)
            if match:
                if current is not None:
                    yield "\n".join(current), start_line
                if match.group("severity") == "LOG":
                    current = [match.group("message")]
                    start_line = number
                else:
                    # STATEMENT: context lines repeat SQL already logged for
                    # an error; counting them would double the frequency.
                    current = None
            elif current is not None and (line.startswith(("\t", " ")) or not line):
                current.append(line.lstrip("\t"))
            elif current is not None:
                yield "\n".join(current), start_line
                current = None
        if current is not None:
            yield "\n".join(current), start_line

    return _pg_message_records(messages())


# ----------------------------------------------------------------------
# pg_stat_statements snapshots (CSV export or stored table)
# ----------------------------------------------------------------------
#: Column aliases across PostgreSQL versions: ``*_exec_time`` since PG 13,
#: ``*_time`` before.
_PG_STAT_TOTAL_COLUMNS = ("total_exec_time", "total_time")
_PG_STAT_MEAN_COLUMNS = ("mean_exec_time", "mean_time")


def _pg_stat_number(value: object) -> "float | None":
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def pg_stat_record(row: "dict[str, object]", line: "int | None" = None) -> "LogRecord | None":
    """One ``pg_stat_statements`` row → one pre-aggregated :class:`LogRecord`.

    ``row`` maps column names (any case) to values; ``calls`` becomes the
    record's execution count and ``total_exec_time`` (or
    ``mean_exec_time × calls``) its total duration.  Rows without readable
    SQL — empty, ``<insufficient privilege>`` — return ``None``.
    """
    lowered = {str(key).strip().lower(): value for key, value in row.items()}
    statement = str(lowered.get("query") or "").strip()
    # The view masks other users' statements as "<insufficient privilege>"
    # and can carry utility noise; nothing "<…>" is parseable SQL.
    if not statement or statement.startswith("<"):
        return None
    calls = _pg_stat_number(lowered.get("calls"))
    count = int(calls) if calls is not None and calls >= 1 else 1
    total = None
    for column in _PG_STAT_TOTAL_COLUMNS:
        total = _pg_stat_number(lowered.get(column))
        if total is not None:
            break
    if total is None:
        for column in _PG_STAT_MEAN_COLUMNS:
            mean = _pg_stat_number(lowered.get(column))
            if mean is not None:
                total = mean * count
                break
    return LogRecord(statement=statement, duration_ms=total, line=line, count=count)


def read_pg_stat_statements(
    lines: Iterable[str], budget: "ErrorBudget | None" = None
) -> Iterator[LogRecord]:
    """CSV export of ``pg_stat_statements`` (``\\copy … TO 'x.csv' CSV HEADER``).

    Unlike the line-per-execution logs, each row is a *pre-aggregated*
    statement: ``calls`` executions totalling ``total_exec_time`` ms (or
    ``mean_exec_time × calls`` on exports that dropped the total).
    """
    if budget is not None:
        lines = _clean_lines(lines, budget)
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        return  # empty input: no records, like every other reader
    fields = {name.strip().lower() for name in reader.fieldnames}
    if "query" not in fields or "calls" not in fields:
        # A wrong header is a format-level mistake, not one bad line — it
        # stays fail-fast even under a budget.
        raise LogFormatError(
            "pg_stat_statements CSV needs a header row with at least "
            "'query' and 'calls' columns"
        )
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as error:
            if budget is None:
                raise
            budget.record(
                f"line {reader.line_num}: bad CSV row ({error}), skipped",
                error=error,
                line=reader.line_num,
            )
            continue
        record = pg_stat_record(row, line=reader.line_num)
        if record is not None:
            yield record


def read_pg_stat_table(
    database: object,
    table: str = "pg_stat_statements",
    *,
    source: "str | None" = None,
) -> WorkloadLog:
    """Fold a ``pg_stat_statements`` snapshot stored as a *table* into a
    :class:`WorkloadLog`.

    ``database`` is an open :class:`~repro.ingest.connectors.Connector` or
    anything :func:`~repro.ingest.connectors.connect` accepts (a SQLite
    file holding an exported snapshot, an engine database, …).  Raises
    :class:`~repro.ingest.connectors.ConnectorError` when the table cannot
    be read.
    """
    from .connectors import Connector, connect

    connector = database if isinstance(database, Connector) else connect(database)
    try:
        rows = connector.table_rows(table)
        records = (
            record
            for record in (pg_stat_record(row) for row in rows)
            if record is not None
        )
        return WorkloadLog.from_records(
            records,
            source=source or f"{connector.name}:{table}",
            log_format="pg_stat_statements",
        )
    finally:
        if connector is not database:
            connector.close()


def _looks_like_pg_stat_header(sample: str) -> bool:
    """True when the sample's first non-empty line is a pg_stat CSV header."""
    first = next((line for line in sample.splitlines() if line.strip()), "")
    try:
        fields = next(csv.reader([first]), [])
    except csv.Error:
        return False
    names = {field.strip().lower() for field in fields}
    return "query" in names and "calls" in names


# ----------------------------------------------------------------------
# MySQL general query log
# ----------------------------------------------------------------------
#: Entry line: optional timestamp (ISO-8601 in 5.7+/8.0, ``YYMMDD h:m:s``
#: before), thread id, command, argument.  Continuation lines of a
#: multi-line statement match neither form.
_MYSQL_ENTRY_RE = re.compile(
    r"^(?:\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.?\d*Z?|\d{6}\s+\d{1,2}:\d{2}:\d{2})?"
    r"\s+(?P<thread>\d+)\s(?P<command>[A-Z][a-z]+(?: [A-Za-z]+)?)\t?(?P<argument>.*)$"
)

#: Commands whose argument is executed SQL.
_MYSQL_SQL_COMMANDS = frozenset({"Query", "Execute"})


def read_mysql_general_log(
    lines: Iterable[str], budget: "ErrorBudget | None" = None
) -> Iterator[LogRecord]:
    """MySQL general query log (``general_log = ON``)."""
    if budget is not None:
        lines = _clean_lines(lines, budget)
    current: "list[str] | None" = None
    start_line: "int | None" = None
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        match = _MYSQL_ENTRY_RE.match(line)
        if match:
            if current is not None:
                yield LogRecord(statement="\n".join(current), line=start_line)
                current = None
            if match.group("command") in _MYSQL_SQL_COMMANDS:
                current = [match.group("argument")]
                start_line = number
        elif current is not None:
            if line.startswith(("Time ", "Tcp port:", "/")) and not current[-1]:
                continue  # header banner mid-file (log rotation)
            current.append(line)
    if current is not None:
        yield LogRecord(statement="\n".join(current), line=start_line)


# ----------------------------------------------------------------------
# SQLite trace output
# ----------------------------------------------------------------------
def read_sqlite_trace(
    lines: Iterable[str], budget: "ErrorBudget | None" = None
) -> Iterator[LogRecord]:
    """SQLite shell ``.trace`` / ``sqlite3_trace_v2`` output: one expanded
    statement per line, with optional ``TRACE:``-style prefixes and ``--``
    comment lines from instrumented applications."""
    if budget is not None:
        lines = _clean_lines(lines, budget)
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").strip()
        if not line or line.startswith("--"):
            continue
        if line.upper().startswith("TRACE:"):
            line = line[len("TRACE:"):].strip()
        if line:
            yield LogRecord(statement=line, line=number)


# ----------------------------------------------------------------------
# plain SQL text
# ----------------------------------------------------------------------
def read_plain_sql(
    lines: Iterable[str], budget: "ErrorBudget | None" = None
) -> Iterator[LogRecord]:
    """Plain ``;``-separated SQL (dumps, migrations, query collections).

    Statements are accumulated line-wise and flushed on each line that ends
    a statement, so a multi-gigabyte dump is still read in bounded memory.
    """
    from ..sqlparser import split

    if budget is not None:
        lines = _clean_lines(lines, budget)

    def flush(buffer: "list[str]", start_line: "int | None") -> Iterator[LogRecord]:
        text = "\n".join(buffer)
        # Fast path: one terminator means one statement — the lexer pass is
        # only needed to separate several statements sharing a flush (split
        # would return the same single stripped text).
        if text.count(";") <= 1:
            if text.strip().strip(";").strip():
                yield LogRecord(statement=text.strip(), line=start_line)
            return
        for statement in split(text):
            yield LogRecord(statement=statement, line=start_line)

    buffer: list[str] = []
    start_line: "int | None" = None
    in_string = False
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not buffer:
            if not line.strip():
                continue
            start_line = number
        buffer.append(line)
        # Track single-quote parity so a ';' ending a line *inside* a
        # multi-line string literal does not flush mid-statement (escaped
        # '' quotes come in pairs, so parity still works).
        if line.count("'") % 2:
            in_string = not in_string
        if not in_string and line.rstrip().endswith(";"):
            yield from flush(buffer, start_line)
            buffer = []
    if buffer:
        yield from flush(buffer, start_line)


# ----------------------------------------------------------------------
# format registry
# ----------------------------------------------------------------------
LOG_READERS: "dict[str, Callable[..., Iterator[LogRecord]]]" = {
    "postgres-csv": read_postgres_csvlog,
    "postgres": read_postgres_stderr,
    "pg_stat_statements": read_pg_stat_statements,
    "mysql": read_mysql_general_log,
    "sqlite-trace": read_sqlite_trace,
    "sql": read_plain_sql,
}

#: Format names accepted by ``--log-format`` and the REST ``log_format``.
LOG_FORMATS: "tuple[str, ...]" = tuple(LOG_READERS)


def iter_log_records(
    lines: Iterable[str], log_format: str, budget: "ErrorBudget | None" = None
) -> Iterator[LogRecord]:
    """Parse a line stream in the named format into log records.

    ``budget`` (an :class:`~repro.errors.ErrorBudget`) turns on degraded
    ingestion: malformed lines are recorded there and skipped instead of
    aborting the read."""
    reader = LOG_READERS.get(log_format)
    if reader is None:
        raise LogFormatError(
            f"unknown log format {log_format!r} (expected one of {list(LOG_FORMATS)})"
        )
    return reader(lines, budget)


#: First keywords of statements a SQLite trace emits one-per-line.
_SQL_LEADING_KEYWORDS = (
    "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
    "PRAGMA", "BEGIN", "COMMIT", "ROLLBACK", "REPLACE", "WITH", "TRACE:",
)


def _read_sample(path: "str | Path") -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read(8192)


def detect_log_format(path: "str | Path", sample: str | None = None) -> str:
    """Format detection from the file name and a content sample.

    A recognised extension (``.csv``/``.sql``/``.trace``) is authoritative.
    Otherwise the content is probed against every known dialect, and a
    sample that cannot be *any* of them — empty, whitespace-only, or
    binary — raises :class:`LogDetectionError` (carrying the probed
    formats) instead of misclassifying the file as SQL.  A file that must
    be probed but cannot be read raises the :class:`OSError`.
    """
    name = str(path).lower()
    if name.endswith(".csv"):
        # Both csvlog files and pg_stat_statements exports are ".csv"; only
        # the latter opens with a header row naming query/calls columns.
        if sample is None:
            try:
                sample = _read_sample(path)
            except OSError:
                # The extension already names the family; reading the log
                # itself reports the unreadable file.
                sample = ""
        if _looks_like_pg_stat_header(sample):
            return "pg_stat_statements"
        return "postgres-csv"
    if name.endswith(".sql"):
        return "sql"
    if name.endswith(".trace"):
        return "sqlite-trace"
    if sample is None:
        sample = _read_sample(path)
    if not sample.strip():
        raise LogDetectionError(
            f"cannot detect the log format of {path}: the file is empty or "
            f"whitespace-only (probed {', '.join(LOG_FORMATS)}); name the "
            "format explicitly with --log-format"
        )
    junk_lines = sum(1 for line in sample.splitlines() if _is_junk_line(line))
    text_lines = max(1, len(sample.splitlines()))
    if junk_lines * 2 > text_lines:
        raise LogDetectionError(
            f"cannot detect the log format of {path}: the content is binary "
            f"(probed {', '.join(LOG_FORMATS)}); name the format explicitly "
            "with --log-format"
        )
    if _looks_like_pg_stat_header(sample):
        return "pg_stat_statements"
    sql_lines = 0
    semicolon_lines = 0
    for line in sample.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if _PG_STDERR_RE.match(stripped) and ("LOG:" in stripped or "STATEMENT:" in stripped):
            return "postgres"
        if _MYSQL_ENTRY_RE.match(line) or "mysqld, Version" in stripped:
            return "mysql"
        if stripped.count(",") >= _PG_CSV_MESSAGE_FIELD and '"' in stripped:
            return "postgres-csv"
        if stripped.upper().startswith(_SQL_LEADING_KEYWORDS):
            sql_lines += 1
        if stripped.endswith(";"):
            semicolon_lines += 1
    # Several statement-per-line entries and not a single ';' terminator
    # anywhere is a trace log, not a SQL script — the plain-sql reader
    # would fold the whole file into one bogus statement.  Scripts (even
    # multi-line ones) terminate their statements somewhere in the sample.
    if sql_lines >= 2 and semicolon_lines == 0:
        return "sqlite-trace"
    return "sql"


def read_workload_log(
    path: "str | Path",
    log_format: str | None = None,
    *,
    source: str | None = None,
    max_errors: "int | None" = None,
    strict: bool = False,
) -> WorkloadLog:
    """Read one log file into a :class:`WorkloadLog` (format auto-detected
    when not named).  The file is streamed, never slurped.

    Ingestion is degraded by default: malformed lines are skipped and
    recorded on ``log.errors``.  ``max_errors`` caps how many before
    :class:`~repro.errors.ErrorBudgetExceeded` aborts the read;
    ``strict=True`` restores fail-fast (the first malformed line raises).
    """
    path = Path(path)
    fmt = log_format or detect_log_format(path)
    if fmt not in LOG_READERS:
        raise LogFormatError(
            f"unknown log format {fmt!r} (expected one of {list(LOG_FORMATS)})"
        )
    budget = ErrorBudget(max_errors, strict=strict)
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        log = WorkloadLog.from_records(
            iter_log_records(handle, fmt, budget),
            source=source or str(path),
            log_format=fmt,
        )
    log.errors = list(budget)
    return log
