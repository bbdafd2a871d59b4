"""Live-source ingestion: database connectors, query-log readers, and
workload-weighted scanning.

The paper's pipeline is defined over a *live application* — its schema,
stored data, and executed workload.  This package is that input layer:

* :mod:`~repro.ingest.connectors` — introspect a live database (SQLite via
  the stdlib driver) into the catalog and profile its rows;
* :mod:`~repro.ingest.log_readers` — parse real DBMS query logs
  (PostgreSQL csvlog/stderr, MySQL general log, SQLite trace, plain SQL)
  into a normalized :class:`WorkloadLog` of (statement, frequency,
  duration) records;
* :mod:`~repro.ingest.scanner` — assemble both into a fully-populated
  application context and run the toolchain with execution-frequency
  ranking weights (:func:`scan`), or stream a log through the batch
  pipeline in bounded-memory chunks (:func:`stream_scan`).

Surfaces: ``sqlcheck scan --db URL [--log FILE --log-format FMT]`` on the
CLI and ``POST /api/scan`` on the REST interface.
"""
from .connectors import (
    CircuitBreaker,
    CircuitOpenError,
    Connector,
    ConnectorError,
    RetryPolicy,
    SQLiteConnector,
    connect,
)
from .log_readers import (
    LOG_FORMATS,
    LogDetectionError,
    LogFormatError,
    detect_log_format,
    iter_log_records,
    pg_stat_record,
    read_pg_stat_statements,
    read_pg_stat_table,
    read_workload_log,
)
from .scanner import (
    DEFAULT_STREAM_CHUNK,
    LiveScanner,
    assign_frequencies,
    scan,
    stream_scan,
)
from .workload_log import LogRecord, WorkloadEntry, WorkloadLog, statement_key

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "Connector",
    "ConnectorError",
    "DEFAULT_STREAM_CHUNK",
    "LOG_FORMATS",
    "LiveScanner",
    "LogDetectionError",
    "LogFormatError",
    "LogRecord",
    "RetryPolicy",
    "SQLiteConnector",
    "WorkloadEntry",
    "WorkloadLog",
    "assign_frequencies",
    "connect",
    "detect_log_format",
    "iter_log_records",
    "pg_stat_record",
    "read_pg_stat_statements",
    "read_pg_stat_table",
    "read_workload_log",
    "scan",
    "statement_key",
    "stream_scan",
]
