"""REST interface (§7) — long-lived service core.

The paper exposes ``POST /api/check`` with a JSON body ``{"query": "..."}``
through Flask.  Flask is unavailable offline, so the same contract is served
by the standard library's ``http.server``:

* ``POST /api/check``  — body ``{"query": "...", "config": "C1"|"C2",
  "format": "json"|"markdown"|"html"|"sarif", "stats": true}``; the
  default ``json`` returns the ranked detections and fixes (including
  per-stage pipeline timings under ``"stats"``, plus the process metrics
  snapshot under ``"stats"."metrics"`` when the request sets
  ``"stats": true``), ``sarif`` returns a SARIF 2.1.0 log object, and
  ``markdown``/``html`` return ``{"format": ..., "content": ...}`` with
  the rendered explainable report;
* ``POST /api/check_batch`` — body ``{"corpora": {"name": "sql..."},
  "format": ..., "stats": true}``, runs the batch pipeline over
  independent corpora and returns one report per corpus plus aggregate
  stats (same ``format`` and ``stats`` handling as ``/api/check``);
* ``POST /api/scan`` — live-source ingestion: body ``{"db": "sqlite:///...",
  "db_base64": "<base64 SQLite file>", "log_text": "...", "log_format":
  "postgres-csv"|"postgres"|"pg_stat_statements"|"mysql"|"sqlite-trace"|
  "sql", "pg_stat": true|"table_name", "cost_model": "frequency"|
  "duration"|"hybrid", "sample": N, "config": ..., "format": ...,
  "stats": true}``; the database — a server-local path/URL *or* an
  uploaded SQLite file sent base64-encoded in ``db_base64`` — is
  introspected into the schema+data context, ``pg_stat`` reads a
  ``pg_stat_statements`` snapshot table from it, and the workload's
  execution frequencies and durations weight the ranking through the
  chosen cost model (``sample`` caps profiled rows per table via connector
  push-down; it must be positive — zero rows is not a meaningful cap and
  never means "unlimited");
* ``POST /api/selftest`` — runs the conformance testkit (rule examples,
  golden corpus, differential oracles) in-process and returns the suite
  verdict with per-oracle results; body ``{"seed": N, "statements": N}``
  (both optional);
* ``GET  /api/rules`` — the registered rule catalog with each rule's
  structured :class:`~repro.rules.base.RuleDoc`;
* ``GET  /api/antipatterns`` — the supported anti-pattern catalog;
* ``GET  /api/health`` — liveness probe, now reporting the service state:
  in-flight requests, draining flag, and per-toolchain occupancy of the
  parse cache, the detection memo (with the persistent memo, when
  configured) and the replay layer of finished reports.

Service core: the server speaks **HTTP/1.1 with keep-alive** (every
response carries an exact ``Content-Length``), requests are served by a
shared per-process :class:`ToolchainPool` instead of constructing a
toolchain per request (warm annotation caches and detection memos persist
across requests — and across *restarts* when a persistent memo path is
configured — and an exact repeat of a small request replays its finished
report), and :meth:`RestServer.stop` drains in-flight requests before
closing the sockets.  ``handle_check_request`` and friends contain the
framework-independent logic so they can be unit-tested without opening a
socket.
"""
from __future__ import annotations

import json
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.sqlcheck import SQLCheck, SQLCheckOptions
from ..detector.detector import DetectorConfig
from ..errors import (
    CODE_BAD_REQUEST,
    CODE_INTERNAL,
    CODE_LOG_BUDGET_EXHAUSTED,
    CODE_LOG_MALFORMED,
    CODE_SOURCE_UNAVAILABLE,
    ErrorBudget,
    ErrorBudgetExceeded,
)
from ..model.antipatterns import catalog_entry, full_catalog
from ..obs import PROMETHEUS_CONTENT_TYPE, attach_snapshot, get_metrics, render_prometheus
from ..ranking.config import C1, C2
from ..rules.registry import default_registry
from ..reporting import (
    RICH_FORMATS,
    build_document,
    build_documents,
    render_html,
    render_markdown,
    to_sarif,
)

#: ``format`` values accepted by the check routes: plain JSON (default)
#: plus every rich reporting format — one source of truth with the CLI.
_FORMATS = ("json",) + RICH_FORMATS


class ToolchainPool:
    """Long-lived, shared :class:`SQLCheck` instances keyed by request shape.

    The pre-service handlers built a fresh toolchain per request, so the
    annotation cache and detection memo never survived a single call.  The
    pool keeps one toolchain per distinct request configuration (ranking
    config, and for scans the cost model and dialect), LRU-capped at
    ``maxsize``.  Toolchain internals are not thread-safe, so each entry
    carries its own lock; requests sharing a configuration serialise on it
    while differently-configured requests proceed in parallel.

    ``memo_path`` (the server's ``--memo-cache``) threads a persistent
    memo into every pooled toolchain, so a *restarted* server resumes with
    warm caches too.  Evicted or closed toolchains flush that store.
    """

    def __init__(self, maxsize: int = 8, memo_path: "str | None" = None):
        self.maxsize = maxsize
        self.memo_path = memo_path
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[SQLCheck, threading.Lock]]" = (
            OrderedDict()
        )

    def acquire(self, key: tuple, factory) -> "tuple[SQLCheck, threading.Lock]":
        """The ``(toolchain, lock)`` for ``key``, building it on first use.

        Callers must hold the returned lock while running the toolchain.
        """
        evicted = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = (factory(), threading.Lock())
                self._entries[key] = entry
                if len(self._entries) > self.maxsize:
                    _, evicted = self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
        if evicted is not None:
            self._close_entry(evicted)
        return entry

    @staticmethod
    def _close_entry(entry: "tuple[SQLCheck, threading.Lock]") -> None:
        toolchain, lock = entry
        # Wait out any request still running on the evicted toolchain so
        # its buffered persistent writes are not flushed mid-run.
        with lock:
            toolchain.detector.close()

    def close(self) -> None:
        """Close every pooled toolchain (flushing persistent memo state)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            self._close_entry(entry)

    def info(self) -> dict:
        """Occupancy snapshot for ``GET /api/health``."""
        with self._lock:
            entries = list(self._entries.items())
        toolchains = []
        for key, (toolchain, _lock) in entries:
            detector = toolchain.detector
            item: dict = {
                "key": "/".join(str(part) for part in key),
                "detection_memo": detector.memo_info,
            }
            cache = detector.annotation_cache
            if cache is not None:
                item["annotation_cache"] = cache.info()
            if toolchain.replays is not None:
                item["replay"] = toolchain.replays.info()
            toolchains.append(item)
        return {
            "size": len(entries),
            "maxsize": self.maxsize,
            "memo_path": self.memo_path,
            "toolchains": toolchains,
        }


#: Pool used when handlers are called without an explicit one (direct
#: unit-test calls, ad-hoc embedding).  A :class:`RestServer` always owns
#: its own pool so its memo path and lifecycle stay per-server.
_DEFAULT_POOL = ToolchainPool()


def _resolve_pool(pool: "ToolchainPool | None") -> ToolchainPool:
    return pool if pool is not None else _DEFAULT_POOL


def _json_report(body: dict, payload: dict) -> dict:
    """A JSON-format report body, with the process metrics snapshot in its
    ``stats`` block only when the request sets ``"stats": true``."""
    if payload.get("stats") is True:
        attach_snapshot(body)
    return body


def _error(message: str, code: str = CODE_BAD_REQUEST) -> dict:
    """The structured error envelope every failing route answers with.

    ``error`` stays the human-readable message (the historical contract);
    ``code`` is the machine-readable taxonomy value from
    :mod:`repro.errors`, so clients can branch without parsing prose.
    """
    return {"error": message, "code": code}


def _parse_format(payload: dict) -> "tuple[str, dict | None]":
    """Validate the optional ``format`` field; returns (format, error)."""
    fmt = str(payload.get("format", "json")).lower()
    if fmt not in _FORMATS:
        return fmt, _error(f"unknown format {fmt!r} (expected one of {list(_FORMATS)})")
    return fmt, None


def _parse_config(payload: dict) -> "tuple[str, object]":
    """Resolve the ranking configuration name; unknown values mean C1."""
    name = "C2" if str(payload.get("config", "C1")).upper() == "C2" else "C1"
    return name, (C2 if name == "C2" else C1)


def _formatted_response(documents, fmt: str, registry) -> dict:
    """Render documents per rich ``fmt``: SARIF is itself JSON and is
    returned as the body; markdown/html are wrapped in a ``content``
    envelope."""
    if fmt == "sarif":
        return to_sarif(documents, registry=registry)
    renderer = render_markdown if fmt == "markdown" else render_html
    return {"format": fmt, "content": renderer(documents)}


def handle_check_request(
    payload: dict, *, pool: "ToolchainPool | None" = None
) -> tuple[int, dict]:
    """Process the body of ``POST /api/check`` and return (status, response)."""
    pool = _resolve_pool(pool)
    query = payload.get("query")
    if not query or not isinstance(query, str):
        return 400, _error("the request body must contain a non-empty 'query' string")
    fmt, error = _parse_format(payload)
    if error is not None:
        return 400, error
    config_name, ranking = _parse_config(payload)
    toolchain, lock = pool.acquire(
        ("check", config_name),
        lambda: SQLCheck(
            SQLCheckOptions(
                detector=DetectorConfig(persistent_memo_path=pool.memo_path),
                ranking=ranking,
            )
        ),
    )
    with lock:
        report = toolchain.check(query)
    if fmt == "json":
        return 200, _json_report(report.to_dict(), payload)
    document = build_document(report, registry=toolchain.registry, source="request")
    return 200, _formatted_response(document, fmt, toolchain.registry)


def handle_check_batch_request(
    payload: dict, *, pool: "ToolchainPool | None" = None
) -> tuple[int, dict]:
    """Process the body of ``POST /api/check_batch`` and return (status, response)."""
    pool = _resolve_pool(pool)
    corpora = payload.get("corpora")
    if not isinstance(corpora, dict) or not corpora:
        return 400, _error("the request body must contain a non-empty 'corpora' object")
    for name, queries in corpora.items():
        if not isinstance(queries, str) and not (
            isinstance(queries, list) and all(isinstance(q, str) for q in queries)
        ):
            return 400, _error(f"corpus {name!r} must be a SQL string or a list of SQL strings")
    fmt, error = _parse_format(payload)
    if error is not None:
        return 400, error
    config_name, ranking = _parse_config(payload)
    toolchain, lock = pool.acquire(
        ("check", config_name),
        lambda: SQLCheck(
            SQLCheckOptions(
                detector=DetectorConfig(persistent_memo_path=pool.memo_path),
                ranking=ranking,
            )
        ),
    )
    with lock:
        batch = toolchain.check_many(corpora)
    if fmt == "json":
        return 200, _json_report(batch.to_dict(), payload)
    documents = build_documents(batch, registry=toolchain.registry)
    return 200, _formatted_response(documents, fmt, toolchain.registry)


#: Upload ceiling of ``db_base64`` (decoded bytes): big enough for any
#: realistic review database, small enough to bound one request's memory.
#: Checked against the *encoded* length before any decoding happens.
MAX_UPLOAD_BYTES = 64 * 1024 * 1024

#: Raw request-body ceiling enforced before the body is read off the
#: socket (base64 inflates the upload ceiling by 4/3, plus JSON framing).
MAX_REQUEST_BYTES = MAX_UPLOAD_BYTES * 2


def _workload_info(workload) -> "dict | None":
    """The ``workload`` provenance block shared by every response format
    (``degraded``/``lines_skipped`` only appear for degraded ingestion)."""
    return None if workload is None else workload.provenance()


def handle_scan_request(
    payload: dict, *, pool: "ToolchainPool | None" = None
) -> tuple[int, dict]:
    """Process the body of ``POST /api/scan`` and return (status, response)."""
    import base64
    import binascii
    import os
    import tempfile

    from ..ingest import (
        LOG_FORMATS,
        ConnectorError,
        LiveScanner,
        LogFormatError,
        WorkloadLog,
        connect,
        detect_log_format,
        iter_log_records,
        read_pg_stat_table,
    )
    from ..ranking.cost_model import COST_MODEL_NAMES, DEFAULT_COST_MODEL

    pool = _resolve_pool(pool)
    db = payload.get("db")
    db_base64 = payload.get("db_base64")
    log_text = payload.get("log_text")
    if not db and not db_base64 and not log_text:
        return 400, _error(
            "the request body must contain 'db', 'db_base64', 'log_text', or a combination"
        )
    if db and db_base64:
        return 400, _error("'db' and 'db_base64' are mutually exclusive")
    if db is not None and not isinstance(db, str):
        return 400, _error("'db' must be a database URL or path string")
    if db_base64 is not None and not isinstance(db_base64, str):
        return 400, _error("'db_base64' must be the SQLite file content, base64-encoded")
    if log_text is not None and not isinstance(log_text, str):
        return 400, _error("'log_text' must be the log file content as a string")
    log_format = str(payload.get("log_format", "auto")).lower()
    if log_format == "auto" and log_text:
        # Same default as the CLI: sniff the content (the dummy name has no
        # recognised extension, so only the sample decides).
        try:
            log_format = detect_log_format("request.log", log_text)
        except LogFormatError as error:
            return 400, _error(str(error), getattr(error, "code", CODE_LOG_MALFORMED))
    if log_text and log_format not in LOG_FORMATS:
        return 400, _error(
            f"unknown log format {log_format!r} (expected one of {list(LOG_FORMATS)})"
        )
    cost_model = str(payload.get("cost_model", DEFAULT_COST_MODEL)).lower()
    if cost_model not in COST_MODEL_NAMES:
        return 400, _error(
            f"unknown cost model {cost_model!r} (expected one of {list(COST_MODEL_NAMES)})"
        )
    sample = payload.get("sample")
    if sample is not None:
        try:
            sample = int(sample)
        except (TypeError, ValueError):
            return 400, _error("'sample' must be an integer row count")
        if sample < 1:
            # Zero is rejected, not coerced: the historical `sample or None`
            # coercion silently turned "cap at zero rows" into "unlimited".
            return 400, _error("'sample' must be a positive row count")
    max_errors = payload.get("max_errors")
    if max_errors is not None:
        try:
            max_errors = int(max_errors)
        except (TypeError, ValueError):
            return 400, _error("'max_errors' must be an integer error budget")
        if max_errors < 0:
            return 400, _error("'max_errors' must be a non-negative error budget")
    strict = bool(payload.get("strict", False))
    pg_stat = payload.get("pg_stat")
    if pg_stat is True:
        pg_stat = "pg_stat_statements"
    elif pg_stat is False:
        pg_stat = None  # explicit "off" is as valid as omitting the field
    if pg_stat is not None and not isinstance(pg_stat, str):
        return 400, _error("'pg_stat' must be true/false or a snapshot table name")
    if pg_stat and not db and not db_base64:
        return 400, _error("'pg_stat' reads a table from 'db'/'db_base64'; pass one too")
    fmt, error = _parse_format(payload)
    if error is not None:
        return 400, error
    config_name, ranking = _parse_config(payload)
    connector = None
    upload_path = None
    try:
        if db_base64:
            # Reject on the *encoded* length before decoding: the ceiling
            # must bound the request's memory, not just the decoded file.
            if len(db_base64) > (MAX_UPLOAD_BYTES * 4) // 3 + 4:
                return 400, _error(
                    f"uploaded database exceeds {MAX_UPLOAD_BYTES} bytes"
                )
            try:
                raw = base64.b64decode(db_base64, validate=True)
            except (binascii.Error, ValueError):
                return 400, _error("'db_base64' is not valid base64")
            if len(raw) > MAX_UPLOAD_BYTES:
                return 400, _error(
                    f"uploaded database exceeds {MAX_UPLOAD_BYTES} bytes"
                )
            handle = tempfile.NamedTemporaryFile(
                prefix="sqlcheck-upload-", suffix=".db", delete=False
            )
            with handle:
                handle.write(raw)
            upload_path = handle.name
            connector = connect(upload_path)
        elif db:
            connector = connect(db)
        workload = None
        if log_text:
            budget = ErrorBudget(max_errors, strict=strict)
            workload = WorkloadLog.from_records(
                iter_log_records(log_text.splitlines(True), log_format, budget),
                source="request",
                log_format=log_format,
            )
            workload.errors = list(budget)
        if pg_stat:
            piece = read_pg_stat_table(connector, pg_stat)
            workload = piece if workload is None else workload.merge(piece)
        dialect = payload.get("dialect") or (
            connector.dialect if connector is not None else None
        )
        toolchain, lock = pool.acquire(
            ("scan", config_name, cost_model, str(dialect)),
            lambda: SQLCheck(
                SQLCheckOptions(
                    detector=DetectorConfig(
                        dialect=dialect, persistent_memo_path=pool.memo_path
                    ),
                    ranking=ranking,
                    cost_model=cost_model,
                )
            ),
        )
        scanner = LiveScanner(toolchain)
        source = db or ("upload" if db_base64 else "request")
        with lock:
            report = scanner.scan(
                connector,
                workload,
                source=source,
                sample_limit=sample,
                exclude_tables=(pg_stat,) if pg_stat else (),
                strict=strict,
            )
    except ErrorBudgetExceeded as error:
        return 400, _error(str(error), CODE_LOG_BUDGET_EXHAUSTED)
    except ConnectorError as error:
        return 400, _error(str(error), CODE_SOURCE_UNAVAILABLE)
    except LogFormatError as error:
        return 400, _error(str(error), getattr(error, "code", CODE_LOG_MALFORMED))
    except ValueError as error:
        # strict=true re-raises the first malformed line raw; that is the
        # client's data, not a server fault — a 400, never a 500.
        return 400, _error(str(error), CODE_LOG_MALFORMED)
    finally:
        if connector is not None:
            connector.close()
        if upload_path is not None:
            try:
                os.unlink(upload_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    workload_info = _workload_info(workload)
    if fmt == "json":
        body = report.to_dict()
        if workload_info is not None:
            body["workload"] = workload_info
        return 200, _json_report(body, payload)
    # Rich formats carry the same ingestion provenance the JSON block does
    # (the markdown/html summary line; the SARIF run property bag) — a
    # degraded scan must say so in every format, not just JSON.
    document = build_document(
        report,
        registry=scanner.toolchain.registry,
        source=source,
        workload=workload_info,
    )
    return 200, _formatted_response(document, fmt, scanner.toolchain.registry)


#: Fuzzed-corpus ceiling of ``POST /api/selftest`` — the suite runs
#: synchronously inside the request, so the corpus size must stay bounded.
MAX_SELFTEST_STATEMENTS = 2000


def handle_selftest_request(
    payload: dict, *, pool: "ToolchainPool | None" = None
) -> tuple[int, dict]:
    """Process the body of ``POST /api/selftest`` and return (status, response).

    Runs the conformance testkit in-process (never regenerating goldens —
    the REST surface is read-only) and returns
    :meth:`~repro.testkit.selftest.SelftestResult.to_dict`: the overall
    ``ok`` verdict plus per-oracle failure lists and the dbdeo agreement
    rates.  The toolchain pool is unused — the testkit builds its own
    isolated toolchains.
    """
    from ..testkit.selftest import run_selftest

    try:
        seed = int(payload.get("seed", 2020))
        statements = int(payload.get("statements", 120))
    except (TypeError, ValueError):
        return 400, _error("'seed' and 'statements' must be integers")
    if statements < 1 or statements > MAX_SELFTEST_STATEMENTS:
        return 400, _error(
            f"'statements' must be between 1 and {MAX_SELFTEST_STATEMENTS}"
        )
    result = run_selftest(None, seed=seed, statements=statements, update_golden=False)
    return 200, result.to_dict()


def rules_response() -> dict:
    """Response body of ``GET /api/rules``: the RuleDoc catalog as JSON."""
    registry = default_registry()
    return {
        "rules": [
            {
                "name": rule.name,
                "anti_pattern": rule.anti_pattern.value,
                "category": catalog_entry(rule.anti_pattern).category.value,
                "severity": rule.severity.name,
                "kind": "data" if hasattr(rule, "check_table") else "query",
                "statement_types": list(getattr(rule, "statement_types", ())),
                "requires_context": bool(getattr(rule, "requires_context", False)),
                "doc": rule.documentation().to_dict(),
            }
            for rule in registry
        ]
    }


def catalog_response() -> dict:
    """Response body of ``GET /api/antipatterns``."""
    return {
        "anti_patterns": [
            {
                "name": entry.anti_pattern.value,
                "display_name": entry.anti_pattern.display_name,
                "category": entry.category.value,
                "description": entry.description,
            }
            for entry in full_catalog().values()
        ]
    }


def health_response(server=None, pool: "ToolchainPool | None" = None) -> dict:
    """Response body of ``GET /api/health``.

    ``status`` stays ``"ok"`` while serving (the historical liveness
    contract) and turns ``"draining"`` during graceful shutdown; the rest
    describes the service core — in-flight requests and per-toolchain
    cache/memo occupancy, including the persistent store when configured.
    """
    pool = pool if pool is not None else getattr(server, "pool", None)
    draining = bool(getattr(server, "draining", False))
    return {
        "status": "draining" if draining else "ok",
        "protocol": _Handler.protocol_version,
        "in_flight": int(getattr(server, "in_flight", 0)),
        "draining": draining,
        "toolchains": _resolve_pool(pool).info(),
    }


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that counts in-flight requests and can drain.

    ``daemon_threads`` keeps idle keep-alive connections from blocking
    ``server_close`` — graceful shutdown waits on *requests* (via
    :meth:`drain`), never on clients that simply hold their sockets open.
    """

    daemon_threads = True

    def __init__(self, address, handler, pool: ToolchainPool):
        super().__init__(address, handler)
        self.pool = pool
        self.draining = False
        self.in_flight = 0
        self._flight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()

    def begin_request(self, *, refuse_when_draining: bool) -> bool:
        """Count a request in; False refuses it (server is draining)."""
        with self._flight_lock:
            if refuse_when_draining and self.draining:
                return False
            self.in_flight += 1
            self._idle.clear()
            return True

    def end_request(self) -> None:
        with self._flight_lock:
            self.in_flight -= 1
            if self.in_flight <= 0:
                self._idle.set()

    def drain(self, timeout: "float | None") -> bool:
        """Refuse new work and wait for in-flight requests to finish."""
        with self._flight_lock:
            self.draining = True
            if self.in_flight == 0:
                self._idle.set()
        return self._idle.wait(timeout)


class _Handler(BaseHTTPRequestHandler):
    """HTTP request handler mapping routes onto the functions above."""

    #: keep-alive: one connection serves many requests; every response
    #: carries an exact Content-Length so the client can find the boundary.
    protocol_version = "HTTP/1.1"
    #: reap connections idle this long between requests (seconds) — a
    #: keep-alive client that walked away must not pin a thread forever.
    timeout = 30
    #: TCP_NODELAY: headers and body leave in separate writes, and on a
    #: *reused* connection Nagle holds the second small segment until the
    #: client ACKs the first — which the client delays — adding ~40ms to
    #: every keep-alive response.  Fresh connections dodge it via quick-ACK,
    #: so the stall only shows up in exactly the mode keep-alive exists for.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # pragma: no cover - silence
        return

    @property
    def _pool(self) -> ToolchainPool:
        return _resolve_pool(getattr(self.server, "pool", None))

    def _send(self, status: int, body: dict, *, close: bool = False) -> None:
        data = json.dumps(body, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close or getattr(self.server, "draining", False):
            # send_header("Connection", "close") also flags close_connection,
            # ending this connection's keep-alive loop after the write.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        # Read-only routes stay available while draining: health must keep
        # answering (it is how an orchestrator watches the drain complete).
        tracked = True
        begin = getattr(self.server, "begin_request", None)
        if begin is not None:
            tracked = begin(refuse_when_draining=False)
        try:
            if self.path == "/api/health":
                self._send(200, health_response(self.server))
            elif self.path in ("/metrics", "/api/metrics"):
                # Prometheus text exposition of the process-wide registry
                # (served on the conventional scrape path and under /api/).
                self._send_text(
                    200, render_prometheus(get_metrics()), PROMETHEUS_CONTENT_TYPE
                )
            elif self.path == "/api/antipatterns":
                self._send(200, catalog_response())
            elif self.path == "/api/rules":
                self._send(200, rules_response())
            else:
                self._send(404, _error(f"unknown path {self.path}"))
        finally:
            end = getattr(self.server, "end_request", None)
            if tracked and end is not None:
                end()

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        handlers = {
            "/api/check": handle_check_request,
            "/api/check_batch": handle_check_batch_request,
            "/api/scan": handle_scan_request,
            "/api/selftest": handle_selftest_request,
        }
        handler = handlers.get(self.path)
        if handler is None:
            self._send(404, _error(f"unknown path {self.path}"))
            return
        try:
            length = int(str(self.headers.get("Content-Length", 0)).strip())
        except (TypeError, ValueError):
            # Malformed framing is a client error, not a dropped connection:
            # answer the structured envelope, then close — the body boundary
            # is unknowable, so this connection cannot be reused.
            self._send(
                400,
                _error("'Content-Length' must be a non-negative integer"),
                close=True,
            )
            return
        if length < 0:
            self._send(
                400,
                _error("'Content-Length' must be a non-negative integer"),
                close=True,
            )
            return
        if length > MAX_REQUEST_BYTES:
            # Bound request memory before reading the body at all.
            self._send(
                413,
                _error(f"request body exceeds {MAX_REQUEST_BYTES} bytes"),
                close=True,
            )
            return
        begin = getattr(self.server, "begin_request", None)
        tracked = True
        if begin is not None:
            tracked = begin(refuse_when_draining=True)
            if not tracked:
                self._send(
                    503,
                    _error("server is draining; retry elsewhere", CODE_INTERNAL),
                    close=True,
                )
                return
        try:
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except json.JSONDecodeError:
                self._send(400, _error("request body is not valid JSON"))
                return
            try:
                status, body = handler(payload, pool=self._pool)
            except Exception as error:  # noqa: BLE001 - the thread must answer
                # A handler bug must produce a JSON 500, not a silently killed
                # request thread with no response on the wire.
                status, body = 500, _error(f"internal error: {error}", CODE_INTERNAL)
            self._send(status, body)
        finally:
            end = getattr(self.server, "end_request", None)
            if tracked and end is not None:
                end()


class RestServer:
    """The long-lived sqlcheck service: keep-alive HTTP/1.1, a shared
    toolchain pool, and graceful drain-then-close shutdown.

    ``memo_path`` threads a persistent detection memo under every pooled
    toolchain, so a restarted server answers its first requests warm.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        memo_path: "str | None" = None,
        drain_timeout: float = 10.0,
    ):
        self.pool = ToolchainPool(memo_path=memo_path)
        self.drain_timeout = drain_timeout
        self._server = _ServiceHTTPServer((host, port), _Handler, self.pool)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "RestServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def wait(self) -> None:
        """Block until the serving thread exits.

        Joins in short slices so a KeyboardInterrupt in the calling thread
        (the CLI ``serve`` foreground) can land between joins.
        """
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=0.5)

    def stop(self) -> None:
        """Graceful shutdown: drain in-flight requests, then close.

        New POSTs are refused with 503 the moment draining starts; requests
        already executing get up to ``drain_timeout`` seconds to answer.
        Closing the pool flushes every persistent memo so the next process
        starts from this one's warm state.
        """
        self._server.drain(self.drain_timeout)
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.pool.close()

    def __enter__(self) -> "RestServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def create_server(
    host: str = "127.0.0.1", port: int = 8080, *, memo_path: "str | None" = None
) -> RestServer:
    """Create (but do not start) a REST server."""
    return RestServer(host=host, port=port, memo_path=memo_path)
