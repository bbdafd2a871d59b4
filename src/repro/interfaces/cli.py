"""Command-line interface.

``sqlcheck`` (installed as a console script) reads SQL from files, a literal
``--query``, or stdin, runs the toolchain, and prints the ranked detections
with their suggested fixes.  ``--format json`` emits the machine-readable
report; ``--no-inter-query`` / ``--no-fixes`` expose the ablation switches
used in the evaluation.

``sqlcheck selftest`` runs the conformance testkit — per-rule planted
examples, the golden corpus, and the differential oracles — against a
seeded fuzzed corpus or any SQL files given on the command line.

``sqlcheck docs`` generates the per-rule reference (``docs/rules/``) from
each rule's :class:`~repro.rules.base.RuleDoc` and ``examples()``;
``sqlcheck docs --check`` fails when the on-disk reference is missing or
stale.  ``--format markdown|html|sarif`` renders any check as an
explainable report (SARIF 2.1.0 surfaces findings as native CI
annotations).

``sqlcheck scan`` analyses a *live* application: ``--db`` introspects a
database (SQLite URL/path) into the schema+data context, ``--log`` feeds a
real query log (PostgreSQL csvlog/stderr, a ``pg_stat_statements`` CSV
export, MySQL general log, SQLite trace, or plain SQL) whose execution
frequencies and durations weight the ranking through ``--cost-model
{frequency,duration,hybrid}``.  ``--pg-stat [TABLE]`` reads a
``pg_stat_statements`` snapshot table from ``--db`` as the workload, and
``--sample N`` profiles large tables from an in-database seeded sample
instead of fetching them whole.  Every ``--format`` of the offline paths
applies.

``sqlcheck serve`` runs the long-lived REST service (HTTP/1.1 keep-alive,
shared toolchain pool, graceful drain on Ctrl-C).  ``--memo-cache PATH``
— accepted by plain runs, ``scan``, and ``serve`` — persists the
detection memo to a SQLite file so warm state survives process restarts.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from ..core.sqlcheck import SQLCheck, SQLCheckOptions, SQLCheckReport
from ..detector.detector import DetectorConfig
from ..obs import get_metrics, get_tracer
from ..ranking.config import C1, C2, RankingConfig
from ..reporting import (
    ALL_FORMATS,
    RICH_FORMATS,
    check_reference,
    render_batch_report,
    render_report,
    write_reference,
)
from ..rules.registry import default_registry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlcheck",
        description="Detect, rank, and fix SQL anti-patterns (SQLCheck reproduction).",
    )
    parser.add_argument("files", nargs="*", help="SQL files to analyse (reads stdin when empty)")
    parser.add_argument("-q", "--query", action="append", default=[], help="analyse a literal SQL statement")
    parser.add_argument(
        "--format",
        choices=ALL_FORMATS,
        default="text",
        help="output format (markdown/html render explainable reports; sarif "
        "emits a SARIF 2.1.0 log for CI annotation)",
    )
    parser.add_argument("--config", choices=("C1", "C2"), default="C1", help="ranking configuration (Figure 7a)")
    parser.add_argument("--dialect", default=None, help="SQL dialect hint (postgresql, mysql, sqlite, ...)")
    parser.add_argument("--top", type=int, default=0, help="only print the N highest-impact detections")
    parser.add_argument("--no-inter-query", action="store_true", help="disable inter-query analysis")
    parser.add_argument("--no-fixes", action="store_true", help="do not generate fixes")
    parser.add_argument("--min-confidence", type=float, default=0.5, help="confidence threshold")
    parser.add_argument(
        "--batch",
        action="store_true",
        help="analyse each input file as an independent corpus (batch pipeline; "
        "inter-query analysis no longer crosses file boundaries, so detections "
        "can differ from the default joined analysis)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --batch mode (parallelism only; never "
        "changes results)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print per-stage pipeline timings and cache hit rates"
    )
    parser.add_argument(
        "--memo-cache",
        default=None,
        metavar="PATH",
        help="persist the detection memo to a SQLite file at PATH so warm "
        "state (memoized detections, annotation templates, whole-corpus "
        "replays) survives process restarts",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record hierarchical tracing spans (run → stage → per-rule) and "
        "write them to FILE as JSONL",
    )
    return parser


def _start_trace(path: "str | None") -> None:
    """Arm the process tracer for one CLI run (reset + enable)."""
    if path:
        get_tracer().enable(reset=True)


def _finish_trace(path: "str | None") -> None:
    """Export and disarm the tracer; a one-line note goes to stderr."""
    if not path:
        return
    tracer = get_tracer()
    tracer.disable()
    count = tracer.export(path)
    print(f"sqlcheck: trace with {count} span(s) written to {path}", file=sys.stderr)


def _cannot_read(path: str, error: "OSError | UnicodeDecodeError") -> str:
    """The exit-2 message for an input file that cannot be read."""
    reason = error.strerror if isinstance(error, OSError) and error.strerror else error
    return f"error: cannot read {path}: {reason}"


def _read_sql_files(paths: Sequence[str]) -> "tuple[list[tuple[str, str]], str | None]":
    """``(path, text)`` for each input file in order, or, at the first file
    that cannot be read, no texts and the message naming it."""
    contents: list[tuple[str, str]] = []
    for path in paths:
        try:
            # utf-8-sig: a byte-order mark is not part of the first statement.
            with open(path, "r", encoding="utf-8-sig") as handle:
                contents.append((path, handle.read()))
        except (OSError, UnicodeDecodeError) as error:
            return [], _cannot_read(path, error)
    return contents, None


def build_selftest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlcheck selftest",
        description="Run the conformance testkit (rule examples, golden corpus, "
        "differential oracles) against a fuzzed or user-supplied corpus.",
    )
    parser.add_argument(
        "files", nargs="*",
        help="SQL corpora for the differential oracle (seeded fuzzed corpus when empty)",
    )
    parser.add_argument("--seed", type=int, default=2020, help="fuzzing seed (reproducible)")
    parser.add_argument(
        "--statements", type=int, default=250,
        help="approximate fuzzed corpus size when no files are given",
    )
    parser.add_argument("--workers", type=int, default=2, help="workers for the batch oracle")
    parser.add_argument(
        "--update-golden", action="store_true",
        help="regenerate tests/conformance/golden/*.jsonl from the current rules",
    )
    parser.add_argument("--golden-dir", default=None, help="override the golden corpus directory")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    return parser


def build_scan_parser() -> argparse.ArgumentParser:
    from ..ingest import LOG_FORMATS
    from ..ranking.cost_model import COST_MODEL_NAMES, DEFAULT_COST_MODEL

    parser = argparse.ArgumentParser(
        prog="sqlcheck scan",
        description="Scan a live database and/or a query log: the schema and "
        "sampled rows populate the data context, and the log's real execution "
        "frequencies and durations weight the impact ranking through the "
        "chosen cost model.",
    )
    parser.add_argument(
        "--db",
        default=None,
        help="database to introspect: a sqlite:/// URL, a .db/.sqlite path "
        "(client/server engines are ingested via their query logs instead)",
    )
    parser.add_argument(
        "--log",
        action="append",
        default=[],
        metavar="FILE",
        help="query-log file (repeatable; entries from several logs merge)",
    )
    parser.add_argument(
        "--log-format",
        choices=("auto",) + LOG_FORMATS,
        default="auto",
        help="log dialect (default: auto-detect per file)",
    )
    parser.add_argument(
        "--pg-stat",
        nargs="?",
        const="pg_stat_statements",
        default=None,
        metavar="TABLE",
        help="read the workload from a pg_stat_statements snapshot stored as "
        "a table in --db (default table name: pg_stat_statements); merges "
        "with any --log workload",
    )
    parser.add_argument(
        "--cost-model",
        choices=COST_MODEL_NAMES,
        default=DEFAULT_COST_MODEL,
        help="workload cost model weighting the ranking: frequency "
        "(1+log2(f), the default), duration (total observed time), or "
        "hybrid (a 50/50 blend)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="analyse at most N rows per table (N >= 1); larger tables are "
        "sampled inside the database (a seeded pick of N rowids, the same on "
        "every scan) instead of fetched whole (default: no limit)",
    )
    parser.add_argument(
        "--format",
        choices=ALL_FORMATS,
        default="text",
        help="output format (as for plain sqlcheck)",
    )
    parser.add_argument("--config", choices=("C1", "C2"), default="C1", help="ranking configuration")
    parser.add_argument("--dialect", default=None, help="SQL dialect hint (defaults to the connector's)")
    parser.add_argument("--top", type=int, default=0, help="only print the N highest-impact detections")
    parser.add_argument("--no-inter-query", action="store_true", help="disable inter-query analysis")
    parser.add_argument("--no-fixes", action="store_true", help="do not generate fixes")
    parser.add_argument("--min-confidence", type=float, default=0.5, help="confidence threshold")
    parser.add_argument("--source", default=None, help="provenance label for the report")
    parser.add_argument(
        "--max-errors",
        type=int,
        default=None,
        metavar="N",
        help="tolerate at most N malformed log lines before aborting the "
        "scan (default: skip-and-count without limit)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail fast on the first malformed log line or mid-scan source "
        "loss instead of degrading the scan",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print per-stage pipeline timings and cache hit rates"
    )
    parser.add_argument(
        "--memo-cache",
        default=None,
        metavar="PATH",
        help="persist the detection memo to a SQLite file at PATH (warm "
        "state survives process restarts; see plain sqlcheck --memo-cache)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record hierarchical tracing spans for this scan and write them "
        "to FILE as JSONL",
    )
    return parser


def run_scan_command(argv: Sequence[str]) -> tuple[int, str]:
    """``sqlcheck scan``: live-source ingestion, return (code, output)."""
    args = build_scan_parser().parse_args(list(argv))
    _start_trace(args.trace)
    try:
        return _run_scan(args)
    finally:
        _finish_trace(args.trace)


def _run_scan(args: argparse.Namespace) -> tuple[int, str]:
    from ..ingest import (
        ConnectorError,
        LiveScanner,
        WorkloadLog,
        connect,
        read_pg_stat_table,
        read_workload_log,
    )

    from ..errors import ErrorBudgetExceeded

    if not args.db and not args.log:
        return 2, "error: sqlcheck scan needs --db, --log, or both"
    if args.pg_stat and not args.db:
        return 2, "error: --pg-stat reads a table from --db; pass --db too"
    if args.top < 0:
        return 2, "error: --top must be a non-negative number of findings"
    if args.sample is not None and args.sample < 1:
        # Zero is rejected, not coerced: the historical `sample or None`
        # fallback silently turned "cap at zero rows" into "no limit".
        return 2, "error: --sample must be a positive row count"
    if args.max_errors is not None and args.max_errors < 0:
        return 2, "error: --max-errors must be a non-negative error budget"
    log_format = None if args.log_format == "auto" else args.log_format
    connector = None
    try:
        connector = connect(args.db) if args.db else None
        workload: "WorkloadLog | None" = None
        for path in args.log:
            try:
                piece = read_workload_log(
                    path, log_format, max_errors=args.max_errors, strict=args.strict
                )
            except OSError as error:
                return 2, _cannot_read(path, error)
            workload = piece if workload is None else workload.merge(piece)
        if args.pg_stat:
            piece = read_pg_stat_table(connector, args.pg_stat)
            workload = piece if workload is None else workload.merge(piece)
        dialect = args.dialect or (connector.dialect if connector is not None else None)
        options = SQLCheckOptions(
            detector=DetectorConfig(
                enable_inter_query=not args.no_inter_query,
                confidence_threshold=args.min_confidence,
                dialect=dialect,
                persistent_memo_path=args.memo_cache,
            ),
            ranking=C1 if args.config == "C1" else C2,
            suggest_fixes=not args.no_fixes,
            cost_model=args.cost_model,
        )
        scanner = LiveScanner(options=options)
        source = args.source or (
            args.db if args.db else (args.log[0] if len(args.log) == 1 else None)
        )
        report = scanner.scan(
            connector, workload, source=source, sample_limit=args.sample,
            # A pg_stat snapshot table is telemetry, not application schema.
            exclude_tables=(args.pg_stat,) if args.pg_stat else (),
            strict=args.strict,
        )
    except ErrorBudgetExceeded as error:
        return 2, f"error: {error} (re-run without --max-errors to skip-and-count)"
    except (ConnectorError, ValueError, OSError) as error:
        # ValueError covers LogFormatError and the raw re-raise of the
        # first malformed line under --strict: exit 2, not a traceback.
        return 2, f"error: {error}"
    finally:
        if connector is not None:
            connector.close()
    output = render(
        report, fmt=args.format, top=args.top, stats=args.stats,
        registry=scanner.toolchain.registry, source=source,
        # Ingestion provenance rides into every format — markdown/html/sarif
        # surface degraded ingestion exactly like the JSON workload block.
        workload=workload.provenance() if workload is not None else None,
    )
    return (1 if len(report) else 0), output


def build_docs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlcheck docs",
        description="Generate (or verify) the per-rule reference documentation "
        "from each registered rule's RuleDoc metadata and examples().",
    )
    parser.add_argument(
        "--out", default="docs/rules",
        help="directory the reference pages are written to (default: docs/rules)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify the on-disk reference is in sync instead of writing; "
        "exit 1 listing every missing, stale, or orphaned page",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    return parser


def run_docs_command(argv: Sequence[str]) -> tuple[int, str]:
    """``sqlcheck docs``: generate or verify the rule reference."""
    args = build_docs_parser().parse_args(list(argv))
    registry = default_registry()
    if args.check:
        problems = check_reference(args.out, registry)
        if args.format == "json":
            output = json.dumps({"ok": not problems, "problems": problems}, indent=2)
        elif problems:
            output = "\n".join(
                [f"sqlcheck docs --check: {len(problems)} problem(s) in {args.out}"] + problems
            )
        else:
            output = f"sqlcheck docs --check: {args.out} is in sync ({len(registry)} rules)"
        return (1 if problems else 0), output
    written = write_reference(args.out, registry)
    if args.format == "json":
        output = json.dumps({"written": [str(path) for path in written]}, indent=2)
    else:
        output = (
            f"sqlcheck docs: wrote {len(written)} page(s) to {args.out} "
            f"({len(registry)} rules + index)"
        )
    return 0, output


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlcheck profile",
        description="Run one instrumented pipeline pass over a corpus and "
        "report the hot-path story: stage breakdown, cache efficiency, the "
        "trigger pre-filter's skip rate, and the top-k slowest rules.",
    )
    parser.add_argument(
        "files", nargs="*",
        help="SQL files to profile (a seeded fuzzed corpus when empty)",
    )
    parser.add_argument(
        "-q", "--query", action="append", default=[], help="profile a literal SQL statement"
    )
    parser.add_argument("--top", type=int, default=10, help="slowest rules shown (default 10)")
    parser.add_argument("--seed", type=int, default=2020, help="fuzzing seed for the fallback corpus")
    parser.add_argument(
        "--statements", type=int, default=250,
        help="approximate fuzzed corpus size when no input is given",
    )
    parser.add_argument("--dialect", default=None, help="SQL dialect hint")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also record tracing spans for the profiled run (JSONL)",
    )
    return parser


def run_profile_command(argv: Sequence[str]) -> tuple[int, str]:
    """``sqlcheck profile``: one instrumented run, summarised."""
    # Deferred import: repro.obs.profile depends on the toolchain, and the
    # obs package itself must stay dependency-free.
    from ..obs.profile import profile_corpus, render_profile
    from ..testkit.generator import CorpusGenerator

    args = build_profile_parser().parse_args(list(argv))
    if args.top < 0:
        return 2, "error: --top must be a non-negative number of rules"
    file_contents, failure = _read_sql_files(args.files)
    if failure:
        return 2, failure
    sql_parts = [text for _, text in file_contents]
    sql_parts.extend(args.query)
    if sql_parts:
        corpus: "Sequence[str] | str" = sql_parts[0] if len(sql_parts) == 1 else sql_parts
        source = args.files[0] if len(args.files) == 1 and not args.query else None
    else:
        corpus = CorpusGenerator(args.seed).corpus_sql(args.statements)
        source = f"fuzzed(seed={args.seed})"
    options = SQLCheckOptions(detector=DetectorConfig(dialect=args.dialect))
    _start_trace(args.trace)
    try:
        payload = profile_corpus(corpus, options=options, source=source, top=args.top)
    finally:
        _finish_trace(args.trace)
    if args.format == "json":
        return 0, json.dumps(payload, indent=2, default=str)
    return 0, render_profile(payload)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlcheck serve",
        description="Run the long-lived REST service: HTTP/1.1 keep-alive, a "
        "shared per-process toolchain pool, /api/health and /metrics, and "
        "graceful drain-then-close shutdown on Ctrl-C.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free port (default: 8080)",
    )
    parser.add_argument(
        "--memo-cache",
        default=None,
        metavar="PATH",
        help="persist every pooled toolchain's detection memo to a SQLite "
        "file at PATH, so a restarted server answers its first requests warm",
    )
    return parser


def run_serve_command(argv: Sequence[str]) -> tuple[int, str]:
    """``sqlcheck serve``: run the REST service in the foreground."""
    # Deferred import: the CLI's offline paths must not pay for http.server.
    from .rest import create_server

    args = build_serve_parser().parse_args(list(argv))
    if not 0 <= args.port <= 65535:
        return 2, "error: --port must be in 0..65535"
    try:
        server = create_server(args.host, args.port, memo_path=args.memo_cache)
    except OSError as error:
        return 2, f"error: cannot bind {args.host}:{args.port}: {error}"
    server.start()
    print(f"sqlcheck: serving on {server.url} (Ctrl-C to stop)", file=sys.stderr)
    try:
        server.wait()
    except KeyboardInterrupt:
        print("sqlcheck: draining in-flight requests ...", file=sys.stderr)
    finally:
        server.stop()
    return 0, "sqlcheck: server stopped"


def run_selftest_command(argv: Sequence[str]) -> tuple[int, str]:
    """``sqlcheck selftest``: run the conformance suite, return (code, output)."""
    from ..sqlparser import split
    from ..testkit.selftest import run_selftest

    args = build_selftest_parser().parse_args(list(argv))
    corpus = None
    if args.files:
        file_contents, failure = _read_sql_files(args.files)
        if failure:
            return 2, failure
        corpus = [statement for _, text in file_contents for statement in split(text)]
    result = run_selftest(
        corpus,
        seed=args.seed,
        statements=args.statements,
        workers=args.workers,
        update_golden=args.update_golden,
        golden_dir=args.golden_dir,
    )
    if args.format == "json":
        output = json.dumps(result.to_dict(), indent=2, default=str)
    else:
        output = "\n".join(result.summary_lines())
    return (0 if result.ok else 1), output


def run(argv: Sequence[str] | None = None, *, stdin: str | None = None) -> tuple[int, str]:
    """Run the CLI and return (exit code, rendered output).

    ``stdin`` can be supplied directly for tests; otherwise the process stdin
    is read when no files or --query arguments are given.
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["selftest"]:
        return run_selftest_command(argv[1:])
    if argv[:1] == ["docs"]:
        return run_docs_command(argv[1:])
    if argv[:1] == ["scan"]:
        return run_scan_command(argv[1:])
    if argv[:1] == ["profile"]:
        return run_profile_command(argv[1:])
    if argv[:1] == ["serve"]:
        return run_serve_command(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    _start_trace(args.trace)
    try:
        return _run_main(args, stdin)
    finally:
        _finish_trace(args.trace)


def _run_main(args: argparse.Namespace, stdin: "str | None") -> tuple[int, str]:
    file_contents, failure = _read_sql_files(args.files)
    if failure:
        return 2, failure
    sql_parts: list[str] = [content for _, content in file_contents]
    sql_parts.extend(args.query)
    if not sql_parts:
        text = stdin if stdin is not None else sys.stdin.read()
        if text.strip():
            sql_parts.append(text)
    if not sql_parts:
        return 2, "error: no SQL to analyse (pass files, --query, or pipe SQL on stdin)"
    if args.top < 0:
        return 2, "error: --top must be a non-negative number of findings"

    ranking: RankingConfig = C1 if args.config == "C1" else C2
    options = SQLCheckOptions(
        detector=DetectorConfig(
            enable_inter_query=not args.no_inter_query,
            confidence_threshold=args.min_confidence,
            dialect=args.dialect,
            workers=args.workers,
            persistent_memo_path=args.memo_cache,
        ),
        ranking=ranking,
        suggest_fixes=not args.no_fixes,
    )
    toolchain = SQLCheck(options)
    if args.format == "sarif" and args.top:
        print(
            "sqlcheck: --top does not apply to sarif output (consumers filter on "
            "level/rank); emitting all findings",
            file=sys.stderr,
        )
    if args.batch and file_contents and not args.query:
        # Batch pipeline: each file becomes its own independent corpus —
        # inter-query context no longer crosses file boundaries (check_many
        # keeps a path given twice as a distinct, suffixed corpus).
        batch = toolchain.check_many(file_contents, workers=args.workers)
        output = render_batch(
            batch, fmt=args.format, top=args.top, stats=args.stats,
            registry=toolchain.registry,
        )
        return (1 if len(batch) else 0), output
    if args.batch:
        reason = (
            "--query cannot be combined with batched files"
            if file_contents
            else "only file inputs can be batched"
        )
        print(
            f"sqlcheck: --batch ignored ({reason}); running the default joined analysis",
            file=sys.stderr,
        )
    if args.workers > 1:
        print(
            "sqlcheck: --workers only applies to --batch mode; running serially",
            file=sys.stderr,
        )
    # Label the run with the file name only when it is unambiguous (one file,
    # no literal --query statements mixed in).
    source = args.files[0] if len(file_contents) == 1 and not args.query else None
    # A single input is analysed as one script, so statement offsets/lines
    # anchor into the original text.  Several inputs (files / --query
    # values) are passed as a list: each part parses independently — a part
    # without a trailing ";" can no longer merge into the next — and their
    # positions are marked unknown rather than computed against a joined
    # text no consumer has (use --batch for per-file reports and anchors).
    queries = sql_parts[0] if len(sql_parts) == 1 else sql_parts
    report = toolchain.check(queries, source=source)
    output = render(
        report, fmt=args.format, top=args.top, stats=args.stats,
        registry=toolchain.registry, source=source,
    )
    return (1 if len(report) else 0), output


def render(
    report: SQLCheckReport,
    *,
    fmt: str = "text",
    top: int = 0,
    stats: bool = False,
    registry: "RuleRegistry | None" = None,
    source: "str | None" = None,
    workload: "dict | None" = None,
) -> str:
    """Render a report as text, JSON, or a rich format (markdown/html/sarif).

    ``top`` truncates the text/json/markdown/html findings list; SARIF
    always carries the full result set (consumers filter on level/rank
    themselves).  ``workload`` attaches ingestion provenance (scan runs) to
    the JSON payload and every rich format.
    """
    if fmt in RICH_FORMATS:
        return render_report(
            report, fmt, registry=registry, source=source, include_stats=stats,
            top=top, workload=workload,
        )
    if fmt == "json":
        payload = report.to_dict()
        if top:
            payload["detections"] = payload["detections"][:top]
        if workload is not None:
            payload["workload"] = workload
        if not stats:
            payload.pop("stats", None)
        else:
            _attach_metrics(payload)
        return json.dumps(payload, indent=2, default=str)
    lines: list[str] = []
    entries = report.detections[:top] if top else report.detections
    degraded = (
        f" [degraded: {len(report.errors)} pipeline error(s) quarantined]"
        if getattr(report, "errors", None)
        else ""
    )
    lines.append(
        f"sqlcheck: {len(report.detections)} anti-pattern(s) in "
        f"{report.queries_analyzed} statement(s){degraded}"
    )
    for entry in entries:
        detection = entry.detection
        lines.append("")
        lines.append(
            f"[{entry.rank}] {detection.display_name}  (score {entry.score:.3f}, "
            f"confidence {detection.confidence:.2f}, {detection.detection_mode})"
        )
        if detection.query:
            lines.append(f"    query : {detection.query.strip()[:120]}")
        if detection.table:
            target = f"{detection.table}.{detection.column}" if detection.column else detection.table
            lines.append(f"    target: {target}")
        lines.append(f"    why   : {detection.message}")
        fix = report.fix_for(entry)
        if fix is not None:
            lines.append(f"    fix   : {fix.explanation}")
            for statement in fix.statements:
                lines.append(f"            {statement.splitlines()[0]}" + (" …" if "\n" in statement else ""))
            if fix.rewritten_query:
                lines.append(f"            rewrite -> {fix.rewritten_query}")
    if getattr(report, "errors", None):
        lines.append("")
        lines.append("pipeline errors (quarantined; other results are complete):")
        for error in report.errors:
            lines.append(f"    {error}")
    if stats and report.stats is not None:
        lines.extend(_stats_lines(report.stats))
    return "\n".join(lines)


def _attach_metrics(payload: dict) -> None:
    """Fold a snapshot of the process metrics registry into a stats block.

    Stats payloads stay byte-stable with metrics disabled (conformance
    comparisons rely on it), so the block only appears when the registry is
    live and the payload actually carries stats.
    """
    metrics = get_metrics()
    if metrics.enabled and isinstance(payload.get("stats"), dict):
        payload["stats"]["metrics"] = metrics.snapshot()


def _stats_lines(stats) -> list[str]:
    """Human-readable pipeline stats block."""
    payload = stats.to_dict()
    stages = payload["stages"]
    lines = ["", "pipeline stats:"]
    lines.append(
        "    stages: "
        + "  ".join(f"{name} {seconds * 1000:.1f}ms" for name, seconds in stages.items())
    )
    lines.append(
        f"    throughput: {payload['statements']} statement(s) in "
        f"{payload['total_seconds']:.3f}s ({payload['statements_per_second']:.0f} stmt/s, "
        f"{payload['parallel_mode']}, {payload['workers']} worker(s))"
    )
    lines.append(
        f"    caches: annotation {payload['annotation_cache']['hits']}/"
        f"{payload['annotation_cache']['hits'] + payload['annotation_cache']['misses']} hits, "
        f"detection memo {payload['detection_memo']['hits']}/"
        f"{payload['detection_memo']['hits'] + payload['detection_memo']['misses']} hits"
    )
    return lines


def render_batch(
    batch,
    *,
    fmt: str = "text",
    top: int = 0,
    stats: bool = False,
    registry: "RuleRegistry | None" = None,
) -> str:
    """Render a :class:`BatchReport` (one section per corpus)."""
    if fmt in RICH_FORMATS:
        return render_batch_report(
            batch, fmt, registry=registry, include_stats=stats, top=top
        )
    if fmt == "json":
        payload = batch.to_dict()
        for corpus_payload in payload["corpora"].values():
            if top:
                corpus_payload["detections"] = corpus_payload["detections"][:top]
            if not stats:
                corpus_payload.pop("stats", None)
        if not stats:
            payload.pop("stats", None)
        else:
            _attach_metrics(payload)
        return json.dumps(payload, indent=2, default=str)
    sections: list[str] = [
        f"sqlcheck: {len(batch)} anti-pattern(s) across {len(batch.reports)} corpora"
    ]
    for source, report in batch.reports.items():
        sections.append("")
        sections.append(f"--- {source} ---")
        sections.append(render(report, fmt="text", top=top))
    if stats:
        sections.extend(_stats_lines(batch.stats))
    return "\n".join(sections)


def main(argv: Sequence[str] | None = None) -> int:
    """Console-script entry point."""
    code, output = run(argv)
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
