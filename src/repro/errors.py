"""Fault-isolation primitives: the structured error taxonomy.

An always-on service ingesting real logs and live databases cannot have
all-or-nothing failure semantics: one statement that trips a rule, one
corrupt log line, or one transient connector hiccup must degrade *that
piece* of the run, not abort the scan.  This module is the shared
vocabulary of that degradation:

* :class:`PipelineError` — one quarantined failure, recorded with enough
  provenance (stage, error code, rule, statement fingerprint/offset,
  truncated message) to be diagnosable from any report surface;
* :class:`ErrorBudget` — the skip-and-count accounting used by the log
  readers: malformed input is recorded and skipped until a configurable
  budget (``--max-errors``) runs out, or re-raised immediately in strict
  mode (``--strict``);
* :class:`SourceUnavailableError` — the base class of "the live source is
  gone" failures (:class:`~repro.ingest.connectors.ConnectorError`
  subclasses it), letting the detector degrade data-rule verdicts to
  "skipped: source unavailable" without importing the ingest layer.

Every quarantine boundary in the codebase catches broadly *here and only
here* by design; ``tests/conformance/test_exception_hygiene.py`` keeps the
set of such sites explicit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .obs import get_metrics

# ----------------------------------------------------------------------
# machine-readable error codes (the taxonomy REST / SARIF consumers match)
# ----------------------------------------------------------------------
#: a statement failed to parse or annotate
CODE_PARSE_ERROR = "parse-error"
#: a query rule raised while checking a statement
CODE_RULE_ERROR = "rule-error"
#: a data rule raised while checking a table profile
CODE_DATA_RULE_ERROR = "data-rule-error"
#: a log line could not be interpreted in the declared format
CODE_LOG_MALFORMED = "log-malformed"
#: no log format could be inferred from the file name or content
CODE_LOG_UNDETECTABLE = "log-undetectable"
#: the malformed-line budget of a log read ran out
CODE_LOG_BUDGET_EXHAUSTED = "log-budget-exhausted"
#: the live source (database connector) could not be reached
CODE_SOURCE_UNAVAILABLE = "source-unavailable"
#: the per-scan circuit breaker is open: the source failed too many times
CODE_CIRCUIT_OPEN = "circuit-open"
#: ranking failed (the findings are still reported, unranked weights)
CODE_RANK_ERROR = "rank-error"
#: fix generation failed (findings are reported without fixes)
CODE_FIX_ERROR = "fix-error"
#: request-level validation failure (REST surface)
CODE_BAD_REQUEST = "bad-request"
#: unexpected internal failure
CODE_INTERNAL = "internal"

#: pipeline stages a :class:`PipelineError` can originate from.
STAGES = ("ingest", "parse", "detect", "data", "rank", "fix", "report")

#: recorded messages are truncated to this many characters — errors travel
#: into every report format and must stay bounded even when an exception
#: embeds a whole statement.
MAX_ERROR_MESSAGE = 300


def truncate_message(text: str, limit: int = MAX_ERROR_MESSAGE) -> str:
    """Single-line, bounded-length form of an exception message."""
    flat = " ".join(str(text).split())
    if len(flat) <= limit:
        return flat
    return flat[: limit - 1] + "…"


class SourceUnavailableError(Exception):
    """Base class of "the live source cannot be read" failures.

    :class:`~repro.ingest.connectors.ConnectorError` subclasses this, so
    the detector can recognise a data rule failing because its rows are
    gone — and degrade the verdict to "skipped: source unavailable" —
    without depending on the ingest package.
    """


class ErrorBudgetExceeded(Exception):
    """Raised when a log read's malformed-line budget runs out.

    Carries the budget that overflowed so callers can surface every error
    recorded up to the point of exhaustion.
    """

    def __init__(self, budget: "ErrorBudget", cause: "PipelineError | None" = None):
        self.budget = budget
        self.cause_error = cause
        limit = budget.max_errors
        super().__init__(
            f"malformed-input budget exhausted: {len(budget.errors)} error(s) "
            f"recorded, limit {limit} (--max-errors; use --strict for fail-fast)"
        )


@dataclass(frozen=True)
class PipelineError:
    """One quarantined failure, with provenance.

    Attributes:
        stage: pipeline stage the failure occurred in (:data:`STAGES`).
        code: machine-readable taxonomy code (``CODE_*`` above).
        message: truncated human-readable description.
        exception: the raising exception's class name (``""`` for errors
            synthesised without an exception, e.g. a skipped log line).
        rule: name of the rule that raised, for rule-stage errors.
        source: provenance label (file, database, corpus name).
        statement_fingerprint: hex fingerprint of the statement being
            analysed, when known.
        statement_index: workload index of that statement, when known.
        statement_offset: character offset of the statement in its source
            text, when known.
        line: 1-based input line the failure maps to (log readers).
        detail: free-form extra facts (e.g. the probed log formats).
    """

    stage: str
    code: str
    message: str
    exception: str = ""
    rule: str | None = None
    source: str | None = None
    statement_fingerprint: str | None = None
    statement_index: int | None = None
    statement_offset: int | None = None
    line: int | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Every quarantined failure — wherever in the pipeline it is
        # recorded — lands in the process-wide metrics registry, labelled
        # by stage and taxonomy code (no-op when metrics are disabled).
        metrics = get_metrics()
        if metrics.enabled:
            metrics.quarantined_errors.inc(stage=self.stage, code=self.code)

    @classmethod
    def from_exception(
        cls,
        stage: str,
        error: BaseException,
        *,
        code: str,
        rule: str | None = None,
        source: str | None = None,
        statement_fingerprint: str | None = None,
        statement_index: int | None = None,
        statement_offset: int | None = None,
        line: int | None = None,
        detail: dict | None = None,
    ) -> "PipelineError":
        """Build a record from a caught exception (message truncated)."""
        return cls(
            stage=stage,
            code=code,
            message=truncate_message(str(error) or type(error).__name__),
            exception=type(error).__name__,
            rule=rule,
            source=source,
            statement_fingerprint=statement_fingerprint,
            statement_index=statement_index,
            statement_offset=statement_offset,
            line=line,
            detail=detail or {},
        )

    def to_dict(self) -> dict:
        """JSON-friendly form (omits unset provenance fields)."""
        payload: dict = {
            "stage": self.stage,
            "code": self.code,
            "message": self.message,
        }
        if self.exception:
            payload["exception"] = self.exception
        for name in (
            "rule",
            "source",
            "statement_fingerprint",
            "statement_index",
            "statement_offset",
            "line",
        ):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    def __str__(self) -> str:
        where = f" rule={self.rule}" if self.rule else ""
        if self.line is not None:
            where += f" line={self.line}"
        return f"[{self.stage}/{self.code}]{where} {self.message}"


class ErrorBudget:
    """Skip-and-count accounting for degraded ingestion.

    ``max_errors=None`` records without limit (pure skip-and-count);
    ``max_errors=N`` raises :class:`ErrorBudgetExceeded` on error N+1;
    ``strict=True`` re-raises the first failure unchanged (fail-fast, the
    pre-fault-isolation behavior).
    """

    def __init__(self, max_errors: "int | None" = None, *, strict: bool = False):
        if max_errors is not None and max_errors < 0:
            raise ValueError("max_errors must be non-negative")
        self.max_errors = max_errors
        self.strict = strict
        self.errors: "list[PipelineError]" = []

    def __len__(self) -> int:
        return len(self.errors)

    def __iter__(self) -> "Iterator[PipelineError]":
        return iter(self.errors)

    @property
    def exhausted(self) -> bool:
        return self.max_errors is not None and len(self.errors) > self.max_errors

    def record(
        self,
        message: str,
        *,
        code: str = CODE_LOG_MALFORMED,
        stage: str = "ingest",
        error: "BaseException | None" = None,
        source: "str | None" = None,
        line: "int | None" = None,
        detail: "dict | None" = None,
    ) -> PipelineError:
        """Record one skipped failure; raise when the budget disallows it.

        In strict mode the original exception (or a synthesised
        ``ValueError``) propagates unchanged; over budget the whole batch
        of recorded errors travels in :class:`ErrorBudgetExceeded`.
        """
        if self.strict:
            if error is not None:
                raise error
            raise ValueError(message)
        recorded = PipelineError(
            stage=stage,
            code=code,
            message=truncate_message(message),
            exception=type(error).__name__ if error is not None else "",
            source=source,
            line=line,
            detail=detail or {},
        )
        self.errors.append(recorded)
        if stage == "ingest":
            metrics = get_metrics()
            if metrics.enabled:
                metrics.ingest_lines.inc(outcome="skipped")
        if self.exhausted:
            raise ErrorBudgetExceeded(self, recorded)
        return recorded
