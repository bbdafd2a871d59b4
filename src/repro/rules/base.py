"""Rule base classes.

The paper represents each rule as "a general-purpose function that leverages
the overall context of the application" (§4).  Here that function is the
``check`` method; a rule also declares which anti-pattern it detects, which
statement types it applies to, and whether it needs the inter-query context
(so the detector can run an intra-query-only configuration for the Table 3
ablation).
"""
from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..context.application_context import ApplicationContext
from ..model.antipatterns import AntiPattern
from ..model.detection import Detection, Severity
from ..obs import get_metrics, get_tracer, now
from ..profiler.profiler import TableProfile
from ..sqlparser import QueryAnnotation
from .thresholds import Thresholds


#: RuleExample kinds.
EXAMPLE_POSITIVE = "positive"
EXAMPLE_CONTROL = "control"


@dataclass(frozen=True)
class RuleDoc:
    """Structured documentation for one rule.

    The paper's central claim is that sqlcheck does not merely *flag*
    anti-patterns but *explains* them — every finding carries why it hurts
    and how to fix it (§1, §6).  ``RuleDoc`` is that knowledge as data:
    the reporting subsystem (:mod:`repro.reporting`) renders it into the
    Markdown/HTML/SARIF reports and into the generated rule reference
    (``sqlcheck docs``), and the conformance suite fails any registered
    rule whose documentation is missing or incomplete.

    Attributes:
        title: short human-readable headline (e.g. "Wildcard projection").
        problem: one-paragraph statement of what the rule looks for.
        why_it_hurts: the concrete consequences (performance,
            maintainability, integrity, accuracy) of leaving it in place.
        fix: actionable guidance for removing the anti-pattern.
        paper_section: where the source paper discusses it (e.g.
            "Table 1; §4.3").
        references: optional further-reading URLs or citations.
    """

    title: str
    problem: str
    why_it_hurts: str
    fix: str
    paper_section: str = ""
    references: "tuple[str, ...]" = ()

    #: fields that must be non-empty for the documentation to count as
    #: complete (checked by ``tests/conformance/test_rule_docs.py``).
    REQUIRED_FIELDS = ("title", "problem", "why_it_hurts", "fix", "paper_section")

    def missing_fields(self) -> "tuple[str, ...]":
        """Names of required fields that are empty or whitespace-only."""
        return tuple(
            name for name in self.REQUIRED_FIELDS if not str(getattr(self, name)).strip()
        )

    @property
    def is_complete(self) -> bool:
        return not self.missing_fields()

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "problem": self.problem,
            "why_it_hurts": self.why_it_hurts,
            "fix": self.fix,
            "paper_section": self.paper_section,
            "references": list(self.references),
        }

    @classmethod
    def from_catalog(
        cls, anti_pattern: AntiPattern, *, why_it_hurts: "str | None" = None
    ) -> "RuleDoc":
        """Synthesise a doc from the Table 1 catalog entry.

        The fallback for rules that declare no :class:`RuleDoc` (third-party
        rules keep working in every report format); first-party rules are
        required to declare theirs explicitly by the conformance suite.
        """
        from ..model.antipatterns import catalog_entry

        entry = catalog_entry(anti_pattern)
        return cls(
            title=anti_pattern.display_name,
            problem=entry.description,
            why_it_hurts=(why_it_hurts or entry.description).strip(),
            fix="See the anti-pattern catalog for remediation guidance.",
            paper_section="Table 1",
        )

    def help_markdown(self) -> str:
        """The doc as one Markdown block (used for SARIF ``help`` text)."""
        parts = [
            f"## {self.title}",
            self.problem,
            f"**Why it hurts.** {self.why_it_hurts}",
            f"**Fix.** {self.fix}",
        ]
        if self.paper_section:
            parts.append(f"*Source: {self.paper_section}.*")
        return "\n\n".join(parts)


@dataclass(frozen=True)
class RuleExample:
    """A conformance scenario for one rule.

    ``statements`` is the SQL workload to analyse; ``rows`` optionally loads
    data (table name → row dicts) into an in-memory SQLite database holding
    the example's CREATE TABLE and ALTER TABLE statements, reached through
    its connector, so data rules can profile it.  A ``positive`` example must make its rule fire; a
    ``control`` is a clean counterpart the rule must stay silent on (other
    rules may still fire — controls are per-rule, not globally clean).
    """

    kind: str
    statements: "tuple[str, ...]"
    rows: "tuple[tuple[str, tuple[Mapping, ...]], ...]" = ()
    note: str = ""

    @property
    def is_positive(self) -> bool:
        return self.kind == EXAMPLE_POSITIVE

    @property
    def needs_database(self) -> bool:
        return bool(self.rows)

    @property
    def sql(self) -> str:
        return ";\n".join(self.statements)


def _freeze_rows(
    rows: "Mapping[str, Sequence[Mapping]] | None",
) -> "tuple[tuple[str, tuple[Mapping, ...]], ...]":
    if not rows:
        return ()
    return tuple((table, tuple(table_rows)) for table, table_rows in rows.items())


def planted(
    *statements: str,
    rows: "Mapping[str, Sequence[Mapping]] | None" = None,
    note: str = "",
) -> RuleExample:
    """A planted-positive example: the rule must detect it."""
    return RuleExample(EXAMPLE_POSITIVE, tuple(statements), _freeze_rows(rows), note)


def control(
    *statements: str,
    rows: "Mapping[str, Sequence[Mapping]] | None" = None,
    note: str = "",
) -> RuleExample:
    """A clean-control example: the rule must stay silent."""
    return RuleExample(EXAMPLE_CONTROL, tuple(statements), _freeze_rows(rows), note)


@dataclass
class RuleContext:
    """What a rule sees when it runs.

    ``application`` is the full application context; ``use_inter_query`` and
    ``use_data`` tell the rule which parts it may consult.  When inter-query
    analysis is disabled the detector still passes the application context,
    but contextual refinements must be skipped — rules honour the flags via
    the convenience properties below.

    One ``RuleContext`` lives for exactly one detection run, during which
    the workload and schema are fixed — so workload-level facts that many
    statements re-derive (the column-usage aggregate, the column → owning
    tables map behind bare-column resolution) are computed once here.
    They are not cached on the application context: its schema changes
    between runs — ``ContextBuilder.extend`` applies new DDL to it in
    place, and ``refresh_data`` replaces it after the live database
    changes.
    """

    application: ApplicationContext
    thresholds: Thresholds = field(default_factory=Thresholds)
    use_inter_query: bool = True
    use_data: bool = True
    _column_usage: "dict | None" = field(default=None, repr=False, compare=False)
    _column_owners: "dict[str, list] | None" = field(default=None, repr=False, compare=False)

    @property
    def schema_available(self) -> bool:
        return self.use_inter_query and self.application.schema.table_count > 0

    @property
    def data_available(self) -> bool:
        return self.use_data and self.application.has_data

    @property
    def queries(self) -> list[QueryAnnotation]:
        return self.application.queries if self.use_inter_query else []

    # -- per-run workload facts -------------------------------------------
    def _owners(self) -> "dict[str, list]":
        if self._column_owners is None:
            self._column_owners = self.application.schema.column_owners()
        return self._column_owners

    def column_usage(self) -> dict:
        """The workload's column-usage aggregate, computed once per run.

        ``ApplicationContext.column_usage`` walks every query; recomputing
        it per CREATE INDEX statement made corpus-scale detection quadratic
        in the workload size.
        """
        if self._column_usage is None:
            self._column_usage = self.application.column_usage(self._owners())
        return self._column_usage

    def resolve_column(self, column: str, hint_tables: "list[str] | None" = None):
        """``Schema.resolve_column`` served from the per-run owner map:
        tables named in ``hint_tables`` win, otherwise the first candidate
        in schema order does (``check_prefilter_soundness`` compares them).
        """
        candidates = self._owners().get(column.lower())
        if not candidates:
            return None
        if hint_tables:
            hints = {h.lower() for h in hint_tables}
            for table, col in candidates:
                if table.name.lower() in hints:
                    return table, col
        return candidates[0]


class Rule(abc.ABC):
    """Common interface for query rules and data rules."""

    #: the anti-pattern this rule detects
    anti_pattern: AntiPattern
    #: short machine name (defaults to the class name)
    name: str = ""
    #: default severity attached to detections
    severity: Severity = Severity.MEDIUM
    #: structured documentation rendered into reports and the rule
    #: reference; every rule in the default registry declares one.
    doc: "RuleDoc | None" = None

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    def documentation(self) -> RuleDoc:
        """This rule's :class:`RuleDoc`, synthesised from the anti-pattern
        catalog (:meth:`RuleDoc.from_catalog`) when the rule does not
        declare one."""
        if self.doc is not None:
            return self.doc
        return RuleDoc.from_catalog(self.anti_pattern, why_it_hurts=type(self).__doc__)

    def examples(self) -> "tuple[RuleExample, ...]":
        """Conformance scenarios for this rule.

        Every registered rule ships at least one planted positive and one
        clean control; the conformance suite (``tests/conformance``) runs
        them through the full detector and locks the results into the golden
        corpus.
        """
        return ()

    def _timed_check(
        self, check, subject, context: RuleContext, **attributes: Any
    ) -> list[Detection]:
        """Run ``check(subject, context)`` under the rule timing hook.

        The detector calls every rule through this hook (via
        ``observed_check``/``observed_check_table``) so each invocation
        feeds the per-rule latency histogram and fire counter, and — when
        tracing — a ``rule:<name>`` span carrying ``attributes``.
        Byte-transparent by construction: the return value and any
        exception are ``check``'s, untouched; with metrics and tracing both
        off it reads no clock.
        """
        metrics = get_metrics()
        tracer = get_tracer()
        if not metrics.enabled and not tracer.enabled:
            return check(subject, context)
        t0 = now()
        found = check(subject, context)
        t1 = now()
        if metrics.enabled:
            metrics.rule_check_seconds.observe_single(t1 - t0, self.name)
            if found:
                metrics.rule_fires.inc_single(self.name, len(found))
        if tracer.enabled:
            tracer.record(f"rule:{self.name}", t0, t1, fired=len(found), **attributes)
        return found

    def make_detection(
        self,
        *,
        message: str,
        query: QueryAnnotation | None = None,
        table: str | None = None,
        column: str | None = None,
        confidence: float = 1.0,
        detection_mode: str = "intra_query",
        metadata: dict | None = None,
    ) -> Detection:
        """Build a :class:`Detection` pre-filled with this rule's identity."""
        statement = query.statement if query is not None else None
        return Detection(
            anti_pattern=self.anti_pattern,
            message=message,
            query=query.raw if query is not None else "",
            query_index=statement.index if statement is not None else None,
            statement_offset=statement.offset if statement is not None else None,
            statement_line=statement.line if statement is not None else None,
            statement_length=statement.length if statement is not None else None,
            statement_end_line=statement.end_line if statement is not None else None,
            statement_text_exact=statement.span_matches_raw if statement is not None else None,
            source=statement.source if statement is not None else None,
            table=table,
            column=column,
            rule=self.name,
            detection_mode=detection_mode,
            confidence=max(0.0, min(1.0, confidence)),
            severity=self.severity,
            metadata=metadata or {},
        )


class QueryRule(Rule):
    """A rule applied to one annotated query (Algorithm 2)."""

    #: statement types the rule applies to; empty means every statement.
    statement_types: tuple[str, ...] = ()
    #: True when the rule needs the inter-query context to fire at all.
    requires_context: bool = False
    #: Trigger atoms for the detector's keyword pre-filter: upper-cased
    #: substrings of which at least one MUST occur in ``raw.upper()`` for
    #: ``check`` to possibly return a detection — under every threshold
    #: configuration the rule honours.  ``None`` (the default) declares no
    #: trigger knowledge; such rules always run.  A statement without any
    #: atom never reaches ``check``; ``check_prefilter_soundness`` runs
    #: every skipped rule and fails on any detection.
    trigger_tokens: "tuple[str, ...] | None" = None

    @abc.abstractmethod
    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        """Return the detections found in ``annotation`` (possibly empty)."""

    def observed_check(
        self, annotation: QueryAnnotation, context: RuleContext
    ) -> list[Detection]:
        """:meth:`check` under the rule timing hook (:meth:`Rule._timed_check`)."""
        return self._timed_check(self.check, annotation, context)


class DataRule(Rule):
    """A rule applied to one table profile (Algorithm 3)."""

    @abc.abstractmethod
    def check_table(self, profile: TableProfile, context: RuleContext) -> list[Detection]:
        """Return the detections found in the profiled table (possibly empty)."""

    def observed_check_table(
        self, profile: TableProfile, context: RuleContext
    ) -> list[Detection]:
        """:meth:`check_table` under the rule timing hook
        (:meth:`Rule._timed_check`); the span names the table."""
        return self._timed_check(self.check_table, profile, context, table=profile.name)
