"""Physical-design anti-pattern rules (Table 1, second block).

Rounding Errors, Enumerated Types, External Data Storage, Index Overuse,
Index Underuse.  (Clone Table lives in :mod:`repro.rules.logical_design`
next to the other schema-shape rules; its catalog category is still
physical design.)
"""
from __future__ import annotations

import re

from ..catalog.types import TypeFamily
from ..model.antipatterns import AntiPattern
from ..model.detection import Detection, Severity
from ..profiler.profiler import TableProfile
from ..sqlparser import QueryAnnotation
from .base import DataRule, QueryRule, RuleContext, RuleDoc, RuleExample, control, planted

_MONEY_COLUMN_RE = re.compile(
    r"(price|amount|total|cost|balance|salary|fee|rate|tax|revenue|payment)", re.IGNORECASE
)
_FILE_COLUMN_RE = re.compile(
    r"(path|file|filename|image|photo|picture|attachment|avatar|document|media_url)", re.IGNORECASE
)
_FLOAT_TYPE_RE = re.compile(r"\b(FLOAT|REAL|DOUBLE(\s+PRECISION)?)\b", re.IGNORECASE)
_ENUM_TYPE_RE = re.compile(r"\b(ENUM|SET)\s*\(", re.IGNORECASE)
_CHECK_IN_RE = re.compile(r"CHECK\s*\(\s*\w+\s+IN\s*\(", re.IGNORECASE)


class RoundingErrorsRule(QueryRule):
    """Fractional (often monetary) data stored in approximate binary types."""

    anti_pattern = AntiPattern.ROUNDING_ERRORS
    severity = Severity.MEDIUM
    statement_types = ("CREATE_TABLE", "ALTER_TABLE")
    doc = RuleDoc(
        title="Rounding errors",
        problem=(
            "Fractional — often monetary — data is declared with an "
            "approximate binary type (`FLOAT`, `REAL`, `DOUBLE`) instead of "
            "an exact decimal type."
        ),
        why_it_hurts=(
            "Binary floating point cannot represent most decimal fractions "
            "exactly (0.1 + 0.2 ≠ 0.3): sums drift, equality comparisons "
            "fail unpredictably, and accounting reconciliation breaks by "
            "a cent at a time."
        ),
        fix=(
            "Use `NUMERIC`/`DECIMAL(p, s)` for money and any value compared "
            "for equality; reserve floats for genuinely approximate "
            "measurements."
        ),
        paper_section="Table 1 (Physical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted("CREATE TABLE payments (payment_id INTEGER PRIMARY KEY, amount FLOAT)"),
            planted("CREATE TABLE payments (payment_id INTEGER PRIMARY KEY,"
                    " balance DOUBLE PRECISION)"),
            control("CREATE TABLE payments (payment_id INTEGER PRIMARY KEY,"
                    " amount NUMERIC(10,2))"),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        detections: list[Detection] = []
        table_name = annotation.tables[0].name if annotation.tables else None
        for match in re.finditer(
            r"\b(?P<column>[A-Za-z_]\w*)\s+(?P<type>FLOAT|REAL|DOUBLE(?:\s+PRECISION)?)\b",
            annotation.raw,
            re.IGNORECASE,
        ):
            column = match.group("column")
            if column.upper() in ("DOUBLE", "FLOAT", "REAL", "PRECISION", "DEFAULT"):
                continue
            confidence = 0.85 if _MONEY_COLUMN_RE.search(column) else 0.6
            detections.append(
                self.make_detection(
                    message=(
                        f"Column '{column}' uses the approximate type {match.group('type').upper()}; "
                        "aggregates over it accumulate rounding errors — use NUMERIC/DECIMAL."
                    ),
                    query=annotation,
                    table=table_name,
                    column=column,
                    confidence=confidence,
                    metadata={"declared_type": match.group("type").upper()},
                )
            )
        return detections


class EnumeratedTypesRule(QueryRule):
    """ENUM/SET column types or CHECK (col IN (...)) constraints (Example 4)."""

    anti_pattern = AntiPattern.ENUMERATED_TYPES
    severity = Severity.MEDIUM
    statement_types = ("CREATE_TABLE", "ALTER_TABLE")
    doc = RuleDoc(
        title="Enumerated types",
        problem=(
            "A column's domain is pinned in the schema with `ENUM`/`SET` or "
            "a `CHECK (col IN (...))` constraint."
        ),
        why_it_hurts=(
            "Extending the value set is a DDL migration (often a "
            "table-rewriting one) instead of an INSERT; the allowed values "
            "are invisible to the application without parsing the schema; "
            "and the values cannot carry attributes (labels, ordering, "
            "deprecation flags)."
        ),
        fix=(
            "Move the domain into a small reference table and constrain the "
            "column with a FOREIGN KEY to it — new values become rows, and "
            "metadata about each value has a home."
        ),
        paper_section="Table 1 (Physical Design APs); Example 4, §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted("CREATE TABLE members (member_id INTEGER PRIMARY KEY,"
                    " status ENUM('active', 'banned'))"),
            planted("CREATE TABLE members (member_id INTEGER PRIMARY KEY,"
                    " tier VARCHAR(8) CHECK (tier IN ('gold', 'silver')))"),
            control("CREATE TABLE members (member_id INTEGER PRIMARY KEY, tier VARCHAR(8))"),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        detections: list[Detection] = []
        table_name = annotation.tables[0].name if annotation.tables else None
        raw = annotation.raw
        for match in re.finditer(r"\b(?P<column>[A-Za-z_]\w*)\s+(ENUM|SET)\s*\(", raw, re.IGNORECASE):
            detections.append(
                self.make_detection(
                    message=(
                        f"Column '{match.group('column')}' uses the proprietary ENUM/SET type; "
                        "changing the permitted values requires an ALTER TABLE and hurts portability."
                    ),
                    query=annotation,
                    table=table_name,
                    column=match.group("column"),
                    confidence=0.95,
                    metadata={"mechanism": "enum_type"},
                )
            )
        for match in re.finditer(
            r"CHECK\s*\(\s*(?P<column>\w+)\s+IN\s*\(", raw, re.IGNORECASE
        ):
            detections.append(
                self.make_detection(
                    message=(
                        f"Column '{match.group('column')}' restricts its domain with a CHECK (… IN …) "
                        "constraint; renaming a permitted value requires dropping and re-adding the "
                        "constraint — use a reference table instead."
                    ),
                    query=annotation,
                    table=table_name,
                    column=match.group("column"),
                    confidence=0.9,
                    metadata={"mechanism": "check_in"},
                )
            )
        return detections


class EnumeratedTypesDataRule(DataRule):
    """Data rule: a textual column with very few distinct values behaves like
    an enumeration even without a declared constraint (Example 4 computes the
    distinct-to-tuples ratio against a threshold)."""

    anti_pattern = AntiPattern.ENUMERATED_TYPES
    severity = Severity.LOW
    doc = RuleDoc(
        title="Enumerated types (data analysis)",
        problem=(
            "Profiling shows a textual column with only a handful of "
            "distinct values across a large sample — it behaves like an "
            "enum even though the schema never declared one."
        ),
        why_it_hurts=(
            "The implicit domain is enforced nowhere: a typo'd status value "
            "slides straight in and every consumer hard-codes its own copy "
            "of the value list, which then drifts."
        ),
        fix=(
            "Promote the de-facto domain to a reference table (or at least "
            "a CHECK constraint) so the database rejects stray values."
        ),
        paper_section="Table 1 (Physical Design APs); §4.2",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted(
                "CREATE TABLE users (user_id INTEGER PRIMARY KEY, role VARCHAR(8))",
                rows={"users": [{"user_id": i, "role": f"R{1 + i % 3}"} for i in range(200)]},
                note="3 distinct values across 200 rows behave like an enum",
            ),
            control(
                "CREATE TABLE users (user_id INTEGER PRIMARY KEY, nickname VARCHAR(24))",
                rows={"users": [{"user_id": i, "nickname": f"user_{i:04d}"} for i in range(200)]},
            ),
        )

    def check_table(self, profile: TableProfile, context: RuleContext) -> list[Detection]:
        detections = []
        thresholds = context.thresholds
        for column_profile in profile.columns.values():
            if column_profile.non_null_count < thresholds.min_sample_size:
                continue
            if column_profile.inferred_family is not TypeFamily.TEXT:
                continue
            definition = (
                profile.definition.get_column(column_profile.name)
                if profile.definition is not None
                else None
            )
            if definition is not None and definition.is_primary_key:
                continue
            if definition is not None and definition.sql_type.is_enum:
                mechanism = "enum_type"
            elif definition is not None and definition.check_values:
                mechanism = "check_in"
            else:
                mechanism = "implicit"
            ratio_ok = column_profile.distinct_ratio <= thresholds.enum_distinct_ratio
            count_ok = 1 < column_profile.distinct_count <= thresholds.enum_max_distinct
            if mechanism == "implicit" and not (ratio_ok and count_ok):
                continue
            if mechanism != "implicit" or (ratio_ok and count_ok):
                detections.append(
                    self.make_detection(
                        message=(
                            f"Column '{profile.name}.{column_profile.name}' holds only "
                            f"{column_profile.distinct_count} distinct values across "
                            f"{column_profile.non_null_count} sampled rows; consider a reference "
                            "table with a foreign key instead of an enumerated domain."
                        ),
                        table=profile.name,
                        column=column_profile.name,
                        confidence=0.9 if mechanism != "implicit" else 0.6,
                        detection_mode="data",
                        metadata={
                            "mechanism": mechanism,
                            "distinct_count": column_profile.distinct_count,
                        },
                    )
                )
        return detections


class ExternalDataStorageRule(QueryRule):
    """File paths stored in the database instead of the file contents."""

    anti_pattern = AntiPattern.EXTERNAL_DATA_STORAGE
    severity = Severity.LOW
    statement_types = ("CREATE_TABLE", "INSERT", "UPDATE")
    doc = RuleDoc(
        title="External data storage",
        problem=(
            "The database stores *paths* to files (`/var/uploads/x.jpg`) "
            "instead of the file contents themselves."
        ),
        why_it_hurts=(
            "The files live outside every database guarantee: transactions "
            "cannot cover them, backups and replicas silently omit them, a "
            "DELETE leaves the file orphaned (or worse, the path dangling), "
            "and access control forks into two systems."
        ),
        fix=(
            "Either store the content in a BLOB column so transactions and "
            "backups cover it, or — at scale — keep an object store as the "
            "source of truth with integrity checks (content hash, presence "
            "audits) in place of foreign keys."
        ),
        paper_section="Table 1 (Physical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted("CREATE TABLE documents (doc_id INTEGER PRIMARY KEY,"
                    " file_path VARCHAR(255))"),
            planted("INSERT INTO documents (doc_id, file_path) VALUES"
                    " (1, '/var/uploads/report.pdf')"),
            control("CREATE TABLE documents (doc_id INTEGER PRIMARY KEY, title VARCHAR(255))"),
            control("INSERT INTO documents (doc_id, title) VALUES (1, 'Quarterly report')"),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        detections: list[Detection] = []
        table_name = annotation.tables[0].name if annotation.tables else None
        if annotation.statement_type == "CREATE_TABLE":
            for match in re.finditer(
                r"\b(?P<column>[A-Za-z_]\w*)\s+(VARCHAR|TEXT|CHAR)\b", annotation.raw, re.IGNORECASE
            ):
                column = match.group("column")
                if _FILE_COLUMN_RE.search(column):
                    confidence = self._refine(context, table_name, column, 0.6)
                    if confidence <= 0:
                        continue
                    detections.append(
                        self.make_detection(
                            message=(
                                f"Column '{column}' appears to store file paths; the files live "
                                "outside the DBMS so backups and transactions cannot protect them."
                            ),
                            query=annotation,
                            table=table_name,
                            column=column,
                            confidence=confidence,
                        )
                    )
        else:
            for literal in annotation.string_literals:
                from ..profiler.inference import looks_like_file_path

                if looks_like_file_path(literal):
                    detections.append(
                        self.make_detection(
                            message=(
                                f"Statement stores the file path {literal!r} in the database "
                                "instead of the file content."
                            ),
                            query=annotation,
                            table=table_name,
                            confidence=0.6,
                            metadata={"literal": literal},
                        )
                    )
                    break
        return detections

    def _refine(self, context: RuleContext, table: str | None, column: str, confidence: float) -> float:
        if not context.data_available or table is None:
            return confidence
        column_profile = context.application.column_profile(table, column)
        if column_profile is None or column_profile.non_null_count < context.thresholds.min_sample_size:
            return confidence
        if column_profile.file_path_fraction >= context.thresholds.file_path_fraction:
            return 0.95
        return 0.0


class ExternalDataStorageDataRule(DataRule):
    """Data rule: a column whose sampled values are mostly file paths."""

    anti_pattern = AntiPattern.EXTERNAL_DATA_STORAGE
    severity = Severity.LOW
    doc = RuleDoc(
        title="External data storage (data analysis)",
        problem=(
            "Profiling shows a column whose sampled values are "
            "overwhelmingly filesystem paths — content kept outside the "
            "database regardless of what the DDL intended."
        ),
        why_it_hurts=(
            "Restores from backup produce dangling paths, replication "
            "reaches only half the data, and nothing stops the files from "
            "diverging from the rows that reference them."
        ),
        fix=(
            "Migrate the content into BLOBs, or formalise the external "
            "store with hashes and periodic existence audits."
        ),
        paper_section="Table 1 (Physical Design APs); §4.2",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted(
                "CREATE TABLE uploads (upload_id INTEGER PRIMARY KEY, location VARCHAR(255))",
                rows={
                    "uploads": [
                        {"upload_id": i, "location": f"/srv/files/batch_{i}/img_{i}.png"}
                        for i in range(20)
                    ]
                },
            ),
            control(
                "CREATE TABLE uploads (upload_id INTEGER PRIMARY KEY, caption VARCHAR(255))",
                rows={
                    "uploads": [
                        {"upload_id": i, "caption": f"holiday snapshot number {i}"}
                        for i in range(20)
                    ]
                },
            ),
        )

    def check_table(self, profile: TableProfile, context: RuleContext) -> list[Detection]:
        detections = []
        for column_profile in profile.columns.values():
            if column_profile.non_null_count < context.thresholds.min_sample_size:
                continue
            if column_profile.file_path_fraction >= context.thresholds.file_path_fraction:
                detections.append(
                    self.make_detection(
                        message=(
                            f"Column '{profile.name}.{column_profile.name}' stores file paths in "
                            f"{column_profile.file_path_fraction:.0%} of sampled rows."
                        ),
                        table=profile.name,
                        column=column_profile.name,
                        confidence=0.85,
                        detection_mode="data",
                    )
                )
        return detections


class IndexOveruseRule(QueryRule):
    """Too many or redundant indexes relative to the workload (Example 5)."""

    anti_pattern = AntiPattern.INDEX_OVERUSE
    severity = Severity.MEDIUM
    statement_types = ("CREATE_INDEX",)
    requires_context = True
    doc = RuleDoc(
        title="Index overuse",
        problem=(
            "The schema creates indexes the workload never uses, or several "
            "redundant indexes over the same leading columns. Detection is "
            "inter-query: the CREATE INDEX statements are judged against "
            "every query in the workload."
        ),
        why_it_hurts=(
            "Each index taxes every INSERT/UPDATE/DELETE with extra "
            "maintenance writes and WAL volume, competes for buffer-pool "
            "space, and widens the optimizer's search space — all for a "
            "structure no query reads."
        ),
        fix=(
            "Drop indexes no query's predicates or joins can use and merge "
            "redundant prefixes into one composite index that serves them "
            "all."
        ),
        paper_section="Table 1 (Physical Design APs); Example 5, §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        ddl = "CREATE TABLE events (event_id INTEGER PRIMARY KEY, kind VARCHAR(10), venue VARCHAR(10))"
        return (
            planted(
                ddl,
                "CREATE INDEX idx_venue ON events (venue)",
                "SELECT event_id FROM events WHERE kind = 'expo'",
                note="idx_venue is never used by the workload",
            ),
            planted(
                ddl,
                "CREATE INDEX idx_kind_venue ON events (kind, venue)",
                "CREATE INDEX idx_kind ON events (kind)",
                "SELECT event_id FROM events WHERE kind = 'expo'",
                note="single-column index covered by a multi-column one",
            ),
            control(
                ddl,
                "CREATE INDEX idx_kind ON events (kind)",
                "SELECT event_id FROM events WHERE kind = 'expo'",
            ),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        if not context.schema_available:
            return []
        table_name = annotation.tables[0].name if annotation.tables else None
        if table_name is None:
            return []
        table = context.application.table(table_name)
        if table is None:
            return []
        detections: list[Detection] = []
        indexes = list(table.indexes.values())
        # Computed once per run by RuleContext, not per CREATE INDEX
        # statement, which would be quadratic in the workload; the counted
        # contract in benchmarks/test_perf_fused_cold_path.py holds it.
        usage = context.column_usage()

        # (1) sheer number of indexes on one table
        if len(indexes) > context.thresholds.index_overuse_max_indexes:
            detections.append(
                self.make_detection(
                    message=(
                        f"Table '{table_name}' carries {len(indexes)} indexes "
                        f"(threshold {context.thresholds.index_overuse_max_indexes}); every write must "
                        "maintain all of them."
                    ),
                    query=annotation,
                    table=table_name,
                    confidence=0.8,
                    detection_mode="inter_query",
                    metadata={"index_count": len(indexes)},
                )
            )

        # (2) indexes whose leading column never appears in a lookup
        index_name = self._index_name(annotation)
        created = table.indexes.get(index_name.lower()) if index_name else None
        if created is not None and context.queries:
            leading = created.columns[0] if created.columns else None
            if leading is not None:
                entry = usage.get((table_name.lower(), leading.lower()))
                lookups = entry.read_lookups if entry is not None else 0
                if lookups == 0:
                    detections.append(
                        self.make_detection(
                            message=(
                                f"Index '{created.name}' on {table_name}({', '.join(created.columns)}) is "
                                "never used by any query in the workload; it only slows down writes."
                            ),
                            query=annotation,
                            table=table_name,
                            column=leading,
                            confidence=0.75,
                            detection_mode="inter_query",
                            metadata={"index": created.name},
                        )
                    )

        # (3) single-column indexes made redundant by a multi-column index
        #     covering the same workload predicates (Example 5, workload 1).
        if created is not None and not created.is_multi_column:
            for other in indexes:
                if other.name == created.name or not other.is_multi_column:
                    continue
                if other.columns[0].lower() == created.columns[0].lower():
                    detections.append(
                        self.make_detection(
                            message=(
                                f"Index '{created.name}' on {table_name}({created.columns[0]}) is redundant: "
                                f"the multi-column index '{other.name}' already covers it."
                            ),
                            query=annotation,
                            table=table_name,
                            column=created.columns[0],
                            confidence=0.7,
                            detection_mode="inter_query",
                            metadata={"covered_by": other.name},
                        )
                    )
                    break
        return detections

    def _index_name(self, annotation: QueryAnnotation) -> str | None:
        match = re.search(r"CREATE\s+(?:UNIQUE\s+)?INDEX\s+(?:IF\s+NOT\s+EXISTS\s+)?(\w+)",
                          annotation.raw, re.IGNORECASE)
        return match.group(1) if match else None


class IndexUnderuseRule(QueryRule):
    """Performance-critical predicates on columns that have no index.

    The data refinement drops the finding when the column's cardinality is
    too low for an index to help (the Figure 8c false positive the paper
    eliminates through data analysis).
    """

    anti_pattern = AntiPattern.INDEX_UNDERUSE
    severity = Severity.MEDIUM
    statement_types = ("SELECT", "UPDATE", "DELETE")
    requires_context = True
    doc = RuleDoc(
        title="Index underuse",
        problem=(
            "Queries filter or join repeatedly on columns that no index "
            "covers. Detection is inter-query: predicate columns from the "
            "whole workload are matched against the schema's declared "
            "indexes."
        ),
        why_it_hurts=(
            "Every selective lookup degrades into a full table scan; the "
            "cost grows linearly with the table while the workload assumes "
            "point-read latency, and the problem compounds silently as data "
            "accumulates."
        ),
        fix=(
            "Create indexes on the hot predicate and join columns "
            "(composite, with the most selective equality column leading); "
            "verify adoption with EXPLAIN."
        ),
        paper_section="Table 1 (Physical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        ddl = ("CREATE TABLE books (book_id INTEGER PRIMARY KEY, genre VARCHAR(20),"
               " price NUMERIC(6,2))")
        query = "SELECT book_id FROM books WHERE genre = 'scifi'"
        return (
            planted(ddl, query),
            control(ddl, "CREATE INDEX idx_genre ON books (genre)", query),
            control(ddl, "SELECT book_id FROM books WHERE book_id = 9",
                    note="primary-key lookups are already indexed"),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        if not context.schema_available:
            return []
        detections: list[Detection] = []
        seen: set[tuple[str, str]] = set()
        candidates = []
        for predicate in annotation.predicates:
            if predicate.column is None or predicate.is_column_comparison:
                continue
            if predicate.operator not in ("=", "==", ">", "<", ">=", "<=", "BETWEEN", "IN"):
                continue
            candidates.append((predicate.column, "predicate"))
        for column in annotation.group_by_columns:
            candidates.append((column, "group_by"))
        for column_ref, usage_kind in candidates:
            table_name = self._resolve_table(annotation, context, column_ref)
            if table_name is None:
                continue
            table = context.application.table(table_name)
            if table is None or not table.columns:
                continue
            if not table.has_column(column_ref.name):
                continue
            key = (table_name.lower(), column_ref.name.lower())
            if key in seen:
                continue
            seen.add(key)
            if table.column_is_indexed(column_ref.name):
                continue
            pk = tuple(c.lower() for c in table.primary_key_columns)
            if pk and pk[0] == column_ref.name.lower():
                continue
            confidence = 0.7 if usage_kind == "predicate" else 0.75
            confidence = self._refine_with_data(context, table_name, column_ref.name, confidence)
            if confidence <= 0:
                continue
            detections.append(
                self.make_detection(
                    message=(
                        f"Column '{table_name}.{column_ref.name}' is used in a "
                        f"{'filter/join predicate' if usage_kind == 'predicate' else 'GROUP BY'} "
                        "but has no index; the DBMS must scan the table."
                    ),
                    query=annotation,
                    table=table_name,
                    column=column_ref.name,
                    confidence=confidence,
                    detection_mode="inter_query",
                    metadata={"usage": usage_kind},
                )
            )
        return detections

    def _resolve_table(self, annotation: QueryAnnotation, context: RuleContext, column_ref) -> str | None:
        if column_ref.qualifier:
            return annotation.resolve_qualifier(column_ref.qualifier)
        owner = context.resolve_column(
            column_ref.name, hint_tables=[t.name for t in annotation.all_tables]
        )
        if owner is not None:
            return owner[0].name
        if annotation.tables:
            return annotation.tables[0].name
        return None

    def _refine_with_data(self, context: RuleContext, table: str, column: str, confidence: float) -> float:
        if not context.data_available:
            return confidence
        column_profile = context.application.column_profile(table, column)
        if column_profile is None or column_profile.non_null_count < context.thresholds.min_sample_size:
            return confidence
        thresholds = context.thresholds
        if (
            column_profile.distinct_count < thresholds.index_min_distinct_values
            or column_profile.distinct_ratio < thresholds.index_min_distinct_ratio
        ):
            # Low cardinality: an index would not help (it can even hurt).
            return 0.0
        return min(1.0, confidence + 0.2)
