"""Logical-design anti-pattern rules (Table 1, first block).

Multi-Valued Attribute, No Primary Key, No Foreign Key, Generic Primary Key,
Data In Metadata, Adjacency List, and God Table.
"""
from __future__ import annotations

import re
from collections import defaultdict

from ..model.antipatterns import AntiPattern
from ..model.detection import Detection, Severity
from ..profiler.profiler import TableProfile
from ..sqlparser import QueryAnnotation
from .base import DataRule, QueryRule, RuleContext, RuleDoc, RuleExample, control, planted

_ID_LIST_COLUMN_RE = re.compile(r"(_ids?$|_list$|_csv$|ids$)", re.IGNORECASE)
_GENERIC_PK_NAMES = {"id", "pk", "key", "row_id", "rowid"}
_PARENT_COLUMN_RE = re.compile(r"^(parent|manager|supervisor|reports_to)(_id)?$", re.IGNORECASE)
#: ``column ... REFERENCES table`` within one column segment of a column
#: list.  A match starts only where a segment does (the text's start or
#: just after ``,``, ``(`` or ``)``), at the segment's first word: a search
#: from a later start in the same segment can only fail, so one start per
#: segment finds every match without rescanning the segment from each of
#: its characters.  The first branch takes the whole first word through a
#: capturing lookahead, which is atomic: a failing match does not retry
#: every split of the word against ``[^,()]*``, so it costs linear time.
#: The second keeps the case where the column is a proper prefix of the
#: word (``xREFERENCES y``).  Groups 1 and 2, or 3 and 4, hold the column
#: and the referenced table; :func:`_self_reference` reads them.
_SELF_REFERENCE_RE = re.compile(
    r"(?:(?<=[,()])|^)[^\w,()]*"
    r"(?:(?=(\w+))\1[^,()]*REFERENCES\s+(\w+)|(\w+?)REFERENCES\s+(\w+))",
    re.IGNORECASE,
)
_PARENT_POINTER_RE = re.compile(r"\b(parent_\w+|manager_id|supervisor_id|reports_to)\b", re.IGNORECASE)
_NUMBERED_COLUMN_RE = re.compile(r"^(?P<prefix>[A-Za-z_]+?)_?(?P<number>\d+)$")
_CLONE_TABLE_RE = re.compile(r"^(?P<prefix>.+?)_(?P<suffix>\d{1,6})$")


def _self_reference(match: "re.Match[str]") -> "tuple[str, str]":
    """(column, referenced table) of a :data:`_SELF_REFERENCE_RE` match."""
    if match.group(2) is not None:
        return match.group(1), match.group(2)
    return match.group(3), match.group(4)


class MultiValuedAttributeRule(QueryRule):
    """Detects delimiter-separated value lists stored in a single column.

    Intra-query signals: pattern-matching predicates that wrap a value in
    ``%...%`` against an id-list-looking column, join conditions built from
    string concatenation, and INSERT/UPDATE literals that look like
    comma-separated identifier lists.  The data rule
    :class:`MultiValuedAttributeDataRule` confirms or refutes the finding by
    profiling the column (§4.2).
    """

    anti_pattern = AntiPattern.MULTI_VALUED_ATTRIBUTE
    severity = Severity.HIGH
    statement_types = ("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE_TABLE")
    doc = RuleDoc(
        title="Multi-valued attribute",
        problem=(
            "A single column stores a delimiter-separated list of values "
            "(`user_ids = 'U1,U2,U3'`), violating first normal form. The "
            "query-level signals are `LIKE '%id%'` membership probes, joins "
            "built from string concatenation, and list-shaped literals in "
            "INSERT/UPDATE statements."
        ),
        why_it_hurts=(
            "Every membership test becomes an index-defeating substring "
            "match, the database cannot enforce referential integrity over "
            "the embedded ids, updates rewrite the whole list (lost-update "
            "prone), and the delimiter itself becomes reserved syntax that "
            "user data may collide with."
        ),
        fix=(
            "Normalise: move the list into a child (junction) table with one "
            "row per value and a foreign key back to the parent, then join "
            "instead of pattern-matching."
        ),
        paper_section="Table 1 (Logical Design APs); Example 1, §4.2",
    )

    _LIST_LITERAL_RE = re.compile(r"^\s*[\w.@-]+\s*([,;|]\s*[\w.@-]+\s*){1,}$")

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted("SELECT tenant_id FROM tenants WHERE user_ids LIKE '%U102%'"),
            planted("UPDATE tenants SET user_ids = 'U1,U2,U3' WHERE tenant_id = 4"),
            control("SELECT tenant_id FROM tenants WHERE zone = 'Z1'"),
            control("UPDATE tenants SET zone = 'Z2' WHERE tenant_id = 4"),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        detections: list[Detection] = []
        detections.extend(self._check_pattern_predicates(annotation, context))
        detections.extend(self._check_concat_join(annotation, context))
        detections.extend(self._check_list_literals(annotation, context))
        detections.extend(self._check_ddl(annotation, context))
        return detections

    # -- intra-query signals ------------------------------------------------
    def _check_pattern_predicates(
        self, annotation: QueryAnnotation, context: RuleContext
    ) -> list[Detection]:
        detections = []
        for predicate in annotation.pattern_predicates:
            if predicate.column is None:
                continue
            value = (predicate.value or "").strip("'\"")
            column_name = predicate.column.name
            id_like_column = bool(_ID_LIST_COLUMN_RE.search(column_name))
            wraps_token = bool(re.match(r"^%[\w.@-]+%$", value)) or "[[:<:]]" in value
            if not (id_like_column or wraps_token):
                continue
            confidence = 0.6
            if id_like_column and wraps_token:
                confidence = 0.9
            table = self._owning_table(annotation, predicate.column.qualifier)
            confidence = self._refine_with_data(context, table, column_name, confidence)
            if confidence <= 0.0:
                continue
            detections.append(
                self.make_detection(
                    message=(
                        f"Column '{column_name}' is searched with a pattern-matching "
                        "expression that wraps a single value, which suggests it stores a "
                        "delimiter-separated list (violates 1NF)."
                    ),
                    query=annotation,
                    table=table,
                    column=column_name,
                    confidence=confidence,
                    metadata={"predicate_value": value},
                )
            )
        return detections

    def _check_concat_join(
        self, annotation: QueryAnnotation, context: RuleContext
    ) -> list[Detection]:
        detections = []
        for join in annotation.joins:
            condition = join.condition.upper()
            if not condition:
                continue
            if ("LIKE" in condition or "REGEXP" in condition) and ("||" in condition or "CONCAT" in condition):
                table = join.table.name if join.table else None
                detections.append(
                    self.make_detection(
                        message=(
                            "Join condition matches a delimiter-separated list with a "
                            "pattern expression; the DBMS cannot use an index for this join."
                        ),
                        query=annotation,
                        table=table,
                        confidence=0.9,
                        metadata={"join_condition": join.condition},
                    )
                )
        return detections

    def _check_list_literals(
        self, annotation: QueryAnnotation, context: RuleContext
    ) -> list[Detection]:
        if annotation.statement_type not in ("INSERT", "UPDATE"):
            return []
        detections = []
        table = annotation.tables[0].name if annotation.tables else None
        for literal in annotation.string_literals:
            if self._LIST_LITERAL_RE.match(literal) and len(literal) <= 200:
                confidence = self._refine_with_data(context, table, None, 0.5)
                if confidence <= 0.0:
                    continue
                detections.append(
                    self.make_detection(
                        message=(
                            f"Literal {literal!r} looks like a delimiter-separated list being "
                            "stored in a single column."
                        ),
                        query=annotation,
                        table=table,
                        confidence=confidence,
                        metadata={"literal": literal},
                    )
                )
                break
        return detections

    def _check_ddl(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        if annotation.statement_type != "CREATE_TABLE" or not context.schema_available:
            return []
        detections = []
        table_name = annotation.tables[0].name if annotation.tables else None
        table = context.application.table(table_name) if table_name else None
        if table is None:
            return []
        for column in table.columns.values():
            if _ID_LIST_COLUMN_RE.search(column.name) and column.sql_type.is_textual:
                # A plural *_ids / *_list textual column is a strong hint.
                if column.name.lower().endswith("s") or column.name.lower().endswith("_list"):
                    detections.append(
                        self.make_detection(
                            message=(
                                f"Column '{table.name}.{column.name}' is a textual column whose "
                                "name suggests it stores a list of identifiers; use an "
                                "intersection table instead."
                            ),
                            query=annotation,
                            table=table.name,
                            column=column.name,
                            confidence=0.7,
                            detection_mode="inter_query",
                        )
                    )
        return detections

    # -- shared helpers ------------------------------------------------------
    def _owning_table(self, annotation: QueryAnnotation, qualifier: str | None) -> str | None:
        if qualifier:
            return annotation.resolve_qualifier(qualifier)
        if annotation.tables:
            return annotation.tables[0].name
        return None

    def _refine_with_data(
        self, context: RuleContext, table: str | None, column: str | None, confidence: float
    ) -> float:
        """Data analysis confirms (raises) or refutes (suppresses) the finding."""
        if not context.data_available or table is None:
            return confidence
        profile = context.application.profile(table)
        if profile is None:
            return confidence
        if column is not None:
            column_profile = profile.column(column)
            if column_profile is None:
                return confidence
            if column_profile.looks_delimited:
                return 1.0
            if column_profile.non_null_count >= context.thresholds.min_sample_size:
                return 0.0  # the data refutes the query-level suspicion
        return confidence


class MultiValuedAttributeDataRule(DataRule):
    """Data rule: a textual column whose sampled values are delimiter-separated
    lists (Example 1 / §4.2)."""

    anti_pattern = AntiPattern.MULTI_VALUED_ATTRIBUTE
    severity = Severity.HIGH
    doc = RuleDoc(
        title="Multi-valued attribute (data analysis)",
        problem=(
            "Profiling shows a textual column whose sampled values are "
            "predominantly delimiter-separated identifier lists — the stored "
            "data itself violates first normal form, regardless of how the "
            "queries read it."
        ),
        why_it_hurts=(
            "The list structure is invisible to the database: no referential "
            "integrity over the embedded ids, no index on individual values, "
            "and every consumer re-implements (and disagrees on) the parsing. "
            "Data analysis confirms the query-level suspicion or refutes it "
            "when a large clean sample shows no lists (§4.2)."
        ),
        fix=(
            "Split the list into a child table with one row per value; "
            "backfill by parsing the existing column once, then drop it."
        ),
        paper_section="Table 1 (Logical Design APs); Example 1, §4.2",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted(
                "CREATE TABLE tenants (tenant_id VARCHAR(8) PRIMARY KEY, user_ids TEXT)",
                rows={
                    "tenants": [
                        {"tenant_id": f"T{i}", "user_ids": f"U{i},U{i + 1},U{i + 2}"}
                        for i in range(20)
                    ]
                },
            ),
            control(
                "CREATE TABLE places (place_id INTEGER PRIMARY KEY, address VARCHAR(100))",
                rows={
                    "places": [
                        {"place_id": i, "address": f"{i} Main Street Springfield"}
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
            declared = None
            if profile.definition is not None:
                column_def = profile.definition.get_column(column_profile.name)
                declared = column_def.sql_type if column_def is not None else None
            if declared is not None and not declared.is_textual:
                continue
            if column_profile.delimited_fraction >= context.thresholds.delimited_fraction:
                detections.append(
                    self.make_detection(
                        message=(
                            f"Column '{profile.name}.{column_profile.name}' stores "
                            f"{column_profile.delimiter!r}-separated value lists in "
                            f"{column_profile.delimited_fraction:.0%} of sampled rows."
                        ),
                        table=profile.name,
                        column=column_profile.name,
                        confidence=min(1.0, 0.5 + column_profile.delimited_fraction / 2),
                        detection_mode="data",
                        metadata={"delimiter": column_profile.delimiter},
                    )
                )
        return detections


class NoPrimaryKeyRule(QueryRule):
    """CREATE TABLE statements that do not declare a primary key."""

    anti_pattern = AntiPattern.NO_PRIMARY_KEY
    severity = Severity.HIGH
    statement_types = ("CREATE_TABLE",)
    doc = RuleDoc(
        title="Missing primary key",
        problem="A `CREATE TABLE` statement declares no primary key at all.",
        why_it_hurts=(
            "Without a key the database cannot prevent fully duplicate rows, "
            "replication and ORMs lose their row identity, and every lookup "
            "that should be a point read risks scanning. Deduplicating later "
            "— after duplicates exist — is far more painful than declaring "
            "the key up front."
        ),
        fix=(
            "Declare a `PRIMARY KEY` on the natural identifier, or add a "
            "surrogate key column when no natural one exists (name it after "
            "the table, e.g. `order_id`, not a generic `id`)."
        ),
        paper_section="Table 1 (Logical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted("CREATE TABLE logs (message TEXT, created_at TIMESTAMP WITH TIME ZONE)"),
            control(
                "CREATE TABLE logs (log_id INTEGER PRIMARY KEY, message TEXT,"
                " created_at TIMESTAMP WITH TIME ZONE)"
            ),
            control(
                "CREATE TABLE logs (log_id INTEGER, message TEXT)",
                "ALTER TABLE logs ADD PRIMARY KEY (log_id)",
                note="a later ALTER TABLE adds the key (inter-query refinement)",
            ),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        raw_upper = annotation.raw.upper()
        if "PRIMARY KEY" in raw_upper:
            return []
        table_name = annotation.tables[0].name if annotation.tables else None
        # Inter-query refinement: a later ALTER TABLE may add the primary key.
        if table_name and context.schema_available:
            table = context.application.table(table_name)
            if table is not None and table.has_primary_key:
                return []
        return [
            self.make_detection(
                message=(
                    f"Table '{table_name or '?'}' is created without a PRIMARY KEY, so the "
                    "DBMS cannot enforce row uniqueness or support efficient lookups."
                ),
                query=annotation,
                table=table_name,
                confidence=0.95 if context.schema_available else 0.8,
                detection_mode="inter_query" if context.schema_available else "intra_query",
            )
        ]


class NoPrimaryKeyDataRule(DataRule):
    """Data rule: a profiled table whose schema has no primary key."""

    anti_pattern = AntiPattern.NO_PRIMARY_KEY
    severity = Severity.HIGH
    doc = RuleDoc(
        title="Missing primary key (data analysis)",
        problem=(
            "A profiled table in the live database carries rows but its "
            "schema declares no primary key — the DDL may be out of reach, "
            "but the catalog shows the constraint is absent."
        ),
        why_it_hurts=(
            "Duplicate rows can (and in practice do) accumulate unnoticed, "
            "and downstream consumers that assume row identity — replication, "
            "ORMs, incremental exports — silently misbehave."
        ),
        fix=(
            "Identify a unique column combination from the data profile, "
            "deduplicate, and declare the primary key (or add a surrogate)."
        ),
        paper_section="Table 1 (Logical Design APs); §4.2, §8.4",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted(
                "CREATE TABLE readings (sensor VARCHAR(10), value INTEGER)",
                rows={"readings": [{"sensor": f"S{i}", "value": i} for i in range(10)]},
            ),
            control(
                "CREATE TABLE readings (reading_id INTEGER PRIMARY KEY, value INTEGER)",
                rows={"readings": [{"reading_id": i, "value": i} for i in range(10)]},
            ),
        )

    def check_table(self, profile: TableProfile, context: RuleContext) -> list[Detection]:
        if profile.definition is None or profile.definition.has_primary_key:
            return []
        return [
            self.make_detection(
                message=f"Table '{profile.name}' has no PRIMARY KEY constraint.",
                table=profile.name,
                confidence=1.0,
                detection_mode="data",
            )
        ]


class NoForeignKeyRule(QueryRule):
    """Joined tables whose join columns are not covered by a FOREIGN KEY.

    This is the paper's canonical inter-query example (Example 3): the rule
    needs the CREATE TABLE statements of both tables *and* the JOIN condition
    of a SELECT to know a referential constraint is missing.
    """

    anti_pattern = AntiPattern.NO_FOREIGN_KEY
    severity = Severity.HIGH
    statement_types = ("SELECT", "UPDATE", "DELETE")
    requires_context = True
    doc = RuleDoc(
        title="Missing foreign key",
        problem=(
            "The workload joins two tables on a column pair that no FOREIGN "
            "KEY constraint covers. This is the paper's canonical "
            "*inter-query* detection: it needs both tables' DDL and the JOIN "
            "condition together to see the missing constraint."
        ),
        why_it_hurts=(
            "Referential integrity is left to the application: orphaned rows "
            "appear after partial failures, joins silently drop or duplicate "
            "data, and the optimizer loses the constraint-derived facts it "
            "could otherwise plan with."
        ),
        fix=(
            "Declare `FOREIGN KEY (child_col) REFERENCES parent(col)` on the "
            "joining columns (cleaning up existing orphans first)."
        ),
        paper_section="Table 1 (Logical Design APs); Example 3, §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        ddl_tenant = "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, zone VARCHAR(10))"
        join = (
            "SELECT q.name FROM questionnaire q"
            " JOIN tenant t ON t.tenant_id = q.tenant_id"
        )
        return (
            planted(
                ddl_tenant,
                "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY,"
                " tenant_id INTEGER, name VARCHAR(30))",
                join,
                note="the paper's Example 3",
            ),
            control(
                ddl_tenant,
                "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY,"
                " tenant_id INTEGER REFERENCES tenant(tenant_id), name VARCHAR(30))",
                join,
            ),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        if not context.schema_available:
            return []
        detections = []
        alias_map = annotation.alias_map
        seen_pairs: set[tuple[str, str, str, str]] = set()
        for predicate in annotation.predicates:
            if not predicate.is_column_comparison or predicate.operator not in ("=", "=="):
                continue
            left_table = alias_map.get((predicate.column.qualifier or "").lower())
            right_table = alias_map.get((predicate.value_column.qualifier or "").lower())
            if not left_table or not right_table or left_table.lower() == right_table.lower():
                continue
            key = (left_table.lower(), predicate.column.name.lower(),
                   right_table.lower(), predicate.value_column.name.lower())
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            if self._fk_exists(context, left_table, predicate.column.name,
                               right_table, predicate.value_column.name):
                continue
            # Only report when both tables are known to the schema context;
            # otherwise we cannot tell whether the constraint exists.
            if context.application.table(left_table) is None or context.application.table(
                right_table
            ) is None:
                continue
            detections.append(
                self.make_detection(
                    message=(
                        f"Tables '{left_table}' and '{right_table}' are joined on "
                        f"{predicate.column.name} = {predicate.value_column.name} but no "
                        "FOREIGN KEY constraint links them; referential integrity is not enforced."
                    ),
                    query=annotation,
                    table=left_table,
                    column=predicate.column.name,
                    confidence=0.9,
                    detection_mode="inter_query",
                    metadata={"other_table": right_table, "other_column": predicate.value_column.name},
                )
            )
        return detections

    def _fk_exists(
        self, context: RuleContext, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> bool:
        for table_name, column_name, other_table in (
            (left_table, left_column, right_table),
            (right_table, right_column, left_table),
        ):
            table = context.application.table(table_name)
            if table is None:
                continue
            for fk in table.all_foreign_keys():
                if fk.referenced_table.lower() == other_table.lower() and (
                    column_name.lower() in tuple(c.lower() for c in fk.columns)
                ):
                    return True
        return False


class GenericPrimaryKeyRule(QueryRule):
    """A table whose primary key is a generic surrogate column named ``id``."""

    anti_pattern = AntiPattern.GENERIC_PRIMARY_KEY
    severity = Severity.LOW
    statement_types = ("CREATE_TABLE",)
    doc = RuleDoc(
        title="Generic primary key",
        problem=(
            "Every table's primary key is a generic surrogate column named "
            "`id`, instead of a name that says what it identifies."
        ),
        why_it_hurts=(
            "Joins fill with ambiguous `id` columns that must be aliased "
            "apart (`users.id = orders.user_id`?), `USING`/natural joins "
            "become impossible, and a meaningful natural key that *should* "
            "carry a UNIQUE constraint often goes unconstrained because the "
            "surrogate absorbed the key role."
        ),
        fix=(
            "Name the key after the entity (`user_id`, `order_id`) and keep "
            "a UNIQUE constraint on the natural key when one exists."
        ),
        paper_section="Table 1 (Logical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted("CREATE TABLE products (id INTEGER PRIMARY KEY, label VARCHAR(40))"),
            planted("CREATE TABLE products (label VARCHAR(40), code INTEGER, PRIMARY KEY (id))",
                    note="table-level constraint form"),
            control("CREATE TABLE products (product_id INTEGER PRIMARY KEY, label VARCHAR(40))"),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        table_name = annotation.tables[0].name if annotation.tables else None
        raw = annotation.raw
        match = re.search(
            r"\b(?P<name>\w+)\s+(?:BIG)?(?:INT(?:EGER)?|SERIAL)[^,()]*PRIMARY\s+KEY",
            raw,
            re.IGNORECASE,
        )
        name = match.group("name") if match else None
        if name is None:
            # table-level constraint: PRIMARY KEY (id)
            pk_match = re.search(r"PRIMARY\s+KEY\s*\(\s*(\w+)\s*\)", raw, re.IGNORECASE)
            name = pk_match.group(1) if pk_match else None
        if name is None or name.lower() not in _GENERIC_PK_NAMES:
            return []
        return [
            self.make_detection(
                message=(
                    f"Table '{table_name or '?'}' uses the generic primary key column "
                    f"'{name}'; a descriptive natural or domain key (e.g. {table_name or 'table'}_id) "
                    "is easier to join and read."
                ),
                query=annotation,
                table=table_name,
                column=name,
                confidence=0.9,
            )
        ]


class DataInMetadataRule(QueryRule):
    """Application data encoded in the schema itself (numbered column groups,
    value-bearing table names)."""

    anti_pattern = AntiPattern.DATA_IN_METADATA
    severity = Severity.MEDIUM
    statement_types = ("CREATE_TABLE",)
    doc = RuleDoc(
        title="Data in metadata",
        problem=(
            "Application data is encoded in the *names* of schema objects: "
            "numbered column groups (`tag1, tag2, tag3`) or value-bearing "
            "table names (`sales_2019`, `sales_2020`)."
        ),
        why_it_hurts=(
            "Each new value requires DDL instead of an INSERT, queries must "
            "UNION or OR over the whole family (and be edited when it "
            "grows), and constraints cannot span the encoded dimension — the "
            "schema has become a hand-maintained index of the data."
        ),
        fix=(
            "Move the encoded value into a column: one table with a "
            "discriminator column, or one child row per formerly-numbered "
            "column."
        ),
        paper_section="Table 1 (Logical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted(
                "CREATE TABLE surveys (survey_id INTEGER PRIMARY KEY, answer_1 TEXT,"
                " answer_2 TEXT, answer_3 TEXT)",
                note="numbered column group",
            ),
            planted(
                "CREATE TABLE revenue_2019 (entry_id INTEGER PRIMARY KEY, amount NUMERIC(10,2))",
                note="value-bearing table name",
            ),
            control(
                "CREATE TABLE surveys (survey_id INTEGER PRIMARY KEY, question TEXT,"
                " answer TEXT, score INTEGER)"
            ),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        detections = []
        table_name = annotation.tables[0].name if annotation.tables else None
        columns = self._created_columns(annotation, context)
        groups: dict[str, list[str]] = defaultdict(list)
        for column in columns:
            match = _NUMBERED_COLUMN_RE.match(column)
            if match and len(match.group("prefix").rstrip("_")) >= 2:
                groups[match.group("prefix").rstrip("_").lower()].append(column)
        for prefix, members in groups.items():
            if len(members) >= context.thresholds.data_in_metadata_min_columns:
                detections.append(
                    self.make_detection(
                        message=(
                            f"Table '{table_name or '?'}' defines numbered columns "
                            f"{', '.join(sorted(members)[:4])}{'…' if len(members) > 4 else ''}; the "
                            "repeating group encodes data in metadata and should be a child table."
                        ),
                        query=annotation,
                        table=table_name,
                        column=members[0],
                        confidence=0.85,
                        metadata={"columns": sorted(members)},
                    )
                )
        if table_name and re.search(r"_(19|20)\d{2}$", table_name):
            detections.append(
                self.make_detection(
                    message=(
                        f"Table name '{table_name}' embeds a data value (a year); "
                        "the value belongs in a column, not in the table name."
                    ),
                    query=annotation,
                    table=table_name,
                    confidence=0.8,
                )
            )
        return detections

    def _created_columns(self, annotation: QueryAnnotation, context: RuleContext) -> list[str]:
        if context.schema_available and annotation.tables:
            table = context.application.table(annotation.tables[0].name)
            if table is not None and table.columns:
                return table.column_names
        # Fallback: pull column-ish identifiers straight from the DDL text.
        body = annotation.raw[annotation.raw.find("(") + 1 : annotation.raw.rfind(")")]
        columns = []
        for item in body.split(","):
            match = re.match(r"\s*([A-Za-z_]\w*)\s+\w+", item)
            if match and match.group(1).upper() not in ("PRIMARY", "FOREIGN", "UNIQUE", "CONSTRAINT", "CHECK", "KEY", "INDEX"):
                columns.append(match.group(1))
        return columns


class AdjacencyListRule(QueryRule):
    """A foreign key (or parent-pointer column) referencing its own table."""

    anti_pattern = AntiPattern.ADJACENCY_LIST
    severity = Severity.MEDIUM
    statement_types = ("CREATE_TABLE", "ALTER_TABLE", "SELECT")
    # Every branch of check() needs one of these in the raw text: the
    # self-REFERENCES scan, the parent-pointer column scan
    # (parent_*/manager_id/supervisor_id/reports_to), or a self-join
    # predicate whose column matches _PARENT_COLUMN_RE.
    trigger_tokens = ("REFERENCES", "PARENT", "MANAGER", "SUPERVISOR", "REPORTS_TO")
    doc = RuleDoc(
        title="Adjacency list",
        problem=(
            "A table models a hierarchy with a parent-pointer column that "
            "references the same table (`parent_id REFERENCES comments`)."
        ),
        why_it_hurts=(
            "Arbitrary-depth traversals need either recursive CTEs the "
            "application may not use or one self-join per level; subtree "
            "queries, moves, and deletes are O(depth) round-trips and the "
            "pattern tempts unbounded self-join chains."
        ),
        fix=(
            "For deep or frequently-traversed hierarchies use a path "
            "enumeration, nested-set, or closure-table encoding; shallow "
            "fixed-depth hierarchies may keep the pointer plus a recursive "
            "CTE."
        ),
        paper_section="Table 1 (Logical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted(
                "CREATE TABLE comments (comment_id INTEGER PRIMARY KEY, body TEXT,"
                " parent_id INTEGER REFERENCES comments(comment_id))",
                note="self-referencing foreign key",
            ),
            planted(
                "CREATE TABLE staff (staff_id INTEGER PRIMARY KEY, manager_id INTEGER)",
                note="parent-pointer column name",
            ),
            control(
                "CREATE TABLE comments (comment_id INTEGER PRIMARY KEY, body TEXT,"
                " article_id INTEGER REFERENCES articles(article_id))"
            ),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        detections = []
        table_name = annotation.tables[0].name if annotation.tables else None
        if annotation.statement_type in ("CREATE_TABLE", "ALTER_TABLE") and table_name:
            raw = annotation.raw
            # self-referencing REFERENCES
            for match in _SELF_REFERENCE_RE.finditer(raw):
                column, referenced = _self_reference(match)
                if referenced.lower() == table_name.lower():
                    detections.append(
                        self.make_detection(
                            message=(
                                f"Column '{table_name}.{column}' references its own table — the "
                                "adjacency-list design makes hierarchical queries and deletions hard."
                            ),
                            query=annotation,
                            table=table_name,
                            column=column,
                            confidence=0.95,
                        )
                    )
            if not detections:
                for match in _PARENT_POINTER_RE.finditer(raw):
                    detections.append(
                        self.make_detection(
                            message=(
                                f"Column '{match.group(1)}' in table '{table_name}' looks like a "
                                "parent pointer (adjacency list)."
                            ),
                            query=annotation,
                            table=table_name,
                            column=match.group(1),
                            confidence=0.6,
                        )
                    )
                    break
        if annotation.statement_type == "SELECT":
            # self-join on the same table via alias pair
            tables = [t.name.lower() for t in annotation.all_tables]
            if len(tables) >= 2 and len(set(tables)) < len(tables):
                for predicate in annotation.predicates:
                    if predicate.is_column_comparison and _PARENT_COLUMN_RE.match(predicate.column.name):
                        detections.append(
                            self.make_detection(
                                message=(
                                    "Self-join on a parent-pointer column indicates the adjacency "
                                    "list anti-pattern for hierarchical data."
                                ),
                                query=annotation,
                                table=annotation.all_tables[0].name,
                                column=predicate.column.name,
                                confidence=0.7,
                            )
                        )
                        break
        return detections


class GodTableRule(QueryRule):
    """A table whose column count crosses the configured threshold."""

    anti_pattern = AntiPattern.GOD_TABLE
    severity = Severity.MEDIUM
    statement_types = ("CREATE_TABLE",)
    doc = RuleDoc(
        title="God table",
        problem=(
            "A table declares more columns than the configured threshold "
            "(`Thresholds.god_table_columns`) — it aggregates several "
            "entities into one relation."
        ),
        why_it_hurts=(
            "Wide rows drag every query through columns it does not need, "
            "NULL-heavy optional groups waste space and hide which fields "
            "belong together, lock contention concentrates on the single "
            "hot table, and every feature migration rewrites it."
        ),
        fix=(
            "Split cohesive column groups into their own tables (1:1 keyed "
            "by the parent's primary key), keeping the hot, always-read "
            "columns in the core table."
        ),
        paper_section="Table 1 (Logical Design APs); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        wide = ", ".join(f"attr_{chr(ord('a') + i)} VARCHAR(20)" for i in range(11))
        return (
            planted(f"CREATE TABLE everything (thing_id INTEGER PRIMARY KEY, {wide})"),
            control("CREATE TABLE things (thing_id INTEGER PRIMARY KEY, label VARCHAR(20),"
                    " made_on DATE)"),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        table_name = annotation.tables[0].name if annotation.tables else None
        columns = DataInMetadataRule._created_columns(DataInMetadataRule(), annotation, context)
        threshold = context.thresholds.god_table_columns
        if len(columns) <= threshold:
            return []
        return [
            self.make_detection(
                message=(
                    f"Table '{table_name or '?'}' defines {len(columns)} columns "
                    f"(threshold {threshold}); consider splitting it into narrower entities."
                ),
                query=annotation,
                table=table_name,
                confidence=0.85,
                metadata={"column_count": len(columns)},
            )
        ]


class CloneTableRule(QueryRule):
    """Multiple tables named ``<base>_<n>`` (inter-query over the schema)."""

    anti_pattern = AntiPattern.CLONE_TABLE
    severity = Severity.MEDIUM
    statement_types = ("CREATE_TABLE",)
    requires_context = True
    doc = RuleDoc(
        title="Clone tables",
        problem=(
            "The schema contains several structurally-similar tables named "
            "`<base>_1`, `<base>_2`, … — a value (year, shard, tenant) "
            "promoted into the table name. Detection is inter-query: the "
            "family only appears when the whole schema is visible."
        ),
        why_it_hurts=(
            "Queries that span the family must UNION every member and be "
            "updated when a new clone appears; constraints and indexes "
            "drift apart between members; cross-member integrity is "
            "unenforceable."
        ),
        fix=(
            "Merge the clones into one table with a discriminator column; "
            "if the split was for scale, use the database's native "
            "partitioning instead of name-level sharding."
        ),
        paper_section="Table 1 (Physical Design APs, Clone Tables); §4.1",
    )

    def examples(self) -> "tuple[RuleExample, ...]":
        return (
            planted(
                "CREATE TABLE archive_1 (entry_id INTEGER PRIMARY KEY, payload TEXT)",
                "CREATE TABLE archive_2 (entry_id INTEGER PRIMARY KEY, payload TEXT)",
                note="two <base>_<n> siblings cross the clone threshold",
            ),
            control("CREATE TABLE archive (entry_id INTEGER PRIMARY KEY, payload TEXT)"),
            control(
                "CREATE TABLE archive_1 (entry_id INTEGER PRIMARY KEY, payload TEXT)",
                note="a single suffixed table is not yet a clone family",
            ),
        )

    def check(self, annotation: QueryAnnotation, context: RuleContext) -> list[Detection]:
        table_name = annotation.tables[0].name if annotation.tables else None
        if not table_name:
            return []
        match = _CLONE_TABLE_RE.match(table_name)
        if not match:
            return []
        prefix = match.group("prefix").lower()
        siblings = []
        if context.schema_available:
            for other in context.application.table_names():
                other_match = _CLONE_TABLE_RE.match(other)
                if other_match and other_match.group("prefix").lower() == prefix:
                    siblings.append(other)
        else:
            siblings = [table_name]
        min_clones = context.thresholds.clone_table_min_clones
        if context.schema_available and len(siblings) < min_clones:
            return []
        confidence = 0.9 if context.schema_available else 0.5
        return [
            self.make_detection(
                message=(
                    f"Table '{table_name}' matches the clone pattern '{prefix}_<N>'"
                    + (f" together with {len(siblings) - 1} sibling table(s)" if len(siblings) > 1 else "")
                    + "; the numeric suffix is data that belongs in a column."
                ),
                query=annotation,
                table=table_name,
                confidence=confidence,
                detection_mode="inter_query" if context.schema_available else "intra_query",
                metadata={"siblings": sorted(siblings)},
            )
        ]
