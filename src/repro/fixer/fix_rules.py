"""Per-anti-pattern fix rules.

Each fix rule is the (detection function, action function) pair the paper
describes in §6.1: the detection half already ran inside ap-detect, so here
every rule implements ``applies`` (a cheap re-check against the detection
record) and ``build`` (the action: emit replacement statements or a textual
fix tailored to the application's context).
"""
from __future__ import annotations

import abc
import re

from ..context.application_context import ApplicationContext
from ..model.antipatterns import AntiPattern
from ..model.detection import Detection
from ..sqlparser.serializer import quote_literal
from .fix import Fix, FixKind


class FixRule(abc.ABC):
    """Base class for fix rules."""

    anti_pattern: AntiPattern

    def applies(self, detection: Detection) -> bool:
        return detection.anti_pattern is self.anti_pattern

    @abc.abstractmethod
    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        """Build the fix for a detection (always returns at least a textual fix)."""

    # -- shared helpers ------------------------------------------------------
    def textual(self, detection: Detection, explanation: str) -> Fix:
        return Fix(detection=detection, kind=FixKind.TEXTUAL, explanation=explanation)

    def impacted_queries(self, detection: Detection, context: ApplicationContext) -> list[str]:
        """Other statements touching the same table/column (Algorithm 4, line 4)."""
        if not detection.table:
            return []
        if detection.column:
            queries = context.queries_referencing_column(detection.table, detection.column)
        else:
            queries = context.queries_referencing(detection.table)
        return [q.raw for q in queries if q.raw != detection.query]


class MultiValuedAttributeFix(FixRule):
    """Replace the delimiter-separated column with an intersection table (§2.1.1)."""

    anti_pattern = AntiPattern.MULTI_VALUED_ATTRIBUTE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table
        column = detection.column
        if not table or not column:
            return self.textual(
                detection,
                "Store each value of the delimiter-separated list as its own row in an "
                "intersection table that references both entities, then drop the list column.",
            )
        referenced = self._guess_referenced_table(column, context)
        intersection = f"{table}_{referenced or column.rstrip('sS')}".replace("__", "_")
        pk_column = self._primary_key(table, context) or f"{table}_ID"
        value_column = column[:-1] if column.lower().endswith("s") else f"{column}_value"
        statements = [
            (
                f"CREATE TABLE {intersection} (\n"
                f"    {pk_column} VARCHAR(64) REFERENCES {table}({pk_column}),\n"
                f"    {value_column} VARCHAR(64)"
                + (f" REFERENCES {referenced}({value_column})" if referenced else "")
                + f",\n    PRIMARY KEY ({pk_column}, {value_column})\n)"
            ),
            f"ALTER TABLE {table} DROP COLUMN {column}",
        ]
        rewritten = None
        if detection.query and "LIKE" in detection.query.upper():
            rewritten = (
                f"SELECT * FROM {intersection} i JOIN {table} t ON i.{pk_column} = t.{pk_column} "
                f"WHERE i.{value_column} = <value>"
            )
        return Fix(
            detection=detection,
            kind=FixKind.REWRITE,
            statements=statements,
            rewritten_query=rewritten,
            explanation=(
                f"Column {table}.{column} stores a delimiter-separated list. Create the "
                f"intersection table {intersection} holding one row per ({pk_column}, "
                f"{value_column}) pair, backfill it by splitting the existing lists, drop the "
                "old column, and replace pattern-matching lookups with an indexed join."
            ),
            impacted_queries=self.impacted_queries(detection, context),
        )

    def _guess_referenced_table(self, column: str, context: ApplicationContext) -> str | None:
        stem = re.sub(r"_?ids?$", "", column, flags=re.IGNORECASE)
        for candidate in (stem, stem + "s", stem.rstrip("s")):
            for name in context.table_names():
                if name.lower() == candidate.lower():
                    return name
        return None

    def _primary_key(self, table: str, context: ApplicationContext) -> str | None:
        definition = context.table(table)
        if definition is None:
            return None
        pk = definition.primary_key_columns
        return pk[0] if pk else None


class NoPrimaryKeyFix(FixRule):
    anti_pattern = AntiPattern.NO_PRIMARY_KEY

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table or "<table>"
        candidate = self._unique_column(detection, context)
        if candidate is not None:
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[f"ALTER TABLE {table} ADD PRIMARY KEY ({candidate})"],
                explanation=(
                    f"Column '{candidate}' is unique across the sampled rows, so it can serve as "
                    f"the primary key of {table}."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(
            detection,
            f"Add a PRIMARY KEY to {table}: either promote a naturally unique column or add a "
            f"surrogate key (e.g. ALTER TABLE {table} ADD COLUMN {table.lower()}_id BIGSERIAL "
            "PRIMARY KEY).",
        )

    def _unique_column(self, detection: Detection, context: ApplicationContext) -> str | None:
        if not detection.table:
            return None
        profile = context.profile(detection.table)
        if profile is None:
            return None
        for column_profile in profile.columns.values():
            if (
                column_profile.non_null_count >= 10
                and column_profile.null_count == 0
                and column_profile.distinct_ratio >= 0.999
            ):
                return column_profile.name
        return None


class NoForeignKeyFix(FixRule):
    anti_pattern = AntiPattern.NO_FOREIGN_KEY

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table
        column = detection.column
        other_table = detection.metadata.get("other_table")
        other_column = detection.metadata.get("other_column")
        if table and column and other_table and other_column:
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[
                    f"ALTER TABLE {table} ADD CONSTRAINT fk_{table.lower()}_{column.lower()} "
                    f"FOREIGN KEY ({column}) REFERENCES {other_table}({other_column})",
                    f"CREATE INDEX idx_{table.lower()}_{column.lower()} ON {table} ({column})",
                ],
                explanation=(
                    f"{table}.{column} joins to {other_table}.{other_column} but nothing enforces "
                    "the relationship. Adding the FOREIGN KEY delegates referential integrity to "
                    "the DBMS; the supporting index keeps cascaded updates fast (Figure 8f)."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(
            detection,
            "Declare the missing FOREIGN KEY constraint between the joined columns and add an "
            "index on the referencing column.",
        )


class GenericPrimaryKeyFix(FixRule):
    anti_pattern = AntiPattern.GENERIC_PRIMARY_KEY

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table or "<table>"
        return self.textual(
            detection,
            f"Rename the generic key column '{detection.column or 'id'}' of {table} to a "
            f"descriptive name such as {table.lower()}_id (or use a natural key) so joins read "
            "unambiguously and USING clauses become possible.",
        )


class DataInMetadataFix(FixRule):
    anti_pattern = AntiPattern.DATA_IN_METADATA

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table or "<table>"
        columns = detection.metadata.get("columns")
        if columns:
            child = f"{table}_values"
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[
                    (
                        f"CREATE TABLE {child} (\n"
                        f"    {table}_id VARCHAR(64) REFERENCES {table},\n"
                        f"    position INTEGER,\n"
                        f"    value VARCHAR(255),\n"
                        f"    PRIMARY KEY ({table}_id, position)\n)"
                    )
                ]
                + [f"ALTER TABLE {table} DROP COLUMN {column}" for column in columns],
                explanation=(
                    f"The repeating column group {', '.join(columns)} encodes positions in column "
                    f"names. Move them into the child table {child} with an explicit position column."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(
            detection,
            "Move the data encoded in table/column names into ordinary rows (a child table with a "
            "discriminator column), so new values never require DDL.",
        )


class AdjacencyListFix(FixRule):
    anti_pattern = AntiPattern.ADJACENCY_LIST

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        return self.textual(
            detection,
            "For hierarchy queries deeper than one level, replace the parent-pointer design with a "
            "path enumeration / closure table, or use recursive CTEs (WITH RECURSIVE) and add an "
            "index on the parent column.",
        )


class GodTableFix(FixRule):
    anti_pattern = AntiPattern.GOD_TABLE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        count = detection.metadata.get("column_count", "many")
        return self.textual(
            detection,
            f"Table {detection.table or '<table>'} has {count} columns. Split it into cohesive "
            "entities (1:1 child tables for rarely used column groups) so queries only touch the "
            "columns they need.",
        )


class RoundingErrorsFix(FixRule):
    anti_pattern = AntiPattern.ROUNDING_ERRORS

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table
        column = detection.column
        if table and column:
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[f"ALTER TABLE {table} ALTER COLUMN {column} TYPE NUMERIC(12, 2)"],
                explanation=(
                    f"{table}.{column} stores fractional data in a binary floating-point type; "
                    "NUMERIC keeps exact decimal precision so aggregates and equality comparisons "
                    "stay accurate."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(detection, "Use NUMERIC/DECIMAL instead of FLOAT for fractional data.")


class EnumeratedTypesFix(FixRule):
    """Replace ENUM/CHECK-IN domains with a reference table (Figure 5)."""

    anti_pattern = AntiPattern.ENUMERATED_TYPES

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table
        column = detection.column
        if not table or not column:
            return self.textual(
                detection,
                "Replace the enumerated domain with a reference table and a FOREIGN KEY.",
            )
        reference = f"{column.capitalize()}"
        values = self._permitted_values(detection, context)
        statements = [
            f"CREATE TABLE {reference} ({column}_id INTEGER PRIMARY KEY, {column}_name VARCHAR(64) UNIQUE)",
        ]
        for position, value in enumerate(values, start=1):
            statements.append(
                f"INSERT INTO {reference} ({column}_id, {column}_name) VALUES ({position}, {quote_literal(value)})"
            )
        statements.extend(
            [
                f"ALTER TABLE {table} ADD COLUMN {column}_id INTEGER REFERENCES {reference}({column}_id)",
                f"UPDATE {table} SET {column}_id = (SELECT {column}_id FROM {reference} WHERE {column}_name = {table}.{column})",
                f"ALTER TABLE {table} DROP COLUMN {column}",
            ]
        )
        return Fix(
            detection=detection,
            kind=FixKind.REWRITE,
            statements=statements,
            explanation=(
                f"{table}.{column} restricts its values with an enumerated domain. Moving the "
                f"permitted values into the {reference} reference table makes renaming a value a "
                "single UPDATE (instead of dropping and re-adding a constraint), shrinks storage, "
                "and lets a FOREIGN KEY enforce validity."
            ),
            impacted_queries=self.impacted_queries(detection, context),
        )

    def _permitted_values(self, detection: Detection, context: ApplicationContext) -> list[str]:
        if detection.table and detection.column:
            column = context.column(detection.table, detection.column)
            if column is not None:
                if column.sql_type.enum_values:
                    return list(column.sql_type.enum_values)
                if column.check_values:
                    return list(column.check_values)
            profile = context.column_profile(detection.table, detection.column)
            if profile is not None and profile.distinct_count <= 16:
                database = context.database
                if database is not None:
                    stored = database.get_table(detection.table)
                    if stored is not None:
                        observed = sorted(
                            {
                                str(row.get(detection.column))
                                for row in stored.all_rows()
                                if row.get(detection.column) is not None
                            }
                        )
                        return observed[:16]
        return []


class ExternalDataStorageFix(FixRule):
    anti_pattern = AntiPattern.EXTERNAL_DATA_STORAGE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        return self.textual(
            detection,
            "Store the file content in a BLOB/BYTEA column (or at minimum enforce the path's "
            "existence at the application layer); external files are invisible to transactions, "
            "backups, and DELETE cascades.",
        )


class IndexOveruseFix(FixRule):
    anti_pattern = AntiPattern.INDEX_OVERUSE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        index = detection.metadata.get("index")
        covered_by = detection.metadata.get("covered_by")
        if index:
            reason = (
                f"it duplicates the leading column of '{covered_by}'"
                if covered_by
                else "no query in the workload uses it"
            )
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[f"DROP INDEX {index}"],
                explanation=(
                    f"Index '{index}' on {detection.table} should be dropped: {reason}. Every "
                    "INSERT/UPDATE/DELETE currently pays to maintain it (Figure 8a)."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(
            detection,
            f"Table {detection.table or '<table>'} carries more indexes than the workload uses; "
            "drop the unused ones or merge overlapping single-column indexes into one "
            "multi-column index.",
        )


class IndexUnderuseFix(FixRule):
    anti_pattern = AntiPattern.INDEX_UNDERUSE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table
        column = detection.column
        if table and column:
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[f"CREATE INDEX idx_{table.lower()}_{column.lower()} ON {table} ({column})"],
                explanation=(
                    f"Queries filter or group on {table}.{column} without an index; creating one "
                    "removes the full-table scan (Figure 8b). sqlcheck already verified the "
                    "column's cardinality is high enough for the index to pay off."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(detection, "Create an index on the frequently filtered column.")


class CloneTableFix(FixRule):
    anti_pattern = AntiPattern.CLONE_TABLE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        siblings = detection.metadata.get("siblings", [])
        return self.textual(
            detection,
            "Merge the cloned tables "
            + (", ".join(siblings) if siblings else "<name>_1, <name>_2, …")
            + " into a single table with a discriminator column holding the value currently "
            "encoded in the table name; add that column to the primary key.",
        )


class ColumnWildcardFix(FixRule):
    anti_pattern = AntiPattern.COLUMN_WILDCARD

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table
        columns = None
        if table:
            definition = context.table(table)
            if definition is not None and definition.columns:
                columns = definition.column_names
        if columns and detection.query:
            rewritten = re.sub(
                r"SELECT\s+\*", "SELECT " + ", ".join(columns), detection.query, count=1, flags=re.IGNORECASE
            )
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[],
                rewritten_query=rewritten,
                explanation=(
                    "Replace the wildcard with the explicit column list so schema changes fail "
                    "loudly and only needed columns travel over the network."
                ),
                impacted_queries=[],
            )
        return self.textual(
            detection, "List the needed columns explicitly instead of using SELECT *."
        )


#: The operand left of a ``||``.  It starts only where a word starts: a
#: match inside a word is never the leftmost one, and without the
#: lookbehind a failing search retries from every character of a long
#: word, which is quadratic in its length.
_CONCAT_OPERAND_RE = re.compile(r"(?<!\w)(\w+(?:\.\w+)?)\s*\|\|")


class ConcatenateNullsFix(FixRule):
    anti_pattern = AntiPattern.CONCATENATE_NULLS

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        column = detection.column or "<column>"
        rewritten = None
        if detection.query and "||" in detection.query:
            rewritten = _CONCAT_OPERAND_RE.sub(
                lambda m: f"COALESCE({m.group(1)}, '') ||", detection.query
            )
        return Fix(
            detection=detection,
            kind=FixKind.REWRITE if rewritten else FixKind.TEXTUAL,
            rewritten_query=rewritten,
            explanation=(
                f"Wrap nullable operands such as {column} in COALESCE(…, '') before concatenating; "
                "'a' || NULL yields NULL, silently dropping the whole string."
            ),
            impacted_queries=[],
        )


class OrderingByRandFix(FixRule):
    anti_pattern = AntiPattern.ORDERING_BY_RAND

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table or "<table>"
        pk = None
        definition = context.table(table) if detection.table else None
        if definition is not None and definition.primary_key_columns:
            pk = definition.primary_key_columns[0]
        key = pk or "id"
        return Fix(
            detection=detection,
            kind=FixKind.TEXTUAL,
            explanation=(
                "ORDER BY RAND() sorts every candidate row. Pick a random key instead, e.g. "
                f"SELECT * FROM {table} WHERE {key} >= (SELECT MIN({key}) + floor(random() * "
                f"(MAX({key}) - MIN({key}))) FROM {table}) ORDER BY {key} LIMIT 1, or use "
                "TABLESAMPLE where available."
            ),
        )


class PatternMatchingFix(FixRule):
    anti_pattern = AntiPattern.PATTERN_MATCHING

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        column = detection.column or "<column>"
        return self.textual(
            detection,
            f"Pattern matching on {column} cannot use a B-tree index. Use a full-text index "
            "(tsvector / FULLTEXT) for word searches, a trigram index for substring searches, or "
            "restructure the data (e.g. an intersection table) so equality predicates suffice.",
        )


class ImplicitColumnsFix(FixRule):
    """Rewrite INSERTs to name their columns (Example 2's fix needs the schema)."""

    anti_pattern = AntiPattern.IMPLICIT_COLUMNS

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table = detection.table
        columns = detection.metadata.get("expected_columns")
        if not columns and table:
            definition = context.table(table)
            if definition is not None and definition.columns:
                columns = definition.column_names
        if columns and detection.query:
            rewritten = re.sub(
                rf"(INSERT\s+INTO\s+{re.escape(table)})\s*VALUES" if table else r"(INSERT\s+INTO\s+\w+)\s*VALUES",
                lambda m: f"{m.group(1)} ({', '.join(columns)}) VALUES",
                detection.query,
                count=1,
                flags=re.IGNORECASE,
            )
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                rewritten_query=rewritten,
                explanation=(
                    "Name the target columns explicitly so the INSERT keeps working when the "
                    "table gains or loses columns."
                ),
            )
        return self.textual(
            detection,
            "List the target columns of the INSERT explicitly; without the schema sqlcheck cannot "
            "generate the column list for you.",
        )


class DistinctAndJoinFix(FixRule):
    anti_pattern = AntiPattern.DISTINCT_AND_JOIN

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        return self.textual(
            detection,
            "Instead of deduplicating the join result with DISTINCT, filter with a semi-join: "
            "SELECT … FROM outer_table o WHERE EXISTS (SELECT 1 FROM inner_table i WHERE "
            "i.fk = o.pk AND …).",
        )


class TooManyJoinsFix(FixRule):
    anti_pattern = AntiPattern.TOO_MANY_JOINS

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        joins = detection.metadata.get("join_count", "several")
        return self.textual(
            detection,
            f"The query chains {joins} joins. Consider materialising a pre-joined view for the hot "
            "path, caching the reference data in the application, or splitting the query — and "
            "verify every join column is indexed.",
        )


class ReadablePasswordFix(FixRule):
    anti_pattern = AntiPattern.READABLE_PASSWORD

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        return self.textual(
            detection,
            "Never store or compare plain-text passwords in SQL. Hash the password with a salted "
            "adaptive hash (bcrypt/argon2) in the application and compare hashes; keep the hash in "
            "a fixed-length column.",
        )


class MissingTimezoneFix(FixRule):
    anti_pattern = AntiPattern.MISSING_TIMEZONE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table, column = detection.table, detection.column
        if table and column:
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[
                    f"ALTER TABLE {table} ALTER COLUMN {column} TYPE TIMESTAMP WITH TIME ZONE "
                    f"USING {column} AT TIME ZONE 'UTC'"
                ],
                explanation=(
                    f"{table}.{column} stores timestamps without an offset; convert it to "
                    "TIMESTAMP WITH TIME ZONE (assuming the existing values are UTC) so readings "
                    "stay unambiguous."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(detection, "Store timestamps with an explicit timezone (timestamptz).")


class IncorrectDataTypeFix(FixRule):
    anti_pattern = AntiPattern.INCORRECT_DATA_TYPE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table, column = detection.table, detection.column
        inferred = detection.metadata.get("inferred", "the observed type")
        type_map = {
            "integer": "BIGINT",
            "approximate_numeric": "NUMERIC",
            "exact_numeric": "NUMERIC",
            "boolean": "BOOLEAN",
            "date": "DATE",
            "datetime": "TIMESTAMP",
            "uuid": "UUID",
        }
        target = type_map.get(str(inferred), None)
        if table and column and target:
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[
                    f"ALTER TABLE {table} ALTER COLUMN {column} TYPE {target} USING {column}::{target}"
                ],
                explanation=(
                    f"{table}.{column} is declared {detection.metadata.get('declared', 'TEXT')} but "
                    f"holds {inferred} values; converting to {target} restores type safety, "
                    "smaller storage, and index-friendly comparisons."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(detection, "Change the column's type to match the data it stores.")


class DenormalizedTableFix(FixRule):
    anti_pattern = AntiPattern.DENORMALIZED_TABLE

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table, column = detection.table or "<table>", detection.column or "<column>"
        reference = f"{column.capitalize()}_ref"
        return Fix(
            detection=detection,
            kind=FixKind.REWRITE,
            statements=[
                f"CREATE TABLE {reference} ({column}_id SERIAL PRIMARY KEY, {column} VARCHAR(255) UNIQUE)",
                f"INSERT INTO {reference} ({column}) SELECT DISTINCT {column} FROM {table}",
                f"ALTER TABLE {table} ADD COLUMN {column}_id INTEGER REFERENCES {reference}({column}_id)",
                f"UPDATE {table} SET {column}_id = (SELECT {column}_id FROM {reference} r WHERE r.{column} = {table}.{column})",
                f"ALTER TABLE {table} DROP COLUMN {column}",
            ],
            explanation=(
                f"The repeated values of {table}.{column} belong in the reference table {reference}; "
                "keeping only the integer key removes the duplication and shrinks the table."
            ),
            impacted_queries=self.impacted_queries(detection, context),
        )


class InformationDuplicationFix(FixRule):
    anti_pattern = AntiPattern.INFORMATION_DUPLICATION

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        other = detection.metadata.get("other_column", "the source column")
        return self.textual(
            detection,
            f"Drop the derived column {detection.column or '<column>'} and compute it from {other} "
            "at query time (or define it as a generated column / view) so the two can never disagree.",
        )


class RedundantColumnFix(FixRule):
    anti_pattern = AntiPattern.REDUNDANT_COLUMN

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table, column = detection.table, detection.column
        if table and column:
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[f"ALTER TABLE {table} DROP COLUMN {column}"],
                explanation=(
                    f"{table}.{column} carries no information (all NULLs or a single constant); "
                    "dropping it saves space. If the constant matters, move it to application "
                    "configuration or a DEFAULT."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(detection, "Drop the column that carries no information.")


class NoDomainConstraintFix(FixRule):
    anti_pattern = AntiPattern.NO_DOMAIN_CONSTRAINT

    def build(self, detection: Detection, context: ApplicationContext) -> Fix:
        table, column = detection.table, detection.column
        low = detection.metadata.get("min")
        high = detection.metadata.get("max")
        if table and column and low is not None and high is not None and str(low).replace(".", "").lstrip("-").isdigit():
            return Fix(
                detection=detection,
                kind=FixKind.REWRITE,
                statements=[
                    f"ALTER TABLE {table} ADD CONSTRAINT chk_{table.lower()}_{column.lower()} "
                    f"CHECK ({column} BETWEEN {low} AND {high})"
                ],
                explanation=(
                    f"{table}.{column} only takes values between {low} and {high}; a CHECK "
                    "constraint documents and enforces that domain."
                ),
                impacted_queries=self.impacted_queries(detection, context),
            )
        return self.textual(
            detection,
            "Add a CHECK constraint (or a reference table with a FOREIGN KEY) restricting the "
            "column to its valid domain.",
        )


def default_fix_rules() -> list[FixRule]:
    """One fix rule per anti-pattern in the catalog."""
    return [
        MultiValuedAttributeFix(),
        NoPrimaryKeyFix(),
        NoForeignKeyFix(),
        GenericPrimaryKeyFix(),
        DataInMetadataFix(),
        AdjacencyListFix(),
        GodTableFix(),
        RoundingErrorsFix(),
        EnumeratedTypesFix(),
        ExternalDataStorageFix(),
        IndexOveruseFix(),
        IndexUnderuseFix(),
        CloneTableFix(),
        ColumnWildcardFix(),
        ConcatenateNullsFix(),
        OrderingByRandFix(),
        PatternMatchingFix(),
        ImplicitColumnsFix(),
        DistinctAndJoinFix(),
        TooManyJoinsFix(),
        ReadablePasswordFix(),
        MissingTimezoneFix(),
        IncorrectDataTypeFix(),
        DenormalizedTableFix(),
        InformationDuplicationFix(),
        RedundantColumnFix(),
        NoDomainConstraintFix(),
    ]
