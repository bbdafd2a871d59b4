"""Statement annotation: extract structured facts from a parsed statement.

The paper addresses sqlparse's lack of a semantically-rich parse tree by
*annotating* the tree (§4.1).  This module is that annotation layer: it turns
a :class:`ParsedStatement` into a :class:`QueryAnnotation` carrying the
tables, columns, predicates, joins, and clause-level facts that the detection
rules, the context builder and the repair engine all consume.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

from .keywords import COMPARISON_OPERATORS
from .parser import ParsedStatement, parse_statement
from .tokens import Token, TokenType

# Clause-introducing keywords for DML statements.
_CLAUSE_KEYWORDS = {
    "SELECT": "select",
    "FROM": "from",
    "WHERE": "where",
    "GROUP BY": "group_by",
    "HAVING": "having",
    "ORDER BY": "order_by",
    "LIMIT": "limit",
    "OFFSET": "offset",
    "SET": "set",
    "VALUES": "values",
    "RETURNING": "returning",
    "ON": "on",
    "USING": "using",
    "INTO": "into",
    "UPDATE": "update",
    "INSERT INTO": "into",
    "DELETE FROM": "from",
}

_JOIN_KEYWORDS = {
    "JOIN": "INNER",
    "INNER JOIN": "INNER",
    "LEFT JOIN": "LEFT",
    "LEFT OUTER JOIN": "LEFT",
    "RIGHT JOIN": "RIGHT",
    "RIGHT OUTER JOIN": "RIGHT",
    "FULL JOIN": "FULL",
    "FULL OUTER JOIN": "FULL",
    "CROSS JOIN": "CROSS",
    "NATURAL JOIN": "NATURAL",
}

_PATTERN_OPERATORS = {"LIKE", "NOT LIKE", "ILIKE", "NOT ILIKE", "REGEXP", "RLIKE", "SIMILAR TO", "GLOB"}

_MEMBERSHIP_OPERATORS = {"IN", "NOT IN", "BETWEEN", "NOT BETWEEN", "IS", "IS NOT"}

#: The normalized text of every token a predicate can hinge on: the lexer's
#: comparison operators and the pattern and membership keywords.  No other
#: token normalizes to one of these (keywords are words, comparisons are
#: symbols, and names, literals and quoted names keep their own text).
_PREDICATE_OPERATORS = frozenset(COMPARISON_OPERATORS) | _PATTERN_OPERATORS | _MEMBERSHIP_OPERATORS

_normalized = attrgetter("normalized")

_RANDOM_FUNCTIONS = {"RAND", "RANDOM", "NEWID"}


@dataclass(frozen=True, slots=True)
class TableReference:
    """A table referenced by a statement, with its alias when present."""

    name: str
    alias: str | None = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True, slots=True)
class ColumnReference:
    """A column referenced by a statement, with its qualifier when present."""

    name: str
    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True, slots=True)
class Predicate:
    """A simple predicate ``<column> <operator> <value>`` from WHERE/ON/HAVING.

    ``value`` holds the literal text when the right-hand side is a literal;
    ``value_column`` holds a column reference when the predicate compares two
    columns (as in a join condition).
    """

    column: ColumnReference | None
    operator: str
    value: str | None = None
    value_column: ColumnReference | None = None
    clause: str = "where"

    @property
    def is_column_comparison(self) -> bool:
        return self.value_column is not None


@dataclass(frozen=True, slots=True)
class JoinInfo:
    """A join clause: join type, joined table, and the raw ON condition."""

    join_type: str
    table: TableReference | None
    condition: str = ""


@dataclass(slots=True)
class QueryAnnotation:
    """Structured facts extracted from one SQL statement.

    Slotted: the detection rules read these attributes for every rule on
    every statement, so the per-instance dict is dropped and the hottest
    derived fact (:attr:`alias_map`) is computed once and cached.
    """

    statement: ParsedStatement
    statement_type: str = "OTHER"
    tables: list[TableReference] = field(default_factory=list)
    select_items: list[str] = field(default_factory=list)
    select_columns: list[ColumnReference] = field(default_factory=list)
    has_select_wildcard: bool = False
    is_distinct: bool = False
    joins: list[JoinInfo] = field(default_factory=list)
    predicates: list[Predicate] = field(default_factory=list)
    group_by_columns: list[ColumnReference] = field(default_factory=list)
    order_by_items: list[str] = field(default_factory=list)
    order_by_columns: list[ColumnReference] = field(default_factory=list)
    functions: set[str] = field(default_factory=set)
    string_literals: list[str] = field(default_factory=list)
    insert_columns: list[str] | None = None
    insert_values_rows: int = 0
    update_assignments: list[tuple[str, str]] = field(default_factory=list)
    limit: int | None = None
    uses_concat_operator: bool = False
    raw: str = ""
    # Cache for :attr:`alias_map`; safe because the annotator finishes
    # populating ``tables``/``joins`` before any consumer reads the map,
    # and annotations are never restructured afterwards.
    _alias_map: "dict[str, str] | None" = field(default=None, init=False, repr=False, compare=False)

    # -- derived facts -----------------------------------------------------
    @property
    def join_count(self) -> int:
        return len(self.joins)

    @property
    def alias_map(self) -> dict[str, str]:
        """Map from alias (lower-cased) to table name (cached)."""
        mapping = self._alias_map
        if mapping is not None:
            return mapping
        mapping = {}
        for table in self.tables:
            if table.alias:
                mapping[table.alias.lower()] = table.name
            mapping[table.name.lower()] = table.name
        for join in self.joins:
            if join.table is None:
                continue
            if join.table.alias:
                mapping[join.table.alias.lower()] = join.table.name
            mapping[join.table.name.lower()] = join.table.name
        self._alias_map = mapping
        return mapping

    @property
    def all_tables(self) -> list[TableReference]:
        """Tables from the FROM clause plus every joined table."""
        refs = list(self.tables)
        refs.extend(j.table for j in self.joins if j.table is not None)
        return refs

    def resolve_qualifier(self, qualifier: str | None) -> str | None:
        """Resolve a column qualifier (alias or table name) to a table name."""
        if qualifier is None:
            return None
        return self.alias_map.get(qualifier.lower(), qualifier)

    @property
    def pattern_predicates(self) -> list[Predicate]:
        return [p for p in self.predicates if p.operator in _PATTERN_OPERATORS]

    @property
    def uses_random_ordering(self) -> bool:
        for item in self.order_by_items:
            upper = item.upper()
            if any(fn + "(" in upper.replace(" ", "") or upper.strip() == fn for fn in _RANDOM_FUNCTIONS):
                return True
        return False

    def referenced_columns(self) -> list[ColumnReference]:
        """Every column reference extracted from any clause."""
        columns = list(self.select_columns)
        columns.extend(p.column for p in self.predicates if p.column is not None)
        columns.extend(p.value_column for p in self.predicates if p.value_column is not None)
        columns.extend(self.group_by_columns)
        columns.extend(self.order_by_columns)
        columns.extend(ColumnReference(name=a, qualifier=None) for a, _ in self.update_assignments)
        return columns


class QueryAnnotator:
    """Builds :class:`QueryAnnotation` objects from parsed statements."""

    def annotate(self, statement: ParsedStatement | str) -> QueryAnnotation:
        if isinstance(statement, str):
            statement = parse_statement(statement)
        annotation = QueryAnnotation(
            statement=statement,
            statement_type=statement.statement_type,
            raw=statement.raw,
        )
        tokens = statement.meaningful_tokens()
        if not tokens:
            return annotation
        if statement.statement_type in ("SELECT", "UPDATE", "DELETE", "INSERT", "MERGE", "REPLACE"):
            self._annotate_dml(annotation, tokens)
        else:
            self._annotate_generic(annotation, tokens)
        self._collect_functions_and_literals(annotation, tokens)
        return annotation

    # ------------------------------------------------------------------
    # DML annotation
    # ------------------------------------------------------------------
    def _annotate_dml(self, annotation: QueryAnnotation, tokens: list[Token]) -> None:
        clauses = self._split_clauses(tokens)
        for clause_name, clause_tokens in clauses:
            if clause_name == "distinct":
                annotation.is_distinct = True
            elif clause_name == "select":
                self._annotate_select_clause(annotation, clause_tokens)
            elif clause_name in ("from", "update", "into"):
                self._annotate_table_clause(annotation, clause_tokens)
            elif clause_name.startswith("join:"):
                join_type = clause_name.split(":", 1)[1]
                self._annotate_join_clause(annotation, join_type, clause_tokens)
            elif clause_name in ("where", "having", "on"):
                annotation.predicates.extend(
                    self._extract_predicates(clause_tokens, clause=clause_name)
                )
            elif clause_name == "group_by":
                annotation.group_by_columns.extend(self._extract_columns(clause_tokens))
            elif clause_name == "order_by":
                annotation.order_by_items.extend(self._split_on_commas(clause_tokens))
                annotation.order_by_columns.extend(self._extract_columns(clause_tokens))
            elif clause_name == "limit":
                annotation.limit = self._extract_limit(clause_tokens)
            elif clause_name == "set":
                annotation.update_assignments.extend(self._extract_assignments(clause_tokens))
            elif clause_name == "values":
                annotation.insert_values_rows = max(
                    1, sum(1 for t in clause_tokens if t.value == "(")
                )
        if annotation.statement_type == "INSERT":
            self._annotate_insert_columns(annotation, tokens)

    def _split_clauses(self, tokens: list[Token]) -> list[tuple[str, list[Token]]]:
        """Split the meaningful token list into (clause-name, tokens) pairs.

        Nested parentheses (sub-selects, IN lists, VALUES rows) stay inside
        the clause in which they appear.
        """
        clauses: list[tuple[str, list[Token]]] = []
        current_name = "head"
        current: list[Token] = []
        depth = 0
        punctuation = TokenType.PUNCTUATION
        for token in tokens:
            if token.ttype is punctuation:
                if token.value == "(":
                    depth += 1
                elif token.value == ")":
                    depth = max(0, depth - 1)
            elif depth == 0 and token.is_keyword:
                keyword = token.normalized
                if keyword in _JOIN_KEYWORDS:
                    clauses.append((current_name, current))
                    current_name = f"join:{_JOIN_KEYWORDS[keyword]}"
                    current = []
                    continue
                if keyword in _CLAUSE_KEYWORDS:
                    # ON / USING belong to the join clause they follow, so the
                    # join condition stays attached to its JoinInfo.
                    if keyword in ("ON", "USING") and current_name.startswith("join:"):
                        current.append(token)
                        continue
                    clauses.append((current_name, current))
                    current_name = _CLAUSE_KEYWORDS[keyword]
                    current = []
                    if keyword == "UPDATE":
                        current_name = "update"
                    continue
                if keyword == "DISTINCT" and current_name == "select" and not current:
                    # DISTINCT immediately after SELECT
                    clauses.append(("distinct", [token]))
                    continue
            current.append(token)
        clauses.append((current_name, current))
        return [(name, toks) for name, toks in clauses if name != "head" or toks]

    def _annotate_select_clause(self, annotation: QueryAnnotation, tokens: list[Token]) -> None:
        if tokens and tokens[0].match(TokenType.KEYWORD, "DISTINCT"):
            annotation.is_distinct = True
            tokens = tokens[1:]
        # DISTINCT may also have been captured as a pseudo-clause by _split_clauses.
        items = self._split_on_commas(tokens)
        annotation.select_items.extend(items)
        for token in tokens:
            if token.ttype is TokenType.WILDCARD:
                annotation.has_select_wildcard = True
        annotation.select_columns.extend(self._extract_columns(tokens))

    def _annotate_table_clause(self, annotation: QueryAnnotation, tokens: list[Token]) -> None:
        for item in self._split_on_commas(tokens):
            ref = self._parse_table_reference(item)
            if ref is not None:
                annotation.tables.append(ref)

    def _annotate_join_clause(
        self, annotation: QueryAnnotation, join_type: str, tokens: list[Token]
    ) -> None:
        # A join clause looks like:  <table> [AS alias] ON <condition>
        on_index = None
        depth = 0
        for i, token in enumerate(tokens):
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth = max(0, depth - 1)
            if depth == 0 and token.match(TokenType.KEYWORD, ("ON", "USING")):
                on_index = i
                break
        table_tokens = tokens[:on_index] if on_index is not None else tokens
        condition_tokens = tokens[on_index + 1 :] if on_index is not None else []
        table_text = " ".join(t.value for t in table_tokens)
        table_ref = self._parse_table_reference(table_text)
        condition = " ".join(t.value for t in condition_tokens)
        annotation.joins.append(JoinInfo(join_type=join_type, table=table_ref, condition=condition))
        if condition_tokens:
            annotation.predicates.extend(self._extract_predicates(condition_tokens, clause="on"))

    def _annotate_insert_columns(self, annotation: QueryAnnotation, tokens: list[Token]) -> None:
        """INSERT INTO t (c1, c2) VALUES ... — detect the optional column list."""
        # Find the INTO target, then check whether a parenthesis appears before
        # VALUES / SELECT.
        values_idx = None
        for i, token in enumerate(tokens):
            if token.match(TokenType.KEYWORD, "VALUES") or (
                token.ttype is TokenType.DML_KEYWORD and token.normalized == "SELECT" and i > 0
            ):
                values_idx = i
                break
        head = tokens[:values_idx] if values_idx is not None else tokens
        # Columns are listed in the first parenthesis of the head section.
        try:
            open_idx = next(i for i, t in enumerate(head) if t.value == "(")
        except StopIteration:
            annotation.insert_columns = None
            return
        close_idx = None
        depth = 0
        for i in range(open_idx, len(head)):
            if head[i].value == "(":
                depth += 1
            elif head[i].value == ")":
                depth -= 1
                if depth == 0:
                    close_idx = i
                    break
        if close_idx is None:
            annotation.insert_columns = None
            return
        columns = [
            t.unquoted()
            for t in head[open_idx + 1 : close_idx]
            if t.is_identifier or t.ttype is TokenType.DATATYPE
        ]
        annotation.insert_columns = columns

    # ------------------------------------------------------------------
    # generic / DDL annotation
    # ------------------------------------------------------------------
    def _annotate_generic(self, annotation: QueryAnnotation, tokens: list[Token]) -> None:
        """For DDL we only record the target table; the catalog interprets DDL."""
        target = self._ddl_target_table(annotation.statement_type, tokens)
        if target:
            annotation.tables.append(TableReference(name=target))
        annotation.predicates.extend(self._extract_predicates(tokens, clause="ddl"))

    def _ddl_target_table(self, statement_type: str, tokens: list[Token]) -> str | None:
        if statement_type in ("CREATE_TABLE", "ALTER_TABLE", "TRUNCATE", "DROP"):
            skip = {"IF", "NOT", "EXISTS", "TEMP", "TEMPORARY", "ONLY"}
            for token in tokens:
                if token.is_identifier:
                    return token.unquoted()
                if token.is_keyword and token.normalized not in (
                    {"CREATE", "ALTER", "DROP", "TRUNCATE", "TABLE"} | skip
                ):
                    # e.g. CREATE UNIQUE INDEX ... — handled below
                    break
        if statement_type == "CREATE_INDEX":
            # CREATE [UNIQUE] INDEX name ON table (...)
            on_seen = False
            for token in tokens:
                if token.is_keyword and token.normalized == "ON":
                    on_seen = True
                    continue
                if on_seen and token.is_identifier:
                    return token.unquoted()
        if statement_type != "CREATE_INDEX":
            for token in tokens:
                if token.is_identifier:
                    return token.unquoted()
        return None

    # ------------------------------------------------------------------
    # shared extraction helpers
    # ------------------------------------------------------------------
    def _split_on_commas(self, tokens: list[Token]) -> list[str]:
        items: list[str] = []
        current: list[str] = []
        depth = 0
        for token in tokens:
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth = max(0, depth - 1)
            if depth == 0 and token.ttype is TokenType.PUNCTUATION and token.value == ",":
                if current:
                    items.append(" ".join(current))
                current = []
                continue
            current.append(token.value)
        if current:
            items.append(" ".join(current))
        return [i.strip() for i in items if i.strip()]

    def _parse_table_reference(self, text: str) -> TableReference | None:
        text = text.strip()
        if not text or text.startswith("("):
            # Derived table / subquery: not a plain table reference.
            return None
        parts = re.split(r"\s+", text)
        name = parts[0].rstrip(",")
        name = _strip_quotes(name.split(".")[-1])
        alias = None
        rest = [p for p in parts[1:] if p]
        if rest:
            if rest[0].upper() == "AS" and len(rest) > 1:
                alias = _strip_quotes(rest[1])
            elif rest[0].upper() not in ("ON", "USING", "WHERE", "SET", "VALUES", "JOIN"):
                alias = _strip_quotes(rest[0])
        if not name or not re.match(r"^[A-Za-z_][\w$]*$", name):
            return None
        return TableReference(name=name, alias=alias)

    def _extract_columns(self, tokens: list[Token]) -> list[ColumnReference]:
        """Extract column references (qualified or bare) from a token run."""
        columns: list[ColumnReference] = []
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token.is_identifier:
                # qualified name?  a.b
                if i + 2 < len(tokens) and tokens[i + 1].value == "." and (
                    tokens[i + 2].is_identifier or tokens[i + 2].ttype is TokenType.WILDCARD
                ):
                    qualifier = token.unquoted()
                    name = tokens[i + 2].unquoted() if tokens[i + 2].is_identifier else "*"
                    columns.append(ColumnReference(name=name, qualifier=qualifier))
                    i += 3
                    continue
                # skip aliases following AS
                prev = tokens[i - 1] if i > 0 else None
                if prev is not None and prev.match(TokenType.KEYWORD, "AS"):
                    i += 1
                    continue
                # a bare name followed by "(" is a function, not a column
                nxt = tokens[i + 1] if i + 1 < len(tokens) else None
                if nxt is not None and nxt.value == "(":
                    i += 1
                    continue
                columns.append(ColumnReference(name=token.unquoted()))
            i += 1
        return columns

    def _extract_predicates(self, tokens: list[Token], clause: str) -> list[Predicate]:
        """Extract simple binary predicates from a condition token run."""
        operators = _PREDICATE_OPERATORS
        if operators.isdisjoint(map(_normalized, tokens)):
            return []
        predicates: list[Predicate] = []
        for i, token in enumerate(tokens):
            operator = token.normalized
            if operator not in operators:
                continue
            column = self._operand_column(tokens, i - 1, direction=-1)
            value_literal, value_column = self._operand_value(tokens, i + 1)
            if column is not None or value_column is not None:
                predicates.append(
                    Predicate(
                        column=column,
                        operator=operator,
                        value=value_literal,
                        value_column=value_column,
                        clause=clause,
                    )
                )
        return predicates

    def _operand_column(self, tokens: list[Token], index: int, direction: int) -> ColumnReference | None:
        """Column reference ending (direction=-1) or starting (+1) at index."""
        if index < 0 or index >= len(tokens):
            return None
        token = tokens[index]
        if not token.is_identifier:
            return None
        if direction == -1 and index >= 2 and tokens[index - 1].value == "." and tokens[index - 2].is_identifier:
            return ColumnReference(name=token.unquoted(), qualifier=tokens[index - 2].unquoted())
        if direction == 1 and index + 2 < len(tokens) and tokens[index + 1].value == "." and tokens[index + 2].is_identifier:
            return ColumnReference(name=tokens[index + 2].unquoted(), qualifier=token.unquoted())
        return ColumnReference(name=token.unquoted())

    def _operand_value(self, tokens: list[Token], index: int) -> tuple[str | None, ColumnReference | None]:
        """Literal text or column reference starting at ``index``."""
        if index >= len(tokens):
            return None, None
        token = tokens[index]
        if token.is_literal or token.ttype is TokenType.PLACEHOLDER:
            return token.value, None
        if token.is_keyword and token.normalized in ("NULL", "TRUE", "FALSE"):
            return token.normalized, None
        if token.is_identifier:
            return None, self._operand_column(tokens, index, direction=1)
        if token.value == "(":
            return "(...)", None
        return None, None

    def _extract_assignments(self, tokens: list[Token]) -> list[tuple[str, str]]:
        """Parse ``SET col = expr, col = expr`` into (column, expression) pairs."""
        assignments: list[tuple[str, str]] = []
        for item in self._split_on_commas(tokens):
            if "=" not in item:
                continue
            column, _, expression = item.partition("=")
            column = _strip_quotes(column.strip().split(".")[-1])
            assignments.append((column, expression.strip()))
        return assignments

    def _extract_limit(self, tokens: list[Token]) -> int | None:
        for token in tokens:
            if token.ttype is TokenType.NUMBER:
                try:
                    return int(float(token.value))
                except ValueError:  # pragma: no cover - defensive
                    return None
        return None

    def _collect_functions_and_literals(self, annotation: QueryAnnotation, tokens: list[Token]) -> None:
        # Enum members bound once: each ``TokenType.X`` read is an attribute
        # lookup on the enum class, dearer than the rest of a token's visit.
        NAME, PUNCTUATION, STRING, OPERATOR = (
            TokenType.NAME, TokenType.PUNCTUATION, TokenType.STRING, TokenType.OPERATOR
        )
        name = None  # the previous token, when it is a name
        for token in tokens:
            ttype = token.ttype
            if ttype is NAME:
                name = token
                continue
            if ttype is PUNCTUATION:
                if name is not None and token.value == "(":
                    annotation.functions.add(name.value.upper())
            elif ttype is STRING:
                annotation.string_literals.append(token.unquoted())
            elif ttype is OPERATOR and token.value == "||":
                annotation.uses_concat_operator = True
            name = None


def _strip_quotes(name: str) -> str:
    name = name.strip()
    if len(name) >= 2 and name[0] == name[-1] and name[0] in ('"', "`", "'"):
        return name[1:-1]
    if len(name) >= 2 and name[0] == "[" and name[-1] == "]":
        return name[1:-1]
    return name


_DEFAULT_ANNOTATOR = QueryAnnotator()


def annotate(statement: ParsedStatement | str) -> QueryAnnotation:
    """Annotate a statement using the shared default annotator."""
    return _DEFAULT_ANNOTATOR.annotate(statement)
