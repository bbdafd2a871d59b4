"""DDL interpreter: build a :class:`Schema` from CREATE/ALTER statements.

When a live database connection is unavailable, the context builder falls
back to DDL statements to construct the application's schema context
(Algorithm 2: "If the database is not available, the ContextBuilder leverages
the DDL statements to construct the context").
"""
from __future__ import annotations

import re

from ..sqlparser import ParsedStatement, Token, TokenType, parse, parse_statement
from .schema import (
    CheckConstraint,
    Column,
    ForeignKey,
    Index,
    Schema,
    Table,
    UniqueConstraint,
)
from .types import parse_type

_CONSTRAINT_STARTERS = {
    "PRIMARY KEY",
    "FOREIGN KEY",
    "UNIQUE",
    "CHECK",
    "CONSTRAINT",
    "KEY",
    "INDEX",
    "EXCLUDE",
}


_DEFAULT_RE = re.compile(r"DEFAULT\s+(\S+)", re.IGNORECASE)
_CHECK_RE = re.compile(r"\bCHECK\b", re.IGNORECASE)
_OPEN_SPACE_RE = re.compile(r"\(\s+")
_SPACE_CLOSE_RE = re.compile(r"\s+\)")
_TRAILING_CLOSE_RE = re.compile(r"\s*\)\s*$")


class DDLBuilder:
    """Interprets DDL statements and incrementally updates a schema."""

    def __init__(self, schema: Schema | None = None):
        self.schema = schema if schema is not None else Schema()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def build(self, statements: "list[ParsedStatement] | list[str] | str") -> Schema:
        """Apply every DDL statement in ``statements`` to the schema."""
        for statement in self._coerce(statements):
            self.apply(statement)
        return self.schema

    def apply(self, statement: ParsedStatement | str) -> None:
        """Apply a single statement (non-DDL statements are ignored)."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        handler = {
            "CREATE_TABLE": self._apply_create_table,
            "CREATE_INDEX": self._apply_create_index,
            "ALTER_TABLE": self._apply_alter_table,
            "DROP": self._apply_drop,
        }.get(statement.statement_type)
        if handler is not None:
            handler(statement)

    # ------------------------------------------------------------------
    # CREATE TABLE
    # ------------------------------------------------------------------
    def _apply_create_table(self, statement: ParsedStatement) -> None:
        table = self.derive_table(statement)
        if table is not None:
            self.schema.add_table(table)

    def derive_table(self, statement: ParsedStatement) -> Table | None:
        """The table a CREATE TABLE statement defines, or None (another
        statement type, or no table name).  A function of the statement
        alone: the schema is neither read nor changed."""
        if statement.statement_type != "CREATE_TABLE":
            return None
        tokens = statement.meaningful_tokens()
        table_name = self._create_table_name(tokens)
        if not table_name:
            return None
        table = Table(name=table_name)
        body = self._first_parenthesis_body(tokens)
        for item in self._split_top_level_commas(body):
            self._apply_table_item(table, item)
        return table

    def _create_table_name(self, tokens: list[Token]) -> str | None:
        skip = {"CREATE", "TABLE", "IF", "NOT", "EXISTS", "TEMP", "TEMPORARY", "NOT EXISTS"}
        for token in tokens:
            if token.is_identifier:
                return token.unquoted()
            if token.is_keyword and token.normalized not in skip:
                return None
        return None

    def _apply_table_item(self, table: Table, item: list[Token]) -> None:
        if not item:
            return
        first = item[0]
        head = first.normalized if first.is_keyword else None
        if head == "CONSTRAINT":
            # CONSTRAINT <name> <constraint-def>
            name = item[1].unquoted() if len(item) > 1 and item[1].is_identifier else None
            self._apply_table_constraint(table, item[2:], name)
            return
        if head in _CONSTRAINT_STARTERS:
            self._apply_table_constraint(table, item, None)
            return
        if first.is_identifier:
            column = self._parse_column_definition(item)
            if column is not None:
                table.add_column(column)
                if column.is_primary_key and not table.primary_key:
                    table.primary_key = (column.name,)

    def _apply_table_constraint(self, table: Table, item: list[Token], name: str | None) -> None:
        if not item:
            return
        head = item[0].normalized if item[0].is_keyword else ""
        if head == "PRIMARY KEY":
            columns = self._identifier_list_in_parens(item)
            if columns:
                table.primary_key = tuple(columns)
                for column in columns:
                    col = table.get_column(column)
                    if col is not None:
                        col.is_primary_key = True
        elif head == "FOREIGN KEY":
            columns = self._identifier_list_in_parens(item)
            referenced_table, referenced_columns = self._references_target(item)
            if referenced_table:
                table.foreign_keys.append(
                    ForeignKey(
                        columns=tuple(columns),
                        referenced_table=referenced_table,
                        referenced_columns=tuple(referenced_columns),
                        name=name,
                        on_delete=self._on_action(item, "DELETE"),
                        on_update=self._on_action(item, "UPDATE"),
                    )
                )
        elif head in ("UNIQUE", "KEY", "INDEX"):
            columns = self._identifier_list_in_parens(item)
            if columns:
                if head == "UNIQUE":
                    table.uniques.append(UniqueConstraint(columns=tuple(columns), name=name))
                table.add_index(
                    Index(
                        name=name or f"idx_{table.name}_{'_'.join(columns)}".lower(),
                        table=table.name,
                        columns=tuple(columns),
                        unique=head == "UNIQUE",
                    )
                )
        elif head == "CHECK":
            expression = " ".join(t.value for t in item[1:])
            column, in_values = self._parse_check_expression(expression)
            table.checks.append(
                CheckConstraint(expression=expression, name=name, column=column, in_values=in_values)
            )
            if column:
                col = table.get_column(column)
                if col is not None:
                    col.has_check = True
                    if in_values:
                        col.check_values = in_values

    # ------------------------------------------------------------------
    # column definitions
    # ------------------------------------------------------------------
    def _parse_column_definition(self, item: list[Token]) -> Column | None:
        name = item[0].unquoted()
        type_tokens: list[Token] = []
        i = 1
        depth = 0
        # The type is everything up to the first constraint keyword at depth 0.
        constraint_keywords = {
            "PRIMARY KEY",
            "NOT NULL",
            "NULL",
            "UNIQUE",
            "DEFAULT",
            "REFERENCES",
            "CHECK",
            "AUTO_INCREMENT",
            "AUTOINCREMENT",
            "COLLATE",
            "GENERATED",
            "CONSTRAINT",
            "COMMENT",
            "ON",
        }
        while i < len(item):
            token = item[i]
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth = max(0, depth - 1)
            if depth == 0 and token.is_keyword and token.normalized in constraint_keywords:
                break
            type_tokens.append(token)
            i += 1
        type_text = self._render_type(type_tokens)
        column = Column(name=name, sql_type=parse_type(type_text))
        rest = item[i:]
        check_text = " ".join(t.value for t in rest)
        rest_text = check_text.upper()
        column.nullable = "NOT NULL" not in rest_text
        column.is_primary_key = "PRIMARY KEY" in rest_text
        column.is_unique = "UNIQUE" in rest_text or column.is_primary_key
        column.is_auto_increment = (
            "AUTO_INCREMENT" in rest_text
            or "AUTOINCREMENT" in rest_text
            or column.sql_type.name in ("SERIAL", "BIGSERIAL", "SMALLSERIAL")
        )
        default_match = _DEFAULT_RE.search(check_text)
        if default_match:
            column.default = default_match.group(1)
        # inline REFERENCES
        referenced_table, referenced_columns = self._references_target(rest)
        if referenced_table:
            column.references = ForeignKey(
                columns=(name,),
                referenced_table=referenced_table,
                referenced_columns=tuple(referenced_columns),
                on_delete=self._on_action(rest, "DELETE"),
                on_update=self._on_action(rest, "UPDATE"),
            )
        # inline CHECK (col IN (...)) or range checks
        if _CHECK_RE.search(check_text):
            column.has_check = True
            column_name, in_values = self._parse_check_expression(check_text)
            if in_values and (column_name is None or column_name.lower() == name.lower()):
                column.check_values = in_values
        return column

    def _render_type(self, tokens: list[Token]) -> str:
        parts: list[str] = []
        for token in tokens:
            if token.value in ("(", ")", ","):
                if token.value == "(" or not parts:
                    parts.append(token.value)
                else:
                    parts[-1] = parts[-1] + token.value if parts else token.value
                continue
            if parts and parts[-1].endswith("("):
                parts[-1] = parts[-1] + token.value
            elif parts and parts[-1].endswith(","):
                parts[-1] = parts[-1] + token.value
            else:
                parts.append(token.value)
        text = " ".join(parts)
        text = _OPEN_SPACE_RE.sub("(", text)
        text = _SPACE_CLOSE_RE.sub(")", text)
        text = _TRAILING_CLOSE_RE.sub(")", text) if "(" in text else text
        # close any unclosed parenthesis conservatively
        if text.count("(") > text.count(")"):
            text += ")"
        return text.strip()

    # ------------------------------------------------------------------
    # CREATE INDEX / ALTER TABLE / DROP
    # ------------------------------------------------------------------
    def _apply_create_index(self, statement: ParsedStatement) -> None:
        tokens = statement.meaningful_tokens()
        unique = any(t.is_keyword and t.normalized == "UNIQUE" for t in tokens)
        index_name: str | None = None
        table_name: str | None = None
        on_seen = False
        for token in tokens:
            if token.is_keyword and token.normalized == "ON":
                on_seen = True
                continue
            if token.is_identifier:
                if not on_seen and index_name is None:
                    index_name = token.unquoted()
                elif on_seen and table_name is None:
                    table_name = token.unquoted()
        columns = self._identifier_list_in_parens(tokens)
        if not table_name:
            return
        table = self.schema.get_table(table_name)
        if table is None:
            table = Table(name=table_name)
            self.schema.add_table(table)
        table.add_index(
            Index(
                name=index_name or f"idx_{table_name}_{'_'.join(columns)}".lower(),
                table=table_name,
                columns=tuple(columns),
                unique=unique,
            )
        )

    def _apply_alter_table(self, statement: ParsedStatement) -> None:
        tokens = statement.meaningful_tokens()
        table_name = None
        for token in tokens:
            if token.is_identifier:
                table_name = token.unquoted()
                break
        if not table_name:
            return
        table = self.schema.get_table(table_name)
        if table is None:
            table = Table(name=table_name)
            self.schema.add_table(table)
        text = " ".join(t.value for t in tokens)
        upper = text.upper()
        # Constraint additions, named (ADD CONSTRAINT x PRIMARY KEY ...) or
        # anonymous (ADD PRIMARY KEY ... / ADD FOREIGN KEY ... / ADD CHECK ...).
        if " ADD CONSTRAINT" in upper or re.search(
            r"\bADD\s+(CHECK|PRIMARY\s+KEY|FOREIGN\s+KEY|UNIQUE)\b", upper
        ):
            name_match = re.search(r"ADD\s+CONSTRAINT\s+(\w+)", text, re.IGNORECASE)
            name = name_match.group(1) if name_match else None
            column, in_values = self._parse_check_expression(text)
            if "CHECK" in upper:
                table.checks.append(
                    CheckConstraint(
                        expression=text[upper.find("CHECK"):], name=name, column=column, in_values=in_values
                    )
                )
                if column:
                    col = table.get_column(column)
                    if col is not None:
                        col.has_check = True
                        if in_values:
                            col.check_values = in_values
            if "FOREIGN KEY" in upper:
                fk_columns = self._identifier_list_in_parens(tokens)
                referenced_table, referenced_columns = self._references_target(tokens)
                if referenced_table:
                    table.foreign_keys.append(
                        ForeignKey(
                            columns=tuple(fk_columns),
                            referenced_table=referenced_table,
                            referenced_columns=tuple(referenced_columns),
                            name=name,
                            on_delete=self._on_action(tokens, "DELETE"),
                            on_update=self._on_action(tokens, "UPDATE"),
                        )
                    )
            if "PRIMARY KEY" in upper:
                pk_columns = self._identifier_list_in_parens(tokens)
                if pk_columns:
                    table.primary_key = tuple(pk_columns)
        elif re.search(r"\bADD\s+(COLUMN\s+)?\w+", upper) and "CONSTRAINT" not in upper:
            add_match = re.search(r"\bADD\s+(?:COLUMN\s+)?(.*)$", text, re.IGNORECASE | re.DOTALL)
            if add_match:
                column_statement = parse_statement(f"CREATE TABLE _t ({add_match.group(1)})")
                body = self._first_parenthesis_body(column_statement.meaningful_tokens())
                for item in self._split_top_level_commas(body):
                    if item and item[0].is_identifier:
                        column = self._parse_column_definition(item)
                        if column is not None:
                            table.add_column(column)
        if re.search(r"\bDROP\s+(COLUMN\s+)?", upper) and "CONSTRAINT" not in upper:
            drop_match = re.search(r"\bDROP\s+(?:COLUMN\s+)?(\w+)", text, re.IGNORECASE)
            if drop_match:
                table.drop_column(drop_match.group(1))
        if re.search(r"\bDROP\s+CONSTRAINT\b", upper):
            drop_match = re.search(r"DROP\s+CONSTRAINT\s+(?:IF\s+EXISTS\s+)?(\w+)", text, re.IGNORECASE)
            if drop_match:
                constraint_name = drop_match.group(1).lower()
                dropped = [c for c in table.checks if (c.name or "").lower() == constraint_name]
                table.checks = [c for c in table.checks if (c.name or "").lower() != constraint_name]
                table.foreign_keys = [
                    fk for fk in table.foreign_keys if (fk.name or "").lower() != constraint_name
                ]
                # Dropping a named CHECK also lifts the domain restriction that
                # was recorded on the column itself.
                for check in dropped:
                    if check.column:
                        column = table.get_column(check.column)
                        if column is not None:
                            column.check_values = ()
                            column.has_check = bool(table.checks) and any(
                                (c.column or "").lower() == check.column.lower() for c in table.checks
                            )

    def _apply_drop(self, statement: ParsedStatement) -> None:
        tokens = statement.meaningful_tokens()
        upper = [t.normalized for t in tokens if t.is_keyword]
        names = [t.unquoted() for t in tokens if t.is_identifier]
        if "TABLE" in upper and names:
            self.schema.drop_table(names[0])
        elif "INDEX" in upper and names:
            target = names[0].lower()
            for table in self.schema.tables.values():
                table.indexes.pop(target, None)

    # ------------------------------------------------------------------
    # shared low-level helpers
    # ------------------------------------------------------------------
    def _coerce(self, statements) -> list[ParsedStatement]:
        if isinstance(statements, str):
            return parse(statements)
        result: list[ParsedStatement] = []
        for statement in statements:
            if isinstance(statement, str):
                result.extend(parse(statement))
            else:
                result.append(statement)
        return result

    def _first_parenthesis_body(self, tokens: list[Token]) -> list[Token]:
        depth = 0
        body: list[Token] = []
        started = False
        for token in tokens:
            if token.value == "(":
                depth += 1
                if depth == 1:
                    started = True
                    continue
            elif token.value == ")":
                depth -= 1
                if depth == 0 and started:
                    break
            if started and depth >= 1:
                body.append(token)
        return body

    def _split_top_level_commas(self, tokens: list[Token]) -> list[list[Token]]:
        items: list[list[Token]] = []
        current: list[Token] = []
        depth = 0
        for token in tokens:
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth = max(0, depth - 1)
            if depth == 0 and token.ttype is TokenType.PUNCTUATION and token.value == ",":
                if current:
                    items.append(current)
                current = []
                continue
            current.append(token)
        if current:
            items.append(current)
        return items

    def _identifier_list_in_parens(self, tokens: list[Token]) -> list[str]:
        """Identifiers inside the first parenthesis that is NOT part of a
        REFERENCES target (used for PK/FK/index column lists)."""
        depth = 0
        inside_references = False
        columns: list[str] = []
        collecting = False
        for token in tokens:
            if token.is_keyword and token.normalized == "REFERENCES":
                inside_references = True
            if token.value == "(":
                depth += 1
                if depth == 1 and not inside_references and not columns:
                    collecting = True
                continue
            if token.value == ")":
                depth = max(0, depth - 1)
                if depth == 0:
                    collecting = False
                    if columns:
                        break
                continue
            if collecting and token.is_identifier:
                columns.append(token.unquoted())
        return columns

    def _references_target(self, tokens: list[Token]) -> tuple[str | None, list[str]]:
        referenced_table: str | None = None
        referenced_columns: list[str] = []
        seen_references = False
        depth_after = 0
        for token in tokens:
            if token.is_keyword and token.normalized == "REFERENCES":
                seen_references = True
                continue
            if not seen_references:
                continue
            if token.value == "(":
                depth_after += 1
                continue
            if token.value == ")":
                depth_after = max(0, depth_after - 1)
                if referenced_table and depth_after == 0:
                    break
                continue
            if token.is_identifier:
                if referenced_table is None:
                    referenced_table = token.unquoted()
                elif depth_after >= 1:
                    referenced_columns.append(token.unquoted())
            if token.is_keyword and referenced_table and depth_after == 0 and token.normalized in (
                "ON",
                "NOT NULL",
                "DEFAULT",
                "UNIQUE",
                "PRIMARY KEY",
                "CHECK",
            ):
                break
        return referenced_table, referenced_columns

    def _on_action(self, tokens: list[Token], action: str) -> str | None:
        text = " ".join(t.value for t in tokens).upper()
        match = re.search(rf"ON\s+{action}\s+(CASCADE|RESTRICT|SET NULL|SET DEFAULT|NO ACTION)", text)
        return match.group(1) if match else None

    def _parse_check_expression(self, expression: str) -> tuple[str | None, tuple[str, ...]]:
        """Extract ``(column, permitted values)`` from ``CHECK (col IN (...))``."""
        match = re.search(r"\(?\s*(\w+)\s+IN\s*\(([^)]*)\)", expression, re.IGNORECASE)
        if not match:
            # range-style checks: CHECK (rating BETWEEN 1 AND 5) / (col >= x)
            range_match = re.search(r"\(?\s*(\w+)\s*(BETWEEN|[<>]=?)", expression, re.IGNORECASE)
            if range_match:
                return range_match.group(1), ()
            return None, ()
        column = match.group(1)
        values = tuple(v.strip().strip("'\"") for v in match.group(2).split(",") if v.strip())
        return column, values


def build_schema(statements: "list[ParsedStatement] | list[str] | str") -> Schema:
    """Build a fresh :class:`Schema` from DDL statements."""
    return DDLBuilder().build(statements)
