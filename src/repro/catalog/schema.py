"""Schema catalog: columns, constraints, indexes, tables, and the schema.

The catalog is the logical-design half of the application context
(Algorithm 1 builds it from DDL statements or from the live database).  The
detection rules query it for primary keys, foreign keys, indexes, column
types and table shapes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .types import SQLType, parse_type


@dataclass
class Column:
    """A column definition within a table."""

    name: str
    sql_type: SQLType = field(default_factory=lambda: parse_type("TEXT"))
    nullable: bool = True
    default: str | None = None
    is_primary_key: bool = False
    is_unique: bool = False
    is_auto_increment: bool = False
    check_values: tuple[str, ...] = ()
    has_check: bool = False
    references: "ForeignKey | None" = None
    comment: str | None = None

    @property
    def has_domain_constraint(self) -> bool:
        """True when the column restricts its domain via CHECK/ENUM values."""
        return bool(self.check_values) or self.sql_type.is_enum or self.has_check


@dataclass(frozen=True)
class ForeignKey:
    """A referential-integrity constraint."""

    columns: tuple[str, ...]
    referenced_table: str
    referenced_columns: tuple[str, ...] = ()
    name: str | None = None
    on_delete: str | None = None
    on_update: str | None = None

    @property
    def is_self_reference_candidate(self) -> bool:
        """Whether the constraint could reference its own table (resolved by
        the adjacency-list rule, which knows the owning table)."""
        return bool(self.referenced_table)


@dataclass(frozen=True)
class CheckConstraint:
    """A CHECK constraint (possibly an enumerated-domain check)."""

    expression: str
    name: str | None = None
    column: str | None = None
    in_values: tuple[str, ...] = ()


@dataclass(frozen=True)
class UniqueConstraint:
    """A UNIQUE constraint over one or more columns."""

    columns: tuple[str, ...]
    name: str | None = None


@dataclass
class Index:
    """An index over one or more columns of a table."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False

    @property
    def is_multi_column(self) -> bool:
        return len(self.columns) > 1

    def covers(self, columns: "tuple[str, ...] | list[str]") -> bool:
        """True when the index's leading columns cover the given column set."""
        wanted = {c.lower() for c in columns}
        prefix: set[str] = set()
        for column in self.columns:
            prefix.add(column.lower())
            if wanted <= prefix:
                return True
        return wanted <= prefix


@dataclass
class Table:
    """A table definition: columns, constraints, and indexes."""

    name: str
    columns: dict[str, Column] = field(default_factory=dict)
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    checks: list[CheckConstraint] = field(default_factory=list)
    uniques: list[UniqueConstraint] = field(default_factory=list)
    indexes: dict[str, Index] = field(default_factory=dict)
    comment: str | None = None

    # -- column access ------------------------------------------------------
    def add_column(self, column: Column) -> None:
        self.columns[column.name.lower()] = column

    def get_column(self, name: str) -> Column | None:
        return self.columns.get(name.lower())

    def has_column(self, name: str) -> bool:
        return name.lower() in self.columns

    def drop_column(self, name: str) -> None:
        self.columns.pop(name.lower(), None)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns.values()]

    @property
    def column_count(self) -> int:
        return len(self.columns)

    # -- key / constraint facts ---------------------------------------------
    @property
    def has_primary_key(self) -> bool:
        if self.primary_key:
            return True
        return any(c.is_primary_key for c in self.columns.values())

    @property
    def primary_key_columns(self) -> tuple[str, ...]:
        if self.primary_key:
            return self.primary_key
        return tuple(c.name for c in self.columns.values() if c.is_primary_key)

    @property
    def has_foreign_keys(self) -> bool:
        return bool(self.foreign_keys) or any(
            c.references is not None for c in self.columns.values()
        )

    def all_foreign_keys(self) -> list[ForeignKey]:
        fks = list(self.foreign_keys)
        for column in self.columns.values():
            if column.references is not None:
                fks.append(column.references)
        return fks

    def indexed_column_sets(self) -> list[tuple[str, ...]]:
        """All column tuples covered by an index (including the PK)."""
        covered = [tuple(c.lower() for c in idx.columns) for idx in self.indexes.values()]
        if self.primary_key_columns:
            covered.append(tuple(c.lower() for c in self.primary_key_columns))
        for unique in self.uniques:
            covered.append(tuple(c.lower() for c in unique.columns))
        return covered

    def column_is_indexed(self, column: str) -> bool:
        """True when the column is the leading column of some index/PK."""
        target = column.lower()
        for columns in self.indexed_column_sets():
            if columns and columns[0] == target:
                return True
        return False

    def add_index(self, index: Index) -> None:
        self.indexes[index.name.lower()] = index

    def copy(self) -> "Table":
        """An independent copy: DDL applied to it (ALTER TABLE, CREATE INDEX,
        dropped constraints) leaves this table unchanged.  Constraints are
        frozen and shared; columns and indexes are copied."""
        return Table(
            name=self.name,
            columns={key: _shallow_copy(column) for key, column in self.columns.items()},
            primary_key=self.primary_key,
            foreign_keys=list(self.foreign_keys),
            checks=list(self.checks),
            uniques=list(self.uniques),
            indexes={key: _shallow_copy(index) for key, index in self.indexes.items()},
            comment=self.comment,
        )


def _shallow_copy(obj):
    """``copy.copy`` of a plain dataclass instance, without the reduce
    protocol's overhead (about 5× faster on a :class:`Column`)."""
    clone = object.__new__(type(obj))
    clone.__dict__.update(obj.__dict__)
    return clone


@dataclass
class Schema:
    """A collection of tables plus schema-level indexes."""

    tables: dict[str, Table] = field(default_factory=dict)
    name: str = "public"

    def add_table(self, table: Table) -> None:
        self.tables[table.name.lower()] = table

    def get_table(self, name: str) -> Table | None:
        return self.tables.get(name.lower())

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def drop_table(self, name: str) -> None:
        self.tables.pop(name.lower(), None)

    @property
    def table_names(self) -> list[str]:
        return [t.name for t in self.tables.values()]

    @property
    def table_count(self) -> int:
        return len(self.tables)

    def all_indexes(self) -> list[Index]:
        indexes: list[Index] = []
        for table in self.tables.values():
            indexes.extend(table.indexes.values())
        return indexes

    def foreign_keys_to(self, table_name: str) -> list[tuple[str, ForeignKey]]:
        """All (owning-table, FK) pairs that reference ``table_name``."""
        result = []
        for table in self.tables.values():
            for fk in table.all_foreign_keys():
                if fk.referenced_table.lower() == table_name.lower():
                    result.append((table.name, fk))
        return result

    def column_owners(self) -> dict[str, list[tuple[Table, Column]]]:
        """Lower-cased column name → its ``(table, column)`` pairs, in table
        order, so a lookup answers as :meth:`resolve_column` does.  A
        snapshot: later DDL on this schema is not reflected."""
        owners: dict[str, list[tuple[Table, Column]]] = {}
        for table in self.tables.values():
            for key, col in table.columns.items():
                owners.setdefault(key, []).append((table, col))
        return owners

    def resolve_column(self, column: str, hint_tables: list[str] | None = None
                       ) -> tuple[Table, Column] | None:
        """Find the (table, column) pair a bare column name refers to.

        When several tables define the column, tables in ``hint_tables`` win.
        """
        candidates: list[tuple[Table, Column]] = []
        for table in self.tables.values():
            col = table.get_column(column)
            if col is not None:
                candidates.append((table, col))
        if not candidates:
            return None
        if hint_tables:
            hints = {h.lower() for h in hint_tables}
            for table, col in candidates:
                if table.name.lower() in hints:
                    return table, col
        return candidates[0]
