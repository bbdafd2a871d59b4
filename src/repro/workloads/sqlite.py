"""In-memory SQLite databases for the generated datasets.

The workloads, the rule examples and the tests keep their data in stdlib
``sqlite3`` databases; an open connection is what every ``database=``
argument accepts, and it reaches sqlcheck through the same connector a
live scan uses.
"""
from __future__ import annotations

import sqlite3
from typing import Iterable, Mapping


def quote(identifier: str) -> str:
    """``identifier`` as a quoted SQL name (any text, a leading digit too)."""
    return '"' + identifier.replace('"', '""') + '"'


def insert_rows(connection: sqlite3.Connection, table: str, rows: Iterable[Mapping]) -> None:
    """Insert each row dict into ``table``, with the columns it names."""
    for row in rows:
        columns = ", ".join(map(quote, row))
        marks = ", ".join("?" * len(row))
        connection.execute(
            f"INSERT INTO {quote(table)} ({columns}) VALUES ({marks})", tuple(row.values())
        )


def sqlite_database(
    statements: Iterable[str] = (),
    rows: "Mapping[str, Iterable[Mapping]] | Iterable[tuple[str, Iterable[Mapping]]]" = (),
) -> sqlite3.Connection:
    """A fresh in-memory database: ``statements`` run in order, then
    ``rows`` (table name → row dicts, as a mapping or as pairs) inserted."""
    connection = sqlite3.connect(":memory:")
    for statement in statements:
        connection.execute(statement)
    for table, table_rows in rows.items() if isinstance(rows, Mapping) else rows:
        insert_rows(connection, table, table_rows)
    connection.commit()
    return connection
