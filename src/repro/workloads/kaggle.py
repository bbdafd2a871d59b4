"""Kaggle database workloads (Tables 5 and 6, Appendix A).

The paper applies sqlcheck's *data-analysis* rules to 31 publicly available
SQLite databases from Kaggle.  The databases themselves are not shipped here,
so each one is described by the anti-pattern types Table 6 reports for it,
and ``build_kaggle_database`` synthesises an in-memory SQLite database whose
schema and data exhibit exactly those anti-patterns.  Running the data rules over
the synthetic databases therefore reproduces the per-database rows of
Table 6 and the totals of Table 5.
"""
from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass

from ..catalog.schema import Column, Table
from ..catalog.types import parse_type
from ..model.antipatterns import AntiPattern
from .sqlite import insert_rows, quote


@dataclass(frozen=True)
class KaggleDatabaseSpec:
    """One row of Table 6: database name and the anti-patterns found in it."""

    name: str
    anti_patterns: tuple[AntiPattern, ...]


_AP = AntiPattern

#: The 31 Kaggle databases of Table 6 with their detected anti-pattern types.
KAGGLE_DATABASES: tuple[KaggleDatabaseSpec, ...] = (
    KaggleDatabaseSpec("Board Games", (_AP.NO_PRIMARY_KEY, _AP.DATA_IN_METADATA, _AP.INCORRECT_DATA_TYPE)),
    KaggleDatabaseSpec("Pennsylvania Safe Schools Report", (_AP.NO_PRIMARY_KEY,)),
    KaggleDatabaseSpec("Soccer Dataset", (_AP.GENERIC_PRIMARY_KEY, _AP.DATA_IN_METADATA, _AP.MISSING_TIMEZONE, _AP.MULTI_VALUED_ATTRIBUTE)),
    KaggleDatabaseSpec("SF Bay Area Bike Share", (_AP.NO_PRIMARY_KEY, _AP.GENERIC_PRIMARY_KEY, _AP.INCORRECT_DATA_TYPE, _AP.MISSING_TIMEZONE, _AP.DENORMALIZED_TABLE)),
    KaggleDatabaseSpec("US Baby Names", (_AP.GENERIC_PRIMARY_KEY,)),
    KaggleDatabaseSpec("Pitchfork Music Data", (_AP.NO_PRIMARY_KEY, _AP.MISSING_TIMEZONE, _AP.INFORMATION_DUPLICATION, _AP.DENORMALIZED_TABLE)),
    KaggleDatabaseSpec("Acad. Research from Indian Univ.", (_AP.NO_PRIMARY_KEY, _AP.INCORRECT_DATA_TYPE, _AP.REDUNDANT_COLUMN, _AP.MULTI_VALUED_ATTRIBUTE)),
    KaggleDatabaseSpec("What.CD HipHop", (_AP.NO_PRIMARY_KEY, _AP.MULTI_VALUED_ATTRIBUTE)),
    KaggleDatabaseSpec("Snap Meme-Tracker", (_AP.MISSING_TIMEZONE,)),
    KaggleDatabaseSpec("NIPS papers", (_AP.GENERIC_PRIMARY_KEY, _AP.DENORMALIZED_TABLE)),
    KaggleDatabaseSpec("US Wildfires", (_AP.NO_PRIMARY_KEY, _AP.REDUNDANT_COLUMN)),
    KaggleDatabaseSpec("Que from crossvalidated StackExc", (_AP.NO_PRIMARY_KEY,)),
    KaggleDatabaseSpec("The History of Baseball", (_AP.NO_PRIMARY_KEY, _AP.DATA_IN_METADATA, _AP.INCORRECT_DATA_TYPE, _AP.MULTI_VALUED_ATTRIBUTE)),
    KaggleDatabaseSpec("Twitter US Airline Sentiment", (_AP.DENORMALIZED_TABLE,)),
    KaggleDatabaseSpec("Hilary Clinton Emails", (_AP.GENERIC_PRIMARY_KEY, _AP.INCORRECT_DATA_TYPE)),
    KaggleDatabaseSpec("SEPTA - Regional Rail", (_AP.INCORRECT_DATA_TYPE, _AP.MISSING_TIMEZONE)),
    KaggleDatabaseSpec("US Consumer finance Complaints", (_AP.NO_PRIMARY_KEY, _AP.INCORRECT_DATA_TYPE, _AP.MULTI_VALUED_ATTRIBUTE, _AP.DENORMALIZED_TABLE)),
    KaggleDatabaseSpec("1st GOP Debate Twitter Sentiment", (_AP.GENERIC_PRIMARY_KEY,)),
    KaggleDatabaseSpec("SF Salaries", (_AP.GENERIC_PRIMARY_KEY, _AP.DENORMALIZED_TABLE)),
    KaggleDatabaseSpec("Freight Matrix Transportation", (_AP.NO_PRIMARY_KEY, _AP.DATA_IN_METADATA, _AP.REDUNDANT_COLUMN)),
    KaggleDatabaseSpec("WDIdata", (_AP.NO_PRIMARY_KEY, _AP.MULTI_VALUED_ATTRIBUTE)),
    KaggleDatabaseSpec("Amazon Movie Reviews Dataset", (_AP.NO_PRIMARY_KEY, _AP.MULTI_VALUED_ATTRIBUTE)),
    KaggleDatabaseSpec("UK Arms Export License", (_AP.NO_PRIMARY_KEY,)),
    KaggleDatabaseSpec("Amazon Fine Food Reviews", (_AP.GENERIC_PRIMARY_KEY,)),
    KaggleDatabaseSpec("Stackoverflow Question Favourites", (_AP.MULTI_VALUED_ATTRIBUTE,)),
    KaggleDatabaseSpec("Iron March", (_AP.REDUNDANT_COLUMN,)),
    KaggleDatabaseSpec("C# Methods with Doc. Comments", (_AP.GENERIC_PRIMARY_KEY,)),
    KaggleDatabaseSpec("Pesticide Data Program", (_AP.NO_PRIMARY_KEY, _AP.INCORRECT_DATA_TYPE, _AP.REDUNDANT_COLUMN)),
    KaggleDatabaseSpec("Monty Python Flying Circus", (_AP.NO_PRIMARY_KEY, _AP.MISSING_TIMEZONE, _AP.DENORMALIZED_TABLE)),
    KaggleDatabaseSpec("Twitter Conv. about Black Panther", ()),
    KaggleDatabaseSpec("2016 US Election", (_AP.NO_PRIMARY_KEY, _AP.DATA_IN_METADATA, _AP.DENORMALIZED_TABLE)),
)

_ROWS = 240  # rows per synthetic table — enough for every data-rule threshold


def build_kaggle_database(
    spec: KaggleDatabaseSpec, *, rows: int = _ROWS, seed: int = 5
) -> sqlite3.Connection:
    """Build a synthetic database exhibiting exactly the spec's anti-patterns."""
    rng = random.Random(seed + len(spec.name))
    db = sqlite3.connect(":memory:")
    table = Table(name=_table_name(spec.name))
    aps = set(spec.anti_patterns)

    # Primary key handling.  When the spec lists both the generic-primary-key
    # and the no-primary-key anti-patterns (the real databases have several
    # tables), the main table gets the generic ``id`` key and a companion
    # table without any key is added below.
    if _AP.GENERIC_PRIMARY_KEY in aps:
        table.add_column(Column(name="id", sql_type=parse_type("INTEGER"), is_primary_key=True, nullable=False))
        table.primary_key = ("id",)
    elif _AP.NO_PRIMARY_KEY not in aps:
        table.add_column(
            Column(name=f"{table.name}_key", sql_type=parse_type("INTEGER"), is_primary_key=True, nullable=False)
        )
        table.primary_key = (f"{table.name}_key",)
    else:
        table.add_column(Column(name="record_code", sql_type=parse_type("INTEGER")))

    # Always-present descriptive columns.
    table.add_column(Column(name="name", sql_type=parse_type("VARCHAR(120)")))
    table.add_column(Column(name="value", sql_type=parse_type("NUMERIC(12,2)")))

    if _AP.INCORRECT_DATA_TYPE in aps:
        table.add_column(Column(name="year_recorded", sql_type=parse_type("TEXT")))
    if _AP.MISSING_TIMEZONE in aps:
        table.add_column(Column(name="observed_at", sql_type=parse_type("TIMESTAMP")))
    if _AP.MULTI_VALUED_ATTRIBUTE in aps:
        table.add_column(Column(name="member_ids", sql_type=parse_type("TEXT")))
    if _AP.DENORMALIZED_TABLE in aps:
        table.add_column(Column(name="organisation_name", sql_type=parse_type("VARCHAR(120)")))
    if _AP.REDUNDANT_COLUMN in aps:
        table.add_column(Column(name="locale", sql_type=parse_type("VARCHAR(16)")))
    if _AP.INFORMATION_DUPLICATION in aps:
        table.add_column(Column(name="birth_date", sql_type=parse_type("DATE")))
        table.add_column(Column(name="age", sql_type=parse_type("INTEGER")))
    if _AP.DATA_IN_METADATA in aps:
        for position in range(1, 4):
            table.add_column(Column(name=f"metric_{position}", sql_type=parse_type("NUMERIC(10,2)")))
    if _AP.NO_DOMAIN_CONSTRAINT in aps:
        table.add_column(Column(name="rating", sql_type=parse_type("INTEGER")))

    db.execute(_create_table_sql(table))

    organisations = [f"The {adj} Institute" for adj in ("National", "Royal", "Federal", "Global")]
    data_rows = []
    for index in range(rows):
        row: dict = {"name": f"entry {index}", "value": round(rng.uniform(1, 500), 2)}
        if table.primary_key:
            row[table.primary_key[0]] = index + 1
        else:
            row["record_code"] = index + 1
        if _AP.INCORRECT_DATA_TYPE in aps:
            row["year_recorded"] = str(1990 + index % 30)
        if _AP.MISSING_TIMEZONE in aps:
            row["observed_at"] = f"2019-0{1 + index % 9}-1{index % 9} 12:{index % 60:02d}:00"
        if _AP.MULTI_VALUED_ATTRIBUTE in aps:
            row["member_ids"] = ",".join(str(rng.randint(1, 50)) for _ in range(3))
        if _AP.DENORMALIZED_TABLE in aps:
            row["organisation_name"] = organisations[0] if index % 2 == 0 else rng.choice(organisations)
        if _AP.REDUNDANT_COLUMN in aps:
            row["locale"] = "en-us"
        if _AP.INFORMATION_DUPLICATION in aps:
            year = 1950 + index % 50
            row["birth_date"] = f"{year}-06-01"
            row["age"] = 2020 - year
        if _AP.DATA_IN_METADATA in aps:
            for position in range(1, 4):
                row[f"metric_{position}"] = round(rng.uniform(0, 10), 2)
        if _AP.NO_DOMAIN_CONSTRAINT in aps:
            row["rating"] = 1 + index % 5
        data_rows.append(row)
    insert_rows(db, table.name, data_rows)

    if _AP.NO_PRIMARY_KEY in aps and _AP.GENERIC_PRIMARY_KEY in aps:
        companion = Table(name=f"{table.name}_details")
        companion.add_column(Column(name="detail_code", sql_type=parse_type("INTEGER")))
        companion.add_column(Column(name="detail_text", sql_type=parse_type("VARCHAR(80)")))
        db.execute(_create_table_sql(companion))
        insert_rows(
            db,
            companion.name,
            [{"detail_code": i, "detail_text": f"detail {i}"} for i in range(rows // 4)],
        )
    db.commit()
    return db


def _create_table_sql(table: Table) -> str:
    """The CREATE TABLE text of a catalog definition (names, types, the
    primary key and NOT NULL: all these definitions declare)."""
    columns = []
    for column in table.columns.values():
        text = f"{column.name} {column.sql_type}"
        if column.is_primary_key:
            text += " PRIMARY KEY"
        if not column.nullable:
            text += " NOT NULL"
        columns.append(text)
    return f"CREATE TABLE {quote(table.name)} ({', '.join(columns)})"


def _table_name(database_name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in database_name.lower())
    cleaned = "_".join(part for part in cleaned.split("_") if part)
    return cleaned[:40] or "dataset"
