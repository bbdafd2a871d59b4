"""Seeded grammar-based SQL generator with known planted anti-patterns.

The generator is the fuzzing half of the conformance testkit: given a seed
it deterministically emits a corpus of parseable SQL statements, each
labelled with the anti-patterns that were *planted* into it (empty for
clean controls).  Plantings span all four rule categories — query shape,
logical design, physical design, and data-ish DDL — so a fuzzed corpus
exercises every dispatch path of the detector.

Labels are ground truth *for the statement group in isolation*: the
statements of one planting, analysed alone, trigger the planted
anti-pattern (that invariant is checked by ``tests/conformance``).  In a
combined corpus inter-query context can add or refine detections across
groups; the differential oracles therefore compare detector configurations
against each other, not against labels.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..model.antipatterns import AntiPattern

_NOUNS = (
    "orders", "articles", "sensors", "payments", "tickets", "events",
    "invoices", "shipments", "devices", "accounts", "agents", "venues",
    "readings", "bookings", "reviews", "profiles",
)
_COLUMNS = ("label", "region", "notes", "quantity", "total", "created_on")
_WORDS = ("alpha", "bravo", "delta", "echo", "lima", "oscar", "tango", "zulu")


@dataclass(frozen=True)
class GeneratedStatement:
    """One generated SQL statement group with its planted ground truth.

    ``rows`` optionally carries generated data (table → row dicts, frozen
    as tuples) for *data-rule* plantings: the group must then be analysed
    against a database loaded with those rows, exactly like a
    :class:`~repro.rules.base.RuleExample` with data.
    """

    sql: "tuple[str, ...]"
    planted: "tuple[AntiPattern, ...]" = ()
    rows: "tuple[tuple[str, tuple[dict, ...]], ...]" = ()

    @property
    def is_clean(self) -> bool:
        return not self.planted

    @property
    def needs_database(self) -> bool:
        return bool(self.rows)

    @property
    def text(self) -> str:
        return ";\n".join(self.sql)


class CorpusGenerator:
    """Deterministic anti-pattern corpus generator.

    Two generators built with the same seed produce identical corpora; the
    seed is therefore enough to reproduce any fuzzing failure.
    """

    def __init__(self, seed: int = 2020):
        self.seed = seed
        self._rng = random.Random(seed)
        self._unique = 0
        self._makers: "list[tuple[AntiPattern, Callable[[random.Random], list[str]]]]" = [
            (AntiPattern.COLUMN_WILDCARD, self._column_wildcard),
            (AntiPattern.IMPLICIT_COLUMNS, self._implicit_columns),
            (AntiPattern.ORDERING_BY_RAND, self._ordering_by_rand),
            (AntiPattern.PATTERN_MATCHING, self._pattern_matching),
            (AntiPattern.DISTINCT_AND_JOIN, self._distinct_and_join),
            (AntiPattern.TOO_MANY_JOINS, self._too_many_joins),
            (AntiPattern.READABLE_PASSWORD, self._readable_password),
            (AntiPattern.CONCATENATE_NULLS, self._concatenate_nulls),
            (AntiPattern.MULTI_VALUED_ATTRIBUTE, self._multi_valued_attribute),
            (AntiPattern.NO_FOREIGN_KEY, self._no_foreign_key),
            (AntiPattern.NO_PRIMARY_KEY, self._no_primary_key),
            (AntiPattern.GENERIC_PRIMARY_KEY, self._generic_primary_key),
            (AntiPattern.DATA_IN_METADATA, self._data_in_metadata),
            (AntiPattern.ADJACENCY_LIST, self._adjacency_list),
            (AntiPattern.GOD_TABLE, self._god_table),
            (AntiPattern.ROUNDING_ERRORS, self._rounding_errors),
            (AntiPattern.ENUMERATED_TYPES, self._enumerated_types),
            (AntiPattern.EXTERNAL_DATA_STORAGE, self._external_data_storage),
            (AntiPattern.CLONE_TABLE, self._clone_table),
            (AntiPattern.INDEX_OVERUSE, self._index_overuse),
            (AntiPattern.INDEX_UNDERUSE, self._index_underuse),
        ]
        #: data-rule recipes: groups that carry generated *rows* and must be
        #: analysed against a database (kept out of the flat SQL corpus —
        #: ``corpus_sql`` cannot represent them).
        self._data_makers: "list[tuple[AntiPattern, Callable[[random.Random], GeneratedStatement]]]" = [
            (AntiPattern.ENUMERATED_TYPES, self._enumerated_types_data),
            (AntiPattern.EXTERNAL_DATA_STORAGE, self._external_data_storage_data),
        ]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def plantable_anti_patterns(self) -> "tuple[AntiPattern, ...]":
        return tuple(ap for ap, _ in self._makers)

    def planted_statement(self, anti_pattern: AntiPattern | None = None) -> GeneratedStatement:
        """One statement group with a planted anti-pattern (random when None)."""
        if anti_pattern is None:
            anti_pattern, maker = self._rng.choice(self._makers)
        else:
            makers = dict(self._makers)
            if anti_pattern not in makers:
                raise ValueError(f"no planting recipe for {anti_pattern}")
            maker = makers[anti_pattern]
        return GeneratedStatement(sql=tuple(maker(self._rng)), planted=(anti_pattern,))

    def plantable_data_anti_patterns(self) -> "tuple[AntiPattern, ...]":
        return tuple(ap for ap, _ in self._data_makers)

    def planted_data_statement(
        self, anti_pattern: AntiPattern | None = None
    ) -> GeneratedStatement:
        """One data-rule scenario: DDL plus generated rows (random when
        ``anti_pattern`` is None).  The returned group carries ``rows`` and
        must be analysed against a database loaded with them."""
        if anti_pattern is None:
            anti_pattern, maker = self._rng.choice(self._data_makers)
        else:
            makers = dict(self._data_makers)
            if anti_pattern not in makers:
                raise ValueError(f"no data planting recipe for {anti_pattern}")
            maker = makers[anti_pattern]
        return maker(self._rng)

    def clean_statement(self) -> GeneratedStatement:
        """One statement group that triggers no rule in isolation."""
        maker = self._rng.choice(
            (self._clean_select, self._clean_insert, self._clean_update,
             self._clean_delete, self._clean_create)
        )
        return GeneratedStatement(sql=tuple(maker(self._rng)))

    def corpus(
        self, statements: int = 1000, planted_fraction: float = 0.5
    ) -> "list[GeneratedStatement]":
        """A labelled corpus of roughly ``statements`` statement groups."""
        if not 0 <= planted_fraction <= 1:
            raise ValueError("planted_fraction must be in [0, 1]")
        groups: list[GeneratedStatement] = []
        for _ in range(statements):
            if self._rng.random() < planted_fraction:
                groups.append(self.planted_statement())
            else:
                groups.append(self.clean_statement())
        return groups

    def corpus_sql(self, statements: int = 1000, planted_fraction: float = 0.5) -> "list[str]":
        """A flat statement list, ready for ``detect`` / ``detect_batch``."""
        flat: list[str] = []
        for group in self.corpus(statements, planted_fraction):
            flat.extend(group.sql)
        return flat

    # ------------------------------------------------------------------
    # vocabulary helpers
    # ------------------------------------------------------------------
    def _table(self, rng: random.Random, fresh: bool = False) -> str:
        """A table name; ``fresh`` names are unique so DDL plantings never
        collide with (or feed schema context to) other groups."""
        noun = rng.choice(_NOUNS)
        if not fresh:
            return noun
        self._unique += 1
        return f"{noun}_{self._unique}x"

    @staticmethod
    def _pk(table: str) -> str:
        return f"{table.rstrip('s')}_key"

    def _word(self, rng: random.Random) -> str:
        return rng.choice(_WORDS)

    # ------------------------------------------------------------------
    # clean controls
    # ------------------------------------------------------------------
    def _clean_select(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        column = rng.choice(_COLUMNS)
        return [
            f"SELECT {column}, {self._pk(table)} FROM {table} "
            f"WHERE {column} = '{self._word(rng)}' ORDER BY {column} LIMIT {rng.randint(1, 50)}"
        ]

    def _clean_insert(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [
            f"INSERT INTO {table} ({self._pk(table)}, label, quantity) "
            f"VALUES ({rng.randint(1, 9999)}, '{self._word(rng)}', {rng.randint(0, 99)})"
        ]

    def _clean_update(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [
            f"UPDATE {table} SET label = '{self._word(rng)}' "
            f"WHERE {self._pk(table)} = {rng.randint(1, 9999)}"
        ]

    def _clean_delete(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [f"DELETE FROM {table} WHERE {self._pk(table)} = {rng.randint(1, 9999)}"]

    def _clean_create(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        return [
            f"CREATE TABLE {table} ({self._pk(table)} INTEGER PRIMARY KEY, "
            "label VARCHAR(40) NOT NULL, quantity INTEGER, "
            "created_on TIMESTAMP WITH TIME ZONE)"
        ]

    # ------------------------------------------------------------------
    # planting recipes (query rules)
    # ------------------------------------------------------------------
    def _column_wildcard(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [f"SELECT * FROM {table} WHERE {self._pk(table)} = {rng.randint(1, 9999)}"]

    def _implicit_columns(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [
            f"INSERT INTO {table} VALUES ({rng.randint(1, 9999)}, '{self._word(rng)}')"
        ]

    def _ordering_by_rand(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        fn = rng.choice(("RAND()", "RANDOM()"))
        return [f"SELECT label FROM {table} ORDER BY {fn} LIMIT {rng.randint(1, 5)}"]

    def _pattern_matching(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [f"SELECT label FROM {table} WHERE notes LIKE '%{self._word(rng)}'"]

    def _distinct_and_join(self, rng: random.Random) -> list[str]:
        left, right = self._table(rng), self._table(rng)
        if left == right:
            right = f"{right}_b"
        return [
            f"SELECT DISTINCT l.label FROM {left} l "
            f"JOIN {right} r ON l.{self._pk(left)} = r.{self._pk(left)}"
        ]

    def _too_many_joins(self, rng: random.Random) -> list[str]:
        base = self._table(rng, fresh=True)
        joins = " ".join(
            f"JOIN {base}_{i} ON {base}_{i - 1}.k{i - 1} = {base}_{i}.k{i - 1}"
            for i in range(1, rng.randint(6, 8))
        )
        return [f"SELECT {base}_0.k0 FROM {base}_0 {joins}"]

    def _readable_password(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [
            f"SELECT {self._pk(table)} FROM {table} WHERE password = '{self._word(rng)}{rng.randint(1, 99)}'"
        ]

    def _concatenate_nulls(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [f"SELECT label || '-' || region FROM {table}"]

    def _multi_valued_attribute(self, rng: random.Random) -> list[str]:
        table = self._table(rng)
        return [
            f"SELECT {self._pk(table)} FROM {table} WHERE tag_ids LIKE '%{rng.randint(1, 99)}%'"
        ]

    # ------------------------------------------------------------------
    # planting recipes (logical / physical design DDL)
    # ------------------------------------------------------------------
    def _no_foreign_key(self, rng: random.Random) -> list[str]:
        """The paper's canonical inter-query planting (Example 3): both
        tables' DDL plus a JOIN on a column pair no FOREIGN KEY covers —
        the rule needs all three statements together to fire."""
        parent = self._table(rng, fresh=True)
        child = self._table(rng, fresh=True)
        parent_pk = self._pk(parent)
        return [
            f"CREATE TABLE {parent} ({parent_pk} INTEGER PRIMARY KEY, "
            "label VARCHAR(40) NOT NULL)",
            f"CREATE TABLE {child} ({self._pk(child)} INTEGER PRIMARY KEY, "
            f"{parent_pk} INTEGER, quantity INTEGER)",
            f"SELECT c.quantity FROM {child} c "
            f"JOIN {parent} p ON p.{parent_pk} = c.{parent_pk}",
        ]

    def _no_primary_key(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        return [
            f"CREATE TABLE {table} (label VARCHAR(40), quantity INTEGER, "
            "created_on TIMESTAMP WITH TIME ZONE)"
        ]

    def _generic_primary_key(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        return [f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, label VARCHAR(40) NOT NULL)"]

    def _data_in_metadata(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        numbered = ", ".join(f"slot_{i} INTEGER" for i in range(1, rng.randint(4, 6)))
        return [f"CREATE TABLE {table} ({self._pk(table)} INTEGER PRIMARY KEY, {numbered})"]

    def _adjacency_list(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        pk = self._pk(table)
        return [
            f"CREATE TABLE {table} ({pk} INTEGER PRIMARY KEY, label VARCHAR(40) NOT NULL, "
            f"parent_id INTEGER REFERENCES {table}({pk}))"
        ]

    def _god_table(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        wide = ", ".join(
            f"attr_{chr(ord('a') + i)} VARCHAR(20)" for i in range(rng.randint(11, 14))
        )
        return [f"CREATE TABLE {table} ({self._pk(table)} INTEGER PRIMARY KEY, {wide})"]

    def _rounding_errors(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        return [
            f"CREATE TABLE {table} ({self._pk(table)} INTEGER PRIMARY KEY, "
            "amount FLOAT, label VARCHAR(40) NOT NULL)"
        ]

    def _enumerated_types(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        values = ", ".join(f"'{w}'" for w in rng.sample(_WORDS, 3))
        return [
            f"CREATE TABLE {table} ({self._pk(table)} INTEGER PRIMARY KEY, "
            f"status ENUM({values}))"
        ]

    def _external_data_storage(self, rng: random.Random) -> list[str]:
        table = self._table(rng, fresh=True)
        return [
            f"CREATE TABLE {table} ({self._pk(table)} INTEGER PRIMARY KEY, "
            "file_path VARCHAR(255), label VARCHAR(40) NOT NULL)"
        ]

    def _clone_table(self, rng: random.Random) -> list[str]:
        base = self._table(rng, fresh=True)
        columns = f"{self._pk(base)} INTEGER PRIMARY KEY, payload TEXT"
        return [
            f"CREATE TABLE {base}_1 ({columns})",
            f"CREATE TABLE {base}_2 ({columns})",
        ]

    def _index_overuse(self, rng: random.Random) -> list[str]:
        """Example 5's unused index: the whole workload filters on the
        primary key, so the planted index accelerates nothing — an
        inter-query detection needing DDL + index + queries together."""
        table = self._table(rng, fresh=True)
        pk = self._pk(table)
        return [
            f"CREATE TABLE {table} ({pk} INTEGER PRIMARY KEY, "
            "label VARCHAR(40) NOT NULL, region VARCHAR(20))",
            f"CREATE INDEX idx_{table}_region ON {table} (region)",
            f"SELECT label FROM {table} WHERE {pk} = {rng.randint(1, 9999)}",
        ]

    def _index_underuse(self, rng: random.Random) -> list[str]:
        """A selective predicate on a column no index covers — inter-query:
        the CREATE TABLE supplies the schema the predicate is judged
        against."""
        table = self._table(rng, fresh=True)
        pk = self._pk(table)
        return [
            f"CREATE TABLE {table} ({pk} INTEGER PRIMARY KEY, "
            "label VARCHAR(40) NOT NULL, region VARCHAR(20))",
            f"SELECT {pk} FROM {table} WHERE region = '{self._word(rng)}'",
        ]

    # ------------------------------------------------------------------
    # planting recipes (data rules: DDL + generated rows)
    # ------------------------------------------------------------------
    def _enumerated_types_data(self, rng: random.Random) -> GeneratedStatement:
        """An undeclared enum: a textual column with a handful of distinct
        values across a large sample (Example 4's distinct-to-tuples
        ratio), visible only to data analysis."""
        table = self._table(rng, fresh=True)
        pk = self._pk(table)
        domain = rng.sample(_WORDS, 3)
        count = rng.randint(120, 160)
        rows = tuple(
            {pk: i, "status": domain[i % len(domain)]} for i in range(count)
        )
        return GeneratedStatement(
            sql=(
                f"CREATE TABLE {table} ({pk} INTEGER PRIMARY KEY, "
                "status VARCHAR(12))",
            ),
            planted=(AntiPattern.ENUMERATED_TYPES,),
            rows=((table, rows),),
        )

    def _external_data_storage_data(self, rng: random.Random) -> GeneratedStatement:
        """File paths stored as data: the column name gives nothing away,
        so only profiling the rows can catch it."""
        table = self._table(rng, fresh=True)
        pk = self._pk(table)
        folder = self._word(rng)
        count = rng.randint(20, 40)
        rows = tuple(
            {pk: i, "location": f"/srv/{folder}/batch_{i}/blob_{i}.bin"}
            for i in range(count)
        )
        return GeneratedStatement(
            sql=(
                f"CREATE TABLE {table} ({pk} INTEGER PRIMARY KEY, "
                "location VARCHAR(255))",
            ),
            planted=(AntiPattern.EXTERNAL_DATA_STORAGE,),
            rows=((table, rows),),
        )


def labelled_recall(
    groups: "Sequence[GeneratedStatement]",
    detected_types_for: "Callable[[Sequence[str]], set]",
) -> "dict[AntiPattern, tuple[int, int]]":
    """Per-anti-pattern (hits, planted) recall of a detector callback run on
    each planted group in isolation."""
    tally: "dict[AntiPattern, list[int]]" = {}
    for group in groups:
        for anti_pattern in group.planted:
            hits, planted = tally.setdefault(anti_pattern, [0, 0])
            tally[anti_pattern][1] = planted + 1
            if anti_pattern in detected_types_for(list(group.sql)):
                tally[anti_pattern][0] = hits + 1
    return {ap: (hits, planted) for ap, (hits, planted) in tally.items()}
