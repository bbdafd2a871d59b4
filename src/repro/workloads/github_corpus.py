"""Synthetic GitHub query corpus with ground-truth anti-pattern labels.

The paper extracts ~174 k string-embedded SQL statements from 1 406 GitHub
repositories (§8.1).  That corpus is not redistributable, so this generator
produces a deterministic labelled stand-in: each synthetic "repository" is a
small application workload (DDL + DML) into which anti-patterns are injected
at configurable rates.  Because every statement carries its ground-truth
labels, precision and recall of sqlcheck and dbdeo can be measured directly
(Table 2), and the per-type detection distribution can be tabulated
(Table 3).

The corpus also contains *trap* statements — legitimate SQL that superficial
regex analysis tends to misclassify (prefix LIKE patterns, wide INSERT value
lists, columns whose names contain type keywords).  These traps are what
separate dbdeo's precision from sqlcheck's in the reproduction, mirroring
the behaviour the paper reports.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..model.antipatterns import AntiPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.sqlcheck import BatchReport, SQLCheckOptions


@dataclass
class CorpusStatement:
    """One SQL statement with its ground-truth anti-pattern labels."""

    sql: str
    labels: set[AntiPattern] = field(default_factory=set)
    repo: str = ""

    @property
    def is_clean(self) -> bool:
        return not self.labels


@dataclass
class LabeledCorpus:
    """A collection of labelled statements grouped by repository."""

    statements: list[CorpusStatement] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)

    def repos(self) -> list[str]:
        seen: dict[str, None] = {}
        for statement in self.statements:
            seen.setdefault(statement.repo, None)
        return list(seen)

    def statements_for(self, repo: str) -> list[CorpusStatement]:
        return [s for s in self.statements if s.repo == repo]

    def sql_for(self, repo: str) -> list[str]:
        return [s.sql for s in self.statements_for(repo)]

    def all_sql(self) -> list[str]:
        return [s.sql for s in self.statements]

    def iter_sql(self) -> Iterator[str]:
        """Stream statement texts without materializing a list."""
        for statement in self.statements:
            yield statement.sql

    def corpora(self) -> dict[str, list[str]]:
        """Per-repository statement lists, ready for ``SQLCheck.check_many``."""
        grouped: dict[str, list[str]] = {}
        for statement in self.statements:
            grouped.setdefault(statement.repo, []).append(statement.sql)
        return grouped

    def label_counts(self) -> "Counter[AntiPattern]":
        counts: "Counter[AntiPattern]" = Counter()
        for statement in self.statements:
            counts.update(statement.labels)
        return counts

    def statements_labeled(self, anti_pattern: AntiPattern) -> list[CorpusStatement]:
        return [s for s in self.statements if anti_pattern in s.labels]


def with_duplicates(
    corpus: LabeledCorpus, fraction: float = 0.4, seed: int = 2020
) -> LabeledCorpus:
    """Pad a corpus with exact duplicates until ``fraction`` of it is duplicated.

    Real corpora are dominated by literal-identical statement repetition
    (ORM-generated queries, copy-pasted migrations); this models that
    skew deterministically so cache-sensitive throughput experiments have a
    realistic duplicate-heavy input.  Duplicates keep their originating
    repository, preserving per-repo context semantics.
    """
    if not 0 <= fraction < 1:
        raise ValueError("fraction must be in [0, 1)")
    rng = random.Random(seed)
    statements = list(corpus.statements)
    if not statements or fraction == 0:
        return LabeledCorpus(statements=statements)
    target_total = math.ceil(len(statements) / (1 - fraction))
    duplicates = [
        CorpusStatement(sql=s.sql, labels=set(s.labels), repo=s.repo)
        for s in (rng.choice(statements) for _ in range(target_total - len(statements)))
    ]
    combined = statements + duplicates
    rng.shuffle(combined)
    return LabeledCorpus(statements=combined)


def analyze_corpus(
    corpus: LabeledCorpus,
    *,
    options: "SQLCheckOptions | None" = None,
) -> "BatchReport":
    """Run the full sqlcheck batch pipeline over a labelled corpus.

    Each repository becomes one independent corpus of ``check_many``; the
    returned :class:`BatchReport` carries per-repo reports plus aggregate
    :class:`PipelineStats` (stage timings, cache hit rates, throughput).
    """
    from ..core.sqlcheck import SQLCheck, SQLCheckOptions

    toolchain = SQLCheck(options or SQLCheckOptions())
    return toolchain.check_many(corpus.corpora())


class GitHubCorpusGenerator:
    """Generates the labelled synthetic corpus."""

    def __init__(self, repos: int = 60, seed: int = 2020):
        self.repos = repos
        self.seed = seed

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> LabeledCorpus:
        corpus = LabeledCorpus()
        rng = random.Random(self.seed)
        for repo_index in range(self.repos):
            repo = f"repo_{repo_index:04d}"
            corpus.statements.extend(self._generate_repo(repo, rng))
        return corpus

    # ------------------------------------------------------------------
    # per-repository workload
    # ------------------------------------------------------------------
    def _generate_repo(self, repo: str, rng: random.Random) -> list[CorpusStatement]:
        statements: list[CorpusStatement] = []
        entity = rng.choice(["orders", "articles", "sensors", "payments", "tickets", "events"])
        other = rng.choice(["customers", "authors", "devices", "accounts", "agents", "venues"])

        def add(sql: str, *labels: AntiPattern) -> None:
            statements.append(CorpusStatement(sql=sql, labels=set(labels), repo=repo))

        # --- schema statements -------------------------------------------------
        other_not_null = rng.random() < 0.45
        if other_not_null:
            add(
                f"CREATE TABLE {other} ({other[:-1]}_id INTEGER PRIMARY KEY, name VARCHAR(80) NOT NULL, "
                "email VARCHAR(120) NOT NULL, created_at TIMESTAMP WITH TIME ZONE)",
            )
        else:
            add(
                f"CREATE TABLE {other} (name VARCHAR(80), email VARCHAR(120), created_at TIMESTAMP)",
                AntiPattern.NO_PRIMARY_KEY,
            )

        # Trap pair for intra-query-only analysis: the table looks key-less in
        # isolation, but a later ALTER TABLE adds the primary key — only
        # inter-query context can tell (this is what drops the detection count
        # between the two sqlcheck configurations in Table 3).
        if rng.random() < 0.4:
            add(f"CREATE TABLE {entity}_meta (meta_key VARCHAR(40), meta_value TEXT)")
            add(f"ALTER TABLE {entity}_meta ADD CONSTRAINT pk_{entity}_meta PRIMARY KEY (meta_key)")

        use_float = rng.random() < 0.35
        use_enum = rng.random() < 0.3
        use_god = rng.random() < 0.2
        use_mva = rng.random() < 0.3
        use_adjacency = rng.random() < 0.15
        use_generic_pk = rng.random() < 0.35

        columns = [
            f"{'id' if use_generic_pk else entity[:-1] + '_id'} INTEGER PRIMARY KEY",
            f"{other[:-1]}_id INTEGER REFERENCES {other}({other[:-1]}_id)",
            "title VARCHAR(120)",
            f"amount {'FLOAT' if use_float else 'NUMERIC(12,2)'}",
            f"status {'ENUM(' + chr(39) + 'new' + chr(39) + ',' + chr(39) + 'paid' + chr(39) + ')' if use_enum else 'VARCHAR(16)'}",
            "created_at TIMESTAMP",
        ]
        labels = []
        if use_float:
            labels.append(AntiPattern.ROUNDING_ERRORS)
        if use_enum:
            labels.append(AntiPattern.ENUMERATED_TYPES)
        if use_generic_pk:
            labels.append(AntiPattern.GENERIC_PRIMARY_KEY)
        if use_mva:
            columns.append("tag_ids TEXT")
            labels.append(AntiPattern.MULTI_VALUED_ATTRIBUTE)
        if use_adjacency:
            columns.append(f"parent_id INTEGER REFERENCES {entity}({'id' if use_generic_pk else entity[:-1] + '_id'})")
            labels.append(AntiPattern.ADJACENCY_LIST)
        if use_god:
            columns.extend(f"extra_field_{i} VARCHAR(40)" for i in range(1, 13))
            labels.append(AntiPattern.GOD_TABLE)
            labels.append(AntiPattern.DATA_IN_METADATA)
        add(f"CREATE TABLE {entity} (" + ", ".join(columns) + ")", *labels)

        if rng.random() < 0.15:
            add(
                f"CREATE TABLE {entity}_2019 (id INTEGER PRIMARY KEY, total NUMERIC(12,2))",
                AntiPattern.CLONE_TABLE,
                AntiPattern.DATA_IN_METADATA,
                AntiPattern.GENERIC_PRIMARY_KEY,
            )
            add(
                f"CREATE TABLE {entity}_2020 (id INTEGER PRIMARY KEY, total NUMERIC(12,2))",
                AntiPattern.CLONE_TABLE,
                AntiPattern.DATA_IN_METADATA,
                AntiPattern.GENERIC_PRIMARY_KEY,
            )

        if rng.random() < 0.25:
            add(
                f"CREATE INDEX idx_{entity}_status_created ON {entity} (status, created_at)",
            )
            add(
                f"CREATE INDEX idx_{entity}_status ON {entity} (status)",
                AntiPattern.INDEX_OVERUSE,
            )

        # --- query statements ---------------------------------------------------
        if rng.random() < 0.55:
            add(f"SELECT * FROM {entity} WHERE created_at > '2020-01-01'", AntiPattern.COLUMN_WILDCARD)
        else:
            add(f"SELECT title, amount FROM {entity} WHERE created_at > '2020-01-01'")

        if use_mva:
            add(
                f"SELECT * FROM {entity} WHERE tag_ids LIKE '%42%'",
                AntiPattern.MULTI_VALUED_ATTRIBUTE,
                AntiPattern.PATTERN_MATCHING,
                AntiPattern.COLUMN_WILDCARD,
            )
        if rng.random() < 0.3:
            add(
                f"SELECT title FROM {entity} WHERE title LIKE '%special offer%'",
                AntiPattern.PATTERN_MATCHING,
            )
        if rng.random() < 0.35:
            # Trap: prefix LIKE is index-friendly and NOT an anti-pattern, but
            # keyword-level analysis flags it.
            add(f"SELECT title FROM {entity} WHERE title LIKE 'INV-2020%'")
        if rng.random() < 0.3:
            add(
                f"INSERT INTO {entity} VALUES (1, 1, 'First', 10.0, 'new', '2020-01-01')",
                AntiPattern.IMPLICIT_COLUMNS,
            )
        else:
            add(
                f"INSERT INTO {entity} (title, amount, status) VALUES ('First', 10.0, 'new')",
            )
        if rng.random() < 0.25:
            # Trap: a wide multi-row INSERT has many commas but is not a god table.
            values = ", ".join(f"({i}, {i}, 'Row {i}', {i}.5, 'new', '2020-01-02')" for i in range(12))
            add(f"INSERT INTO {entity} (id, cid, title, amount, status, created_at) VALUES {values}")
        if rng.random() < 0.2:
            add(f"SELECT * FROM {entity} ORDER BY RAND() LIMIT 10",
                AntiPattern.ORDERING_BY_RAND, AntiPattern.COLUMN_WILDCARD)
        if rng.random() < 0.25:
            add(
                f"SELECT DISTINCT o.name FROM {other} o JOIN {entity} e ON e.{other[:-1]}_id = o.{other[:-1]}_id",
                AntiPattern.DISTINCT_AND_JOIN,
            )
        if rng.random() < 0.2:
            add(
                f"SELECT u.name FROM {other} u WHERE u.password = 'letmein123'",
                AntiPattern.READABLE_PASSWORD,
            )
        if rng.random() < 0.15:
            joins = " ".join(
                f"JOIN t{i} ON t{i}.k = t{i - 1}.k" for i in range(1, 7)
            )
            add(f"SELECT t0.v FROM t0 {joins} WHERE t0.k = 1", AntiPattern.TOO_MANY_JOINS)
        if rng.random() < 0.25:
            # Concatenation over the directory table: only an anti-pattern when
            # the operands are nullable — the NOT NULL schema variant is a trap
            # for intra-query-only analysis.
            add(
                f"SELECT name || ' <' || email || '>' FROM {other}",
                *(() if other_not_null else (AntiPattern.CONCATENATE_NULLS,)),
            )
        if rng.random() < 0.2:
            add(
                f"CREATE TABLE attachments (id INTEGER PRIMARY KEY, {entity[:-1]}_id INTEGER, "
                "file_path VARCHAR(255))",
                AntiPattern.EXTERNAL_DATA_STORAGE,
                AntiPattern.GENERIC_PRIMARY_KEY,
            )
        # Trap: column name contains a type keyword ("float_precision") — not a
        # rounding error, but naive keyword matching flags it.
        if rng.random() < 0.2:
            add(f"SELECT float_precision FROM calibration WHERE device_id = 7")
        return statements
