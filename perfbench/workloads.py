"""Seeded input generators for the three benchmark workloads.

Every generator takes the run's seed and nothing else that varies, so the
same seed always yields byte-identical inputs.  The program under test only
ever sees the generated inputs (SQL text, a SQLite file, a log file, HTTP
request bodies), never the seed or the ground-truth labels kept here.

* ``corpus_batch`` — many small independent repositories from the
  labelled :class:`~repro.workloads.github_corpus.GitHubCorpusGenerator`,
  padded with exact duplicates.
* ``app_scan`` — one live application: a SQLite database with planted data
  anti-patterns plus a PostgreSQL csvlog with skewed statement frequencies
  and ``duration:`` fields.
* ``serve_mixed`` — an open-loop schedule of ``POST /api/check`` requests:
  a hot set of repeated repositories, novel repositories, some rich-format
  requests, and a periodic 250-statement request.
"""
from __future__ import annotations

import math
import random
import re
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

# ----------------------------------------------------------------------
# sizes (also recorded in BENCHMARK.json's workload descriptions)
# ----------------------------------------------------------------------
CORPUS_REPOS = 680
CORPUS_DUPLICATE_FRACTION = 0.45

APP_TABLES = 20
APP_ROWS = 2000
APP_DISTINCT = 600
APP_LOG_LINES = 20_000

SERVE_RATE = 34.0  # offered requests per second (fixed, not adaptive)
SERVE_HOT_SET = 16
SERVE_REPO_STATEMENTS = 8
SERVE_REPEAT_SHARE = 0.9
SERVE_SARIF_SHARE = 0.1
SERVE_MARKDOWN_SHARE = 0.1
#: Large requests come often and are of moderate size, so that the ten
#: and more latencies beyond the p99 come from tens of them: with nine
#: 500-statement requests a run, the p99 followed the host's worst spells
#: during two or three of them.
SERVE_BIG_EVERY_S = 1.25
SERVE_BIG_STATEMENTS = 250
#: Every ``SERVE_GAP_EVERY_S`` seconds, half-way between two large
#: requests, no request is due for ``SERVE_GAP_S`` seconds: the server
#: times the reference task there, on an idle server.
SERVE_GAP_EVERY_S = 2.5
SERVE_GAP_S = 0.4


# ----------------------------------------------------------------------
# corpus_batch
# ----------------------------------------------------------------------
def corpus(seed: int, scale: float = 1.0):
    """The labelled, duplicate-padded repository corpus.

    ``scale`` keeps the first ``scale × CORPUS_REPOS`` repositories, so the
    size sweep's smaller points are prefixes of the full input.
    """
    from repro.workloads.github_corpus import (
        GitHubCorpusGenerator,
        LabeledCorpus,
        with_duplicates,
    )

    full = with_duplicates(
        GitHubCorpusGenerator(repos=CORPUS_REPOS, seed=seed).generate(),
        fraction=CORPUS_DUPLICATE_FRACTION,
        seed=seed,
    )
    if scale >= 1.0:
        return full
    keep = set(full.repos()[: max(1, round(CORPUS_REPOS * scale))])
    return LabeledCorpus(statements=[s for s in full.statements if s.repo in keep])


# ----------------------------------------------------------------------
# app_scan
# ----------------------------------------------------------------------
_TABLE_NAMES = (
    "users", "accounts", "orders", "order_items", "products", "categories",
    "payments", "invoices", "shipments", "addresses", "reviews", "carts",
    "coupons", "sessions", "events", "tickets", "agents", "messages",
    "inventory", "suppliers",
)
_STATUS_VALUES = ("new", "paid", "shipped", "cancelled")
_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
)

#: Anti-pattern types the app generator plants in the data (the precision
#: and recall of ``app_scan`` are scored over these types only).
PLANTED_TYPES = ("rounding_errors", "multi_valued_attribute", "enumerated_types")


@dataclass
class AppTable:
    name: str
    parent: "str | None"
    money_float: bool = False
    id_list: bool = False
    status_text: bool = False

    def ddl(self) -> str:
        columns = ["id INTEGER PRIMARY KEY"]
        if self.parent:
            columns.append(f"{self.parent}_id INTEGER REFERENCES {self.parent}(id)")
        columns += [
            "name VARCHAR(80) NOT NULL",
            "code VARCHAR(16) NOT NULL",
            "created_at TIMESTAMP NOT NULL",
            f"amount {'FLOAT' if self.money_float else 'NUMERIC(12,2)'} NOT NULL",
            "status TEXT NOT NULL" if self.status_text else "status INTEGER NOT NULL",
        ]
        if self.id_list:
            columns.append("tag_ids TEXT")
        return f"CREATE TABLE {self.name} ({', '.join(columns)})"


@dataclass
class App:
    """A generated live application: its tables and ground truth."""

    tables: "list[AppTable]" = field(default_factory=list)
    #: distinct workload statements, most frequent first (DDL excluded)
    statements: "list[str]" = field(default_factory=list)

    def scaled_statements(self, scale: float) -> "list[str]":
        """The first ``scale`` share of the statements plus the schema's
        DDL, which the log carries as migrations run once each."""
        keep = max(1, round(len(self.statements) * scale))
        return self.statements[:keep] + [table.ddl() for table in self.tables]

    def planted(self) -> "set[tuple[str, str]]":
        """``(anti-pattern value, table)`` pairs planted in the database."""
        truth: "set[tuple[str, str]]" = set()
        for table in self.tables:
            if table.money_float:
                truth.add(("rounding_errors", table.name))
            if table.id_list:
                truth.add(("multi_valued_attribute", table.name))
            if table.status_text:
                truth.add(("enumerated_types", table.name))
        return truth


def app(seed: int) -> App:
    """Table layout, planted anti-patterns and the distinct statement list."""
    rng = random.Random(seed)
    names = list(_TABLE_NAMES[:APP_TABLES])
    order = names[:]
    rng.shuffle(order)
    # A fixed number of each planted kind on seeded tables, so every seed
    # has the same shape; tables without a plant are the clean controls.
    floats, lists, statuses = set(order[:3]), set(order[3:5]), set(order[5:8])
    tables = []
    for position, name in enumerate(names):
        parent = names[rng.randrange(position)] if position else None
        tables.append(
            AppTable(
                name=name,
                parent=parent,
                money_float=name in floats,
                id_list=name in lists,
                status_text=name in statuses,
            )
        )
    return App(tables=tables, statements=_app_statements(tables, rng))


def _app_statements(tables: "list[AppTable]", rng: random.Random) -> "list[str]":
    """``APP_DISTINCT`` distinct statements over the app's tables.

    Templates cover point lookups, range scans, joins along the foreign
    keys, aggregates, inserts, updates and a share of query anti-patterns
    (wildcards, infix LIKE, ORDER BY RAND); literals make each text
    distinct, as in a real unparameterised log.
    """
    by_name = {t.name: t for t in tables}
    statements: "list[str]" = []
    seen: "set[str]" = set()
    while len(statements) < APP_DISTINCT:
        table = rng.choice(tables)
        t = table.name
        n = rng.randrange(1, 100_000)
        word = rng.choice(_WORDS)
        kind = rng.randrange(12)
        if kind == 0:
            sql = f"SELECT * FROM {t} WHERE id = {n}"
        elif kind == 1:
            sql = f"SELECT id, name, amount FROM {t} WHERE created_at > '2026-0{1 + n % 9}-01' ORDER BY created_at LIMIT {10 + n % 50}"
        elif kind == 2 and table.parent:
            p = table.parent
            sql = (
                f"SELECT c.id, c.name, p.name FROM {t} c JOIN {p} p ON c.{p}_id = p.id "
                f"WHERE p.id = {n}"
            )
        elif kind == 3:
            sql = f"SELECT status, COUNT(*) FROM {t} WHERE amount > {n % 500} GROUP BY status"
        elif kind == 4:
            sql = f"SELECT name FROM {t} WHERE name LIKE '%{word}{n % 97}%'"
        elif kind == 5:
            sql = f"INSERT INTO {t} (name, code, amount, status) VALUES ('{word}', 'C{n}', {n % 997}.5, 'new')"
        elif kind == 6:
            sql = f"UPDATE {t} SET amount = amount + {n % 13}, status = 'paid' WHERE id = {n}"
        elif kind == 7 and table.id_list:
            sql = f"SELECT id, name FROM {t} WHERE tag_ids LIKE '%,{n % 400},%'"
        elif kind == 8:
            sql = f"SELECT id, name FROM {t} ORDER BY RAND() LIMIT {1 + n % 20}"
        elif kind == 9 and table.parent and by_name[table.parent].parent:
            p = table.parent
            g = by_name[p].parent
            sql = (
                f"SELECT c.id, g.name FROM {t} c JOIN {p} p ON c.{p}_id = p.id "
                f"JOIN {g} g ON p.{g}_id = g.id WHERE c.amount > {n % 1000}"
            )
        elif kind == 10:
            sql = f"DELETE FROM {t} WHERE created_at < '2020-0{1 + n % 9}-01' AND id > {n}"
        else:
            sql = f"SELECT code, amount FROM {t} WHERE code = 'C{n}'"
        if sql not in seen:
            seen.add(sql)
            statements.append(sql)
    return statements


def write_app_db(app_: App, path: Path, seed: int) -> None:
    """The live SQLite database: ``APP_TABLES`` tables × ``APP_ROWS`` rows."""
    rng = random.Random(seed + 1)
    if path.exists():
        path.unlink()
    connection = sqlite3.connect(str(path))
    try:
        for table in app_.tables:
            connection.execute(table.ddl())
            rows = []
            for i in range(1, APP_ROWS + 1):
                row = [i]
                if table.parent:
                    row.append(rng.randrange(1, APP_ROWS + 1))
                row += [
                    f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {i}",
                    f"C{rng.randrange(10**6):06d}",
                    f"2026-{1 + i % 12:02d}-{1 + i % 28:02d} {i % 24:02d}:{i % 60:02d}:00",
                    round(rng.uniform(1, 5000), 2),
                    rng.choice(_STATUS_VALUES) if table.status_text else rng.randrange(10**6),
                ]
                if table.id_list:
                    row.append(",".join(str(rng.randrange(1, 400)) for _ in range(rng.randrange(2, 6))))
                rows.append(row)
            marks = ", ".join("?" for _ in rows[0])
            connection.executemany(f"INSERT INTO {table.name} VALUES ({marks})", rows)
        connection.commit()
    finally:
        connection.close()


def write_app_log(statements: "list[str]", path: Path, seed: int, lines: int) -> int:
    """A PostgreSQL csvlog of ``lines`` executions with Zipf-skewed
    frequencies and ``duration:`` fields; returns the line count written."""
    rng = random.Random(seed + 2)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(statements))]
    scale = (lines - len(statements)) / sum(weights)
    # Every statement executes at least once; the rest follows the skew.
    counts = [1 + int(w * scale) for w in weights]
    counts[0] += lines - sum(counts)
    order = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(order)
    base_ms = [rng.uniform(0.05, 40.0) for _ in statements]
    with open(path, "w", encoding="utf-8") as handle:
        for n, index in enumerate(order):
            duration = base_ms[index] * math.exp(rng.gauss(0.0, 0.3))
            message = f"duration: {duration:.3f} ms  statement: {statements[index]}".replace('"', '""')
            handle.write(
                f'2026-07-01 12:{n // 6000 % 60:02d}:{n // 100 % 60:02d}.{n % 1000:03d} UTC,"app","appdb",'
                f'{100 + n % 7},"10.0.0.9:5000",abc,{n},"SELECT",2026-07-01 11:00:00 UTC,9/9,0,LOG,00000,'
                f'"{message}",,,,,,,,,"app","client backend",,0\n'
            )
    return len(order)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
_ENTITY_NAMES = re.compile(
    r"\b(orders|articles|sensors|payments|tickets|events|customers|authors|"
    r"devices|accounts|agents|venues|attachments)\b"
)


def _renamed(statements: "list[str]", tag: str) -> "list[str]":
    """Suffix every table name of a generated repository with ``tag`` so
    each request is a distinct application (not a memo hit)."""
    return [_ENTITY_NAMES.sub(lambda m: f"{m.group(1)}_{tag}", s) for s in statements]


@dataclass
class Request:
    due: float  # seconds after the schedule starts
    body: dict
    statements: int


def serve_gaps(seconds: float) -> "list[float]":
    """Start times of the schedule's quiet gaps, half-way between two
    large requests (those are due at ``(j + 0.5) × SERVE_BIG_EVERY_S``)."""
    count = int(seconds / SERVE_GAP_EVERY_S + 0.5)
    return [(k + 0.5) * SERVE_GAP_EVERY_S for k in range(count)
            if (k + 0.5) * SERVE_GAP_EVERY_S + SERVE_GAP_S <= seconds]


def serve_schedule(seed: int, seconds: float) -> "tuple[list[Request], list[dict]]":
    """The open-loop request schedule and the warm-up bodies.

    Requests are due at a fixed rate of ``SERVE_RATE`` per second, except
    in the quiet gaps (``serve_gaps``); every ``SERVE_BIG_EVERY_S``
    seconds one ``SERVE_BIG_STATEMENTS``-statement request is due too.
    The warm-up bodies are the hot set, sent once before timing starts.
    """
    from repro.workloads.github_corpus import GitHubCorpusGenerator

    rng = random.Random(seed)
    total = int(seconds * SERVE_RATE)
    big_count = int(seconds / SERVE_BIG_EVERY_S)
    # Every small request is a repository of the same size, so that the
    # hot set, and with it the median request, costs the same on every
    # seed.  About one generated repository in seven has that size.
    wanted = SERVE_HOT_SET + total // 5
    pool = GitHubCorpusGenerator(repos=10 * wanted, seed=seed).generate().corpora()
    repos = (repo for repo in pool.values() if len(repo) == SERVE_REPO_STATEMENTS)

    def body(statements: "list[str]", fmt: str) -> dict:
        payload = {"query": ";\n".join(statements) + ";"}
        if fmt != "json":
            payload["format"] = fmt
        return payload

    def pick_format() -> str:
        roll = rng.random()
        if roll < SERVE_SARIF_SHARE:
            return "sarif"
        if roll < SERVE_SARIF_SHARE + SERVE_MARKDOWN_SHARE:
            return "markdown"
        return "json"

    hot = [_renamed(next(repos), f"h{i}") for i in range(SERVE_HOT_SET)]
    warmup = [body(statements, "json") for statements in hot]
    gaps = serve_gaps(seconds)
    schedule: "list[Request]" = []
    for i in range(total):
        if any(start <= i / SERVE_RATE < start + SERVE_GAP_S for start in gaps):
            continue
        fmt = pick_format()
        if rng.random() < SERVE_REPEAT_SHARE:
            statements = hot[rng.randrange(SERVE_HOT_SET)]
        else:
            statements = _renamed(next(repos), f"n{i}")
        schedule.append(Request(i / SERVE_RATE, body(statements, fmt), len(statements)))
    for j in range(big_count):
        big = big_request(seed + 1 + j, 1.0)
        due = (j + 0.5) * SERVE_BIG_EVERY_S
        schedule.append(Request(due, big, SERVE_BIG_STATEMENTS))
    schedule.sort(key=lambda r: r.due)
    return schedule, warmup


def big_request(seed: int, scale: float) -> dict:
    """One application of ``scale × SERVE_BIG_STATEMENTS`` statements in a
    single request (also the served size sweep's input)."""
    from repro.workloads.github_corpus import GitHubCorpusGenerator

    wanted = round(SERVE_BIG_STATEMENTS * scale)
    # ~8 statements per generated repository; draw a margin, then trim.
    pool = GitHubCorpusGenerator(repos=wanted // 6 + 1, seed=seed).generate().corpora()
    statements = [s for k, repo in enumerate(pool.values()) for s in _renamed(repo, f"b{k}")]
    return {"query": ";\n".join(statements[:wanted]) + ";"}
