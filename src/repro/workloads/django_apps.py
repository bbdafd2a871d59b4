"""Django application workloads (Tables 4 and 7).

The paper deploys 15 actively developed Django applications, collects the
SQL their ORM issues, and reports the anti-patterns sqlcheck detects plus the
subset reported upstream.  Deploying those applications is not possible
offline, so each application is described here by the metadata Table 7
publishes (name, stars, contributors, domain, detected/reported AP counts and
the reported AP names), and ``build_application_workload`` synthesises an
ORM-style SQL workload that exhibits exactly the reported anti-patterns.
"""
from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass, field

from ..model.antipatterns import AntiPattern
from .sqlite import insert_rows

_AP_BY_NAME = {
    "No Foreign Key": AntiPattern.NO_FOREIGN_KEY,
    "Enumerated Types": AntiPattern.ENUMERATED_TYPES,
    "Rounding Errors": AntiPattern.ROUNDING_ERRORS,
    "Index Overuse": AntiPattern.INDEX_OVERUSE,
    "Multivalued Attribute": AntiPattern.MULTI_VALUED_ATTRIBUTE,
    "Index Underuse": AntiPattern.INDEX_UNDERUSE,
    "Pattern Matching": AntiPattern.PATTERN_MATCHING,
    "No Domain Constraint": AntiPattern.NO_DOMAIN_CONSTRAINT,
}


@dataclass(frozen=True)
class DjangoApplication:
    """One row of Table 7."""

    name: str
    stars: str
    contributors: int
    domain: str
    detected_aps: int
    reported_aps: tuple[str, ...]
    acknowledged: bool = True


#: The 15 applications of Table 7 (stars/contributors as published).
DJANGO_APPLICATIONS: tuple[DjangoApplication, ...] = (
    DjangoApplication("Globaleaks", "741", 22, "Whistleblower", 10, ("No Foreign Key", "Enumerated Types")),
    DjangoApplication("Django-oscar", "4.1k", 217, "E-commerce", 12, ("Rounding Errors", "Index Overuse")),
    DjangoApplication("Saleor", "6.5k", 139, "E-commerce", 10, ("Multivalued Attribute", "Index Overuse")),
    DjangoApplication("Django-crm", "654", 17, "CRM", 8, ("Index Underuse", "Index Overuse", "Pattern Matching", "No Domain Constraint")),
    DjangoApplication("django-cms", "7.2k", 398, "CMS", 11, ("Index Overuse",)),
    DjangoApplication("wagtail-autocomplete", "41", 7, "Utility", 1, ("Pattern Matching",)),
    DjangoApplication("shuup", "1.1k", 41, "E-commerce", 6, ("Index Overuse",)),
    DjangoApplication("Pretix", "821", 113, "E-commerce", 11, ("Index Overuse", "Pattern Matching", "No Domain Constraint")),
    DjangoApplication("Django-countries", "755", 35, "Library", 1, ("Multivalued Attribute",)),
    DjangoApplication("micro-finance", "55", 8, "Finance", 8, ("Index Underuse", "Index Overuse", "Pattern Matching", "No Domain Constraint")),
    DjangoApplication("bootcamp", "1.9k", 24, "Social Ntwrk", 5, ("Index Overuse",)),
    DjangoApplication("NetBox", "6.2k", 118, "DCIM", 9, ("Index Overuse", "Pattern Matching", "No Domain Constraint")),
    DjangoApplication("Ralph", "1.3k", 43, "Asset Mgmt", 12, ("Index Overuse", "Pattern Matching", "No Domain Constraint"), False),
    DjangoApplication("Tiaga", "6.5k", 139, "E-commerce", 9, ("Index Overuse", "No Domain Constraint"), False),
    DjangoApplication("wagtail", "8.4k", 397, "CMS", 10, ("Index Overuse", "No Domain Constraint"), False),
)


def reported_anti_patterns(app: DjangoApplication) -> set[AntiPattern]:
    """The reported AP names of Table 7 mapped onto the catalog enum."""
    return {_AP_BY_NAME[name] for name in app.reported_aps}


def build_application_workload(app: DjangoApplication, *, seed: int = 11) -> list[str]:
    """Synthesise an ORM-style SQL workload exhibiting the application's
    reported anti-patterns (plus typical Django background noise such as
    generic ``id`` primary keys and ``SELECT *`` queries)."""
    rng = random.Random(seed + hash(app.name) % 1000)
    prefix = app.name.lower().replace("-", "_")
    main = f"{prefix}_item"
    user = f"{prefix}_user"
    reported = reported_anti_patterns(app)
    statements: list[str] = []

    # Django-style base tables: integer "id" surrogate keys everywhere.
    statements.append(
        f"CREATE TABLE {user} (id INTEGER PRIMARY KEY, username VARCHAR(150), email VARCHAR(254), "
        "date_joined TIMESTAMP, is_active BOOLEAN)"
    )
    main_columns = [
        "id INTEGER PRIMARY KEY",
        "name VARCHAR(255)",
        "created TIMESTAMP",
        "modified TIMESTAMP",
    ]
    if AntiPattern.ROUNDING_ERRORS in reported:
        main_columns.append("price FLOAT")
        main_columns.append("tax_rate FLOAT")
    else:
        main_columns.append("price NUMERIC(12,2)")
    if AntiPattern.ENUMERATED_TYPES in reported:
        main_columns.append("state VARCHAR(16) CHECK (state IN ('draft','published','archived'))")
    else:
        main_columns.append("state VARCHAR(16)")
    if AntiPattern.MULTI_VALUED_ATTRIBUTE in reported:
        main_columns.append("collaborator_ids TEXT")
    if AntiPattern.NO_FOREIGN_KEY in reported:
        main_columns.append("owner_id INTEGER")
    else:
        main_columns.append(f"owner_id INTEGER REFERENCES {user}(id)")
    if AntiPattern.NO_DOMAIN_CONSTRAINT in reported:
        main_columns.append("priority INTEGER")
        main_columns.append("rating INTEGER")
    statements.append(f"CREATE TABLE {main} (" + ", ".join(main_columns) + ")")

    # Index usage patterns.
    statements.append(f"CREATE INDEX idx_{main}_owner ON {main} (owner_id)")
    if AntiPattern.INDEX_OVERUSE in reported:
        statements.append(f"CREATE INDEX idx_{main}_state_created ON {main} (state, created)")
        statements.append(f"CREATE INDEX idx_{main}_state ON {main} (state)")
        statements.append(f"CREATE INDEX idx_{main}_created ON {main} (created)")
        statements.append(f"CREATE INDEX idx_{main}_modified ON {main} (modified)")

    # ORM-style queries.
    statements.append(f"SELECT * FROM {main} WHERE owner_id = 42")
    statements.append(
        f"SELECT u.username, i.name FROM {main} i JOIN {user} u ON i.owner_id = u.id "
        "WHERE u.is_active = TRUE"
    )
    if AntiPattern.PATTERN_MATCHING in reported:
        statements.append(f"SELECT * FROM {main} WHERE name LIKE '%report%'")
        statements.append(f"SELECT * FROM {user} WHERE email LIKE '%@example.org'")
    if AntiPattern.INDEX_UNDERUSE in reported:
        statements.append(f"SELECT name FROM {main} WHERE modified > '2020-01-01'")
        statements.append(f"SELECT state, COUNT(*) FROM {main} GROUP BY name")
    if AntiPattern.MULTI_VALUED_ATTRIBUTE in reported:
        statements.append(f"SELECT * FROM {main} WHERE collaborator_ids LIKE '%7%'")
    statements.append(
        f"INSERT INTO {user} (id, username, email, date_joined, is_active) "
        f"VALUES ({rng.randint(1000, 9999)}, 'alice', 'alice@example.org', '2020-03-01', TRUE)"
    )
    statements.append(f"UPDATE {main} SET modified = '2020-06-01' WHERE id = {rng.randint(1, 500)}")
    return statements


def build_application_database(
    app: DjangoApplication, *, rows: int = 150, seed: int = 11
) -> sqlite3.Connection:
    """Build a populated in-memory SQLite database for the application.

    The paper deploys each Django application on PostgreSQL and lets sqlcheck
    profile the resulting data; here the DDL from the synthetic workload is
    run in SQLite and filled with representative rows so the data-analysis
    rules (e.g. No Domain Constraint) have something to profile.
    """
    rng = random.Random(seed + hash(app.name) % 1000)
    reported = reported_anti_patterns(app)
    prefix = app.name.lower().replace("-", "_")
    main = f"{prefix}_item"
    user = f"{prefix}_user"
    db = sqlite3.connect(":memory:")
    for statement in build_application_workload(app, seed=seed):
        if statement.upper().startswith(("CREATE", "ALTER")):
            db.execute(statement)

    states = ["draft", "published", "archived"]
    user_rows = [
        {
            "id": i,
            "username": f"user{i}",
            "email": f"user{i}@example.org",
            "date_joined": f"2020-01-{1 + i % 27:02d} 09:00:00",
            "is_active": i % 5 != 0,
        }
        for i in range(1, 1 + max(20, rows // 5))
    ]
    insert_rows(db, user, user_rows)
    item_rows = []
    for i in range(1, rows + 1):
        row = {
            "id": i,
            "name": f"item {i}",
            "created": f"2020-02-{1 + i % 27:02d} 10:00:00",
            "modified": f"2020-06-{1 + i % 27:02d} 10:00:00",
            "price": round(rng.uniform(1, 900), 2),
            "state": states[i % 3],
            "owner_id": user_rows[i % len(user_rows)]["id"],
        }
        if AntiPattern.MULTI_VALUED_ATTRIBUTE in reported:
            row["collaborator_ids"] = ",".join(str(rng.randint(1, 40)) for _ in range(3))
        if AntiPattern.NO_DOMAIN_CONSTRAINT in reported:
            row["priority"] = 1 + i % 3
            row["rating"] = 1 + i % 5
        item_rows.append(row)
    insert_rows(db, main, item_rows)
    db.commit()
    return db
