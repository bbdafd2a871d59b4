"""GlobaLeaks-style workload (the paper's running example and §8.2 testbed).

The paper deploys GlobaLeaks on PostgreSQL with a 10 M-row synthetic dataset
to measure every anti-pattern's performance impact.  This module rebuilds the
relevant slice of that schema in in-memory SQLite databases (stdlib
``sqlite3``), in two variants:

* the **anti-pattern variant** (multi-valued ``User_IDs`` column, CHECK-IN
  enumerated ``Role``, missing foreign keys / indexes, extra indexes), and
* the **fixed variant** (intersection ``Hosting`` table, ``Role`` reference
  table, foreign keys with supporting indexes).

Row counts are scaled down (default 500 tenants / 2 000 users) so the
experiments run in seconds while preserving the asymmetry that produces the
paper's speedups.  The task queries use MySQL's ``REGEXP`` with its POSIX
word boundaries ``[[:<:]]``/``[[:>:]]``; every connection built here
registers a ``REGEXP`` function that reads them as ``\\b``.
"""
from __future__ import annotations

import random
import re
import sqlite3
from dataclasses import dataclass

from .sqlite import insert_rows

#: MySQL's start- and end-of-word markers.
_WORD_BOUNDARY = re.compile(r"\[\[:[<>]:\]\]")


def _regexp(pattern: "str | None", value: "str | None") -> "bool | None":
    """SQLite's ``value REGEXP pattern`` (NULL when either side is)."""
    if pattern is None or value is None:
        return None
    return re.search(_WORD_BOUNDARY.sub(r"\\b", pattern), value) is not None


def _connect() -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.create_function("REGEXP", 2, _regexp, deterministic=True)
    return connection


#: The anti-pattern variant's Users columns and its enumerated-domain CHECK.
_USERS_COLUMNS = "User_ID VARCHAR(16) PRIMARY KEY, Name VARCHAR(64), Role VARCHAR(8), Email VARCHAR(64)"
_ROLE_CHECK = "CONSTRAINT User_Role_Check CHECK (Role IN ('R1', 'R2', 'R3'))"


def _rebuild(table: str, columns: str) -> "list[str]":
    """SQLite's way to change a table's constraints: build the new table,
    copy the rows, drop the old one and take its name."""
    return [
        f"CREATE TABLE {table}_rebuilt ({columns})",
        f"INSERT INTO {table}_rebuilt SELECT * FROM {table}",
        f"DROP TABLE {table}",
        f"ALTER TABLE {table}_rebuilt RENAME TO {table}",
    ]


@dataclass
class GlobaLeaksWorkload:
    """Builds AP and AP-free GlobaLeaks databases and the task queries."""

    tenants: int = 500
    users_per_tenant: int = 4
    seed: int = 42

    # ------------------------------------------------------------------
    # database builders
    # ------------------------------------------------------------------
    def build_ap_database(self) -> sqlite3.Connection:
        """The anti-pattern variant: comma-separated User_IDs, CHECK-IN Role."""
        db = _connect()
        db.execute(f"CREATE TABLE Users ({_USERS_COLUMNS}, {_ROLE_CHECK})")
        db.execute(
            "CREATE TABLE Tenants ("
            " Tenant_ID VARCHAR(16) PRIMARY KEY,"
            " Zone_ID VARCHAR(16),"
            " Active BOOLEAN,"
            " User_IDs TEXT)"
        )
        db.execute(
            "CREATE TABLE Questionnaire ("
            " Questionnaire_ID VARCHAR(24) PRIMARY KEY,"
            " Tenant_ID VARCHAR(16),"
            " Name VARCHAR(64),"
            " Editable BOOLEAN)"
        )
        self._load_users(db)
        self._load_tenants_with_lists(db)
        self._load_questionnaires(db)
        db.commit()
        return db

    def build_fixed_database(self) -> sqlite3.Connection:
        """The AP-free variant: Hosting intersection table, Role reference table."""
        db = _connect()
        db.execute(
            "CREATE TABLE Role ("
            " Role_ID INTEGER PRIMARY KEY,"
            " Role_Name VARCHAR(8) UNIQUE)"
        )
        db.execute(
            "CREATE TABLE Users ("
            " User_ID VARCHAR(16) PRIMARY KEY,"
            " Name VARCHAR(64),"
            " Role INTEGER REFERENCES Role(Role_ID),"
            " Email VARCHAR(64))"
        )
        db.execute(
            "CREATE TABLE Tenants ("
            " Tenant_ID VARCHAR(16) PRIMARY KEY,"
            " Zone_ID VARCHAR(16),"
            " Active BOOLEAN)"
        )
        db.execute(
            "CREATE TABLE Hosting ("
            " User_ID VARCHAR(16) REFERENCES Users(User_ID),"
            " Tenant_ID VARCHAR(16) REFERENCES Tenants(Tenant_ID),"
            " PRIMARY KEY (User_ID, Tenant_ID))"
        )
        db.execute(
            "CREATE TABLE Questionnaire ("
            " Questionnaire_ID VARCHAR(24) PRIMARY KEY,"
            " Tenant_ID VARCHAR(16) REFERENCES Tenants(Tenant_ID),"
            " Name VARCHAR(64),"
            " Editable BOOLEAN)"
        )
        db.execute("CREATE INDEX idx_role_name ON Role (Role_Name)")
        db.execute("CREATE INDEX idx_users_role ON Users (Role)")
        db.execute("CREATE INDEX idx_hosting_user ON Hosting (User_ID)")
        db.execute("CREATE INDEX idx_hosting_tenant ON Hosting (Tenant_ID)")
        db.execute("CREATE INDEX idx_q_tenant ON Questionnaire (Tenant_ID)")
        db.execute("INSERT INTO Role (Role_ID, Role_Name) VALUES (1, 'R1'), (2, 'R2'), (3, 'R3')")
        self._load_users(db, numeric_roles=True)
        self._load_tenants_without_lists(db)
        self._load_hosting(db)
        self._load_questionnaires(db)
        db.commit()
        return db

    # ------------------------------------------------------------------
    # the task queries (§2.1 / §2.3)
    # ------------------------------------------------------------------
    def task1_ap(self, user_id: str = "U1") -> str:
        """Task #1 (AP): list the tenants a user is associated with.

        The paper's query uses POSIX word-boundary markers so that ``U1``
        does not match ``U11``; the databases' REGEXP function supports them.
        """
        return f"SELECT * FROM Tenants WHERE User_IDs REGEXP '[[:<:]]{user_id}[[:>:]]'"

    def task1_fixed(self, user_id: str = "U1") -> str:
        return (
            "SELECT * FROM Hosting AS H JOIN Tenants AS T ON H.Tenant_ID = T.Tenant_ID "
            f"WHERE H.User_ID = '{user_id}'"
        )

    def task2_ap(self, tenant_id: str = "T1") -> str:
        """Task #2 (AP): retrieve the users served by a tenant (regex join)."""
        return (
            "SELECT * FROM Tenants AS t JOIN Users AS u "
            "ON t.User_IDs REGEXP '[[:<:]]' || u.User_ID || '[[:>:]]' "
            f"WHERE t.Tenant_ID = '{tenant_id}'"
        )

    def task2_fixed(self, tenant_id: str = "T1") -> str:
        return (
            "SELECT * FROM Hosting AS H JOIN Users AS U ON H.User_ID = U.User_ID "
            f"WHERE H.Tenant_ID = '{tenant_id}'"
        )

    def task3_ap(self, user_id: str = "U3") -> str:
        """Task #3 (AP): remove a user from every tenant's comma-separated list."""
        return (
            f"UPDATE Tenants SET User_IDs = REPLACE(User_IDs, ',{user_id}', '') "
            f"WHERE User_IDs LIKE '%{user_id}%'"
        )

    def task3_fixed(self, user_id: str = "U3") -> str:
        return f"DELETE FROM Hosting WHERE User_ID = '{user_id}'"

    def rename_role_ap(self, old: str = "R2", new: str = "R5") -> "list[str]":
        """Rename a permitted Role value and back in the AP variant (§8.2,
        Figure 8g): the CHECK constraint goes, every matching row is
        updated, and the CHECK comes back and re-validates every row.
        SQLite 3.40 has no ``ALTER TABLE … DROP/ADD CONSTRAINT``, so each
        change of the CHECK is a table rebuild."""
        return (
            _rebuild("Users", _USERS_COLUMNS)
            + [
                f"UPDATE Users SET Role = '{new}' WHERE Role = '{old}'",
                f"UPDATE Users SET Role = '{old}' WHERE Role = '{new}'",
            ]
            + _rebuild("Users", f"{_USERS_COLUMNS}, {_ROLE_CHECK}")
        )

    def rename_role_fixed(self, old: str = "R2", new: str = "R5") -> "list[str]":
        """The same rename and back in the AP-free variant: one row of the
        Role reference table."""
        return [
            f"UPDATE Role SET Role_Name = '{new}' WHERE Role_Name = '{old}'",
            f"UPDATE Role SET Role_Name = '{old}' WHERE Role_Name = '{new}'",
        ]

    def application_queries(self) -> list[str]:
        """The DDL+DML workload handed to sqlcheck when analysing GlobaLeaks."""
        return [
            "CREATE TABLE Users (User_ID VARCHAR(16) PRIMARY KEY, Name VARCHAR(64), "
            "Role VARCHAR(8) CHECK (Role IN ('R1','R2','R3')), Email VARCHAR(64))",
            "CREATE TABLE Tenants (Tenant_ID VARCHAR(16) PRIMARY KEY, Zone_ID VARCHAR(16), "
            "Active BOOLEAN, User_IDs TEXT)",
            "CREATE TABLE Questionnaire (Questionnaire_ID VARCHAR(24) PRIMARY KEY, "
            "Tenant_ID VARCHAR(16), Name VARCHAR(64), Editable BOOLEAN)",
            self.task1_ap(),
            self.task2_ap(),
            self.task3_ap(),
            "SELECT q.Name, q.Editable, t.Active FROM Questionnaire q JOIN Tenants t "
            "ON t.Tenant_ID = q.Tenant_ID WHERE q.Editable = TRUE",
            "INSERT INTO Tenants VALUES ('T9001', 'Z1', TRUE, 'U1,U2')",
            "SELECT * FROM Users ORDER BY RAND() LIMIT 5",
        ]

    # ------------------------------------------------------------------
    # data loading helpers
    # ------------------------------------------------------------------
    @property
    def user_count(self) -> int:
        return self.tenants * self.users_per_tenant

    def _user_ids_for_tenant(self, tenant_index: int) -> list[str]:
        start = tenant_index * self.users_per_tenant
        return [f"U{start + offset + 1}" for offset in range(self.users_per_tenant)]

    def _load_users(self, db: sqlite3.Connection, *, numeric_roles: bool = False) -> None:
        rng = random.Random(self.seed)
        rows = []
        for index in range(self.user_count):
            role = rng.choice([1, 2, 3])
            rows.append(
                {
                    "User_ID": f"U{index + 1}",
                    "Name": f"Name_{index + 1}",
                    "Role": role if numeric_roles else f"R{role}",
                    "Email": f"user{index + 1}@example.org",
                }
            )
        insert_rows(db, "Users", rows)

    def _load_tenants_with_lists(self, db: sqlite3.Connection) -> None:
        rng = random.Random(self.seed + 1)
        rows = []
        for index in range(self.tenants):
            rows.append(
                {
                    "Tenant_ID": f"T{index + 1}",
                    "Zone_ID": f"Z{rng.randint(1, 20)}",
                    "Active": rng.random() < 0.9,
                    "User_IDs": ",".join(self._user_ids_for_tenant(index)),
                }
            )
        insert_rows(db, "Tenants", rows)

    def _load_tenants_without_lists(self, db: sqlite3.Connection) -> None:
        rng = random.Random(self.seed + 1)
        rows = []
        for index in range(self.tenants):
            rows.append(
                {
                    "Tenant_ID": f"T{index + 1}",
                    "Zone_ID": f"Z{rng.randint(1, 20)}",
                    "Active": rng.random() < 0.9,
                }
            )
        insert_rows(db, "Tenants", rows)

    def _load_hosting(self, db: sqlite3.Connection) -> None:
        rows = []
        for index in range(self.tenants):
            for user_id in self._user_ids_for_tenant(index):
                rows.append({"User_ID": user_id, "Tenant_ID": f"T{index + 1}"})
        insert_rows(db, "Hosting", rows)

    def _load_questionnaires(self, db: sqlite3.Connection) -> None:
        rng = random.Random(self.seed + 2)
        rows = []
        for index in range(self.tenants * 2):
            rows.append(
                {
                    "Questionnaire_ID": f"Q{index + 1}",
                    "Tenant_ID": f"T{rng.randint(1, self.tenants)}",
                    "Name": f"Survey_{index + 1}",
                    "Editable": rng.random() < 0.5,
                }
            )
        insert_rows(db, "Questionnaire", rows)
