"""Unit tests for the application context and context builder."""
from __future__ import annotations

from repro.context import ContextBuilder, build_context
from repro.workloads.sqlite import insert_rows, sqlite_database

DDL = """
CREATE TABLE Users (User_ID VARCHAR(10) PRIMARY KEY, Name VARCHAR(40), Role VARCHAR(10));
CREATE TABLE Orders (Order_ID INTEGER PRIMARY KEY, User_ID VARCHAR(10), Total NUMERIC(10,2));
CREATE INDEX idx_orders_user ON Orders (User_ID);
"""

QUERIES = DDL + """
SELECT u.Name, o.Total FROM Orders o JOIN Users u ON o.User_ID = u.User_ID WHERE o.Total > 10;
SELECT Role, COUNT(*) FROM Users GROUP BY Role;
UPDATE Users SET Role = 'admin' WHERE User_ID = 'U1';
INSERT INTO Orders (Order_ID, User_ID, Total) VALUES (1, 'U1', 5.0);
"""


class TestContextBuilder:
    def test_schema_built_from_ddl(self):
        context = build_context(QUERIES)
        assert context.schema.has_table("Users")
        assert context.schema.has_table("Orders")
        assert context.indexes_for("Orders")[0].name == "idx_orders_user"

    def test_queries_are_annotated_in_order(self):
        context = build_context(QUERIES)
        assert context.query_count == 7
        assert [q.statement.index for q in context.queries] == list(range(7))

    def test_schema_from_database_wins(self):
        db = sqlite_database(["CREATE TABLE FromDb (a INTEGER PRIMARY KEY)"])
        context = build_context("SELECT * FROM FromDb", database=db)
        assert context.schema.has_table("FromDb")
        assert context.has_data is True or context.profiles == {}

    def test_profiles_built_from_database(self):
        db = sqlite_database(
            ["CREATE TABLE T (a INTEGER PRIMARY KEY, b VARCHAR(5))"],
            {"T": [{"a": i, "b": "x"} for i in range(10)]},
        )
        context = build_context((), database=db)
        assert context.profile("T").row_count == 10
        assert context.column_profile("T", "b").is_constant

    def test_extend_adds_queries_and_schema(self):
        builder = ContextBuilder()
        context = builder.build("SELECT 1")
        builder.extend(context, "CREATE TABLE Added (x INTEGER PRIMARY KEY)")
        assert context.schema.has_table("Added")
        assert context.query_count == 2

    def test_refresh_data(self):
        db = sqlite_database(["CREATE TABLE T (a INTEGER PRIMARY KEY)"])
        builder = ContextBuilder()
        context = builder.build((), database=db)
        insert_rows(db, "T", [{"a": 1}])
        builder.refresh_data(context)
        assert context.profile("T").row_count == 1

    def test_accepts_list_of_strings(self):
        context = build_context(["SELECT 1", "SELECT 2"])
        assert context.query_count == 2

    def test_dialect_lookup(self):
        context = build_context("SELECT 1", dialect="mysql")
        assert context.dialect.name == "mysql"
        default = build_context("SELECT 1")
        assert default.dialect.name == "generic"


class TestApplicationContextQueries:
    def test_queries_referencing_table(self):
        context = build_context(QUERIES)
        referencing = context.queries_referencing("Orders")
        assert len(referencing) == 4  # create, index, join select, insert

    def test_queries_referencing_column(self):
        context = build_context(QUERIES)
        referencing = context.queries_referencing_column("Users", "Role")
        assert len(referencing) == 2  # group-by select and update

    def test_queries_of_type(self):
        context = build_context(QUERIES)
        assert len(context.queries_of_type("SELECT")) == 2
        assert len(context.queries_of_type("UPDATE", "INSERT")) == 2

    def test_join_pairs_and_columns(self):
        context = build_context(QUERIES)
        assert ("Orders", "Users") in context.join_pairs()
        columns = context.join_columns_between("Orders", "Users")
        assert ("User_ID", "User_ID") in columns

    def test_column_lookup_helpers(self):
        context = build_context(QUERIES)
        assert context.column("Users", "role").name == "Role"
        assert context.column("Users", "missing") is None
        assert context.column("Ghost", "x") is None

    def test_column_usage_statistics(self):
        context = build_context(QUERIES)
        usage = context.column_usage()
        total_usage = usage[("orders", "total")]
        assert total_usage.where_count >= 1
        join_usage = usage[("orders", "user_id")]
        assert join_usage.join_count >= 1
        role_usage = usage[("users", "role")]
        assert role_usage.group_by_count >= 1
        assert role_usage.update_count >= 1
        assert role_usage.read_lookups >= 1
        assert role_usage.writes >= 1
