"""Exactness and complexity of the application context's lookup index.

``queries_referencing`` and ``queries_referencing_column`` answer from an
index built in one pass over the workload.  The linear scans they replaced
are kept verbatim below as the reference: every lookup must return the
same annotation objects in the same order.
"""
from __future__ import annotations

import pytest

from repro.catalog.schema import Column, Schema, Table
from repro.context import ContextBuilder, build_context
from repro.context.application_context import ApplicationContext
from repro.detector.detector import APDetector
from repro.fixer.repair_engine import APFixer
from repro.sqlparser import ColumnReference, QueryAnnotation
from repro.testkit.generator import CorpusGenerator
from repro.workloads.github_corpus import GitHubCorpusGenerator


class ReferenceLookups:
    """The linear-scan lookups the index replaced, method bodies verbatim."""

    def __init__(self, context: ApplicationContext):
        self.context = context

    @property
    def queries(self):
        return self.context.queries

    @property
    def schema(self):
        return self.context.schema

    def queries_referencing(self, table: str) -> list[QueryAnnotation]:
        lowered = table.lower()
        return [
            q
            for q in self.queries
            if any(t.name.lower() == lowered for t in q.all_tables)
        ]

    def queries_referencing_column(self, table: str, column: str) -> list[QueryAnnotation]:
        """Queries whose predicates, projections, or assignments touch the column."""
        result = []
        lowered_column = column.lower()
        for query in self.queries_referencing(table):
            for reference in query.referenced_columns():
                if reference.name.lower() == lowered_column and self._column_belongs(
                    query, reference, table
                ):
                    result.append(query)
                    break
        return result

    def _column_belongs(
        self, query: QueryAnnotation, reference: ColumnReference, table: str
    ) -> bool:
        if reference.qualifier:
            resolved = query.alias_map.get(reference.qualifier.lower(), reference.qualifier)
            return resolved.lower() == table.lower()
        table_def = self.schema.get_table(table)
        if table_def is not None and table_def.has_column(reference.name):
            return True
        # Without schema information, a bare column in a single-table query
        # belongs to that table.
        return len(query.all_tables) == 1 and query.all_tables[0].name.lower() == table.lower()


ABSENT = "no_such_name"


def lookup_keys(context: ApplicationContext) -> "tuple[list[str], list[tuple[str, str]]]":
    """Every table the workload or schema names, and every (table, column)
    pair a query naming the table could touch, with upper-cased variants
    and a name absent from the workload."""
    columns_by_table: dict[str, set[str]] = {}
    for query in context.queries:
        names = {reference.name for reference in query.referenced_columns()}
        for table in query.all_tables:
            columns_by_table.setdefault(table.name, set()).update(names)
    for table_def in context.schema.tables.values():
        columns_by_table.setdefault(table_def.name, set()).update(table_def.column_names)
    tables = sorted(columns_by_table) + [t.upper() for t in sorted(columns_by_table)] + [ABSENT]
    pairs: list[tuple[str, str]] = []
    for table in sorted(columns_by_table):
        for column in sorted(columns_by_table[table]) + [ABSENT]:
            pairs.append((table, column))
            pairs.append((table.upper(), column.upper()))
        pairs.append((ABSENT, table))
    return tables, pairs


def assert_same_objects(actual: list, expected: list, key) -> None:
    assert len(actual) == len(expected), key
    assert all(a is e for a, e in zip(actual, expected)), key


def assert_matches_reference(context: ApplicationContext) -> int:
    """Compare every lookup against the reference; return how many ran."""
    reference = ReferenceLookups(context)
    tables, pairs = lookup_keys(context)
    for table in tables:
        assert_same_objects(
            context.queries_referencing(table), reference.queries_referencing(table), table
        )
    for table, column in pairs:
        assert_same_objects(
            context.queries_referencing_column(table, column),
            reference.queries_referencing_column(table, column),
            (table, column),
        )
    return len(tables) + len(pairs)


@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_corpus_lookups_match_the_linear_scan(seed):
    context = build_context(CorpusGenerator(seed).corpus_sql(300))
    assert assert_matches_reference(context) > 1000


def test_github_corpus_lookups_match_the_linear_scan():
    corpus = GitHubCorpusGenerator(repos=60, seed=2020).generate()
    checked = 0
    for sql in corpus.corpora().values():
        checked += assert_matches_reference(build_context(sql))
    # All repositories in one context: table names recur across repos.
    checked += assert_matches_reference(build_context(corpus.all_sql()))
    assert checked > 2_000


class TestHandWrittenCases:
    def test_self_join_lists_the_query_once(self):
        context = build_context(
            "SELECT a.name FROM nodes a JOIN nodes b ON a.parent_id = b.node_id;"
        )
        assert context.queries_referencing("nodes") == context.queries
        for column in ("name", "parent_id", "node_id", "missing"):
            assert_same_objects(
                context.queries_referencing_column("nodes", column),
                ReferenceLookups(context).queries_referencing_column("nodes", column),
                column,
            )
        assert len(context.queries_referencing_column("NODES", "Parent_Id")) == 1

    def test_unknown_qualifier_naming_a_table_outside_from(self):
        context = build_context(
            "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(20));"
            "SELECT users.name FROM orders;"
        )
        # The qualifier resolves to itself; the SELECT does not read users.
        assert context.queries_referencing_column("users", "name") == []
        assert context.queries_referencing_column("orders", "name") == []
        assert_matches_reference(context)

    def test_bare_columns_with_and_without_schema(self):
        queries = """
        CREATE TABLE accounts (account_id INTEGER PRIMARY KEY, email VARCHAR(80));
        SELECT email FROM accounts;
        SELECT email FROM accounts JOIN visits ON accounts.account_id = visits.account_id;
        SELECT city FROM visits;
        SELECT city FROM visits JOIN accounts ON visits.account_id = accounts.account_id;
        """
        context = build_context(queries)
        select_one, join_one, single, join_two = context.queries[1:]
        # The schema owns accounts.email, in single- and multi-table queries.
        assert context.queries_referencing_column("accounts", "email") == [select_one, join_one]
        # No schema for visits: a bare column belongs only in a single-table query.
        assert context.queries_referencing_column("visits", "city") == [single]
        assert context.queries_referencing_column("accounts", "city") == []
        assert_matches_reference(context)

    def test_update_set_columns(self):
        context = build_context(
            "UPDATE Tickets SET Status = 'closed' WHERE Ticket_ID = 7;"
            "UPDATE tickets t SET t.priority = 1;"
        )
        assert context.queries_referencing_column("tickets", "status") == context.queries[:1]
        assert context.queries_referencing_column("Tickets", "PRIORITY") == context.queries[1:]
        assert_matches_reference(context)


class TestStaleness:
    def test_extend_adds_statements_and_schema_ownership(self):
        builder = ContextBuilder()
        context = builder.build(
            "SELECT label FROM widgets JOIN parts ON widgets.widget_id = parts.widget_id;"
        )
        join = context.queries[0]
        assert context.queries_referencing("gadgets") == []
        assert context.queries_referencing_column("widgets", "label") == []
        builder.extend(
            context,
            "CREATE TABLE widgets (widget_id INTEGER PRIMARY KEY, label VARCHAR(20));"
            "SELECT label FROM gadgets;",
        )
        gadgets = context.queries[-1]
        assert context.queries_referencing("gadgets") == [gadgets]
        # The extended DDL makes the bare label in the join belong to widgets.
        assert context.queries_referencing_column("widgets", "label") == [join]
        assert_matches_reference(context)

    def test_replaced_schema_is_followed(self):
        context = build_context(
            "SELECT label FROM widgets JOIN parts ON widgets.widget_id = parts.widget_id;"
        )
        assert context.queries_referencing_column("parts", "label") == []
        table = Table(name="parts")
        table.add_column(Column(name="label"))
        schema = Schema()
        schema.add_table(table)
        context.schema = schema
        assert context.queries_referencing_column("parts", "label") == context.queries
        assert_matches_reference(context)

    def test_replaced_query_list_is_followed(self):
        context = build_context("SELECT a FROM first_table;")
        assert len(context.queries_referencing("first_table")) == 1
        context.queries = build_context("SELECT a FROM second_table;").queries
        assert context.queries_referencing("first_table") == []
        assert context.queries_referencing("second_table") == context.queries

    def test_index_takes_no_part_in_equality_or_repr(self):
        looked_up = build_context("SELECT a FROM t WHERE b = 1;")
        fresh = build_context("SELECT a FROM t WHERE b = 1;")
        looked_up.queries_referencing_column("t", "b")
        assert looked_up == fresh
        assert repr(looked_up) == repr(fresh)


def fixer_annotation_visits(statements: int) -> int:
    """``all_tables`` + ``referenced_columns`` calls made inside
    ``APFixer.fix`` (index build included) for one fuzzed workload."""
    context = ContextBuilder().build(CorpusGenerator(seed=3).corpus_sql(statements))
    report = APDetector().detect_in_context(context)
    assert len(report) > 0
    calls = [0]
    all_tables = QueryAnnotation.all_tables
    referenced_columns = QueryAnnotation.referenced_columns

    def counted_all_tables(self):
        calls[0] += 1
        return all_tables.fget(self)

    def counted_referenced_columns(self):
        calls[0] += 1
        return referenced_columns(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryAnnotation, "all_tables", property(counted_all_tables))
        patch.setattr(QueryAnnotation, "referenced_columns", counted_referenced_columns)
        APFixer().fix(report, context)
    return calls[0]


def test_fixer_annotation_visits_grow_linearly():
    """Counted, not timed: 4× the statements may cost at most 5× the visits."""
    small = fixer_annotation_visits(250)
    large = fixer_annotation_visits(1000)
    assert small > 0
    assert large <= 5 * small, (small, large)
