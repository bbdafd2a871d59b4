"""Unit tests for the SQL lexer."""
from __future__ import annotations

import pytest

from repro.sqlparser import Token, TokenType, tokenize
from repro.sqlparser.lexer import Lexer


def types_of(sql: str) -> list[TokenType]:
    return [t.ttype for t in tokenize(sql) if not t.is_whitespace]


def values_of(sql: str) -> list[str]:
    return [t.value for t in tokenize(sql) if not t.is_whitespace]


class TestBasicTokens:
    def test_simple_select_token_types(self):
        types = types_of("SELECT id FROM users")
        assert types == [
            TokenType.DML_KEYWORD,
            TokenType.NAME,
            TokenType.KEYWORD,
            TokenType.NAME,
        ]

    def test_round_trip_preserves_text(self):
        sql = "SELECT  a ,  b FROM t  WHERE x = 'it''s'  -- done"
        assert "".join(t.value for t in tokenize(sql)) == sql

    def test_number_tokens(self):
        tokens = [t for t in tokenize("SELECT 1, 2.5, 1e9, .5") if t.ttype is TokenType.NUMBER]
        assert [t.value for t in tokens] == ["1", "2.5", "1e9", ".5"]

    def test_string_literal_with_escaped_quote(self):
        tokens = [t for t in tokenize("SELECT 'it''s'") if t.ttype is TokenType.STRING]
        assert tokens[0].value == "'it''s'"
        assert tokens[0].unquoted() == "it's"

    def test_unterminated_string_does_not_crash(self):
        tokens = tokenize("SELECT 'oops")
        assert tokens[-1].ttype is TokenType.STRING

    def test_quoted_identifiers(self):
        sql = 'SELECT "First Name", `col`, [col2] FROM t'
        quoted = [t for t in tokenize(sql) if t.ttype is TokenType.QUOTED_NAME]
        assert [t.unquoted() for t in quoted] == ["First Name", "col", "col2"]

    def test_wildcard_token(self):
        tokens = values_of("SELECT * FROM t")
        assert "*" in tokens
        types = types_of("SELECT * FROM t")
        assert TokenType.WILDCARD in types

    def test_comparison_operators(self):
        for op in ("=", "!=", "<>", "<=", ">=", "<", ">"):
            tokens = [t for t in tokenize(f"a {op} b") if t.ttype is TokenType.COMPARISON]
            assert len(tokens) == 1
            assert tokens[0].value == op

    def test_concat_operator(self):
        tokens = [t for t in tokenize("a || b") if t.ttype is TokenType.OPERATOR]
        assert tokens[0].value == "||"

    def test_shift_operators_lex_whole(self):
        for op in ("<<", ">>"):
            assert values_of(f"a {op} 2") == ["a", op, "2"]
            assert types_of(f"a {op} 2") == [TokenType.NAME, TokenType.OPERATOR, TokenType.NUMBER]

    def test_shift_then_comparison(self):
        assert values_of("a <<= b") == ["a", "<<", "=", "b"]
        assert types_of("a <<= b")[1:3] == [TokenType.OPERATOR, TokenType.COMPARISON]

    def test_spaced_comparisons_stay_apart(self):
        assert values_of("a < < b") == ["a", "<", "<", "b"]
        assert types_of("a < < b")[1:3] == [TokenType.COMPARISON, TokenType.COMPARISON]

    def test_shift_is_no_comparison_predicate(self):
        from repro.sqlparser import annotate, parse

        annotation = annotate(parse("SELECT * FROM t WHERE flags << 2 = 8")[0])
        assert not [p for p in annotation.predicates if p.operator == "<"]

    def test_placeholders(self):
        sql = "SELECT * FROM t WHERE a = ? AND b = %s AND c = :name AND d = $1"
        placeholders = [t.value for t in tokenize(sql) if t.ttype is TokenType.PLACEHOLDER]
        assert placeholders == ["?", "%s", ":name", "$1"]

    def test_unknown_character_does_not_crash(self):
        tokens = tokenize("SELECT 1 §")
        assert tokens[-1].ttype is TokenType.UNKNOWN


class TestComments:
    def test_line_comment(self):
        tokens = tokenize("SELECT 1 -- trailing comment")
        assert tokens[-1].ttype is TokenType.COMMENT

    def test_block_comment(self):
        tokens = tokenize("SELECT /* hi */ 1")
        assert any(t.ttype is TokenType.COMMENT for t in tokens)

    def test_unterminated_block_comment(self):
        tokens = tokenize("SELECT 1 /* oops")
        assert tokens[-1].ttype is TokenType.COMMENT

    def test_hash_comment(self):
        tokens = tokenize("SELECT 1 # mysql comment")
        assert tokens[-1].ttype is TokenType.COMMENT


class TestKeywordClassification:
    def test_dml_keywords(self):
        for kw in ("SELECT", "INSERT", "UPDATE", "DELETE"):
            assert tokenize(kw)[0].ttype is TokenType.DML_KEYWORD

    def test_ddl_keywords(self):
        for kw in ("CREATE", "ALTER", "DROP", "TRUNCATE"):
            assert tokenize(kw)[0].ttype is TokenType.DDL_KEYWORD

    def test_datatype_keywords(self):
        for kw in ("INTEGER", "VARCHAR", "FLOAT", "TIMESTAMP", "BOOLEAN"):
            assert tokenize(kw)[0].ttype is TokenType.DATATYPE

    def test_case_insensitive_keywords(self):
        assert tokenize("select")[0].ttype is TokenType.DML_KEYWORD
        assert tokenize("SeLeCt")[0].ttype is TokenType.DML_KEYWORD

    def test_unknown_word_is_identifier(self):
        assert tokenize("frobnicate")[0].ttype is TokenType.NAME

    def test_normalized_value(self):
        token = tokenize("select")[0]
        assert token.normalized == "SELECT"


class TestCompoundKeywords:
    def test_group_by_folded(self):
        values = values_of("SELECT a FROM t GROUP BY a")
        assert "GROUP BY" in values

    def test_order_by_folded(self):
        values = values_of("SELECT a FROM t ORDER BY a DESC")
        assert "ORDER BY" in values

    def test_primary_key_folded(self):
        values = values_of("CREATE TABLE t (id INT PRIMARY KEY)")
        assert "PRIMARY KEY" in values

    def test_left_outer_join_longest_match(self):
        values = values_of("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x")
        assert "LEFT OUTER JOIN" in values
        assert "LEFT JOIN" not in values

    def test_not_null_folded(self):
        values = values_of("CREATE TABLE t (a INT NOT NULL)")
        assert "NOT NULL" in values

    def test_compound_preserves_original_case_words(self):
        values = values_of("select a from t group by a")
        assert "group by" in values


class TestTokenHelpers:
    def test_match_with_values(self):
        token = Token(TokenType.KEYWORD, "where")
        assert token.match(TokenType.KEYWORD, "WHERE")
        assert token.match(TokenType.KEYWORD, ("FROM", "WHERE"))
        assert not token.match(TokenType.KEYWORD, "FROM")
        assert not token.match(TokenType.NAME, "where")

    def test_unquoted_bracket(self):
        token = Token(TokenType.QUOTED_NAME, "[My Col]")
        assert token.unquoted() == "My Col"

    def test_lexer_is_reusable(self):
        lexer = Lexer()
        first = lexer.tokenize("SELECT 1")
        second = lexer.tokenize("SELECT 2")
        assert first != second
        assert len(first) == len(second)

    def test_positions_are_monotonic(self):
        tokens = tokenize("SELECT a, b FROM t WHERE x = 1")
        positions = [t.position for t in tokens]
        assert positions == sorted(positions)
        assert positions[0] == 0
