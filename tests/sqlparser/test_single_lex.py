"""``parse``, ``parse_statement`` and ``split`` lex each text through one
``Lexer.tokenize`` call.

The benchmark's tracer (``perfbench/tracing.py``) reads the frontend's lex
time and token count (``sqlparser.lex_s``, ``sqlparser.tokens``) by
wrapping ``Lexer.tokenize``.  A path that lexed through another name would
read 0 there and move its time into ``sqlparser.parse_s`` unseen; one that
lexed twice would double both.
"""
from __future__ import annotations

import pytest

from repro.sqlparser import parse, parse_statement, split
from repro.sqlparser.lexer import Lexer

TEXTS = [
    "",
    "   ",
    "SELECT 1",
    "SELECT a FROM t WHERE b IS NOT NULL GROUP BY a; INSERT INTO t VALUES (1);\n-- tail",
    "CREATE TABLE t (id INT PRIMARY KEY, p INT REFERENCES t(id));;",
    "CREATE FUNCTION f() RETURNS int AS $body$ SELECT 1; $body$; SELECT $1, 'x''y'",
]


@pytest.mark.parametrize("entry", [parse, parse_statement, split], ids=lambda f: f.__name__)
def test_each_text_is_lexed_once(entry, monkeypatch):
    calls = []
    original = Lexer.tokenize

    def counting(self, sql):
        calls.append(sql)
        return original(self, sql)

    monkeypatch.setattr(Lexer, "tokenize", counting)
    for text in TEXTS:
        calls.clear()
        entry(text)
        assert calls == [text]
