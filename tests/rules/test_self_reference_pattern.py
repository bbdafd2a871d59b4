"""The adjacency-list rule's self-reference pattern, anchored at column
segments and linear in the segment's length, finds exactly what the
unanchored pattern found.

The reference below is the pattern the rule used before it was anchored,
kept verbatim.  Both are compared match for match (the column's and the
referenced table's text and span) on fuzzed column lists; the golden
corpus pins the rule's output.  The rule's pattern holds them in groups 1
and 2, or in groups 3 and 4 when the column is a proper prefix of the word
before ``REFERENCES``; the reference in groups 1 and 2.
"""
from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rules.logical_design import _SELF_REFERENCE_RE

#: The pattern before anchoring, verbatim.
REFERENCE_RE = re.compile(r"(\w+)[^,()]*REFERENCES\s+(\w+)", re.IGNORECASE)

#: Pieces a CREATE TABLE column list is made of, plus characters that sit
#: on the pattern's edges: word/non-word, segment separators, whitespace.
PIECES = st.sampled_from(
    [
        "REFERENCES", "references", "ReFeReNcEs", "REFERENCE", "CREATE TABLE",
        " ", "  ", "\t", "\n", ",", "(", ")", ";", "'", "-", ".", "`", '"',
        "a", "t", "id", "parent_id", "comments", "x1", "_", "9", "é", "ß",
        "INTEGER", "PRIMARY KEY", "FOREIGN KEY",
    ]
)
TEXTS = st.one_of(
    st.lists(PIECES, max_size=40).map("".join),
    st.text(max_size=60),
)


def _matches(pattern: "re.Pattern[str]", text: str) -> list:
    found = []
    for m in pattern.finditer(text):
        column, table = (1, 2) if m.group(2) is not None else (3, 4)
        found.append((m.group(column), m.span(column), m.group(table), m.span(table)))
    return found


@settings(max_examples=1000, deadline=None)
@given(TEXTS)
def test_anchored_pattern_matches_the_reference(text):
    assert _matches(_SELF_REFERENCE_RE, text) == _matches(REFERENCE_RE, text)


def test_examples_from_the_rule():
    texts = [
        "CREATE TABLE comments (comment_id INTEGER PRIMARY KEY, body TEXT,"
        " parent_id INTEGER REFERENCES comments(comment_id))",
        "CREATE TABLE t (a INT REFERENCES u(id), b INT, c INT REFERENCES t (a))",
        "ALTER TABLE t ADD COLUMN p INT REFERENCES t",
        "xREFERENCES y, fooREFERENCES bar",
    ]
    for text in texts:
        assert _matches(_SELF_REFERENCE_RE, text) == _matches(REFERENCE_RE, text)
    assert _matches(_SELF_REFERENCE_RE, texts[1]) == [
        ("a", (16, 17), "u", (33, 34)),
        ("c", (47, 48), "t", (64, 65)),
    ]


def test_a_10000_character_word():
    """The shape that backtracked quadratically before the first word was
    taken atomically.  Equality only, no timing: the expected matches are
    spelled out, because the unanchored reference itself takes cubic time
    on a word this long."""
    word = "a" * 10_000
    assert _matches(_SELF_REFERENCE_RE, f"CREATE TABLE x ({word} REFERENCES)") == []
    text = f"CREATE TABLE x ({word} INT REFERENCES x(id), {word}REFERENCES y)"
    second = text.index(word, 16 + len(word))
    assert _matches(_SELF_REFERENCE_RE, text) == [
        (word, (16, 16 + len(word)), "x", (text.index(" x(") + 1, text.index(" x(") + 2)),
        (word, (second, second + len(word)), "y", (len(text) - 2, len(text) - 1)),
    ]
