"""The adjacency-list rule's self-reference pattern, anchored at column
segments, finds exactly what the unanchored pattern found.

The reference below is the pattern the rule used before it was anchored,
kept verbatim.  Both are compared match for match (each group's text and
span) on fuzzed column lists; the golden corpus pins the rule's output.
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
    return [
        (m.group(1), m.span(1), m.group(2), m.span(2)) for m in pattern.finditer(text)
    ]


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
