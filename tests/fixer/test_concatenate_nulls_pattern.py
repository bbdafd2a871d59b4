"""The concatenate-nulls fix's operand pattern, anchored at word starts,
rewrites exactly what the unanchored pattern rewrote.

The reference below is the pattern the fix used before it was anchored,
kept verbatim.  Both are compared match for match (the operand's text and
span) and on the rewritten text, on fuzzed strings; the golden corpus pins
the fix's output.
"""
from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixer.fix_rules import _CONCAT_OPERAND_RE

#: The pattern before anchoring, verbatim.
REFERENCE_RE = re.compile(r"(\w+(?:\.\w+)?)\s*\|\|")

#: Word and non-word characters, the dot of a qualified name, and the
#: operator's pieces.
ALPHABET = "ab_1. |\t,()'x"
PIECES = st.sampled_from(
    [
        "||", "|", " || ", "a", "ab", "t.c", "x.y.z", "_", "1", ".", " ", "\t",
        "\n", ",", "(", ")", "'", "é", "ß", "COALESCE", "SELECT ", " FROM ",
    ]
)
TEXTS = st.one_of(
    st.text(alphabet=ALPHABET, max_size=60),
    st.lists(PIECES, max_size=40).map("".join),
    st.text(max_size=60),
)


def _rewrite(pattern: "re.Pattern[str]", text: str) -> str:
    return pattern.sub(lambda m: f"COALESCE({m.group(1)}, '') ||", text)


def _matches(pattern: "re.Pattern[str]", text: str) -> list:
    return [(m.group(1), m.span(1), m.span()) for m in pattern.finditer(text)]


@settings(max_examples=1000, deadline=None)
@given(TEXTS)
def test_anchored_pattern_matches_the_reference(text):
    assert _matches(_CONCAT_OPERAND_RE, text) == _matches(REFERENCE_RE, text)
    assert _rewrite(_CONCAT_OPERAND_RE, text) == _rewrite(REFERENCE_RE, text)


def test_examples_from_the_fix():
    texts = [
        "SELECT first_name || ' ' || last_name FROM users",
        "SELECT u.first || u.last FROM users u",
        "SELECT a.b.c || d FROM t",
        "SELECT x||y||z FROM t",
    ]
    for text in texts:
        assert _rewrite(_CONCAT_OPERAND_RE, text) == _rewrite(REFERENCE_RE, text)
    assert _rewrite(_CONCAT_OPERAND_RE, texts[1]) == (
        "SELECT COALESCE(u.first, '') || u.last FROM users u"
    )
    assert _rewrite(_CONCAT_OPERAND_RE, texts[2]) == (
        "SELECT a.COALESCE(b.c, '') || d FROM t"
    )
