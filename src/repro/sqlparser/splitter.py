"""Statement splitting.

Applications hand sqlcheck whole scripts or extracted query strings that may
contain several statements separated by semicolons.  The splitter cuts the
token stream on top-level semicolons while respecting strings, comments and
nested parentheses, again without validating the SQL.
"""
from __future__ import annotations

from .lexer import tokenize
from .tokens import Token, TokenType


def split_tokens(tokens: list[Token]) -> list[list[Token]]:
    """Split a flat token list into one token list per statement."""
    return [statement for statement, _ in split_meaningful(tokens)]


def split_meaningful(tokens: list[Token]) -> "list[tuple[list[Token], list[Token]]]":
    """Split a flat token list into statements, each with its meaningful tokens.

    One pass: each statement's tokens other than whitespace and comments are
    collected as it is walked.  A statement whose only such token is its
    ``;`` is dropped.
    """
    statements: list[tuple[list[Token], list[Token]]] = []
    meaningful: list[Token] = []
    start = 0
    depth = 0
    punctuation = TokenType.PUNCTUATION
    for index, token in enumerate(tokens):
        if token.is_whitespace or token.is_comment:
            continue
        meaningful.append(token)
        if token.ttype is punctuation:
            value = token.value
            if value == "(":
                depth += 1
            elif value == ")":
                if depth:
                    depth -= 1
            elif value == ";" and not depth:
                if len(meaningful) > 1:
                    statements.append((tokens[start : index + 1], meaningful))
                meaningful = []
                start = index + 1
    if meaningful:
        statements.append((tokens[start:], meaningful))
    return statements


def split(sql: str) -> list[str]:
    """Split SQL text into individual statement strings.

    Whitespace-only fragments are dropped; the trailing semicolon (when
    present) is preserved so round-tripping the text is loss-free.
    """
    statements = split_tokens(tokenize(sql))
    return ["".join(t.value for t in stmt).strip() for stmt in statements]
