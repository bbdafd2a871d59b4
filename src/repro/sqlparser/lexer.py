"""Non-validating SQL lexer.

The lexer converts a SQL string into a flat list of :class:`Token` objects.
It never rejects input: unknown characters become ``UNKNOWN`` tokens, unknown
words become identifiers.  This mirrors the behaviour of ``sqlparse`` that
the paper relies on for dialect tolerance (§4.1).

One compiled pattern scans the whole text: it has no capture groups, so
``findall`` returns the token texts as plain strings at C speed, and each
text is typed by its first character.  Compound keywords are folded
afterwards, visiting only the words that can start one.
"""
from __future__ import annotations

import re

from .keywords import (
    ALL_KEYWORDS,
    COMPARISON_OPERATORS,
    COMPOUND_KEYWORDS,
    DATATYPE_KEYWORDS,
    DDL_KEYWORDS,
    DML_KEYWORDS,
    OPERATORS,
)
from .tokens import Token, TokenType

#: The shift operators, tried before the comparisons.
_SHIFTS = ("<<", ">>")

#: Every token class as one alternation.  At each position the first
#: alternative that matches wins, which gives the classes their priority:
#: a terminated string before the rest-of-input fallback of an unterminated
#: one, ``--`` comments before the ``-`` operators, placeholders before the
#: ``%`` operator and the ``::`` cast, then the bit shifts ``<<``/``>>``
#: (before the comparisons, which would take their first character), the
#: comparisons and the other operators, each table in its own order (so
#: ``<<=`` lexes as ``<<``, ``=``).  The last alternative takes any other
#: single character, so the matches tile the text.  A ``$`` that may open a
#: dollar-quoted string lexes alone here; see :func:`_with_dollar_strings`.
#: ``\s`` and ``\d`` are the Unicode classes ``str.isspace`` and
#: ``str.isdecimal`` test.
_TOKEN_RE = re.compile(
    r"\s+"
    r"|[A-Za-z_][A-Za-z0-9_$]*"
    r"|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
    r"|'(?:[^']|'')*'"
    r"|[(),;]"
    r"|--[^\n]*|#[^\n]*"
    r"|/\*[\s\S]*?\*/|/\*[\s\S]*"
    r"|'[\s\S]*"
    r"|\$\d+"
    r'|"(?:[^"]|"")*"|`(?:[^`]|``)*`|\[[^\]]*\]'
    r"|\?|%\(\w+\)s|%[sd]|:\w+|@\w+"
    r"|\.\d+(?:[eE][+-]?\d+)?"
    + "".join(
        "|" + re.escape(op)
        for op in _SHIFTS + COMPARISON_OPERATORS + tuple(o for o in OPERATORS if o not in _SHIFTS)
    )
    + r"|[\s\S]"
)

#: ``$tag$``, the opener (and closer) of a dollar-quoted string.
_DOLLAR_TAG_RE = re.compile(r"\$[A-Za-z_]*\$")

#: Word (upper-cased) -> keyword type; any other word is a NAME.
_WORD_TYPES: "dict[str, TokenType]" = dict.fromkeys(ALL_KEYWORDS, TokenType.KEYWORD)
_WORD_TYPES.update(dict.fromkeys(DATATYPE_KEYWORDS, TokenType.DATATYPE))
_WORD_TYPES.update(dict.fromkeys(DDL_KEYWORDS, TokenType.DDL_KEYWORD))
_WORD_TYPES.update(dict.fromkeys(DML_KEYWORDS, TokenType.DML_KEYWORD))

#: Compound keyword phrases indexed by their (upper-cased) first word, each
#: bucket sorted longest-first so the longest-match-wins rule falls out of a
#: plain scan.  Every first word is a keyword.
_COMPOUND_BY_FIRST: "dict[str, list[tuple[str, ...]]]" = {}
for _phrase in COMPOUND_KEYWORDS:
    _upper = tuple(word.upper() for word in _phrase)
    _COMPOUND_BY_FIRST.setdefault(_upper[0], []).append(_upper)
for _bucket in _COMPOUND_BY_FIRST.values():
    _bucket.sort(key=len, reverse=True)
assert all(word in _WORD_TYPES for word in _COMPOUND_BY_FIRST)

#: Markers for first characters that do not decide the type on their own.
_WORD = object()
_SYMBOL = object()

#: First character of a token text -> its type, for every ASCII character.
_TYPE_BY_FIRST: "dict[str, object]" = {}
for _code in range(128):
    _char = chr(_code)
    if _char.isspace():
        _TYPE_BY_FIRST[_char] = TokenType.WHITESPACE
    elif _char.isalpha() or _char == "_":
        _TYPE_BY_FIRST[_char] = _WORD
    elif _char.isdigit():
        _TYPE_BY_FIRST[_char] = TokenType.NUMBER
    else:
        _TYPE_BY_FIRST[_char] = _SYMBOL
_TYPE_BY_FIRST.update(
    {
        "'": TokenType.STRING,
        "#": TokenType.COMMENT,
        "?": TokenType.PLACEHOLDER,
        **dict.fromkeys("(),;", TokenType.PUNCTUATION),
    }
)
#: Symbol texts typed whole: the keyword tables' operators and comparisons.
_SYMBOL_TYPES = {
    **dict.fromkeys(OPERATORS, TokenType.OPERATOR),
    **dict.fromkeys(COMPARISON_OPERATORS, TokenType.COMPARISON),
    "*": TokenType.WILDCARD,
    ".": TokenType.PUNCTUATION,
}
#: Any other symbol text of two or more characters, by its first one
#: (a ``$`` one is a placeholder or a dollar-quoted string).
_LONGER_SYMBOL_TYPES = {
    "-": TokenType.COMMENT,
    "/": TokenType.COMMENT,
    ".": TokenType.NUMBER,
    '"': TokenType.QUOTED_NAME,
    "`": TokenType.QUOTED_NAME,
    "[": TokenType.QUOTED_NAME,
    "%": TokenType.PLACEHOLDER,
    ":": TokenType.PLACEHOLDER,
    "@": TokenType.PLACEHOLDER,
}


def _symbol_type(text: str) -> TokenType:
    ttype = _SYMBOL_TYPES.get(text)
    if ttype is not None:
        return ttype
    if len(text) == 1:
        return TokenType.UNKNOWN
    if text[0] == "$":
        return TokenType.PLACEHOLDER if text[1].isdecimal() else TokenType.STRING
    return _LONGER_SYMBOL_TYPES[text[0]]


def _non_ascii_type(first: str) -> TokenType:
    if first.isspace():
        return TokenType.WHITESPACE
    if first.isdecimal():
        return TokenType.NUMBER
    return TokenType.UNKNOWN


class Lexer:
    """Tokenizes SQL text.

    The lexer is stateless; reuse one instance across statements.
    """

    def tokenize(self, sql: str) -> list[Token]:
        """Tokenize ``sql`` into a flat token list (including whitespace)."""
        texts = _TOKEN_RE.findall(sql)
        if "$" in sql:
            texts = _with_dollar_strings(sql, texts)
        tokens: list[Token] = []
        append = tokens.append
        type_by_first = _TYPE_BY_FIRST
        word_types = _WORD_TYPES
        compound = _COMPOUND_BY_FIRST
        name, word, symbol = TokenType.NAME, _WORD, _SYMBOL
        phrase_starts: list[int] = []
        pos = 0
        for text in texts:
            ttype = type_by_first.get(text[0])
            if ttype is word:
                upper = text.upper()
                ttype = word_types.get(upper, name)
                if ttype is not name and upper in compound:
                    phrase_starts.append(len(tokens))
            elif ttype is symbol:
                ttype = _symbol_type(text)
            elif ttype is None:
                ttype = _non_ascii_type(text[0])
            append(Token(ttype, text, pos))
            pos += len(text)
        if phrase_starts:
            return _fold_compound_keywords(tokens, phrase_starts)
        return tokens


def _with_dollar_strings(sql: str, texts: "list[str]") -> "list[str]":
    """``texts`` with each dollar-quoted string (``$tag$ … $tag$``) as one text.

    Closing one needs a backreference, which ``findall`` cannot return, so
    the scan leaves a lone ``$`` wherever one may open.  At each, the
    closing tag is searched for; a ``$`` without one stays a lone ``$``.
    After a string, the scan's texts are used again from the first one that
    starts where the string ends, and texts that straddle its end are
    re-matched one at a time until the two agree again, so every character
    is matched at most twice.
    """
    if "$" not in texts:  # no lone ``$``: no string opens
        return texts
    out: list[str] = []
    append = out.append
    match = _TOKEN_RE.match
    unclosed: set[str] = set()  # tags with no closer after an earlier opener
    length = len(sql)
    pos = start = index = 0  # next text's position; where texts[index] starts
    while pos < length:
        while start < pos:
            start += len(texts[index])
            index += 1
        text = texts[index] if start == pos else match(sql, pos).group()
        if text == "$":
            opener = _DOLLAR_TAG_RE.match(sql, pos)
            if opener is not None and opener.group() not in unclosed:
                tag = opener.group()
                close = sql.find(tag, opener.end())
                if close < 0:
                    unclosed.add(tag)
                else:
                    text = sql[pos : close + len(tag)]
        append(text)
        pos += len(text)
    return out


def _fold_compound_keywords(tokens: "list[Token]", starts: "list[int]") -> "list[Token]":
    """Fold multi-word phrases (``GROUP BY``, ``LEFT OUTER JOIN``) into
    single keyword tokens so downstream rules can match them directly.

    ``starts`` indexes the keywords that can begin a phrase, in order.  A
    phrase's later words are the next tokens that are not whitespace or
    comments, and the longest phrase wins.
    """
    folded: list[Token] = []
    done = 0  # tokens before this index are in ``folded`` or folded away
    count = len(tokens)
    for start in starts:
        if start < done:
            continue
        phrases = _COMPOUND_BY_FIRST[tokens[start].normalized]
        following: list[int] = []
        wanted = len(phrases[0]) - 1
        index = start + 1
        while index < count and len(following) < wanted:
            token = tokens[index]
            if not token.is_whitespace and not token.is_comment:
                following.append(index)
            index += 1
        words = tuple(
            tokens[i].normalized if tokens[i].is_keyword else None for i in following
        )
        for phrase in phrases:
            rest = len(phrase) - 1
            if phrase[1:] == words[:rest]:
                first = tokens[start]
                text = " ".join([first.value, *(tokens[i].value for i in following[:rest])])
                folded.extend(tokens[done:start])
                folded.append(Token(TokenType.KEYWORD, text, first.position))
                done = following[rest - 1] + 1
                break
    if not done:
        return tokens
    folded.extend(tokens[done:])
    return folded


_DEFAULT_LEXER = Lexer()


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` using a shared default :class:`Lexer` instance."""
    return _DEFAULT_LEXER.tokenize(sql)
