"""The one-pass frontend produces exactly what the earlier frontend did.

The reference below is the earlier lexer (a per-class regex cascade behind
a common-token fast path, then a fold over every token), statement
splitter, ``classify_statement`` and ``parse``, kept verbatim apart from
two names: the lexer class is ``ReferenceLexer`` and ``parse`` is
``reference_parse``.  One change to the lexer is intended — ``<<`` and
``>>`` now lex as one operator where the earlier lexer gave two
comparisons — and ``tokenize`` normalises the reference stream for it.
Token streams are compared as (type, value, position), and parsed
statements field for field, on fuzzed SQL pieces (every operator,
placeholder and quote form; terminated and unterminated
dollar-quoted strings, strings, block comments and quoted names; non-ASCII
letters and digits), on the golden corpus, on generated scripts and on long
hostile statements.  ``ReferenceAnnotator`` keeps the earlier bodies of the
three annotation helpers the rewrite touched; it is compared with the
current annotator helper by helper and annotation by annotation.
"""
from __future__ import annotations

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sqlparser import lexer as current_lexer
from repro.sqlparser import parser as current_parser
from repro.sqlparser import splitter as current_splitter
from repro.sqlparser.annotate import (
    _CLAUSE_KEYWORDS,
    _JOIN_KEYWORDS,
    _PATTERN_OPERATORS,
    Predicate,
    QueryAnnotation,
    QueryAnnotator,
)
from repro.sqlparser.keywords import (
    ALL_KEYWORDS,
    COMPARISON_OPERATORS,
    COMPOUND_KEYWORDS,
    DATATYPE_KEYWORDS,
    DDL_KEYWORDS,
    DML_KEYWORDS,
    OPERATORS,
)
from repro.sqlparser.parser import ParsedStatement
from repro.sqlparser.tokens import Token, TokenType
from repro.testkit import CorpusGenerator, load_golden
from repro.workloads.github_corpus import GitHubCorpusGenerator

# ----------------------------------------------------------------------
# the earlier frontend, verbatim
# ----------------------------------------------------------------------
_WHITESPACE_RE = re.compile(r"\s+")
_LINE_COMMENT_RE = re.compile(r"--[^\n]*|#[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_NUMBER_RE = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_STRING_RE = re.compile(r"'(?:[^']|'')*'")
_DOLLAR_STRING_RE = re.compile(r"\$([A-Za-z_]*)\$.*?\$\1\$", re.DOTALL)
_DOUBLE_QUOTED_RE = re.compile(r'"(?:[^"]|"")*"')
_BACKTICK_QUOTED_RE = re.compile(r"`(?:[^`]|``)*`")
_BRACKET_QUOTED_RE = re.compile(r"\[[^\]]*\]")
_PLACEHOLDER_RE = re.compile(r"\?|%\(\w+\)s|%s|%d|:\w+|\$\d+|@\w+")

#: Fast path for the token classes that dominate real SQL — whitespace,
#: words, numbers, string literals, and the unambiguous punctuation
#: characters.  One anchored match replaces the per-class probe cascade of
#: :meth:`Lexer._next_token`; every alternative starts with a character no
#: earlier branch of the cascade could claim, so hitting this regex first
#: cannot change which token is produced.  (``.`` stays out: it is a number
#: when a digit follows and punctuation otherwise.)
_COMMON_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)"
    r"|(?P<str>'(?:[^']|'')*')"
    r"|(?P<punct>[(),;])"
)

#: Compound keyword phrases indexed by their (upper-cased) first word, each
#: bucket sorted longest-first so the longest-match-wins rule falls out of a
#: plain scan.  Folding checks every keyword token against this index; the
#: dict lookup replaces the seed's scan over all phrases per keyword.
_COMPOUND_BY_FIRST: "dict[str, list[tuple[str, ...]]]" = {}
for _phrase in COMPOUND_KEYWORDS:
    _upper = tuple(word.upper() for word in _phrase)
    _COMPOUND_BY_FIRST.setdefault(_upper[0], []).append(_upper)
for _bucket in _COMPOUND_BY_FIRST.values():
    _bucket.sort(key=len, reverse=True)


class ReferenceLexer:
    """Tokenizes SQL text.

    The lexer is stateless; reuse one instance across statements.
    """

    def tokenize(self, sql: str) -> list[Token]:
        """Tokenize ``sql`` into a flat token list (including whitespace)."""
        tokens: list[Token] = []
        pos = 0
        length = len(sql)
        append = tokens.append
        common = _COMMON_RE.match
        classify = self._classify_word
        while pos < length:
            match = common(sql, pos)
            if match is not None:
                text = match.group()
                kind = match.lastgroup
                if kind == "ws":
                    token = Token(TokenType.WHITESPACE, text, pos)
                elif kind == "name":
                    token = Token(classify(text), text, pos)
                elif kind == "num":
                    token = Token(TokenType.NUMBER, text, pos)
                elif kind == "str":
                    token = Token(TokenType.STRING, text, pos)
                else:
                    token = Token(TokenType.PUNCTUATION, text, pos)
            else:
                token = self._next_token(sql, pos)
            append(token)
            pos += len(token.value)
        return self._fold_compound_keywords(tokens)

    # ------------------------------------------------------------------
    # single-token scanning
    # ------------------------------------------------------------------
    def _next_token(self, sql: str, pos: int) -> Token:
        ch = sql[pos]

        match = _WHITESPACE_RE.match(sql, pos)
        if match:
            return Token(TokenType.WHITESPACE, match.group(), pos)

        if ch == "-" and sql.startswith("--", pos) or ch == "#":
            match = _LINE_COMMENT_RE.match(sql, pos)
            if match:
                return Token(TokenType.COMMENT, match.group(), pos)

        if ch == "/" and sql.startswith("/*", pos):
            match = _BLOCK_COMMENT_RE.match(sql, pos)
            if match:
                return Token(TokenType.COMMENT, match.group(), pos)
            # Unterminated block comment: consume the rest of the input.
            return Token(TokenType.COMMENT, sql[pos:], pos)

        if ch == "'":
            match = _STRING_RE.match(sql, pos)
            if match:
                return Token(TokenType.STRING, match.group(), pos)
            # Unterminated string literal: take the rest, stay non-validating.
            return Token(TokenType.STRING, sql[pos:], pos)

        if ch == "$":
            match = _DOLLAR_STRING_RE.match(sql, pos)
            if match:
                return Token(TokenType.STRING, match.group(), pos)
            match = _PLACEHOLDER_RE.match(sql, pos)
            if match:
                return Token(TokenType.PLACEHOLDER, match.group(), pos)

        if ch == '"':
            match = _DOUBLE_QUOTED_RE.match(sql, pos)
            if match:
                return Token(TokenType.QUOTED_NAME, match.group(), pos)

        if ch == "`":
            match = _BACKTICK_QUOTED_RE.match(sql, pos)
            if match:
                return Token(TokenType.QUOTED_NAME, match.group(), pos)

        if ch == "[":
            match = _BRACKET_QUOTED_RE.match(sql, pos)
            if match:
                return Token(TokenType.QUOTED_NAME, match.group(), pos)

        if ch in "?%:@":
            match = _PLACEHOLDER_RE.match(sql, pos)
            if match:
                return Token(TokenType.PLACEHOLDER, match.group(), pos)

        if ch.isdigit() or (ch == "." and pos + 1 < len(sql) and sql[pos + 1].isdigit()):
            match = _NUMBER_RE.match(sql, pos)
            if match:
                return Token(TokenType.NUMBER, match.group(), pos)

        match = _NAME_RE.match(sql, pos)
        if match:
            word = match.group()
            return Token(self._classify_word(word), word, pos)

        for operator in COMPARISON_OPERATORS:
            if sql.startswith(operator, pos):
                return Token(TokenType.COMPARISON, operator, pos)

        for operator in OPERATORS:
            if sql.startswith(operator, pos):
                if operator == "*":
                    return Token(TokenType.WILDCARD, operator, pos)
                return Token(TokenType.OPERATOR, operator, pos)

        if ch in "(),;.":
            return Token(TokenType.PUNCTUATION, ch, pos)

        return Token(TokenType.UNKNOWN, ch, pos)

    def _classify_word(self, word: str) -> TokenType:
        upper = word.upper()
        if upper in DML_KEYWORDS:
            return TokenType.DML_KEYWORD
        if upper in DDL_KEYWORDS:
            return TokenType.DDL_KEYWORD
        if upper in DATATYPE_KEYWORDS:
            return TokenType.DATATYPE
        if upper in ALL_KEYWORDS:
            return TokenType.KEYWORD
        return TokenType.NAME

    # ------------------------------------------------------------------
    # compound keyword folding
    # ------------------------------------------------------------------
    def _fold_compound_keywords(self, tokens: list[Token]) -> list[Token]:
        """Fold multi-word phrases (``GROUP BY``, ``LEFT OUTER JOIN``) into
        single keyword tokens so downstream rules can match them directly."""
        meaningful_idx = [
            i for i, t in enumerate(tokens) if not t.is_whitespace and not t.is_comment
        ]
        folded: list[Token] = []
        skip_until = -1
        position_of = {idx: n for n, idx in enumerate(meaningful_idx)}
        for i, token in enumerate(tokens):
            if i <= skip_until:
                continue
            if token.is_keyword and token.normalized in _COMPOUND_BY_FIRST and i in position_of:
                phrase_end = self._match_compound(tokens, meaningful_idx, position_of[i])
                if phrase_end is not None:
                    phrase_tokens = tokens[i : phrase_end + 1]
                    text = " ".join(
                        t.value for t in phrase_tokens if not t.is_whitespace and not t.is_comment
                    )
                    folded.append(Token(TokenType.KEYWORD, text, token.position))
                    skip_until = phrase_end
                    continue
            folded.append(token)
        return folded

    def _match_compound(
        self, tokens: list[Token], meaningful_idx: list[int], start_meaningful: int
    ) -> int | None:
        """If a compound keyword phrase starts at the given meaningful index,
        return the raw-token index of its last word (longest match wins)."""
        first = tokens[meaningful_idx[start_meaningful]]
        phrases = _COMPOUND_BY_FIRST.get(first.normalized)
        if not phrases:
            return None
        for phrase in phrases:  # longest first within the bucket
            end = start_meaningful + len(phrase) - 1
            if end >= len(meaningful_idx):
                continue
            matched = True
            for k in range(1, len(phrase)):
                candidate = tokens[meaningful_idx[start_meaningful + k]]
                if not candidate.is_keyword or candidate.normalized != phrase[k]:
                    matched = False
                    break
            if matched:
                return meaningful_idx[end]
        return None


_REFERENCE_LEXER = ReferenceLexer()


def tokenize(sql: str) -> list[Token]:
    """The earlier lexer's tokens, normalised for the one intended change:
    ``<<`` and ``>>`` lex as one operator.  Where the earlier lexer gave a
    ``<``/``>`` comparison and, at the next offset, a token starting with
    the same character, the two become that operator and the text after it
    is lexed again."""
    tokens: list[Token] = []
    start = 0
    while True:
        pending = _REFERENCE_LEXER.tokenize(sql[start:])
        for token, following in zip(pending, pending[1:] + [None]):
            if (
                following is not None
                and token.ttype is TokenType.COMPARISON
                and token.value in ("<", ">")
                and following.position == token.position + 1
                and following.value.startswith(token.value)
            ):
                tokens.append(Token(TokenType.OPERATOR, token.value * 2, start + token.position))
                start += token.position + 2
                break
            tokens.append(Token(token.ttype, token.value, start + token.position))
        else:
            return tokens


def split_tokens(tokens: list[Token]) -> list[list[Token]]:
    """Split a flat token list into one token list per statement."""
    statements: list[list[Token]] = []
    current: list[Token] = []
    depth = 0
    for token in tokens:
        if token.ttype is TokenType.PUNCTUATION and token.value == "(":
            depth += 1
        elif token.ttype is TokenType.PUNCTUATION and token.value == ")":
            depth = max(0, depth - 1)
        if token.ttype is TokenType.PUNCTUATION and token.value == ";" and depth == 0:
            current.append(token)
            if _has_content(current):
                statements.append(current)
            current = []
            continue
        current.append(token)
    if _has_content(current):
        statements.append(current)
    return statements


def _has_content(tokens: list[Token]) -> bool:
    return any(
        not t.is_whitespace and not t.is_comment and not (t.ttype is TokenType.PUNCTUATION and t.value == ";")
        for t in tokens
    )


def classify_statement(tokens: list[Token]) -> str:
    """Infer the statement type from the first few meaningful tokens."""
    meaningful = [t for t in tokens if not t.is_whitespace and not t.is_comment]
    if not meaningful:
        return "EMPTY"
    # Skip a leading WITH ... CTE prelude by finding the first DML keyword.
    first = meaningful[0]
    if first.match(TokenType.KEYWORD, "WITH"):
        for token in meaningful[1:]:
            if token.ttype is TokenType.DML_KEYWORD:
                first = token
                break
    head = first.normalized
    if first.ttype is TokenType.DML_KEYWORD or head in ("INSERT INTO", "DELETE FROM"):
        if head.startswith("INSERT"):
            return "INSERT"
        if head.startswith("DELETE"):
            return "DELETE"
        if head == "SELECT":
            return "SELECT"
        if head == "UPDATE":
            return "UPDATE"
        if head == "MERGE":
            return "MERGE"
        if head in ("REPLACE", "UPSERT"):
            return "REPLACE"
    if first.ttype is TokenType.DDL_KEYWORD:
        second = meaningful[1].normalized if len(meaningful) > 1 else ""
        third = meaningful[2].normalized if len(meaningful) > 2 else ""
        if head == "CREATE":
            qualifier = {second, third}
            if "TABLE" in qualifier:
                return "CREATE_TABLE"
            if "INDEX" in qualifier or "UNIQUE" == second and "INDEX" in third:
                return "CREATE_INDEX"
            if "VIEW" in qualifier or "MATERIALIZED" in qualifier:
                return "CREATE_VIEW"
            return "CREATE_OTHER"
        if head == "ALTER":
            if second == "TABLE":
                return "ALTER_TABLE"
            return "OTHER"
        if head == "DROP":
            return "DROP"
        if head == "TRUNCATE":
            return "TRUNCATE"
    return "OTHER"


def reference_parse(sql: str, source: str | None = None) -> list[ParsedStatement]:
    """Parse SQL text that may contain multiple ``;``-separated statements.

    Each statement records the character offset and 1-based line of its
    first meaningful token within ``sql``, so downstream reports (SARIF in
    particular) can point back into the original script.
    """
    all_tokens = tokenize(sql)
    last_token = all_tokens[-1] if all_tokens else None
    statements: list[ParsedStatement] = []
    # Running newline counter: line numbers over one pass of the script
    # instead of rescanning the prefix per statement (quadratic on the
    # corpus-scale path otherwise).
    line, scanned = 1, 0
    for i, stmt_tokens in enumerate(split_tokens(all_tokens)):
        raw = "".join(t.value for t in stmt_tokens).strip()
        statement_type = classify_statement(stmt_tokens)
        meaningful = [t for t in stmt_tokens if not t.is_whitespace and not t.is_comment]
        if meaningful:
            offset = meaningful[0].position
            # A token's source extent ends where the next token begins:
            # folded compound keywords carry a normalised value ("NOT  NULL"
            # becomes "NOT NULL"), so len(value) understates the consumed
            # source.  The successor is searched within the chunk; a
            # meaningful chunk-final token is either the script's last
            # token (extent = len(sql)) or a one-char ";" (len is exact).
            last = meaningful[-1]
            j = len(stmt_tokens) - 1
            while stmt_tokens[j] is not last:
                j -= 1
            if j + 1 < len(stmt_tokens):
                end = stmt_tokens[j + 1].position
            elif last is last_token:
                end = len(sql)
            else:
                end = last.position + len(last.value)
        else:
            offset = stmt_tokens[0].position if stmt_tokens else 0
            end = offset
        if offset > scanned:
            line += sql.count("\n", scanned, offset)
            scanned = offset
        statement = ParsedStatement(
            raw=raw,
            tokens=stmt_tokens,
            statement_type=statement_type,
            index=i,
            source=source,
            offset=offset,
            line=line,
            length=end - offset,
            end_line=line + sql.count("\n", offset, end),
            span_matches_raw=sql[offset:end] == raw,
        )
        # ``meaningful`` was just computed for the span math — seed the cache
        # so the annotator's first meaningful_tokens() call is free.
        statement._meaningful = meaningful
        statements.append(statement)
    return statements


class ReferenceAnnotator(QueryAnnotator):
    """The annotator with the earlier bodies of the three rewritten helpers."""

    def _split_clauses(self, tokens: list[Token]) -> list[tuple[str, list[Token]]]:
        """Split the meaningful token list into (clause-name, tokens) pairs.

        Nested parentheses (sub-selects, IN lists, VALUES rows) stay inside
        the clause in which they appear.
        """
        clauses: list[tuple[str, list[Token]]] = []
        current_name = "head"
        current: list[Token] = []
        depth = 0
        for token in tokens:
            if token.ttype is TokenType.PUNCTUATION and token.value == "(":
                depth += 1
            elif token.ttype is TokenType.PUNCTUATION and token.value == ")":
                depth = max(0, depth - 1)
            if depth == 0 and token.is_keyword:
                keyword = token.normalized
                if keyword in _JOIN_KEYWORDS:
                    clauses.append((current_name, current))
                    current_name = f"join:{_JOIN_KEYWORDS[keyword]}"
                    current = []
                    continue
                if keyword in _CLAUSE_KEYWORDS:
                    # ON / USING belong to the join clause they follow, so the
                    # join condition stays attached to its JoinInfo.
                    if keyword in ("ON", "USING") and current_name.startswith("join:"):
                        current.append(token)
                        continue
                    clauses.append((current_name, current))
                    current_name = _CLAUSE_KEYWORDS[keyword]
                    current = []
                    if keyword == "UPDATE":
                        current_name = "update"
                    continue
                if keyword == "DISTINCT" and current_name == "select" and not current:
                    # DISTINCT immediately after SELECT
                    clauses.append(("distinct", [token]))
                    continue
            current.append(token)
        clauses.append((current_name, current))
        return [(name, toks) for name, toks in clauses if name != "head" or toks]

    def _collect_functions_and_literals(self, annotation: QueryAnnotation, tokens: list[Token]) -> None:
        for i, token in enumerate(tokens):
            if token.ttype is TokenType.STRING:
                annotation.string_literals.append(token.unquoted())
            if token.ttype is TokenType.OPERATOR and token.value == "||":
                annotation.uses_concat_operator = True
            if token.ttype is TokenType.NAME and i + 1 < len(tokens) and tokens[i + 1].value == "(":
                annotation.functions.add(token.value.upper())

    def _extract_predicates(self, tokens: list[Token], clause: str) -> list[Predicate]:
        """Extract simple binary predicates from a condition token run."""
        predicates: list[Predicate] = []
        i = 0
        while i < len(tokens):
            token = tokens[i]
            is_comparison = token.ttype is TokenType.COMPARISON
            is_pattern = token.is_keyword and token.normalized in _PATTERN_OPERATORS
            is_membership = token.is_keyword and token.normalized in ("IN", "NOT IN", "BETWEEN", "NOT BETWEEN", "IS", "IS NOT")
            if is_comparison or is_pattern or is_membership:
                column = self._operand_column(tokens, i - 1, direction=-1)
                value_literal, value_column = self._operand_value(tokens, i + 1)
                operator = token.normalized
                if column is not None or value_column is not None:
                    predicates.append(
                        Predicate(
                            column=column,
                            operator=operator,
                            value=value_literal,
                            value_column=value_column,
                            clause=clause,
                        )
                    )
            i += 1
        return predicates


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
#: Every operator, comparison, placeholder and quote form, keywords that
#: fold, and the characters on the edges of the token classes.
PIECES = st.sampled_from(
    [
        *OPERATORS, *COMPARISON_OPERATORS, "<<", ">>", "!", "~", ":", "::",
        "?", "%s", "%d", "%(name)s", "%(x", "%", ":name", ":1", ":é", "@var", "@",
        "$1", "$٣", "$", "$$", "$a$", "$tag$", "$_$", "$1$", "$a",
        "'", "''", "'it''s'", "'open", '"', '""', '"Q ""x"""', "`", "``", "`b`",
        "[", "]", "[col]", "--", "-- note\n", "#", "# c\n", "/*", "*/", "/* c */",
        "(", ")", ",", ";", ".", "..", ".5", "1", "1.5", "1e9", "1E+3", "2.5e-1", "e",
        " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\u00a0", "\u2003",
        "é", "ß", "²", "٣", "٣.٣", "x²", "a", "t", "id", "_x", "x$y", "a1", "SELECT",
        "select", "FROM", "WHERE", "IN", "like", "Similar", "TO", "INSERT", "INTO",
        "DELETE", "VARCHAR", "CREATE", "TABLE", "REFERENCES", "{", "}", "\\", "\x00",
        *(" ".join(phrase) for phrase in COMPOUND_KEYWORDS),
        *(word.lower() for phrase in COMPOUND_KEYWORDS for word in phrase),
    ]
)
#: Characters that open, close or sit on the edge of a token class.
EDGES = "ab_1$'\"`[]-/*.#:%@!~<>=|&^+?;(),é²٣ \n\t\x1c"
TEXTS = st.one_of(
    st.lists(PIECES, max_size=40).map("".join),
    st.text(alphabet=EDGES, max_size=60),
    st.text(max_size=40),
)
#: Dollar-quoted strings, terminated or not, with the other forms that
#: can hide or straddle a ``$``.
DOLLAR_TEXTS = st.lists(
    st.sampled_from(
        ["$", "$$", "$a$", "$ab$", "$_$", "$1", "$a", "a$", "x$y$", " ", "'",
         "''", "/*", "*/", "--", "\n", '"', "`", "[", "]", "SELECT", "1", ";", "("]
    ),
    max_size=30,
).map("".join)
#: Statement-shaped text: pieces joined by spaces, so operators sit between
#: operands and folded keywords stay apart from their neighbours.
STATEMENT_TEXTS = st.lists(
    st.one_of(
        PIECES,
        st.sampled_from(
            ["a", "t.c", "x", "'v'", "42", "NULL", "(", ")", ",", "CONCAT(", "f(", "||",
             "WHERE", "AND", "OR", "ON", "JOIN", "HAVING", "IS", "NOT", "BETWEEN", "LIKE",
             "IN", "ILIKE", "GLOB", "REGEXP", "RLIKE", "SIMILAR TO", "IS NOT", "NOT IN"]
        ),
    ),
    max_size=30,
).map(" ".join)

#: Every operator a predicate can hinge on, between each kind of operand.
PREDICATE_STATEMENTS = [
    f"SELECT * FROM t JOIN u ON t.a {op} u.b WHERE a {op} 'x' AND t.c {op} ? "
    f"OR d {op} (1, 2) OR e {op} NULL OR 'y' {op} f GROUP BY g HAVING h {op} 3"
    for op in sorted(
        {*COMPARISON_OPERATORS, "LIKE", "NOT LIKE", "ILIKE", "NOT ILIKE", "REGEXP", "RLIKE",
         "SIMILAR TO", "GLOB", "IN", "NOT IN", "BETWEEN", "NOT BETWEEN", "IS", "IS NOT"}
    )
]


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "conformance" / "golden"


def _generated_scripts() -> "list[str]":
    scripts = [";\n".join(CorpusGenerator(seed).corpus_sql(120)) + ";" for seed in (1, 2)]
    corpora = GitHubCorpusGenerator(repos=12, seed=4).generate().corpora()
    scripts.append(";\n".join(s for repo in corpora.values() for s in repo) + ";")
    return scripts


def _golden_statements() -> "list[str]":
    return [s for entry in load_golden(GOLDEN_DIR) for s in entry["statements"]]


#: Long statements in the shapes of the hostile-input sweep: one word,
#: literal, comment or list of 8,000 characters next to a trigger token.
WORD = "a" * 8000
HOSTILE = [
    f"CREATE TABLE x ({WORD} REFERENCES)",
    f"CREATE TABLE x ({WORD} INT REFERENCES x(id), parent_id INT)",
    f"SELECT {WORD} FROM x WHERE {WORD} || y",
    f"SELECT * FROM x WHERE c LIKE '%{WORD}%'",
    f"SELECT * FROM x WHERE id IN ({', '.join(['1'] * 2000)})",
    f"SELECT 1 /* {WORD} */ FROM x -- {WORD}",
    f"SELECT '{WORD}",
    f"SELECT $${WORD}",
    f"SELECT $a${WORD}$a$ FROM x",
    "SELECT " + "(" * 4000 + ")" * 4000,
    "SELECT " + ", ".join(f"c{i}" for i in range(2000)) + " FROM x",
    " AND ".join(f"c{i} LIKE '%x%'" for i in range(800)),
    "'" * 8001,
    "$" * 8000,
    "$a$ " * 2000,
    "$$'$$ " * 1500,
    "-" * 8000,
    "/*" * 4000,
]


def _stream(tokens: "list[Token]") -> list:
    return [(t.ttype, t.value, t.position) for t in tokens]


def _fields(statements: "list[ParsedStatement]") -> list:
    return [
        (
            s.raw,
            s.statement_type,
            s.index,
            s.source,
            s.offset,
            s.line,
            s.length,
            s.end_line,
            s.span_matches_raw,
            _stream(s.tokens),
            _stream(s.meaningful_tokens()),
        )
        for s in statements
    ]


def _assert_same_frontend(text: str) -> None:
    reference = tokenize(text)
    assert _stream(current_lexer.tokenize(text)) == _stream(reference)
    assert _fields(current_parser.parse(text, source="s")) == _fields(
        reference_parse(text, source="s")
    )
    assert current_splitter.split(text) == [
        "".join(t.value for t in stmt).strip() for stmt in split_tokens(reference)
    ]
    assert [_stream(s) for s in current_splitter.split_tokens(reference)] == [
        _stream(s) for s in split_tokens(reference)
    ]
    statement = current_parser.parse_statement(text)
    assert statement.statement_type == classify_statement(reference)
    assert _stream(statement.meaningful_tokens()) == _stream(
        [t for t in reference if not t.is_whitespace and not t.is_comment]
    )


# ----------------------------------------------------------------------
# lexer, splitter and parse
# ----------------------------------------------------------------------
@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(TEXTS)
def test_fuzzed_text_lexes_and_parses_as_before(text):
    _assert_same_frontend(text)


@settings(max_examples=600, deadline=None)
@given(DOLLAR_TEXTS)
def test_dollar_quoted_strings_lex_as_before(text):
    _assert_same_frontend(text)


def test_golden_corpus_and_generated_scripts_lex_as_before():
    statements = _golden_statements()
    assert statements
    for text in statements + _generated_scripts():
        _assert_same_frontend(text)


def test_hostile_statements_lex_as_before():
    for text in HOSTILE:
        _assert_same_frontend(text)


def test_pattern_classes_are_the_str_predicates_the_lexer_types_with():
    """The lexer types a token that starts with a non-ASCII character by
    ``str.isspace`` and ``str.isdecimal``: they must match exactly what the
    scan's whitespace and digit classes match."""
    text = "".join(map(chr, range(0x80, 0x110000)))
    assert re.findall(r"\s", text) == [c for c in text if c.isspace()]
    assert re.findall(r"\d", text) == [c for c in text if c.isdecimal()]


# ----------------------------------------------------------------------
# annotate
# ----------------------------------------------------------------------
_CURRENT = QueryAnnotator()
_REFERENCE = ReferenceAnnotator()


def _assert_same_annotations(text: str) -> None:
    for statement in current_parser.parse(text):
        tokens = statement.meaningful_tokens()
        # every contiguous run a clause can hand the helpers, plus the whole
        for start in range(0, len(tokens), max(1, len(tokens) // 6)):
            run = tokens[start:]
            assert _CURRENT._extract_predicates(run, "where") == _REFERENCE._extract_predicates(
                run, "where"
            )
            current = QueryAnnotation(statement=statement)
            reference = QueryAnnotation(statement=statement)
            _CURRENT._collect_functions_and_literals(current, run)
            _REFERENCE._collect_functions_and_literals(reference, run)
            assert current == reference
            assert _CURRENT._split_clauses(run) == _REFERENCE._split_clauses(run)
        assert _CURRENT.annotate(statement) == _REFERENCE.annotate(statement)


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(TEXTS, STATEMENT_TEXTS))
def test_fuzzed_statements_annotate_as_before(text):
    _assert_same_annotations(text)


def test_predicates_golden_corpus_and_generated_scripts_annotate_as_before():
    for text in PREDICATE_STATEMENTS + _golden_statements() + _generated_scripts():
        _assert_same_annotations(text)
