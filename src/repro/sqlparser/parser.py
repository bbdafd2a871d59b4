"""Top-level parse API: SQL text -> list of parsed statements.

``parse`` is the function the rest of the toolchain uses.  Each parsed
statement bundles the raw text, the flat token stream, the grouped tree and
the inferred statement type.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Statement
from .grouping import group_statement
from .lexer import tokenize
from .splitter import split_meaningful
from .tokens import Token, TokenStream, TokenType

#: Statement types recognised by :func:`classify_statement`.
STATEMENT_TYPES = (
    "SELECT",
    "INSERT",
    "UPDATE",
    "DELETE",
    "CREATE_TABLE",
    "CREATE_INDEX",
    "CREATE_VIEW",
    "CREATE_OTHER",
    "ALTER_TABLE",
    "DROP",
    "TRUNCATE",
    "MERGE",
    "REPLACE",
    "OTHER",
    "EMPTY",
)


@dataclass(slots=True)
class ParsedStatement:
    """A single parsed SQL statement.

    Slotted: corpus runs hold tens of thousands of statements, and the
    detection rules hit these attributes constantly.  The grouped parse
    tree is built lazily on first :attr:`tree` access — the detection cold
    path never consumes it (only the serializer/fixer layers do), so the
    grouping pass stays off the hot path entirely.

    Attributes:
        raw: original statement text (whitespace preserved).
        tokens: flat token list including whitespace and comments.
        statement_type: one of :data:`STATEMENT_TYPES`.
        index: position of the statement within the parsed script.
        offset: character offset of the statement within the parsed text
            (``None`` when unknown).
        line: 1-based line number of the statement within the parsed text
            (``None`` when unknown).
    """

    raw: str
    tokens: list[Token]
    statement_type: str
    index: int = 0
    source: str | None = None
    #: character offset of the statement's first meaningful token within the
    #: text handed to :func:`parse`.  ``None`` when the position within the
    #: workload is unknown — statements parsed standalone, or handed in as a
    #: list whose element boundaries within any containing file are unknown
    #: (the batch paths clear positions at index-rebind time).
    offset: "int | None" = None
    #: 1-based line of that first token within the parsed text, or ``None``
    #: when unknown.  Reports and the SARIF emitter use (offset, line) to
    #: anchor findings to the input and omit the anchor when unknown.
    line: "int | None" = None
    #: character length of the span from the first to the last meaningful
    #: token (``raw`` can be longer — it keeps leading comments — so a
    #: region must not be sized with ``len(raw)``).  ``None`` when unknown.
    length: "int | None" = None
    #: 1-based line on which the meaningful span ends (≥ ``line``), or
    #: ``None`` when unknown.
    end_line: "int | None" = None
    #: True when ``raw`` is byte-identical to the source span
    #: ``text[offset:offset+length]`` — False when lexer normalisation
    #: (compound-keyword folding, stripped comments) made them differ.
    #: Emitters must only quote ``raw`` as the span's content when True.
    span_matches_raw: "bool | None" = None
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)
    _tree: "Statement | None" = field(default=None, init=False, repr=False, compare=False)
    _meaningful: "list[Token] | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def stream(self) -> TokenStream:
        return TokenStream(self.tokens)

    @property
    def tree(self) -> Statement:
        """Grouped parse tree, built on first access (cached)."""
        if self._tree is None:
            self._tree = group_statement(self.tokens, statement_type=self.statement_type)
        return self._tree

    def clear_position(self) -> None:
        """Mark the statement's position within the workload as unknown.

        The batch paths call this for statements parsed from list elements
        (their offsets are element-relative, not positions in a containing
        file); keeping the invariant in one place means a future position
        field cannot be forgotten at one of the call sites.
        """
        self.offset = None
        self.line = None
        self.length = None
        self.end_line = None
        self.span_matches_raw = None

    @property
    def fingerprint(self) -> str:
        """Stable fingerprint of the statement's canonical form (cached)."""
        if self._fingerprint is None:
            from .fingerprint import fingerprint as _fp

            self._fingerprint = _fp(self.tokens)
        return self._fingerprint

    def meaningful_tokens(self) -> list[Token]:
        """Tokens that are not whitespace or comments (cached — callers must
        treat the returned list as read-only)."""
        cached = self._meaningful
        if cached is None:
            cached = self._meaningful = [
                t for t in self.tokens if not t.is_whitespace and not t.is_comment
            ]
        return cached

    @property
    def is_ddl(self) -> bool:
        return self.statement_type in (
            "CREATE_TABLE",
            "CREATE_INDEX",
            "CREATE_VIEW",
            "CREATE_OTHER",
            "ALTER_TABLE",
            "DROP",
            "TRUNCATE",
        )

    @property
    def is_dml(self) -> bool:
        return self.statement_type in ("SELECT", "INSERT", "UPDATE", "DELETE", "MERGE", "REPLACE")

    def __str__(self) -> str:
        return self.raw


def classify_statement(tokens: list[Token]) -> str:
    """Infer the statement type from the first few meaningful tokens."""
    return _classify([t for t in tokens if not t.is_whitespace and not t.is_comment])


def _classify(meaningful: list[Token]) -> str:
    """:func:`classify_statement` over the tokens that are not whitespace or
    comments."""
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


def parse_statement(sql: str, index: int = 0, source: str | None = None) -> ParsedStatement:
    """Parse a single statement string."""
    tokens = tokenize(sql)
    meaningful = [t for t in tokens if not t.is_whitespace and not t.is_comment]
    statement = ParsedStatement(
        raw=sql,
        tokens=tokens,
        statement_type=_classify(meaningful),
        index=index,
        source=source,
    )
    statement._meaningful = meaningful
    return statement


def parse(sql: str, source: str | None = None) -> list[ParsedStatement]:
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
    for i, (stmt_tokens, meaningful) in enumerate(split_meaningful(all_tokens)):
        raw = "".join([t.value for t in stmt_tokens]).strip()
        offset = meaningful[0].position
        # A token's source extent ends where the next token begins: folded
        # compound keywords carry a normalised value ("NOT  NULL" becomes
        # "NOT NULL"), so len(value) understates the consumed source.  The
        # successor is searched within the chunk; a meaningful chunk-final
        # token is either the script's last token (extent = len(sql)) or a
        # one-char ";" (len is exact).
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
        if offset > scanned:
            line += sql.count("\n", scanned, offset)
            scanned = offset
        statement = ParsedStatement(
            raw=raw,
            tokens=stmt_tokens,
            statement_type=_classify(meaningful),
            index=i,
            source=source,
            offset=offset,
            line=line,
            length=end - offset,
            end_line=line + sql.count("\n", offset, end),
            span_matches_raw=sql[offset:end] == raw,
        )
        # The split collected ``meaningful`` — seed the cache so the
        # annotator's first meaningful_tokens() call is free.
        statement._meaningful = meaningful
        statements.append(statement)
    return statements
