"""Statement fingerprinting and the text-keyed result cache.

Real query corpora (the paper's 174k-statement GitHub corpus, ORM-generated
web-application workloads) repeat the same statements over and over.  This
module holds the two tools the toolchain uses for that:

* :func:`canonicalize` — keywords upper-cased, literals replaced by ``?``,
  whitespace and comments collapsed;
* :func:`fingerprint` — a short stable hash of the canonical form (the same
  idea as ``pg_stat_statements``' queryid), exposed as
  ``ParsedStatement.fingerprint`` and recorded as ``statement_fingerprint``
  provenance on quarantined error records;
* :class:`AnnotationCache` — one LRU class keyed by exact text, with an
  optional persistent tier.  It backs the context builder's parse cache,
  the detector's per-statement detection memo and the toolchain's replay
  layer of finished reports.

The caches never key on the fingerprint: two statements may share one while
differing in rule-relevant literal content (``LIKE 'INV-2020%'`` is
index-friendly, ``LIKE '%offer%'`` is the Pattern Matching anti-pattern).
Only an exact-text match replays a stored result, so cached output is
byte-identical to the cold path by construction.
"""
from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..obs.metrics import get_metrics
from .lexer import tokenize
from .tokens import Token, TokenType

#: Literal-like token types normalized to a placeholder in the canonical form.
_LITERAL_TYPES = frozenset({TokenType.STRING, TokenType.NUMBER, TokenType.PLACEHOLDER})

#: Token types whose text is upper-cased in the canonical form.
_CASEFOLD_TYPES = frozenset(
    {
        TokenType.KEYWORD,
        TokenType.DDL_KEYWORD,
        TokenType.DML_KEYWORD,
        TokenType.DATATYPE,
        TokenType.NAME,
        TokenType.COMPARISON,
        TokenType.OPERATOR,
    }
)


def canonicalize_tokens(tokens: Iterable[Token]) -> str:
    """Canonical text of an already-tokenized statement."""
    parts: list[str] = []
    for token in tokens:
        if token.is_whitespace or token.is_comment:
            continue
        if token.ttype in _LITERAL_TYPES:
            parts.append("?")
        elif token.ttype in _CASEFOLD_TYPES:
            parts.append(token.value.upper())
        else:
            parts.append(token.value)
    return " ".join(parts)


def canonicalize(sql: "str | Iterable[Token]") -> str:
    """Canonicalize a statement: upper-cased keywords and identifiers,
    literals normalized to ``?``, whitespace collapsed, comments dropped."""
    if isinstance(sql, str):
        return canonicalize_tokens(tokenize(sql))
    return canonicalize_tokens(sql)


def fingerprint(sql: "str | Iterable[Token]") -> str:
    """Stable 16-hex-digit fingerprint of a statement's canonical form."""
    canonical = canonicalize(sql)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


#: The most statements one cache entry holds whole: the parse cache keeps
#: a script of at most this many statements as one entry, and the replay
#: layer keeps the finished report of a run of at most this many.  Beyond
#: it, one entry pins too much memory for too little reuse.
MAX_CACHED_STATEMENTS = 16

#: the registry counter each cache layer's lookups feed (others: none).
_LOOKUP_COUNTERS = {
    "annotations": "annotation_cache_lookups",
    "memo": "memo_lookups",
    "replay": "replay_lookups",
}


@dataclass
class CacheStats:
    """Hit/miss counters; a run's :class:`~repro.obs.PipelineStats` cache
    fields are their deltas over the run."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class AnnotationCache:
    """LRU cache from exact statement text, under a scope, to a value.

    Value-agnostic: the context builder stores parse templates scoped by
    dialect and the detector stores detection templates scoped by its memo
    scope.  ``maxsize`` bounds the resident entries, and evictions are
    counted in :attr:`stats`.  ``None`` means "absent", so it cannot be
    stored; an empty list can.

    With a ``store`` attached (a :class:`~repro.detector.persist.PersistentMemo`)
    the cache is the memory tier over the store's ``layer`` table.  A memory
    miss reads through to the store; a value found there is promoted into
    memory without being written back.  A value found in either tier counts
    as one hit.  Every :meth:`put` writes through, buffered until the
    store's next flush.

    :meth:`get` is the one place a lookup is counted: in :attr:`stats`
    and, for the ``annotations`` (parse cache, the default), ``memo`` and
    ``replay`` layers, in the metrics registry's lookup counters.
    """

    maxsize: int = 2048
    store: Any = None
    layer: str = "annotations"
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[tuple[str, str], object]" = field(
        default_factory=OrderedDict, repr=False
    )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, text: str, scope: str = "") -> object | None:
        """Return the value cached for ``text`` under ``scope``, or None
        (LRU touch on hit)."""
        key = (scope, text)
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        elif self.store is not None:
            value = self.store.get(self.layer, key)
            if value is not None:
                self._insert(key, value)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        counter = _LOOKUP_COUNTERS.get(self.layer)
        if counter is not None:
            getattr(get_metrics(), counter).inc_single("miss" if value is None else "hit")
        return value

    def put(self, text: str, value: object, scope: str = "") -> None:
        """Cache ``value`` for ``text`` under ``scope`` and write it through."""
        key = (scope, text)
        self._insert(key, value)
        if self.store is not None:
            self.store.put(self.layer, key, value)

    def _insert(self, key: "tuple[str, str]", value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def info(self) -> dict:
        """Occupancy snapshot for health probes (``GET /api/health``)."""
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
        }

    def clear(self) -> None:
        self._entries.clear()
