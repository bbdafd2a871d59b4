"""Persistent detection memo: SQLite-backed warm state across restarts.

The in-memory caches that make the steady state fast — the annotation
cache, the per-statement detection memo, and the corpus-level replay — die
with the process, so every REST worker and every CLI invocation pays the
cold path again.  :class:`PersistentMemo` mirrors those caches into one
SQLite file so a *restarted* process resumes warm, and concurrent
processes (CLI runs, ``serve`` instances) that open the same path share
one store.

Three tables mirror the three cache layers:

* ``memo`` — ``(scope, raw) -> pickled detection templates``, the store
  tier under the detector's memo (an
  :class:`~repro.sqlparser.AnnotationCache` keyed by ``(memo scope, raw)``),
  so a stored hit is promoted into memory and replays through the same code
  path (byte-identical by construction);
* ``annotations`` — ``(scope, raw) -> pickled parse templates``, the store
  tier under the parse cache, scoped by dialect; a CREATE TABLE's template
  carries the table derived from it;
* ``corpus`` — a whole-run replay: the digest of an entire ``detect_batch``
  input (ordered exact texts + configuration scope) maps to the final
  deduplicated detections, so re-analysing an unchanged corpus skips the
  parse stage entirely — this is what makes a warm restart comparable to
  the in-memory warm path instead of ~2× cold.

Safety model — the store must *never* crash a run and *never* serve stale
results:

* every key embeds :attr:`RuleRegistry.content_digest` plus the thresholds
  and analysis flags, so rule or configuration changes orphan old entries
  rather than match them;
* a ``meta`` table records the format version and registry digest; a
  mismatch on open purges the file back to cold (counted as an
  invalidation);
* a corrupt or truncated file (sqlite errors, unpicklable payloads) is
  dropped and recreated once; if the path stays unusable the store disables
  itself and the detector simply runs cold.
"""
from __future__ import annotations

import os
import pickle
import sqlite3
import threading

from ..obs import get_metrics

#: Schema/payload format of the store; bump on any incompatible change so
#: old files invalidate cleanly instead of unpickling garbage.  Format 3:
#: a parse template is a (statement, annotation, CREATE TABLE's table) triple.
FORMAT_VERSION = 3

#: Row ceiling per cache table; the flush trims oldest-first beyond it.
MAX_ROWS = 65536

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS memo (
    scope TEXT NOT NULL, raw TEXT NOT NULL, payload BLOB NOT NULL,
    PRIMARY KEY (scope, raw));
CREATE TABLE IF NOT EXISTS annotations (
    scope TEXT NOT NULL, raw TEXT NOT NULL, payload BLOB NOT NULL,
    PRIMARY KEY (scope, raw));
CREATE TABLE IF NOT EXISTS corpus (
    key TEXT PRIMARY KEY, payload BLOB NOT NULL);
"""

#: The data tables: the two per-statement layers and the corpus replays.
_TABLES = ("memo", "annotations", "corpus")

#: Invalidation reasons surfaced through metrics and :meth:`info`.
REASON_FORMAT = "format-version"
REASON_REGISTRY = "registry-change"
REASON_CORRUPT_FILE = "corrupt-file"
REASON_CORRUPT_ENTRY = "corrupt-entry"
REASON_IO = "io-error"


class PersistentMemo:
    """One process's handle on the shared SQLite warm-state store.

    All public methods are safe to call from any thread (one internal
    lock serialises access) and never raise: any storage-layer failure
    counts an invalidation and degrades lookups to misses — the cold path
    is always available.  Writes are buffered per run and flushed in one
    transaction by :meth:`flush` (the detector calls it at the end of every
    detection pass).
    """

    def __init__(self, path, *, registry_digest: bytes, max_rows: int = MAX_ROWS):
        self.path = str(path)
        self.registry_digest = registry_digest.hex()
        self.max_rows = max_rows
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._lock = threading.RLock()
        self._conn: "sqlite3.Connection | None" = None
        self._recreated = False
        # (table, row tuple) pairs accumulated until the next flush.
        self._pending: "list[tuple[str, tuple]]" = []
        try:
            self._connect()
        except (sqlite3.Error, OSError, ValueError):
            self._invalidate(REASON_CORRUPT_FILE)
            self._recreate()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        conn = sqlite3.connect(self.path, timeout=5.0, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            meta = dict(conn.execute("SELECT key, value FROM meta"))
            stale = None
            if meta and meta.get("format_version") != str(FORMAT_VERSION):
                stale = REASON_FORMAT
            elif meta and meta.get("registry_digest") != self.registry_digest:
                stale = REASON_REGISTRY
            if stale is not None or not meta:
                if stale is not None:
                    self._invalidate(stale)
                # Drop rather than empty, in one transaction: an older
                # format's tables may have other columns.
                conn.executescript(
                    "BEGIN IMMEDIATE;"
                    + "".join(f"DROP TABLE IF EXISTS {t};" for t in (*_TABLES, "meta"))
                    + _SCHEMA
                    + "COMMIT;"
                )
                conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("format_version", str(FORMAT_VERSION)),
                        ("registry_digest", self.registry_digest),
                    ],
                )
            conn.commit()
        except (sqlite3.Error, OSError, ValueError):
            conn.close()
            raise
        self._conn = conn

    def _recreate(self) -> None:
        """Drop the on-disk file and start cold; on failure stay disabled."""
        self._conn = None
        try:
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.remove(self.path + suffix)
                except FileNotFoundError:
                    pass
            self._connect()
        except (sqlite3.Error, OSError, ValueError):
            self._conn = None

    def _io_failure(self) -> None:
        """A storage operation failed mid-run: invalidate, recreate once."""
        self._invalidate(REASON_IO)
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        if not self._recreated:
            self._recreated = True
            self._recreate()

    def close(self) -> None:
        with self._lock:
            self.flush()
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    @property
    def enabled(self) -> bool:
        return self._conn is not None

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def _invalidate(self, reason: str) -> None:
        self.invalidations += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.persistent_memo_invalidations.inc_single(reason)

    def _count(self, layer: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.persistent_memo_lookups.inc(
                1, layer=layer, result="hit" if hit else "miss"
            )

    # ------------------------------------------------------------------
    # generic row access
    # ------------------------------------------------------------------
    def _fetch(self, layer: str, sql: str, params: tuple) -> "object | None":
        """One guarded SELECT returning the unpickled payload, or None."""
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(sql, params).fetchone()
            except (sqlite3.Error, OSError):
                self._io_failure()
                return None
            if row is None:
                self._count(layer, hit=False)
                return None
            value = _loads(row[-1])
            if value is None:
                # Unpicklable payload: a truncated write or a library drift
                # the format version missed — treat as corrupt, never serve.
                self._invalidate(REASON_CORRUPT_ENTRY)
                self._count(layer, hit=False)
                return None
            self._count(layer, hit=True)
            return value

    def _buffer(self, table: str, row: tuple) -> None:
        with self._lock:
            if self._conn is None:
                return
            self._pending.append((table, row))

    # ------------------------------------------------------------------
    # the three cache layers
    # ------------------------------------------------------------------
    def get(self, layer: str, key: "tuple[str, str]") -> "object | None":
        """The value stored under a ``(scope, raw)`` key of a per-statement
        layer (``memo`` or ``annotations``), or None."""
        return self._fetch(
            layer, f"SELECT payload FROM {layer} WHERE scope=? AND raw=?", key
        )

    def put(self, layer: str, key: "tuple[str, str]", value) -> None:
        payload = _dumps(value)
        if payload is not None:
            self._buffer(layer, (*key, payload))

    def get_corpus(self, key: str) -> "dict | None":
        value = self._fetch(
            "corpus", "SELECT payload FROM corpus WHERE key=?", (key,)
        )
        return value if isinstance(value, dict) else None

    def put_corpus(self, key: str, payload: dict) -> None:
        blob = _dumps(payload)
        if blob is not None:
            self._buffer("corpus", (key, blob))

    # ------------------------------------------------------------------
    # flush / maintenance
    # ------------------------------------------------------------------
    _INSERTS = {
        "memo": "INSERT OR REPLACE INTO memo (scope, raw, payload) VALUES (?, ?, ?)",
        "annotations": "INSERT OR REPLACE INTO annotations "
        "(scope, raw, payload) VALUES (?, ?, ?)",
        "corpus": "INSERT OR REPLACE INTO corpus (key, payload) VALUES (?, ?)",
    }

    def flush(self) -> None:
        """Write buffered puts in one transaction and trim oversized tables."""
        with self._lock:
            if self._conn is None or not self._pending:
                self._pending.clear()
                return
            pending, self._pending = self._pending, []
            try:
                with self._conn:
                    for table, row in pending:
                        self._conn.execute(self._INSERTS[table], row)
                    rows = sum(self._trim(table) for table in _TABLES)
            except (sqlite3.Error, OSError):
                self._io_failure()
                return
            metrics = get_metrics()
            if metrics.enabled:
                metrics.persistent_memo_entries.set(rows)

    def _trim(self, table: str) -> int:
        """Keep only ``table``'s ``max_rows`` newest rows (highest rowids)
        and return how many rows it keeps.

        Rowids only grow (``INSERT OR REPLACE`` re-inserts a key at the
        end), so the oldest rows have the lowest rowids.  One ``COUNT(*)``
        per table and flush gives the excess, and the delete walks only
        the excess rows from the low end of the rowid b-tree: its cost
        grows with the rows deleted, not with the rows kept.
        """
        (count,) = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        excess = count - self.max_rows
        if excess <= 0:
            return count
        self._conn.execute(
            f"DELETE FROM {table} WHERE rowid IN "
            f"(SELECT rowid FROM {table} ORDER BY rowid LIMIT ?)",
            (excess,),
        )
        return self.max_rows

    def info(self) -> dict:
        """Occupancy + counter snapshot for health probes and ``memo_info``."""
        with self._lock:
            payload = {
                "path": self.path,
                "enabled": self.enabled,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "pending_writes": len(self._pending),
            }
            if self._conn is not None:
                try:
                    for table in _TABLES:
                        payload[f"{table}_rows"] = self._conn.execute(
                            f"SELECT COUNT(*) FROM {table}"
                        ).fetchone()[0]
                except (sqlite3.Error, OSError):
                    pass
            return payload


def _loads(blob) -> "object | None":
    """Unpickle a stored payload; any failure reads as 'no entry'."""
    try:
        return pickle.loads(blob)
    except Exception:  # noqa: BLE001 - corrupt bytes can raise anything
        return None


def _dumps(value) -> "bytes | None":
    """Pickle a payload; unpicklable values are simply not persisted."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - user rules can attach anything
        return None
