"""Format-inference heuristics used by the data-analysis rules.

Each helper answers one narrow question about a column's values (does it
look like a delimiter-separated list? a file path? a derived column?), so
the data rules in :mod:`repro.rules.data` stay short and declarative.
"""
from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

_DELIMITERS = (",", ";", "|", "/")
_PATH_RE = re.compile(
    r"^([A-Za-z]:\\|\\\\|/|\./|\.\./|~/)[\w\-./\\ ]+\.\w{1,5}$|^[\w\-./\\ ]+\.(jpg|jpeg|png|gif|pdf|csv|txt|doc|docx|xls|xlsx|mp3|mp4|zip)$",
    re.IGNORECASE,
)
_EMAIL_RE = re.compile(r"^[\w.+-]+@[\w-]+\.[\w.-]+$")
_URL_RE = re.compile(r"^https?://", re.IGNORECASE)
_MEDIA_SUFFIX_RE = re.compile(r"\.(jpg|jpeg|png|gif|pdf|mp3|mp4|zip)$", re.IGNORECASE)
_LIST_TOKEN_RE = re.compile(r"^[\w.@+-]{1,64}$")
_PASSWORD_COLUMN_RE = re.compile(r"(passwd|password|pwd|secret)", re.IGNORECASE)
_HASH_RE = re.compile(r"^[0-9a-fA-F]{32,128}$|^\$2[aby]?\$")


def detect_delimited_values(values: Sequence[str]) -> tuple[str | None, float]:
    """Detect whether string values look like delimiter-separated lists.

    Returns (most common delimiter, fraction of values containing it as a
    separator between word-like items).  Values with free text (spaces around
    the delimiter, long prose) are not counted, which is what keeps columns
    such as ADDRESS from being flagged (§4.1's false-positive discussion).
    """
    if not values:
        return None, 0.0
    hits: dict[str, int] = {d: 0 for d in _DELIMITERS}
    for value in values:
        for delimiter in _DELIMITERS:
            if delimiter in value and _looks_like_list(value, delimiter):
                hits[delimiter] += 1
    return _most_common_delimiter(hits, len(values))


def _most_common_delimiter(hits: dict[str, int], total: int) -> tuple[str | None, float]:
    """The delimiter with the most list-shaped values (earliest in
    ``_DELIMITERS`` on ties) and its share of ``total`` values."""
    best = max(hits.items(), key=lambda kv: kv[1])
    if best[1] == 0:
        return None, 0.0
    return best[0], best[1] / total


def _looks_like_list(value: str, delimiter: str) -> bool:
    if delimiter not in value:
        return False
    # every part must look like an atomic token (identifier-ish, no spaces);
    # splitting on a delimiter the value contains yields at least two parts
    parts = map(str.strip, value.split(delimiter))
    return all(part and _LIST_TOKEN_RE.match(part) for part in parts)


def looks_like_file_path(value: str) -> bool:
    """True when a value looks like a filesystem path or media file reference."""
    value = value.strip()
    # Both path shapes and the media-URL suffix end in ".<extension>".
    if not value or len(value) > 300 or "." not in value:
        return False
    if _URL_RE.match(value):
        return bool(_MEDIA_SUFFIX_RE.search(value))
    return bool(_PATH_RE.match(value))


def looks_like_email(value: str) -> bool:
    return bool(_EMAIL_RE.match(value.strip()))


def looks_like_plaintext_password_column(column_name: str, values: Iterable[Any]) -> bool:
    """True when a password-ish column appears to hold plain-text values
    (short strings that are not digests)."""
    if not _PASSWORD_COLUMN_RE.search(column_name):
        return False
    observed = [str(v) for v in values if v is not None]
    if not observed:
        return True  # name alone is suspicious when we cannot see data
    plain = [v for v in observed if not _HASH_RE.match(v)]
    return len(plain) / len(observed) >= 0.5


def detect_derived_pair(
    first_name: str,
    first_values: Sequence[Any],
    second_name: str,
    second_values: Sequence[Any],
) -> bool:
    """Detect the Information Duplication AP: one column derivable from another.

    Two signals are used: (1) a name pair known to be derivable (age /
    birth-date, total / price*quantity-style prefixes), or (2) a perfect
    functional dependency in both directions with identical distinct counts
    and a derivation-looking name.
    """
    name_pairs = (
        ("age", "birth"),
        ("age", "dob"),
        ("year", "date"),
        ("total", "amount"),
        ("fullname", "firstname"),
        ("full_name", "first_name"),
    )
    a, b = first_name.lower(), second_name.lower()
    for derived, source in name_pairs:
        if (derived in a and source in b) or (derived in b and source in a):
            return True
    # functional dependency check on aligned value pairs
    pairs = [
        (x, y)
        for x, y in zip(first_values, second_values)
        if x is not None and y is not None
    ]
    if len(pairs) < 10:
        return False
    forward: dict[Any, Any] = {}
    backward: dict[Any, Any] = {}
    for x, y in pairs:
        if forward.setdefault(x, y) != y:
            return False
        if backward.setdefault(y, x) != x:
            return False
    # bijective mapping between the two columns -> one is derivable
    distinct = len({x for x, _ in pairs})
    return distinct > 1 and distinct < len(pairs)
