"""Exactness of the one-pass column profiler.

``profile_column`` builds a :class:`ColumnProfile` in one pass over the
values, with a fast path for native numbers and guarded per-value helpers.
Its contract is that the profile equals the one the straightforward
seven-pass computation gives.  The ``reference_*`` functions below are that
computation, and the helper bodies it was built on, as they stood before
the one-pass rewrite; they are kept verbatim as the oracle.
"""
from __future__ import annotations

import dataclasses
import re
import statistics
import string
from datetime import datetime
from decimal import Decimal
from typing import Any

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.types import TypeFamily, infer_type_from_value, value_has_timezone
from repro.profiler.column_profile import ColumnProfile, _as_number, profile_column
from repro.profiler.inference import (
    _looks_like_list,
    detect_delimited_values,
    looks_like_file_path,
)

# ---------------------------------------------------------------------------
# reference: the pre-rewrite bodies, verbatim
# ---------------------------------------------------------------------------


def reference_infer_type_from_value(value: object) -> TypeFamily:
    if value is None:
        return TypeFamily.OTHER
    if isinstance(value, bool):
        return TypeFamily.BOOLEAN
    if isinstance(value, int):
        return TypeFamily.INTEGER
    if isinstance(value, float):
        return TypeFamily.APPROXIMATE_NUMERIC
    text = str(value).strip()
    if not text:
        return TypeFamily.TEXT
    if re.fullmatch(r"[+-]?\d+", text):
        return TypeFamily.INTEGER
    if re.fullmatch(r"[+-]?\d*\.\d+([eE][+-]?\d+)?", text) or re.fullmatch(
        r"[+-]?\d+\.\d*([eE][+-]?\d+)?", text
    ):
        return TypeFamily.APPROXIMATE_NUMERIC
    if text.lower() in ("true", "false", "t", "f"):
        return TypeFamily.BOOLEAN
    if re.fullmatch(r"\d{4}-\d{2}-\d{2}", text):
        return TypeFamily.DATE
    if re.fullmatch(r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?([+-]\d{2}:?\d{2}|Z)?", text):
        return TypeFamily.DATETIME
    if re.fullmatch(r"\d{2}:\d{2}(:\d{2})?", text):
        return TypeFamily.TIME
    if re.fullmatch(r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}", text):
        return TypeFamily.UUID
    return TypeFamily.TEXT


def reference_value_has_timezone(value: object) -> bool:
    text = str(value).strip()
    return bool(re.search(r"([+-]\d{2}:?\d{2}|Z)$", text)) and bool(
        re.match(r"\d{4}-\d{2}-\d{2}", text)
    )


_DELIMITERS = (",", ";", "|", "/")
_PATH_RE = re.compile(
    r"^([A-Za-z]:\\|\\\\|/|\./|\.\./|~/)[\w\-./\\ ]+\.\w{1,5}$|^[\w\-./\\ ]+\.(jpg|jpeg|png|gif|pdf|csv|txt|doc|docx|xls|xlsx|mp3|mp4|zip)$",
    re.IGNORECASE,
)
_URL_RE = re.compile(r"^https?://", re.IGNORECASE)


def reference_detect_delimited_values(values):
    if not values:
        return None, 0.0
    hits: dict[str, int] = {d: 0 for d in _DELIMITERS}
    for value in values:
        for delimiter in _DELIMITERS:
            if reference_looks_like_list(value, delimiter):
                hits[delimiter] += 1
    best = max(hits.items(), key=lambda kv: kv[1])
    if best[1] == 0:
        return None, 0.0
    return best[0], best[1] / len(values)


def reference_looks_like_list(value: str, delimiter: str) -> bool:
    if delimiter not in value:
        return False
    parts = [p.strip() for p in value.split(delimiter)]
    if len(parts) < 2:
        return False
    # every part must look like an atomic token (identifier-ish, no spaces)
    token_re = re.compile(r"^[\w.@+-]{1,64}$")
    return all(part and token_re.match(part) for part in parts)


def reference_looks_like_file_path(value: str) -> bool:
    value = value.strip()
    if not value or len(value) > 300:
        return False
    if _URL_RE.match(value):
        return bool(re.search(r"\.(jpg|jpeg|png|gif|pdf|mp3|mp4|zip)$", value, re.IGNORECASE))
    return bool(_PATH_RE.match(value))


def reference_profile_column(name: str, values: list[Any], table: str = "") -> ColumnProfile:
    profile = ColumnProfile(name=name, table=table, values_sampled=len(values))
    non_null = [v for v in values if v is not None]
    profile.null_count = len(values) - len(non_null)
    if not non_null:
        return profile

    as_keys = [_reference_hashable(v) for v in non_null]
    counts: dict[Any, int] = {}
    for key in as_keys:
        counts[key] = counts.get(key, 0) + 1
    profile.distinct_count = len(counts)
    most_common = max(counts.items(), key=lambda kv: kv[1])
    profile.most_common_value = most_common[0]
    profile.most_common_fraction = most_common[1] / len(non_null)

    family_counts: dict[TypeFamily, int] = {}
    for value in non_null:
        family = reference_infer_type_from_value(value)
        family_counts[family] = family_counts.get(family, 0) + 1
    profile.family_counts = family_counts
    profile.inferred_family = max(family_counts.items(), key=lambda kv: kv[1])[0]

    numbers = [reference_as_number(v) for v in non_null]
    numbers = [n for n in numbers if n is not None]
    if numbers:
        profile.mean = statistics.fmean(numbers)
        profile.median = statistics.median(numbers)
        profile.min_value = min(numbers)
        profile.max_value = max(numbers)
    else:
        text_values = sorted(str(v) for v in non_null)
        profile.min_value = text_values[0]
        profile.max_value = text_values[-1]

    text_lengths = [len(str(v)) for v in non_null]
    profile.average_length = statistics.fmean(text_lengths) if text_lengths else None

    delimiter, fraction = reference_detect_delimited_values([str(v) for v in non_null])
    profile.delimiter = delimiter
    profile.delimited_fraction = fraction

    timezone_hits = sum(1 for v in non_null if reference_value_has_timezone(v))
    profile.timezone_fraction = timezone_hits / len(non_null)

    path_hits = sum(1 for v in non_null if reference_looks_like_file_path(str(v)))
    profile.file_path_fraction = path_hits / len(non_null)
    return profile


def _reference_hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return str(value)


def reference_as_number(value: Any) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value))
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# generated columns
# ---------------------------------------------------------------------------

_pad = st.sampled_from(["", " ", "  ", "\t", "\n", "\u3000"])
_token = st.text(alphabet=string.ascii_letters + string.digits + "_.@+-", min_size=1, max_size=6)

#: Hand-picked strings at the edges of the guards: Unicode digits and
#: spaces, ``float()`` spellings, near-miss dates, times, paths and lists.
EDGE_TEXTS = [
    "nan", "NaN", "-nan", "inf", "-Infinity", "infinity", "1_000", "1__0",
    "_1", "\u0663", "\u0661\u0662.\u0665", "\uff11\uff12", "+7", "-0", ".5",
    "5.", "1e5", "1.5e-3", "1.e3", ".e1", "+.5", "-", "+", ".", "0x1A",
    "1,000", "\u00b2", "\u2212" + "5", "\u3000 42\u3000", " 42 ", "\t3.5\n",
    "2020-01-01", "2020-01-01 10:00:00+00:00", "2020-01-01T10:00Z", "2020-01-01 10:00:00 +02:00",
    "2020-13-45", "2020-01-01x", "2020-01-0Z", "12:30:99", "1:30", "12:30",
    "\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0661",
    "\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0661 \u0661\u0660:\u0660\u0660Z",
    "\u0661\u0662:\u0663\u0660", "123e4567-e89b-12d3-a456-426614174000",
    "123E4567-E89B-12D3-A456-42661417400", "/srv/a.pdf", "C:\\x\\y.JPG", "a.png", "a.",
    "https://x.org/logo.png", "http://x.org/page", "~/notes.txt", "../up/report.docx",
    "true", "False", "T", "f", "TRUE ", "yes", "\u0130", "", "   ", "a, b", "a,,b", ",",
    "U1;U2", "a|b|c", "x/y", "x" * 70 + ",y", "123 Main St, Springfield",
]

_numeric_texts = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
    st.sampled_from(EDGE_TEXTS),
)
_temporal_texts = st.one_of(
    st.dates().map(str),
    st.builds(
        lambda moment, sep, offset: moment.isoformat(sep=sep) + offset,
        st.datetimes(),
        st.sampled_from(["T", " "]),
        st.sampled_from(["", "Z", "+02:00", "-0530", "+01", "+00:00 ", "z"]),
    ),
    st.times().map(lambda moment: moment.isoformat()),
    st.times().map(lambda moment: moment.strftime("%H:%M")),
    st.sampled_from(EDGE_TEXTS),
)
_shaped_texts = st.one_of(
    st.uuids().map(str),
    st.uuids().map(lambda value: str(value).upper()),
    st.builds(
        lambda prefix, parts, ext: prefix + "/".join(parts) + ext,
        st.sampled_from(["", "/", "./", "../", "~/", "C:\\", "\\\\", "https://x.org/", "http://"]),
        st.lists(_token, min_size=1, max_size=3),
        st.sampled_from(["", ".png", ".PDF", ".txt", ".html", ".tar.gz", ".toolongext"]),
    ),
    st.builds(
        lambda parts, delimiter, spacer: (spacer + delimiter + spacer).join(parts),
        st.lists(_token, min_size=1, max_size=4),
        st.sampled_from(list(_DELIMITERS)),
        st.sampled_from(["", " ", "  "]),
    ),
    st.sampled_from(EDGE_TEXTS),
    st.text(max_size=24),
)
_texts = st.builds(
    lambda left, text, right: left + text + right,
    _pad, st.one_of(_numeric_texts, _temporal_texts, _shaped_texts), _pad,
)
_numbers = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e20, 2**53 + 1]),
)
_others = st.one_of(
    st.none(),
    st.booleans(),
    st.binary(max_size=8),
    st.decimals(),
    st.datetimes(),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([Decimal("1.50"), datetime(2020, 1, 1, 10, 0), b"a,b", (1, [2])]),
)
_values = st.one_of(_texts, _numbers, _others)
_columns = st.one_of(
    st.lists(_values, max_size=40),
    st.lists(st.one_of(st.none(), _texts), max_size=40),
    st.lists(st.one_of(st.none(), _numbers, _numeric_texts), max_size=40),
    # few distinct values, so ties and first-seen order matter
    st.lists(st.sampled_from([1, 1.0, True, "1", "1.0", None, "a,b", "t", float("nan")]),
             max_size=40),
)

_SETTINGS = settings(max_examples=400, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _canonical(value: Any) -> Any:
    """A comparable rendering that keeps types, dict key order, the sign of
    zero and NaN (``repr`` is exact for floats and reads ``nan`` for NaN)."""
    if isinstance(value, dict):
        return ("dict", [(_canonical(k), _canonical(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canonical(v) for v in value])
    return (type(value).__qualname__, repr(value))


def _outcome(profile, values) -> Any:
    try:
        result = profile("c", values, table="t")
    except Exception as error:  # noqa: BLE001 - the outcome under comparison
        return ("raises", type(error).__name__, str(error))
    return _canonical(dataclasses.asdict(result))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


class TestProfileColumnExactness:
    @_SETTINGS
    @given(_columns)
    def test_profile_equals_the_seven_pass_reference(self, values):
        # Both raise alike where the reference raises (``fsum`` of -inf and
        # inf), and give equal profiles everywhere else.
        assert _outcome(profile_column, values) == _outcome(reference_profile_column, values)

    def test_app_shaped_columns(self):
        columns = [
            list(range(-5, 995)),
            [i * 0.25 for i in range(1000)],
            [f"U{i},U{i + 1}" if i % 2 else None for i in range(1000)],
            ["active", "inactive", "banned"] * 333,
            [f"2020-01-{i % 28 + 1:02d} 10:00:00+00:00" for i in range(200)],
        ]
        for values in columns:
            expected = reference_profile_column("c", values)
            actual = profile_column("c", values)
            assert _canonical(dataclasses.asdict(actual)) == _canonical(
                dataclasses.asdict(expected)
            )


    def test_edge_columns(self):
        edge_values = EDGE_TEXTS + [1, -0.0, float("nan"), True, Decimal("NaN"), b"1", [1]]
        for values in (edge_values, edge_values[::-1], EDGE_TEXTS * 2):
            assert _outcome(profile_column, values) == _outcome(reference_profile_column, values)


def _check_helpers(value: Any) -> None:
    assert infer_type_from_value(value) is reference_infer_type_from_value(value)
    assert value_has_timezone(value) is reference_value_has_timezone(value)
    assert _canonical(_as_number(value)) == _canonical(reference_as_number(value))
    text = str(value)
    assert looks_like_file_path(text) is reference_looks_like_file_path(text)
    for delimiter in _DELIMITERS:
        assert _looks_like_list(text, delimiter) is reference_looks_like_list(text, delimiter)


class TestHelperExactness:
    @_SETTINGS
    @given(_values)
    def test_value_helpers(self, value):
        _check_helpers(value)

    def test_edge_texts(self):
        for text in EDGE_TEXTS:
            for padded in (text, f" {text}", f"{text}\n", f"\u3000{text}\u3000"):
                _check_helpers(padded)

    @_SETTINGS
    @given(st.lists(_texts, max_size=30))
    def test_detect_delimited_values(self, values):
        assert _canonical(detect_delimited_values(values)) == _canonical(
            reference_detect_delimited_values(values)
        )
