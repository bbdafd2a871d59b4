"""Per-column statistics computed by the data analyser."""
from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from ..catalog.types import TypeFamily, infer_type_from_value, value_has_timezone
from .inference import (
    _DELIMITERS,
    _looks_like_list,
    _most_common_delimiter,
    looks_like_file_path,
)


@dataclass
class ColumnProfile:
    """Statistics for a single column over the sampled rows.

    These are the facts the paper's data analyser collects: "the distribution
    of the data in the component columns (e.g., unique values, mean, median)"
    plus format inferences used by individual data rules.
    """

    name: str
    table: str = ""
    values_sampled: int = 0
    null_count: int = 0
    distinct_count: int = 0
    inferred_family: TypeFamily = TypeFamily.OTHER
    family_counts: dict[TypeFamily, int] = field(default_factory=dict)
    mean: float | None = None
    median: float | None = None
    min_value: Any = None
    max_value: Any = None
    average_length: float | None = None
    most_common_value: Any = None
    most_common_fraction: float = 0.0
    delimiter: str | None = None
    delimited_fraction: float = 0.0
    timezone_fraction: float = 0.0
    file_path_fraction: float = 0.0

    # -- derived ratios ------------------------------------------------------
    @property
    def non_null_count(self) -> int:
        return self.values_sampled - self.null_count

    @property
    def null_fraction(self) -> float:
        if self.values_sampled == 0:
            return 0.0
        return self.null_count / self.values_sampled

    @property
    def distinct_ratio(self) -> float:
        """Distinct values over non-null values (1.0 = all unique)."""
        if self.non_null_count == 0:
            return 0.0
        return self.distinct_count / self.non_null_count

    @property
    def is_constant(self) -> bool:
        return self.non_null_count > 0 and self.distinct_count <= 1

    @property
    def is_all_null(self) -> bool:
        return self.values_sampled > 0 and self.null_count == self.values_sampled

    @property
    def looks_delimited(self) -> bool:
        return self.delimiter is not None and self.delimited_fraction >= 0.5


def profile_column(name: str, values: list[Any], table: str = "") -> ColumnProfile:
    """Compute a :class:`ColumnProfile` from sampled values in one pass.

    Exactness contract: the profile is the one the public per-value helpers
    give value by value (:func:`~repro.catalog.types.infer_type_from_value`,
    :func:`~repro.catalog.types.value_has_timezone`,
    :func:`~repro.profiler.inference.looks_like_file_path` and the list test
    of :func:`~repro.profiler.inference.detect_delimited_values`), folded in
    value order.  Native ``int`` and ``float`` values skip those helpers:
    their family is fixed, and no text heuristic can fire on their ``str()``
    (digits, a sign, a point, ``e``, ``nan`` or ``inf``; never a delimiter,
    a date prefix or a file extension).
    """
    profile = ColumnProfile(name=name, table=table, values_sampled=len(values))
    non_null = [v for v in values if v is not None]
    profile.null_count = len(values) - len(non_null)
    if not non_null:
        return profile
    total = len(non_null)

    try:
        counts = Counter(non_null)
    except TypeError:
        counts = Counter(map(_hashable, non_null))
    profile.distinct_count = len(counts)
    profile.most_common_value, top = max(counts.items(), key=itemgetter(1))
    profile.most_common_fraction = top / total

    # Family keys enter ``family_counts`` in first-seen order; the native
    # numbers are tallied apart and added once at the end.
    family_counts: dict[TypeFamily, int] = {}
    ints = floats = 0
    numbers: list[float] = []
    texts: list[str] = []
    length_total = 0
    list_hits = dict.fromkeys(_DELIMITERS, 0)
    timezone_hits = path_hits = 0
    for value in non_null:
        kind = type(value)
        if kind is int:
            if not ints:
                family_counts.setdefault(TypeFamily.INTEGER, 0)
            ints += 1
            numbers.append(float(value))
            length_total += len(str(value))
            continue
        if kind is float:
            if not floats:
                family_counts.setdefault(TypeFamily.APPROXIMATE_NUMERIC, 0)
            floats += 1
            numbers.append(value)
            length_total += len(str(value))
            continue
        family = infer_type_from_value(value)
        family_counts[family] = family_counts.get(family, 0) + 1
        number = _as_number(value)
        if number is not None:
            numbers.append(number)
        text = str(value)
        texts.append(text)
        length_total += len(text)
        for delimiter in _DELIMITERS:
            if delimiter in text and _looks_like_list(text, delimiter):
                list_hits[delimiter] += 1
        if value_has_timezone(value):
            timezone_hits += 1
        if looks_like_file_path(text):
            path_hits += 1
    if ints:
        family_counts[TypeFamily.INTEGER] += ints
    if floats:
        family_counts[TypeFamily.APPROXIMATE_NUMERIC] += floats
    profile.family_counts = family_counts
    profile.inferred_family = max(family_counts.items(), key=itemgetter(1))[0]

    if numbers:
        profile.mean = statistics.fmean(numbers)
        profile.median = statistics.median(numbers)
        profile.min_value = min(numbers)
        profile.max_value = max(numbers)
    else:
        # no native numbers, so every value's text is in ``texts``
        profile.min_value = min(texts)
        profile.max_value = max(texts)
    profile.average_length = length_total / total
    profile.delimiter, profile.delimited_fraction = _most_common_delimiter(list_hits, total)
    profile.timezone_fraction = timezone_hits / total
    profile.file_path_fraction = path_hits / total
    return profile


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return str(value)


#: First non-blank characters ``float()`` accepts besides decimal digits
#: (signs, a leading point, and the ``inf``/``infinity``/``nan`` spellings).
_NUMBER_LEADS = frozenset("+-.iInN")


def _as_number(value: Any) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value)
    lead = text.lstrip()[:1]
    if not (lead.isdecimal() or lead in _NUMBER_LEADS):
        return None
    try:
        return float(text)
    except ValueError:
        return None
