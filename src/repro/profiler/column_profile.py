"""Per-column statistics computed by the data analyser."""
from __future__ import annotations

import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Any

from ..catalog.types import (
    NUMBER_SHAPES,
    SHAPE_FAMILIES,
    TIMEZONE_LINES,
    VALUE_SHAPES,
    TypeFamily,
    infer_type_from_value,
    value_has_timezone,
)
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
    """Compute a :class:`ColumnProfile` from sampled values, a column at a time.

    Exactness contract: the profile is the one the public per-value helpers
    give value by value (:func:`~repro.catalog.types.infer_type_from_value`,
    :func:`~repro.catalog.types.value_has_timezone`,
    :func:`~repro.profiler.inference.looks_like_file_path` and the list test
    of :func:`~repro.profiler.inference.detect_delimited_values`), folded in
    value order.  The values are folded in runs of one type (see
    :class:`_ColumnFold`), so first-seen family order and the order of
    ``numbers`` (min/max ties of ``-0.0`` and ``0.0``, NaN) are value order.
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

    fold = _ColumnFold()
    for kind, run in groupby(non_null, type):
        run = list(run)
        if kind is int or kind is float:
            fold.add_numbers(kind, run)
        elif kind is str:
            fold.add_texts(run)
        else:
            fold.add_scalars(run)
    profile.family_counts = fold.families
    profile.inferred_family = max(fold.families.items(), key=itemgetter(1))[0]

    numbers = fold.numbers
    if numbers:
        profile.mean = statistics.fmean(numbers)
        profile.median = statistics.median(numbers)
        profile.min_value = min(numbers)
        profile.max_value = max(numbers)
    else:
        # no numbers, so every value is text (or an object) and in ``texts``
        profile.min_value = min(fold.texts)
        profile.max_value = max(fold.texts)
    profile.average_length = fold.length / total
    profile.delimiter, profile.delimited_fraction = _most_common_delimiter(
        fold.list_hits, total
    )
    profile.timezone_fraction = fold.timezones / total
    profile.file_path_fraction = fold.paths / total
    return profile


#: Texts the line scan cannot represent: a newline splits a line, and
#: ``str.strip`` removes the information separators ``\x1c``-``\x1f``
#: that ``float()`` rejects (``'\x1c5'`` has a family but no number).
_UNSCANNABLE = re.compile("[\n\x1c-\x1f]")
_SHAPE_OF = attrgetter("lastgroup")


class _ColumnFold:
    """One column's tallies, folded a run of same-type values at a time.

    * native ``int`` and ``float`` runs: built-in ``map``/``sum`` passes (no
      text heuristic can fire on their ``str()``: digits, a sign, a point,
      ``e``, ``nan`` or ``inf``; never a delimiter, a date prefix or a file
      extension);
    * ``str`` runs: one :data:`~repro.catalog.types.VALUE_SHAPES` scan of
      the stripped values joined by newlines gives each value's shape; the
      delimiter and file-path helpers run only on values holding the
      delimiter or a point, and the timezone test is one line scan;
    * everything else (``bool``, ``str`` subclasses and other objects, and
      the texts :data:`_UNSCANNABLE` matches): the per-value helpers.
    """

    def __init__(self) -> None:
        # Family keys enter in first-seen order.
        self.families: dict[TypeFamily, int] = {}
        self.numbers: list[float] = []
        self.texts: list[str] = []
        self.length = 0
        self.list_hits = dict.fromkeys(_DELIMITERS, 0)
        self.timezones = 0
        self.paths = 0

    def _count(self, family: TypeFamily, count: int) -> None:
        self.families[family] = self.families.get(family, 0) + count

    def add_numbers(self, kind: type, run: list[Any]) -> None:
        family = TypeFamily.INTEGER if kind is int else TypeFamily.APPROXIMATE_NUMERIC
        self._count(family, len(run))
        self.numbers.extend(map(float, run))
        self.length += sum(map(len, map(str, run)))

    def add_texts(self, run: list[str]) -> None:
        if _UNSCANNABLE.search("".join(run)) is None:
            self._scan(run)
            return
        for unscannable, part in groupby(run, lambda text: bool(_UNSCANNABLE.search(text))):
            if unscannable:
                self.add_scalars(list(part))
            else:
                self._scan(list(part))

    def _scan(self, run: list[str]) -> None:
        lines = "\n" + "\n".join(map(str.strip, run)) + "\n"
        matches = list(VALUE_SHAPES.finditer(lines))
        shapes = Counter(map(_SHAPE_OF, matches))
        counts = list(shapes.items())
        if len(matches) < len(run):
            # The lines no shape matches are TEXT; the first of them comes
            # right after the matches that cover the leading lines.
            lead = Counter(map(_SHAPE_OF, matches[:_covered_lead(matches)]))
            counts.insert(len(lead), ("text", len(run) - len(matches)))
        for shape, count in counts:
            self._count(SHAPE_FAMILIES[shape], count)
        if not NUMBER_SHAPES.isdisjoint(shapes):
            # Without a newline or a separator in the padding, float() of
            # the stripped text is float() of the value.
            self.numbers.extend(
                float(match[match.lastgroup])
                for match in matches
                if match.lastgroup in NUMBER_SHAPES
            )
        self.texts.extend(run)
        self.length += sum(map(len, run))
        for delimiter in _DELIMITERS:
            if delimiter in lines:
                self.list_hits[delimiter] += sum(
                    _looks_like_list(text, delimiter) for text in run if delimiter in text
                )
        self.timezones += len(TIMEZONE_LINES.findall(lines))
        if "." in lines:
            self.paths += sum(map(looks_like_file_path, [text for text in run if "." in text]))

    def add_scalars(self, run: list[Any]) -> None:
        for value in run:
            self._count(infer_type_from_value(value), 1)
            number = _as_number(value)
            if number is not None:
                self.numbers.append(number)
            text = str(value)
            self.texts.append(text)
            self.length += len(text)
            for delimiter in _DELIMITERS:
                if delimiter in text and _looks_like_list(text, delimiter):
                    self.list_hits[delimiter] += 1
            if value_has_timezone(value):
                self.timezones += 1
            if looks_like_file_path(text):
                self.paths += 1


def _covered_lead(matches: "list[re.Match[str]]") -> int:
    """How many of the line ``matches`` cover the first lines, gap-free."""
    end = 0
    for count, match in enumerate(matches):
        if match.start() != end:
            return count
        end = match.end()
    return len(matches)


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
