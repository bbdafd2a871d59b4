"""Impact metrics per anti-pattern (§5.1).

ap-rank characterises every anti-pattern with six metrics: read performance
(RP), write performance (WP), maintainability (M), data amplification (DA),
data integrity (DI), and accuracy (A).  ``default_metrics`` encodes the
values derived from the paper's empirical GlobaLeaks analysis (the speedups
reported in §2.3 and §8.2, Figure 7b, and the qualitative marks of Table 1).
``MetricEstimator`` re-derives the performance entries empirically from
AP vs. AP-free micro-experiments (the benchmarks count SQLite's VDBE steps),
which is how the model is "retrained as new performance data is collected
over time".
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..model.antipatterns import AntiPattern, catalog_entry


@dataclass(frozen=True)
class APMetrics:
    """The six §5.1 metrics for one anti-pattern.

    ``read_performance`` and ``write_performance`` are expressed as the
    speedup factor (×) obtained by fixing the anti-pattern — the same unit
    the paper uses in Figure 7b ("Index Underuse: Srp = 1.5x", "Enumerated
    Types: Swp > 10x").  ``maintainability`` counts the extra statements a
    representative refactoring task needs while the AP is present.
    ``data_amplification`` is the relative growth factor of the stored data.
    ``data_integrity`` and ``accuracy`` are 0/1 indicators.
    """

    read_performance: float = 0.0
    write_performance: float = 0.0
    maintainability: float = 0.0
    data_amplification: float = 0.0
    data_integrity: int = 0
    accuracy: int = 0


_DEFAULT_METRICS: dict[AntiPattern, APMetrics] = {
    # Logical design — the multi-valued attribute numbers come from Figure 3
    # (636× lookup / 256× join speedups); maintainability from §5.1.
    AntiPattern.MULTI_VALUED_ATTRIBUTE: APMetrics(
        read_performance=5.0, write_performance=2.0, maintainability=3.0,
        data_amplification=1.0, data_integrity=1, accuracy=1,
    ),
    AntiPattern.NO_PRIMARY_KEY: APMetrics(
        read_performance=2.0, write_performance=0.5, maintainability=2.0,
        data_amplification=1.0, data_integrity=1, accuracy=0,
    ),
    AntiPattern.NO_FOREIGN_KEY: APMetrics(
        # Figure 8d–f: the UPDATE speeds up 142× only once the supporting
        # index exists; the dominant impact is integrity/maintainability.
        read_performance=0.5, write_performance=1.5, maintainability=2.0,
        data_amplification=0.0, data_integrity=1, accuracy=1,
    ),
    AntiPattern.GENERIC_PRIMARY_KEY: APMetrics(
        read_performance=0.0, write_performance=0.0, maintainability=1.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.DATA_IN_METADATA: APMetrics(
        read_performance=1.5, write_performance=1.0, maintainability=3.0,
        data_amplification=1.0, data_integrity=1, accuracy=1,
    ),
    AntiPattern.ADJACENCY_LIST: APMetrics(
        # §8.5: 5× in PostgreSQL v9, 1.1× in v11 — we keep the modern value.
        read_performance=1.1, write_performance=0.0, maintainability=1.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.GOD_TABLE: APMetrics(
        read_performance=1.5, write_performance=1.0, maintainability=2.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    # Physical design
    AntiPattern.ROUNDING_ERRORS: APMetrics(
        read_performance=0.0, write_performance=0.0, maintainability=0.0,
        data_amplification=0.0, data_integrity=0, accuracy=1,
    ),
    AntiPattern.ENUMERATED_TYPES: APMetrics(
        # Figure 7b / Figure 8g–h: >10× write speedup, 2 extra statements per
        # domain change, 1 unit of data amplification.
        read_performance=0.0, write_performance=10.0, maintainability=2.0,
        data_amplification=1.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.EXTERNAL_DATA_STORAGE: APMetrics(
        read_performance=0.0, write_performance=0.0, maintainability=1.0,
        data_amplification=0.0, data_integrity=1, accuracy=1,
    ),
    AntiPattern.INDEX_OVERUSE: APMetrics(
        # Figure 8a: UPDATE 10× slower with five indexes on the column.
        read_performance=0.0, write_performance=6.8, maintainability=1.0,
        data_amplification=1.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.INDEX_UNDERUSE: APMetrics(
        # Figure 7b / Figure 8b: 1.3–1.5× read speedup from the missing index.
        read_performance=1.5, write_performance=0.0, maintainability=0.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.CLONE_TABLE: APMetrics(
        read_performance=1.5, write_performance=1.0, maintainability=2.0,
        data_amplification=0.0, data_integrity=1, accuracy=1,
    ),
    # Query APs
    AntiPattern.COLUMN_WILDCARD: APMetrics(
        read_performance=1.2, write_performance=0.0, maintainability=1.0,
        data_amplification=0.0, data_integrity=0, accuracy=1,
    ),
    AntiPattern.CONCATENATE_NULLS: APMetrics(
        read_performance=0.0, write_performance=0.0, maintainability=0.0,
        data_amplification=0.0, data_integrity=0, accuracy=1,
    ),
    AntiPattern.ORDERING_BY_RAND: APMetrics(
        read_performance=3.0, write_performance=0.0, maintainability=0.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.PATTERN_MATCHING: APMetrics(
        read_performance=3.0, write_performance=0.0, maintainability=0.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.IMPLICIT_COLUMNS: APMetrics(
        read_performance=0.0, write_performance=0.0, maintainability=2.0,
        data_amplification=0.0, data_integrity=1, accuracy=0,
    ),
    AntiPattern.DISTINCT_AND_JOIN: APMetrics(
        read_performance=2.0, write_performance=0.0, maintainability=1.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.TOO_MANY_JOINS: APMetrics(
        read_performance=2.0, write_performance=0.0, maintainability=1.0,
        data_amplification=0.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.READABLE_PASSWORD: APMetrics(
        read_performance=0.0, write_performance=0.0, maintainability=0.0,
        data_amplification=0.0, data_integrity=1, accuracy=1,
    ),
    # Data APs
    AntiPattern.MISSING_TIMEZONE: APMetrics(accuracy=1),
    AntiPattern.INCORRECT_DATA_TYPE: APMetrics(
        read_performance=1.5, write_performance=0.5, maintainability=0.0,
        data_amplification=1.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.DENORMALIZED_TABLE: APMetrics(
        read_performance=1.2, write_performance=0.5, maintainability=1.0,
        data_amplification=2.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.INFORMATION_DUPLICATION: APMetrics(
        read_performance=0.0, write_performance=0.5, maintainability=1.0,
        data_amplification=1.0, data_integrity=1, accuracy=1,
    ),
    AntiPattern.REDUNDANT_COLUMN: APMetrics(
        read_performance=0.5, write_performance=0.0, maintainability=0.0,
        data_amplification=1.0, data_integrity=0, accuracy=0,
    ),
    AntiPattern.NO_DOMAIN_CONSTRAINT: APMetrics(
        read_performance=0.0, write_performance=0.0, maintainability=1.0,
        data_amplification=1.0, data_integrity=1, accuracy=0,
    ),
}


def default_metrics() -> dict[AntiPattern, APMetrics]:
    """A fresh copy of the default metric table."""
    return dict(_DEFAULT_METRICS)


class MetricEstimator:
    """Re-estimates the performance metrics from measured AP / no-AP runs.

    The ranking model "is derived through an empirical analysis of
    GlobaLeaks" and retrained as new performance data arrives (§5, §8.2).
    ``record_measurement`` feeds one (anti-pattern, query kind, time-with-AP,
    time-without-AP) observation; ``apply`` folds the observed speedups into
    a metric table.
    """

    def __init__(self, base: dict[AntiPattern, APMetrics] | None = None):
        self.base = dict(base) if base is not None else default_metrics()
        self._read_speedups: dict[AntiPattern, list[float]] = {}
        self._write_speedups: dict[AntiPattern, list[float]] = {}

    def record_measurement(
        self,
        anti_pattern: AntiPattern,
        *,
        kind: str,
        with_ap: float,
        without_ap: float,
    ) -> float:
        """Record one measurement; returns the speedup factor."""
        if without_ap <= 0:
            speedup = 1.0
        else:
            speedup = with_ap / without_ap
        bucket = self._read_speedups if kind in ("select", "join", "sum", "read") else self._write_speedups
        bucket.setdefault(anti_pattern, []).append(speedup)
        return speedup

    def apply(self) -> dict[AntiPattern, APMetrics]:
        """Metric table with the recorded speedups folded in (geometric-mean-free
        simple average, capped to keep the Figure 6 normalisation meaningful)."""
        table = dict(self.base)
        for anti_pattern, speedups in self._read_speedups.items():
            average = sum(speedups) / len(speedups)
            table[anti_pattern] = replace(table.get(anti_pattern, APMetrics()), read_performance=average)
        for anti_pattern, speedups in self._write_speedups.items():
            average = sum(speedups) / len(speedups)
            table[anti_pattern] = replace(table.get(anti_pattern, APMetrics()), write_performance=average)
        return table

    def observed(self, anti_pattern: AntiPattern) -> dict[str, list[float]]:
        return {
            "read": list(self._read_speedups.get(anti_pattern, [])),
            "write": list(self._write_speedups.get(anti_pattern, [])),
        }
