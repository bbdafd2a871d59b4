"""Workload cost models: how observed workload facts weight a finding.

ap-rank's impact score measures cost *per execution*; the paper ranks
anti-patterns by their impact *on the application*, which also depends on
how much of the workload the offending statement is.  A
:class:`WorkloadCostModel` turns the workload facts a query log carries —
execution **frequency** and observed **duration** per statement — into one
multiplicative ranking weight per statement index:

``frequency``
    the default: ``1 + log2(f)`` for ``f > 1`` executions, 1.0 otherwise.
    Exactly the weight live-source ingestion introduced, so existing
    rankings do not move.

``duration``
    weights by total observed time: ``1 + log2(f · d̄/d̂)`` where ``d̄`` is
    the statement's mean execution time and ``d̂`` the workload's *median*
    mean execution time.  Normalising by the workload median makes the
    weight unit-free (logging in ms vs. s cannot reorder findings) and
    collapses the model to the ``frequency`` weight when every statement
    costs the same — the equivalence the conformance oracle locks
    byte-for-byte.  The median (not the mean) is used because it is exact
    under uniform durations in floating point and robust to stragglers.

``hybrid``
    a configurable blend: ``(1 - s) · frequency + s · duration`` with
    duration share ``s`` (default 0.5).

All models weigh a statement with no workload facts — and every schema- or
data-level finding, which has no statement — at exactly 1.0, so logless
runs rank identically to a toolchain without any cost model at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Mapping


def frequency_weight(frequency: "int | float | None") -> float:
    """Workload weight of a statement executed ``frequency`` times.

    Logarithmic (``1 + log2(f)``): execution counts in real logs span
    orders of magnitude, and a linear weight would let one hot template
    drown out every schema- and data-level finding.  ``f <= 1`` (or
    unknown) weighs 1.0, so workloads without a log rank exactly as
    before.
    """
    if frequency is None or frequency <= 1:
        return 1.0
    return 1.0 + math.log2(float(frequency))


class WorkloadCostModel:
    """Maps per-statement workload facts to per-statement ranking weights.

    Subclasses implement :meth:`weights`; ``frequencies`` maps statement
    index → observed execution count and ``durations`` maps statement
    index → mean execution time in milliseconds (both sparse: unmapped
    statements carry the defaults ``f = 1`` / ``d̄ = unknown``).
    """

    #: registry key and the name reports carry (``--cost-model`` value).
    name: str = "?"

    def weights(
        self,
        frequencies: "Mapping[int, int]",
        durations: "Mapping[int, float]",
    ) -> "dict[int, float]":
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-friendly self-description (carried by report documents)."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class FrequencyCostModel(WorkloadCostModel):
    """The seed model: execution frequency only (durations are ignored)."""

    name = "frequency"

    def weights(
        self,
        frequencies: "Mapping[int, int]",
        durations: "Mapping[int, float]",
    ) -> "dict[int, float]":
        return {index: frequency_weight(count) for index, count in frequencies.items()}


class DurationCostModel(WorkloadCostModel):
    """Total observed time: ``1 + log2(f · d̄/d̂)``, median-normalised."""

    name = "duration"

    @staticmethod
    def reference_duration(durations: "Mapping[int, float]") -> "float | None":
        """The workload's median mean-execution-time (``None`` when no
        statement carries a duration)."""
        known = [value for value in durations.values() if value > 0]
        if not known:
            return None
        return median(known)

    def weights(
        self,
        frequencies: "Mapping[int, int]",
        durations: "Mapping[int, float]",
    ) -> "dict[int, float]":
        return _duration_weights(frequencies, durations, 1.0)


@dataclass(frozen=True)
class HybridCostModel(WorkloadCostModel):
    """Blend of the frequency and duration weights.

    ``duration_share`` is the duration model's share of the blend in
    ``[0, 1]``; 0 degenerates to ``frequency``, 1 to ``duration``.
    """

    duration_share: float = 0.5
    name = "hybrid"

    def __post_init__(self) -> None:
        if not 0.0 <= self.duration_share <= 1.0:
            raise ValueError("duration_share must be in [0, 1]")

    def weights(
        self,
        frequencies: "Mapping[int, int]",
        durations: "Mapping[int, float]",
    ) -> "dict[int, float]":
        if self.duration_share == 0.0:
            return FrequencyCostModel().weights(frequencies, durations)
        return _duration_weights(frequencies, durations, self.duration_share)

    def describe(self) -> dict:
        return {"name": self.name, "duration_share": self.duration_share}


def _duration_weights(
    frequencies: "Mapping[int, int]",
    durations: "Mapping[int, float]",
    duration_share: float,
) -> "dict[int, float]":
    """The duration model's weight per statement, blended as
    ``(1 - s) · frequency_weight(f) + s · duration weight`` when the
    duration share ``s`` is below 1.

    One pass over the union of both fact maps serves both models, so the
    hybrid model builds one dict, not a duration dict and then a blend.
    """
    reference = DurationCostModel.reference_duration(durations)
    frequency_share = 1.0 - duration_share
    get_count, get_duration, log2 = frequencies.get, durations.get, math.log2
    weights: "dict[int, float]" = {}
    for index in frequencies.keys() | durations.keys():
        count = get_count(index, 1)
        if count > 1:
            frequency = count
            by_frequency = fallback = 1.0 + log2(float(count))
        else:
            # max(1, count) is 1 and weighs 1.0; frequency_weight(count) is
            # 1.0 too unless the count is NaN.
            frequency, by_frequency, fallback = 1, frequency_weight(count), 1.0
        mean_duration = get_duration(index)
        if reference is None or mean_duration is None or mean_duration <= 0:
            # No duration evidence for this statement (or the whole
            # workload): fall back to the frequency weight so partially
            # timed logs degrade gracefully instead of zeroing out.
            by_duration = fallback
        else:
            equivalent_executions = frequency * (mean_duration / reference)
            if equivalent_executions <= 1.0:
                by_duration = 1.0
            else:
                by_duration = 1.0 + log2(equivalent_executions)
        if duration_share == 1.0:
            weights[index] = by_duration
        else:
            weights[index] = frequency_share * by_frequency + duration_share * by_duration
    return weights


#: Model factories by ``--cost-model`` name (one source of truth for the
#: CLI choices, the REST validation, and :func:`resolve_cost_model`).
COST_MODELS: "dict[str, type[WorkloadCostModel]]" = {
    FrequencyCostModel.name: FrequencyCostModel,
    DurationCostModel.name: DurationCostModel,
    HybridCostModel.name: HybridCostModel,
}

#: Names accepted by ``sqlcheck scan --cost-model`` and REST ``cost_model``.
COST_MODEL_NAMES: "tuple[str, ...]" = tuple(COST_MODELS)

DEFAULT_COST_MODEL = FrequencyCostModel.name


def resolve_cost_model(
    model: "WorkloadCostModel | str | None",
) -> WorkloadCostModel:
    """A model instance from a name, an instance, or ``None`` (default)."""
    if model is None:
        return FrequencyCostModel()
    if isinstance(model, WorkloadCostModel):
        return model
    factory = COST_MODELS.get(str(model).lower())
    if factory is None:
        raise ValueError(
            f"unknown cost model {model!r} (expected one of {list(COST_MODEL_NAMES)})"
        )
    return factory()
