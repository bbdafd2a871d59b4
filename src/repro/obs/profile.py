"""``sqlcheck profile``: one instrumented run, summarised for humans.

Runs the full toolchain over a corpus against a *fresh* metrics registry
(the process-wide one is swapped out for the duration, so ambient traffic
— a REST server in the same process, earlier CLI work — cannot pollute
the numbers) and renders the hot-path story: stage breakdown, cache
efficiency, the trigger pre-filter's skip rate, and the top-k slowest
rules by total time spent.

This module is the one piece of :mod:`repro.obs` that depends on the
toolchain, so the package ``__init__`` does not import it — the CLI pulls
it in lazily.
"""
from __future__ import annotations

from typing import Sequence

from .metrics import MetricsRegistry, swap_registry


def profile_corpus(
    corpus: "Sequence[str] | str",
    *,
    options=None,
    source: "str | None" = None,
    top: int = 10,
) -> dict:
    """Run the pipeline over ``corpus`` and return the profile payload.

    The run is isolated in its own :class:`MetricsRegistry`; the
    process-wide registry is restored afterwards, untouched.
    """
    from ..core.sqlcheck import SQLCheck  # deferred: obs must not hard-depend on core

    registry = MetricsRegistry(enabled=True)
    previous = swap_registry(registry)
    try:
        toolchain = SQLCheck(options)
        report = toolchain.check(corpus, source=source)
    finally:
        swap_registry(previous)

    stats = report.stats
    payload: dict = {
        "source": source,
        "statements": stats.statements if stats is not None else 0,
        "detections": len(report),
        "total_seconds": round(stats.total_seconds, 6) if stats is not None else 0.0,
        "stages": {},
        "caches": {},
        "rules": [],
        "quarantined": {},
    }
    if stats is not None:
        summary = stats.to_dict()
        payload["stages"] = summary["stages"]
        payload["caches"] = {
            name: summary[name] for name in ("annotation_cache", "detection_memo")
        }
    selected = registry.prefilter_rules.value(outcome="selected")
    skipped = registry.prefilter_rules.value(outcome="skipped")
    considered = selected + skipped
    payload["caches"]["prefilter"] = {
        "selected": int(selected),
        "skipped": int(skipped),
        "skip_rate": round(skipped / considered, 4) if considered else 0.0,
    }
    by_rule: "dict[str, dict]" = {}
    for labels, count, total, _buckets in registry.rule_check_seconds.series():
        entry = by_rule.setdefault(
            labels["rule"], {"rule": labels["rule"], "calls": 0, "total_seconds": 0.0, "fires": 0}
        )
        entry["calls"] += count
        entry["total_seconds"] += total
    for labels, fired in registry.rule_fires.series():
        entry = by_rule.get(labels["rule"])
        if entry is not None:
            entry["fires"] += int(fired)
    ranked = sorted(by_rule.values(), key=lambda e: e["total_seconds"], reverse=True)
    for entry in ranked[: max(0, top)]:
        calls = entry["calls"]
        payload["rules"].append(
            {
                "rule": entry["rule"],
                "calls": calls,
                "total_seconds": round(entry["total_seconds"], 6),
                "mean_us": round(entry["total_seconds"] / calls * 1e6, 2) if calls else 0.0,
                "fires": entry["fires"],
            }
        )
    payload["rules_measured"] = len(by_rule)
    for labels, value in registry.quarantined_errors.series():
        key = f"{labels['stage']}/{labels['code']}"
        payload["quarantined"][key] = payload["quarantined"].get(key, 0) + int(value)
    return payload


def render_profile(payload: dict) -> str:
    """The profile payload as aligned text tables for the terminal."""
    lines: "list[str]" = []
    header = f"sqlcheck profile — {payload['statements']} statement(s)"
    if payload.get("source"):
        header += f" from {payload['source']}"
    lines.append(header)
    lines.append(
        f"  detections: {payload['detections']}   "
        f"total: {payload['total_seconds']:.3f}s"
    )
    stages = payload.get("stages") or {}
    if stages:
        lines.append("")
        lines.append("  stage breakdown")
        total = sum(stages.values()) or 1.0
        for name, seconds in stages.items():
            share = 100.0 * seconds / total
            lines.append(f"    {name:<8} {seconds:>10.4f}s  {share:5.1f}%")
    caches = payload.get("caches") or {}
    if caches:
        lines.append("")
        lines.append("  cache efficiency")
        for name in ("annotation_cache", "detection_memo"):
            info = caches.get(name)
            if info is None:
                continue
            lines.append(
                f"    {name:<17} hits={info['hits']:<8} misses={info['misses']:<8} "
                f"hit_rate={info['hit_rate']:.2%}"
            )
        prefilter = caches.get("prefilter")
        if prefilter is not None:
            lines.append(
                f"    {'prefilter':<17} selected={prefilter['selected']:<6} "
                f"skipped={prefilter['skipped']:<6} "
                f"skip_rate={prefilter['skip_rate']:.2%}"
            )
    rules = payload.get("rules") or []
    if rules:
        lines.append("")
        shown = len(rules)
        measured = payload.get("rules_measured", shown)
        lines.append(f"  slowest rules (top {shown} of {measured})")
        lines.append(
            f"    {'rule':<32} {'calls':>7} {'total_s':>10} {'mean_us':>10} {'fires':>6}"
        )
        for entry in rules:
            lines.append(
                f"    {entry['rule']:<32} {entry['calls']:>7} "
                f"{entry['total_seconds']:>10.4f} {entry['mean_us']:>10.2f} "
                f"{entry['fires']:>6}"
            )
    quarantined = payload.get("quarantined") or {}
    if quarantined:
        lines.append("")
        lines.append("  quarantined failures")
        for key, count in sorted(quarantined.items()):
            lines.append(f"    {key:<32} {count}")
    return "\n".join(lines)
