"""Observability overhead on the fused cold path (PR 9 acceptance).

Metrics are collected by default, so their cost rides on every run — the
budget is ≤5% over a run with all observability off, measured on the same
fused cold-path workload as ``test_perf_fused_cold_path``.  Three modes:

* **obs-off** — metrics disabled, tracer disabled: the bare pipeline;
* **metrics-on** — the default production configuration;
* **metrics+trace** — full span collection (per-rule spans included), the
  opt-in ``--trace`` debugging mode.  Reported for scale, not budgeted:
  tracing is explicitly opt-in and pays for span allocation.

Each mode takes the best of three runs (min filters scheduler noise), and
the ratio is re-measured once before failing.  Correctness first: all
three modes must produce byte-identical detections (the transparency
contract, also enforced by ``check_observability_transparency``).

Results are written to ``BENCH_pr9.json`` (only under
``pytest --write-bench``).
"""
from __future__ import annotations

import os
import time
from pathlib import Path

from repro import APDetector, DetectorConfig
from repro.obs import get_metrics, get_tracer, set_metrics_enabled
from repro.workloads.github_corpus import GitHubCorpusGenerator, with_duplicates

from ._helpers import print_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pr9.json"

CORPUS_REPOS = 680
DUPLICATE_FRACTION = 0.45
MAX_METRICS_OVERHEAD = 0.05
REPEATS = 3


def _timed_detect(sql: "list[str]"):
    start = time.perf_counter()
    report = APDetector(DetectorConfig(enable_cache=False)).detect(sql)
    return time.perf_counter() - start, report


def _run_mode(sql: "list[str]", *, metrics: bool, trace: bool):
    """One cold detection under one observability mode."""
    tracer = get_tracer()
    set_metrics_enabled(metrics)
    if trace:
        tracer.enable(reset=True)
    else:
        tracer.disable()
    return _timed_detect(sql)


def _measure(sql: "list[str]", modes: "dict[str, dict]"):
    """Best-of-REPEATS per mode, with the modes *interleaved* per round —
    load drift on a shared runner then biases every mode equally instead
    of whichever happened to run last."""
    best = {name: float("inf") for name in modes}
    reports = {}
    for _ in range(REPEATS):
        for name, flags in modes.items():
            seconds, report = _run_mode(sql, **flags)
            best[name] = min(best[name], seconds)
            reports[name] = report
    return best, reports


def test_observability_overhead_budget(write_bench):
    base = GitHubCorpusGenerator(repos=CORPUS_REPOS).generate()
    corpus = with_duplicates(base, fraction=DUPLICATE_FRACTION)
    sql = list(corpus.iter_sql())
    assert len(sql) >= 10000

    metrics_was_enabled = get_metrics().enabled
    tracer = get_tracer()
    modes = {
        "off": {"metrics": False, "trace": False},
        "metrics": {"metrics": True, "trace": False},
        "trace": {"metrics": True, "trace": True},
    }
    try:
        # A load spike on a shared runner should not fail the suite:
        # re-measure once before asserting.
        for attempt in range(2):
            best, reports = _measure(sql, modes)
            if best["metrics"] / best["off"] <= 1.0 + MAX_METRICS_OVERHEAD:
                break
        off_seconds, metrics_seconds, trace_seconds = (
            best["off"], best["metrics"], best["trace"]
        )
        off_report, metrics_report, trace_report = (
            reports["off"], reports["metrics"], reports["trace"]
        )
        spans = len(tracer.spans())
    finally:
        tracer.disable()
        tracer.reset()
        set_metrics_enabled(metrics_was_enabled)

    # Transparency before speed: observability must not change a verdict.
    baseline_payload = [d.to_dict() for d in off_report]
    assert [d.to_dict() for d in metrics_report] == baseline_payload
    assert [d.to_dict() for d in trace_report] == baseline_payload

    n = len(sql)
    metrics_overhead = metrics_seconds / off_seconds - 1.0
    trace_overhead = trace_seconds / off_seconds - 1.0
    rows = [
        ("obs off", f"{off_seconds:.2f}", f"{n / off_seconds:.0f}", "—"),
        ("metrics on (default)", f"{metrics_seconds:.2f}",
         f"{n / metrics_seconds:.0f}", f"{metrics_overhead:+.1%}"),
        ("metrics + trace", f"{trace_seconds:.2f}",
         f"{n / trace_seconds:.0f}", f"{trace_overhead:+.1%}"),
    ]
    print_table(
        f"Observability overhead — {n} statements, fused cold path",
        ("mode", "seconds", "stmt/s", "overhead"),
        rows,
    )

    payload = {
        "benchmark": "observability_overhead",
        "statements": n,
        "unique_statements": len(base),
        "detections": len(off_report.detections),
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "obs_off": {
            "seconds": round(off_seconds, 4),
            "statements_per_second": round(n / off_seconds, 1),
        },
        "metrics_on": {
            "seconds": round(metrics_seconds, 4),
            "statements_per_second": round(n / metrics_seconds, 1),
            "overhead": round(metrics_overhead, 4),
        },
        "metrics_and_trace": {
            "seconds": round(trace_seconds, 4),
            "statements_per_second": round(n / trace_seconds, 1),
            "overhead": round(trace_overhead, 4),
            "spans_recorded": spans,
        },
        "budget": {"max_metrics_overhead": MAX_METRICS_OVERHEAD},
        "results_identical_across_modes": True,
    }
    write_bench(BENCH_PATH, payload)

    assert metrics_overhead <= MAX_METRICS_OVERHEAD, (
        f"metrics-on overhead {metrics_overhead:+.1%} exceeds the "
        f"{MAX_METRICS_OVERHEAD:.0%} budget ({metrics_seconds:.2f}s vs "
        f"{off_seconds:.2f}s obs-off)"
    )
