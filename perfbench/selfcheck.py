"""Small-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py          # or: python -m pytest perfbench/selfcheck.py

Checks, on inputs far smaller than a benchmark run (seconds in all):
that BENCHMARK.json names exactly the metrics the harness reports,
the batch tail percentile and the machine-speed scaling, the span
arithmetic and the exponent fit, that tracing changes no output
and that a traced pass's layer self times plus ``unattributed_s`` add up
to its wall time, that the app generator's planted anti-patterns are all
found, and that the open-loop client and the served-output check agree
with an in-process run.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sys.path set above)
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _work_dir(name: str) -> Path:
    path = HERE.parent / ".perfbench" / f"selfcheck-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _accounts_for_wall_time(tracer: tracing.Tracer) -> None:
    root = next(span for span in tracer.spans if span[0] == tracing.ROOT)
    layers = tracer.layer_metrics()
    total = sum(layers[name] for name in tracing.TIME_METRICS) + layers["unattributed_s"]
    assert math.isclose(total, root[2] - root[1], rel_tol=1e-9, abs_tol=1e-9), (total, root)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exponent_fit():
    sizes = [100.0, 200.0, 400.0]
    assert math.isclose(worker.fit_exponent(sizes, [s ** 1.7 for s in sizes]), 1.7)
    assert worker.fit_exponent(sizes, [0.0, 0.0, 0.0]) == 0.0


def test_batch_tail_and_scaling():
    # Up to 20 passes the tail is the median; beyond, ten passes lie past it.
    assert run.tail_percentile([1.0, 2.0, 3.0, 4.0]) == 2.5
    passes = [float(i) for i in range(1, 26)]
    assert run.tail_percentile(passes) == 15.0
    assert sum(p > run.tail_percentile(passes) for p in passes) == run.TAIL_BEYOND
    # A host running the reference task at half speed halves the reading.
    assert math.isclose(run.scaled(2.0, 2 * worker.REFERENCE_NOMINAL_S), 1.0)
    assert worker.reference_s() > 0


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        [tracing.ROOT, 0.0, 10.0, -1, None],
        ["fixer.fix", 1.0, 5.0, 0, None],
        ["context.lookup", 2.0, 3.0, 1, None],
        ["context.lookup", 3.5, 4.0, 1, None],
    ]
    selfs = tracer.self_times()
    assert selfs == {tracing.ROOT: 6.0, "fixer.fix": 2.5, "context.lookup": 1.5}


def test_install_and_uninstall_restore_entry_points():
    from repro.fixer.repair_engine import APFixer
    from repro.sqlparser.lexer import Lexer

    before = (Lexer.tokenize, APFixer.fix)
    tracer = tracing.Tracer().install()
    try:
        assert Lexer.tokenize is not before[0] and APFixer.fix is not before[1]
    finally:
        tracer.uninstall()
    assert (Lexer.tokenize, APFixer.fix) == before


def test_traced_corpus_pass_is_identical_and_accounted():
    batch = worker.CorpusBatch(SEED, HERE)
    inputs = batch.inputs(0.03)
    plain = worker.CorpusBatch.run(inputs)
    tracer = tracing.Tracer().install()
    try:
        with tracer.span(tracing.ROOT):
            traced = worker.CorpusBatch.run(inputs)
    finally:
        tracer.uninstall()
    assert traced["sarif"] == plain["sarif"], "tracing changed the output"
    _accounts_for_wall_time(tracer)
    counts = tracer.layer_metrics()
    assert counts["sqlparser.tokens"] > 0 and counts["context.lookup_calls"] > 0
    score = batch.score(plain)
    assert score["ok"], score


def test_app_scan_finds_every_plant_and_is_deterministic():
    work = _work_dir("app")
    try:
        app = worker.AppScan(SEED, work)
        inputs = app.inputs(0.05)
        first, second = worker.AppScan.run(inputs), worker.AppScan.run(inputs)
        assert first["sarif"] == second["sarif"]
        score = app.score(first)
        assert score["ok"] and score["precision"] == 1.0, score
        tracer = tracing.Tracer().install()
        try:
            with tracer.span(tracing.ROOT):
                worker.AppScan.run(inputs)
        finally:
            tracer.uninstall()
        _accounts_for_wall_time(tracer)
        layers = tracer.layer_metrics()
        assert layers["ingest.rows_fetched"] == workloads.APP_TABLES * workloads.APP_ROWS
        assert layers["ingest.log_lines"] > 0 and layers["profiler.profile_s"] > 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_open_loop_and_served_output_check():
    from repro.interfaces.rest import RestServer

    schedule, warmup = workloads.serve_schedule(SEED, 1.0)
    work = _work_dir("serve")
    try:
        with RestServer(memo_path=str(work / "memo.sqlite")) as server:
            loop = run.OpenLoop(server.address[1],
                                [json.dumps(r.body).encode() for r in schedule])
            start = loop.run(list(range(len(schedule))), [r.due for r in schedule])
        assert time.perf_counter() - start >= schedule[-1].due
        check = run.check_served(schedule, loop.results)
        assert check["identical_bodies"] and check["precision"] == check["recall"] == 1.0, check
        nominal = [(start, worker.REFERENCE_NOMINAL_S)]
        stats = run.latency_stats(loop, list(range(len(schedule))), schedule, start, nominal)
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] > 0
        # A server timing the reference task at twice the nominal time
        # halves every latency.
        slow = [(start, 2 * worker.REFERENCE_NOMINAL_S)]
        halved = run.latency_stats(loop, list(range(len(schedule))), schedule, start, slow)
        assert math.isclose(halved["latency_p50_ms"], stats["latency_p50_ms"] / 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_serve_schedule_leaves_quiet_gaps():
    schedule, _ = workloads.serve_schedule(SEED, 10.0)
    gaps = workloads.serve_gaps(10.0)
    assert gaps == [1.25, 3.75, 6.25, 8.75]
    assert not any(start <= r.due < start + workloads.SERVE_GAP_S
                   for r in schedule for start in gaps)
    bigs = [r.due for r in schedule if r.statements == workloads.SERVE_BIG_STATEMENTS]
    assert bigs == [0.625 + 1.25 * j for j in range(8)]
    # Readings interpolate linearly between their times.
    readings = [(0.0, 1.0), (2.0, 3.0)]
    assert run.reference_at(readings, 1.0) == 2.0
    assert run.reference_at(readings, -1.0) == 1.0 and run.reference_at(readings, 5.0) == 3.0


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("test_"):
            continue
        start = time.perf_counter()
        try:
            test()
        except Exception as error:  # noqa: BLE001 - report every failing check
            failures += 1
            print(f"FAIL {name}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {name} ({time.perf_counter() - start:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
