"""SQLCheck benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload corpus_batch --seed 1 --seconds 30 --trace 0

Workloads (sizes and reasons are also in ``BENCHMARK.json``):

* ``corpus_batch`` — ~680 small repositories, 45% exact duplicates;
  each pass is a fresh ``SQLCheck().check_many(workers=1)`` plus a SARIF
  render of the whole batch.
* ``app_scan`` — one live application: a SQLite database with planted data
  anti-patterns and a 20k-line PostgreSQL csvlog over 600 distinct
  statements; each pass is ``LiveScanner(cost_model="hybrid").scan`` plus
  a SARIF render.
* ``serve_mixed`` — ``RestServer`` with a persistent memo under an open
  loop of ``POST /api/check`` requests at a fixed offered rate, sent over
  two keep-alive connections from this process.

Every measurement runs in a fresh interpreter (``worker.py``), so set-up
time and peak memory belong to the workload alone.  Reported times are
scaled to a nominal machine speed by a reference task timed beside them
(``worker.reference_s``; see the README), because the shared host's speed
drifts by tens of percent from minute to minute.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run (``tracing.py``).  Earlier
lines give the environment block and a readable table.  Any failed
correctness check makes ``correct`` false; a run that cannot measure at
all (for example without the ``src/`` tree) exits non-zero and prints no
result.
"""
from __future__ import annotations

import argparse
import bisect
import http.client
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

WORKLOADS = ("corpus_batch", "app_scan", "serve_mixed")
#: Fresh-interpreter set-ups per run, half before and half after the
#: measured work (so a burst of host load hits only some); ``setup_s`` is
#: their median.
SETUP_REPEATS = 10
#: Keep-alive connections the serve_mixed load generator uses.
CONNECTIONS = 2
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
#: The CPU every measured process (worker, set-up probe, server) runs on,
#: and the one the serve_mixed load generator runs on (another, if any).
MEASURE_CPU, LOAD_CPU = _CPUS[0], _CPUS[-1]
#: How far into a quiet gap of the serve_mixed schedule the server starts
#: the reference task (the last request before the gap finishes first).
GAP_SETTLE_S = 0.03
#: Fewest samples a reported tail percentile must have beyond it.
TAIL_BEYOND = 10
#: Ceiling on any one child process (the whole run must end within 180 s).
CHILD_TIMEOUT_S = 150

UNITS = {
    "setup_s": "s",
    "stmts_per_s": "stmt/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "completed_rps": "1/s",
    "success_rate": "ratio",
    "precision": "ratio",
    "recall": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".exponent"):
        return "exponent"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name == "reporting.bytes":
        return "bytes"
    return "count"


# ----------------------------------------------------------------------
# environment and child processes
# ----------------------------------------------------------------------
def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "loadavg_before": list(os.getloadavg()),
    }


def worker_command(mode: str, args, work: Path, *extra: str) -> "list[str]":
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work), "--cpu", str(MEASURE_CPU), *extra]


def run_child(command: "list[str]") -> dict:
    """Run a worker to completion and parse its last stdout line."""
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker failed ({done.returncode}): {' '.join(command[2:4])}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` as they would read on the machine where the reference
    task takes ``REFERENCE_NOMINAL_S`` (see ``worker.reference_s``)."""
    from worker import REFERENCE_NOMINAL_S

    return seconds * REFERENCE_NOMINAL_S / reference


def measure_setup(args, work: Path, repeats: int) -> "list[dict]":
    """``repeats`` set-up probes, each ``{"setup_s", "reference_s"}``."""
    return [run_child(worker_command("setup", args, work)) for _ in range(repeats)]


def percentile(values: "list[float]", share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def tail_percentile(passes: "list[float]") -> float:
    """The tail of a batch run's passes: the highest percentile, up to the
    p99, that has at least ``TAIL_BEYOND`` passes beyond it, and never
    below the median.

    The passes repeat one verdict on the same input, so the program gives
    them no tail of their own; the slowest of a few tens of passes is the
    host's worst slow phase during the run, not a property of the code.
    """
    share = min(0.99, 1.0 - TAIL_BEYOND / len(passes))
    return max(statistics.median(passes), percentile(passes, share))


# ----------------------------------------------------------------------
# corpus_batch and app_scan
# ----------------------------------------------------------------------
def run_batch(args, work: Path, spans: Path) -> dict:
    extra = ("--spans", str(spans)) if args.trace else ()
    result = run_child(worker_command("batch", args, work, *extra))
    # The shared host's speed drifts by tens of percent over seconds to
    # minutes, so each pass is scaled by the reference task timed beside it.
    passes = [scaled(s, r) for s, r in zip(result["pass_s"], result["reference_s"])]
    # One pass is one verdict: the latency a user waits for it.  Rates are
    # over the median pass, which a spell the scaling misses does not move.
    median = statistics.median(passes)
    metrics = {
        "stmts_per_s": result["statements"] / median,
        "latency_p50_ms": median * 1000.0,
        "latency_p99_ms": tail_percentile(passes) * 1000.0,
        "completed_rps": result["operations"] / median,
        "success_rate": 1.0 - result["failed"] / result["attempted"],
        "precision": result["precision"],
        "recall": result["recall"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    layers = result.get("layers", {})
    # No HTTP and no load generator on the batch workloads.
    layers.update({"rest.transport_s": 0.0, "loadgen.lag_ms": 0.0})
    return {
        "metrics": metrics,
        "layers": layers,
        "checks": result["checks"],
        "correct": all(v for k, v in result["checks"].items() if not k.endswith("_detail")),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "detail": {"pass_s": result["pass_s"], "reference_s": result["reference_s"],
                   "scaled_pass_s": passes, "statements": result["statements"],
                   "score": result["checks"]["score_detail"]},
    }


# ----------------------------------------------------------------------
# serve_mixed: open-loop load generator and output check
# ----------------------------------------------------------------------
class OpenLoop:
    """Send requests when they are due, over ``CONNECTIONS`` keep-alive
    connections; each request is timed from its due time, so a stall also
    counts against the requests queued behind it."""

    def __init__(self, port: int, payloads: "list[bytes]"):
        self.port = port
        self.payloads = payloads
        # index -> (due, sent, received, status, body)
        self.results: "dict[int, tuple]" = {}
        self._lock = threading.Lock()

    def run(self, indexes: "list[int]", dues: "list[float]", during=None) -> float:
        """Send ``indexes`` (due at ``dues`` seconds from now); returns the
        start time.  ``during(start)``, if given, runs in this thread
        meanwhile."""
        queue = list(zip(indexes, dues))
        position = [0]
        start = time.perf_counter()

        def client() -> None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CHILD_TIMEOUT_S)
            try:
                while True:
                    with self._lock:
                        if position[0] >= len(queue):
                            return
                        index, due = queue[position[0]]
                        position[0] += 1
                    due += start
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    try:
                        connection.request("POST", "/api/check", body=self.payloads[index],
                                           headers={"Content-Type": "application/json",
                                                    "X-Request-Id": str(index)})
                        response = connection.getresponse()
                        status, body = response.status, response.read()
                    except (OSError, http.client.HTTPException):
                        connection.close()
                        connection = http.client.HTTPConnection(
                            "127.0.0.1", self.port, timeout=CHILD_TIMEOUT_S)
                        status, body = 0, b""
                    self.results[index] = (due, sent, time.perf_counter(), status, body)
            finally:
                connection.close()

        threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        try:
            if during is not None:
                during(start)
        finally:
            for thread in threads:
                thread.join()
        return start


def _strip_stats(value):
    """Drop the ``stats`` blocks (timings and counters) from a response."""
    if isinstance(value, dict):
        return {k: _strip_stats(v) for k, v in value.items() if k not in ("stats", "pipeline_stats")}
    if isinstance(value, list):
        return [_strip_stats(v) for v in value]
    return value


def _items(body: dict) -> "list[str]":
    """The findings of one response, each as canonical JSON."""
    if "detections" in body:
        items = body["detections"]
    elif "runs" in body:
        items = [result for run in body["runs"] for result in run.get("results", [])]
    else:
        items = body.get("content", "").splitlines()
    return [json.dumps(item, sort_keys=True) for item in items]


def check_served(schedule, results: dict) -> dict:
    """Every 200 body, without its stats, must equal an in-process
    ``SQLCheck.check`` of the same request under the server's config."""
    from repro import SQLCheck
    from repro.reporting import build_document, render_markdown, to_sarif

    toolchain = SQLCheck()
    expected: "dict[str, dict]" = {}
    mismatches = matched = served_items = expected_items = 0
    for index, request in enumerate(schedule):
        status, raw = results[index][3], results[index][4]
        if status != 200:
            continue
        key = json.dumps(request.body, sort_keys=True)
        if key not in expected:
            report = toolchain.check(request.body["query"])
            fmt = request.body.get("format", "json")
            if fmt == "json":
                body = report.to_dict()
            else:
                document = build_document(report, registry=toolchain.registry, source="request")
                body = (to_sarif(document, registry=toolchain.registry) if fmt == "sarif"
                        else {"format": fmt, "content": render_markdown(document)})
            expected[key] = _strip_stats(json.loads(json.dumps(body, default=str)))
        want = expected[key]
        got = _strip_stats(json.loads(raw))
        mismatches += got != want
        got_items, want_items = Counter(_items(got)), Counter(_items(want))
        matched += sum((got_items & want_items).values())
        served_items += sum(got_items.values())
        expected_items += sum(want_items.values())
    return {
        "identical_bodies": mismatches == 0,
        "precision": matched / served_items if served_items else 1.0,
        "recall": matched / expected_items if expected_items else 1.0,
        "mismatches": mismatches,
    }


def send_line(process: subprocess.Popen, line: str) -> dict:
    process.stdin.write(line + "\n")
    process.stdin.flush()
    return json.loads(process.stdout.readline())


def reference_at(references: "list[tuple[float, float]]", moment: float) -> float:
    """The reference task's time at ``moment``, interpolated between the
    ``(time, reference_s)`` readings beside it."""
    times = [t for t, _ in references]
    after = bisect.bisect(times, moment)
    if after == 0:
        return references[0][1]
    if after == len(references):
        return references[-1][1]
    (t0, r0), (t1, r1) = references[after - 1], references[after]
    return r0 + (r1 - r0) * (moment - t0) / (t1 - t0)


def latency_stats(loop: OpenLoop, indexes: "list[int]", schedule, start: float,
                  references: "list[tuple[float, float]]") -> dict:
    """Latency percentiles, each latency scaled by the server's reference
    readings around its due time, and rates over the serving time."""
    latencies, statements, last = [], 0, start
    for index in indexes:
        due, _, received, status, _ = loop.results[index]
        # A failed request misses every latency limit.
        latencies.append(scaled(received - due, reference_at(references, due))
                         if status == 200 else math.inf)
        if status == 200:
            statements += schedule[index].statements
        last = max(last, received)
    completed = sum(1 for index in indexes if loop.results[index][3] == 200)
    duration = last - start
    return {
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "completed_rps": completed / duration,
        "stmts_per_s": statements / duration,
    }


def run_serve(args, work: Path, spans: Path, schedule, warmup: "list[dict]") -> dict:
    payloads = [json.dumps(request.body).encode("utf-8") for request in schedule]
    extra = ("--spans", str(spans)) if args.trace else ()
    process = subprocess.Popen(worker_command("serve", args, work, *extra), stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)
    try:
        import workloads
        from worker import pin

        pin(LOAD_CPU)
        port = json.loads(process.stdout.readline())["port"]
        loop = OpenLoop(port, payloads)
        warm = OpenLoop(port, [json.dumps(body).encode("utf-8") for body in warmup])
        warm.run(list(range(len(warmup))), [0.0] * len(warmup))
        if not all(r[3] == 200 for r in warm.results.values()):
            raise SystemExit("serve_mixed warm-up request failed")
        # The server times the reference task before the load, in every
        # quiet gap of the schedule and after the load.
        references: "list[tuple[float, float]]" = []

        def reference() -> None:
            references.append((time.perf_counter(),
                               send_line(process, "reference")["reference_s"]))

        def in_gaps(first: float, last: float):
            def probe(start: float) -> None:
                for gap in workloads.serve_gaps(args.seconds):
                    if first <= gap < last:
                        delay = start + gap - first + GAP_SETTLE_S - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        reference()
            return probe

        reference()
        # A traced run serves the first half of the schedule untraced (the
        # overhead baseline) and the second half traced.
        split = args.seconds / 2 if args.trace else math.inf
        phases = [[i for i, r in enumerate(schedule) if r.due < split],
                  [i for i, r in enumerate(schedule) if r.due >= split]]
        starts = [loop.run(phases[0], [schedule[i].due for i in phases[0]], in_gaps(0.0, split))]
        if args.trace:
            send_line(process, "trace")
            starts.append(loop.run(phases[1], [schedule[i].due - split for i in phases[1]],
                                   in_gaps(split, math.inf)))
        reference()
        server = send_line(process, "stop")
        process.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise SystemExit(f"serve worker failed ({process.returncode})")

    check = check_served(schedule, loop.results)
    failed = sum(1 for r in loop.results.values() if r[3] != 200)
    metrics = latency_stats(loop, phases[0], schedule, starts[0], references)
    metrics.update({
        "success_rate": 1.0 - failed / len(schedule),
        "precision": check["precision"],
        "recall": check["recall"],
        "peak_rss_mb": server["peak_rss_mb"],
    })
    layers: dict = {}
    if args.trace:
        traced = latency_stats(loop, phases[1], schedule, starts[1], references)
        layers = server["layers"]
        handler = server["handler_s"]
        layers["rest.transport_s"] = sum(
            loop.results[i][2] - loop.results[i][1] - handler.get(str(i), 0.0)
            for i in phases[1] if str(i) in handler
        )
        layers["pass_s"] = max(loop.results[i][2] for i in phases[1]) - starts[1]
        layers["trace.overhead_ratio"] = traced["latency_p50_ms"] / metrics["latency_p50_ms"] - 1.0
    lags = [(r[1] - r[0]) * 1000.0 for r in loop.results.values()]
    layers["loadgen.lag_ms"] = statistics.fmean(lags)
    return {
        "metrics": metrics,
        "layers": layers,
        "correct": check["identical_bodies"],
        "attempted": len(schedule),
        "failed": failed,
        "detail": {"requests": len(schedule), "mismatches": check["mismatches"],
                   "lag_ms_mean": layers["loadgen.lag_ms"],
                   "reference_s": [r for _, r in references]},
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="SQLCheck benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401  (fail fast, before any work, without src/)
    except ImportError as error:
        sys.stderr.write(f"cannot import the program under test: {error}\n")
        return 2

    env = environment()
    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = state / f"spans-{args.workload}-seed{args.seed}.jsonl"
    serve = args.workload == "serve_mixed"
    try:
        if serve:
            import workloads

            schedule, warmup = workloads.serve_schedule(args.seed, args.seconds)
            (work / "warmup.json").write_text(json.dumps(warmup))
        probes = measure_setup(args, work, SETUP_REPEATS // 2)
        if serve:
            outcome = run_serve(args, work, spans, schedule, warmup)
        else:
            outcome = run_batch(args, work, spans)
        probes += measure_setup(args, work, SETUP_REPEATS - len(probes))
        setup_s = statistics.median(scaled(p["setup_s"], p["reference_s"]) for p in probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    result = result_line(outcome, setup_s, bool(args.trace))
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "detail": outcome["detail"], "setup_s": setup_s, "setup_probes": probes,
                      "end_to_end": outcome["metrics"]}))
    for name, entry in result["metrics"].items():
        print(f"{name:38s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def result_line(outcome: dict, setup_s: float, trace: bool) -> dict:
    """The final stdout line: every end-to-end metric, or with ``trace``
    every per-layer metric, each with its unit."""
    from tracing import PER_LAYER

    if trace:
        values = {name: outcome["layers"][name] for name in PER_LAYER}
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        values = {"setup_s": setup_s, **outcome["metrics"]}
        values = {name: values[name] for name in UNITS}
        units = UNITS
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
