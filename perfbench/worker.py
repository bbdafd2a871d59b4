"""The measured process of the benchmark.

``run.py`` starts this script in a fresh interpreter for every measurement,
so peak memory and set-up time belong to the workload alone.  Modes:

* ``setup`` — time one fresh start: ``import repro``, construct the
  workload's toolchain or scanner and, for ``serve_mixed``, start
  ``RestServer`` and answer the warm-up requests.  Prints
  ``{"setup_s": ...}``.
* ``batch`` — run ``corpus_batch`` or ``app_scan`` passes for the given
  seconds (and, with ``--trace 1``, the traced pass and size sweep).
  Prints one JSON result line.
* ``serve`` — start the server for ``serve_mixed`` and print
  ``{"port": ...}``; then obey ``trace``, ``reference`` (time the
  reference task here, in a quiet gap of the load) and ``stop`` lines on
  stdin (the load comes from ``run.py``).  ``stop`` prints one JSON
  result line.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (sys.path set above)

#: Size-sweep points, as fractions of the workload's full size.
SWEEP = (0.25, 0.5, 1.0)
#: Fewest timed passes per run, however long a pass takes.
MIN_PASSES = 3
#: What ``reference_s`` is taken to read on the machine that reported
#: batch and set-up times are scaled to.
REFERENCE_NOMINAL_S = 0.150


def reference_s() -> float:
    """Time of a fixed allocation-heavy pure-Python task (build tuples,
    strings and small dicts, sort them; three rounds of 20,000 rows): how
    fast the shared host runs code like the program's right now.

    Timed beside every measurement, outside it, so that a measurement can
    be scaled to ``REFERENCE_NOMINAL_S`` and the host's speed drift cancels.
    It allocates like the program does, because the host's slow spells
    slow allocation-heavy code more than a tight loop over a small dict:
    scaled by such a loop, set-up times over-corrected by up to 20% in
    slow spells, where this task kept them within 6%.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    for _ in range(3):
        rows = [(f"name{rng.randrange(10**6)}", i, {"k": i, "v": str(i)}) for i in range(20_000)]
        rows.sort(key=lambda row: row[0])
        del rows
    return time.perf_counter() - start


def pin(cpu: int) -> None:
    """Keep this process on one CPU, so that a pass and the reference
    loop timed beside it run on the same one: the shared host runs its
    CPUs at different speeds from moment to moment."""
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def fit_exponent(sizes: "list[float]", values: "list[float]") -> float:
    """Least-squares slope of log(value) over log(size); 0 for a layer that
    did no work at any size."""
    points = [(math.log(s), math.log(v)) for s, v in zip(sizes, values) if v > 0]
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx if sxx else 0.0


def exponents(sizes: "list[float]", points: "list[dict]") -> dict:
    from tracing import EXPONENT_METRICS

    return {
        f"{name}.exponent": fit_exponent(sizes, [point[name] for point in points])
        for name in EXPONENT_METRICS
    }


def ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# set-up probe
# ----------------------------------------------------------------------
def setup_probe(workload: str, work: Path) -> None:
    warmup = json.loads((work / "warmup.json").read_text()) if workload == "serve_mixed" else []
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)

    server = None
    if workload == "corpus_batch":
        repro.SQLCheck()
    elif workload == "app_scan":
        repro.LiveScanner(options=repro.SQLCheckOptions(cost_model="hybrid"))
    else:
        from repro.interfaces.rest import RestServer

        memo = work / f"setup-memo-{time.monotonic_ns()}.sqlite"
        server = RestServer(memo_path=str(memo)).start()
        host, port = server.address
        connection = http.client.HTTPConnection(host, port)
        for body in warmup:
            connection.request("POST", "/api/check", body=json.dumps(body),
                                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise SystemExit(f"warm-up request failed with {response.status}")
        connection.close()
    elapsed = time.perf_counter() - start
    if server is not None:
        server.stop()
        for suffix in ("", "-wal", "-shm"):
            Path(str(memo) + suffix).unlink(missing_ok=True)
    emit({"setup_s": elapsed, "reference_s": reference_s()})


# ----------------------------------------------------------------------
# corpus_batch and app_scan passes
# ----------------------------------------------------------------------
class CorpusBatch:
    """Many small repositories: ``check_many(workers=1)`` + SARIF render."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.corpus = workloads.corpus(seed)

    def inputs(self, scale: float):
        corpus = self.corpus if scale >= 1.0 else workloads.corpus(self.seed, scale)
        return corpus.corpora(), len(corpus)

    @staticmethod
    def run(inputs) -> dict:
        from repro import SQLCheck, render_batch_report

        corpora, _ = inputs
        toolchain = SQLCheck()
        batch = toolchain.check_many(corpora, workers=1)
        sarif = render_batch_report(batch, "sarif", registry=toolchain.registry)
        cache = toolchain.detector.annotation_cache.stats
        memo = toolchain.detector.memo_info
        return {
            "statements": sum(r.queries_analyzed for r in batch.reports.values()),
            "operations": len(batch.reports),
            "errors": sum(len(r.errors) for r in batch.reports.values()),
            "sarif": hashlib.sha256(sarif.encode("utf-8")).hexdigest(),
            "cache": (cache.hits, cache.lookups),
            "memo": (memo["hits"], memo["hits"] + memo["misses"]),
            "report": batch,
        }

    def score(self, outcome: dict) -> dict:
        """Precision and recall over the Table 2 anti-pattern types, per
        statement, as ``benchmarks/test_table2_detection_comparison.py``
        scores them."""
        from repro.model import AntiPattern

        types = {
            AntiPattern.PATTERN_MATCHING, AntiPattern.GOD_TABLE,
            AntiPattern.ENUMERATED_TYPES, AntiPattern.ROUNDING_ERRORS,
            AntiPattern.DATA_IN_METADATA, AntiPattern.ADJACENCY_LIST,
        }
        labelled: "dict[str, list]" = {}
        for statement in self.corpus.statements:
            labelled.setdefault(statement.repo, []).append(statement)
        tp = fp = fn = 0
        for repo, report in outcome["report"].reports.items():
            hits: "dict[int, set]" = {}
            for entry in report:
                detection = entry.detection
                if detection.query_index is not None:
                    hits.setdefault(detection.query_index, set()).add(detection.anti_pattern)
            for index, statement in enumerate(labelled[repo]):
                found = hits.get(index, set())
                for ap in types:
                    truth, seen = ap in statement.labels, ap in found
                    tp += truth and seen
                    fp += seen and not truth
                    fn += truth and not seen
        precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
        # The detector finds every labelled occurrence of these types on
        # the generator's corpus; a drop below is a detection regression.
        ok = precision >= 0.95 and recall >= 0.95
        return {"precision": precision, "recall": recall, "ok": ok,
                "detail": {"tp": tp, "fp": fp, "fn": fn}}


class AppScan:
    """One live application: ``LiveScanner(...).scan(db, log)`` + SARIF render."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.app = workloads.app(seed)
        self.db = work / "app.db"
        workloads.write_app_db(self.app, self.db, seed)
        self._logs: "dict[float, tuple[Path, int]]" = {}

    def inputs(self, scale: float):
        if scale not in self._logs:
            statements = self.app.scaled_statements(scale)
            path = self.work / f"app-{scale}.csv"
            lines = max(len(statements), round(workloads.APP_LOG_LINES * scale))
            workloads.write_app_log(statements, path, self.seed, lines)
            self._logs[scale] = (path, len(statements))
        return self.db, self._logs[scale][0]

    @staticmethod
    def run(inputs) -> dict:
        from repro import LiveScanner, SQLCheckOptions, render_report
        from repro.ingest import connect

        db, log = inputs
        scanner = LiveScanner(options=SQLCheckOptions(cost_model="hybrid"))
        with connect(str(db)) as connector:
            report = scanner.scan(connector, str(log), log_format="postgres-csv")
        toolchain = scanner.toolchain
        sarif = render_report(report, "sarif", registry=toolchain.registry)
        cache = toolchain.detector.annotation_cache.stats
        memo = toolchain.detector.memo_info
        return {
            "statements": report.queries_analyzed,
            "operations": 1,
            "errors": len(report.errors),
            "sarif": hashlib.sha256(sarif.encode("utf-8")).hexdigest(),
            "cache": (cache.hits, cache.lookups),
            "memo": (memo["hits"], memo["hits"] + memo["misses"]),
            "report": report,
        }

    def score(self, outcome: dict) -> dict:
        """Every planted anti-pattern must be found; precision counts the
        findings of the planted types that point at a planted table."""
        planted = self.app.planted()
        found = [
            (entry.detection.anti_pattern.value, (entry.detection.table or "").lower())
            for entry in outcome["report"]
            if entry.detection.anti_pattern.value in workloads.PLANTED_TYPES
        ]
        hits = sum(key in planted for key in found)
        recall = ratio(len(planted & set(found)), len(planted))
        return {"precision": ratio(hits, len(found)), "recall": recall,
                "ok": recall == 1.0,
                "detail": {"planted": len(planted), "found": len(found),
                           "missed": sorted(map(list, planted - set(found)))}}


def run_batch(args) -> None:
    work = Path(args.work)
    workload = (CorpusBatch if args.workload == "corpus_batch" else AppScan)(args.seed, work)
    full = workload.inputs(1.0)
    # Warm lazy module state (regexes, registries) on a small input first.
    workload.run(workload.inputs(SWEEP[0]))

    # A traced run spends half its time untraced (the overhead baseline)
    # and the rest on the traced pass and the size sweep.
    budget, min_passes = (args.seconds / 2, 2) if args.trace else (args.seconds, MIN_PASSES)
    times: "list[float]" = []
    outcomes: "list[dict]" = []
    start = time.perf_counter()
    # The reference task runs between passes; each pass is scaled by the
    # mean of the two beside it.
    gc.collect()
    references = [reference_s()]
    while len(times) < min_passes or time.perf_counter() - start < budget:
        # Every pass starts from the same heap: the previous pass's garbage
        # is collected outside the timed region.
        gc.collect()
        t0 = time.perf_counter()
        outcome = workload.run(full)
        times.append(time.perf_counter() - t0)
        if not outcomes:
            score = workload.score(outcome)  # the first pass is scored
        # Later passes must not run beside a retained report's heap.
        del outcome["report"]
        outcomes.append(outcome)
        gc.collect()
        references.append(reference_s())
    digests = {o["sarif"] for o in outcomes}
    result = {
        "pass_s": times,
        "reference_s": [(a + b) / 2 for a, b in zip(references, references[1:])],
        "statements": outcomes[0]["statements"],
        "operations": outcomes[0]["operations"],
        "attempted": sum(o["statements"] for o in outcomes),
        "failed": sum(o["errors"] for o in outcomes),
        "precision": score["precision"],
        "recall": score["recall"],
        "checks": {
            "score": score["ok"],
            "score_detail": score["detail"],
            "identical_sarif": len(digests) == 1,
            "no_errors": all(o["errors"] == 0 for o in outcomes),
        },
    }
    if args.trace:
        result["layers"] = traced_batch(workload, full, times, args)
    result["peak_rss_mb"] = peak_rss_mb()
    emit(result)


def traced_batch(workload, full, untraced: "list[float]", args) -> dict:
    """Per-layer self times and counts of one traced full pass, the size
    sweep's exponents and the tracing overhead."""
    from tracing import ROOT, Tracer

    tracer = Tracer().install()
    try:
        sizes, points = [], []
        for scale in SWEEP:
            inputs = full if scale >= 1.0 else workload.inputs(scale)
            tracer.reset()
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span(ROOT):
                outcome = workload.run(inputs)
            elapsed = time.perf_counter() - t0
            sizes.append(outcome["statements"])
            points.append(tracer.layer_metrics())
    finally:
        tracer.uninstall()
    if args.spans:
        tracer.write(args.spans)
    layers = dict(points[-1])
    layers["sqlparser.cache_hit_ratio"] = ratio(*outcome["cache"])
    layers["sqlparser.cache_lookups"] = float(outcome["cache"][1])
    layers["detector.memo_hit_ratio"] = ratio(*outcome["memo"])
    layers["detector.memo_lookups"] = float(outcome["memo"][1])
    layers["pass_s"] = elapsed
    layers["trace.overhead_ratio"] = elapsed / statistics.median(untraced) - 1.0
    layers.update(exponents(sizes, points))
    return layers


# ----------------------------------------------------------------------
# serve_mixed: the server side
# ----------------------------------------------------------------------
def pool_counters(server) -> "tuple[int, int, int, int]":
    """(cache hits, cache lookups, memo hits, memo lookups) over the pool."""
    totals = [0, 0, 0, 0]
    for item in server.pool.info()["toolchains"]:
        cache = item.get("annotation_cache", {})
        memo = item["detection_memo"]
        totals[0] += cache.get("hits", 0)
        totals[1] += cache.get("hits", 0) + cache.get("misses", 0)
        totals[2] += memo["hits"]
        totals[3] += memo["hits"] + memo["misses"]
    return tuple(totals)


def run_serve(args) -> None:
    from repro.interfaces.rest import RestServer

    work = Path(args.work)
    server = RestServer(memo_path=str(work / "memo.sqlite")).start()
    emit({"port": server.address[1]})
    tracer = None
    counters = (0, 0, 0, 0)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                from tracing import Tracer

                tracer = Tracer().install()
                counters = pool_counters(server)
                emit({"tracing": True})
            elif command == "reference":
                emit({"reference_s": reference_s()})
            elif command == "stop":
                break
    finally:
        after = pool_counters(server)
        server.stop()
    result: dict = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        layers = tracer.layer_metrics()
        handler = tracer.inclusive_by_request("rest.handler")
        if args.spans:
            tracer.write(args.spans)
        delta = [b - a for a, b in zip(counters, after)]
        layers["sqlparser.cache_hit_ratio"] = ratio(delta[0], delta[1])
        layers["sqlparser.cache_lookups"] = float(delta[1])
        layers["detector.memo_hit_ratio"] = ratio(delta[2], delta[3])
        layers["detector.memo_lookups"] = float(delta[3])
        layers.update(serve_sweep(tracer, args.seed))
        tracer.uninstall()
        result["layers"] = layers
        result["handler_s"] = handler
    emit(result)


def serve_sweep(tracer, seed: int) -> dict:
    """Exponents of one big request answered in-process through the REST
    handler (fresh pool each size, no HTTP) at ¼, ½ and 1× its size."""
    from repro.interfaces import rest
    from tracing import ROOT

    sizes, points = [], []
    for scale in SWEEP:
        body = workloads.big_request(seed, scale)
        pool = rest.ToolchainPool()
        tracer.reset()
        with tracer.span(ROOT):
            status, _ = rest.handle_check_request(body, pool=pool)
        if status != 200:
            raise SystemExit(f"size-sweep request failed with {status}")
        pool.close()
        sizes.append(body["query"].count(";"))
        points.append(tracer.layer_metrics())
    return exponents(sizes, points)


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "batch", "serve"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    parser.add_argument("--cpu", type=int, default=None, help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        pin(args.cpu)
    if args.mode == "setup":
        setup_probe(args.workload, Path(args.work))
    elif args.mode == "batch":
        run_batch(args)
    else:
        run_serve(args)


if __name__ == "__main__":
    main()
