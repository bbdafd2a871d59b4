"""``sqlcheck selftest``: run the conformance suite against any corpus.

Ties the testkit together into one entry point usable from the CLI or as a
library call: per-rule conformance examples, golden-corpus comparison (or
regeneration with ``update_golden=True``), the cold/warm/batch differential
oracle over a fuzzed (or user-supplied) corpus, detector-vs-dbdeo
agreement, and the fixer round-trip oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..detector.detector import DetectorConfig
from .conformance import ConformanceFailure, failures_from_entries
from .generator import CorpusGenerator
from .golden import diff_golden, golden_entries, load_golden, write_golden
from .oracles import (
    OracleFailure,
    check_cold_warm_batch,
    check_cost_model_equivalence,
    check_dbdeo_agreement,
    check_fault_isolation,
    check_fixer_round_trip,
    check_observability_transparency,
    check_prefilter_soundness,
    check_replay_equivalence,
    check_service_equivalence,
)

#: Default golden-corpus location (repo checkout layout); resolves to
#: ``tests/conformance/golden`` next to ``src/``.
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "conformance" / "golden"


@dataclass
class SelftestResult:
    """Outcome of one conformance run."""

    seed: int
    corpus_statements: int = 0
    examples_run: int = 0
    rules_documented: int = 0
    doc_failures: "list[str]" = field(default_factory=list)
    golden_entries: int = 0
    golden_updated: bool = False
    golden_skipped: bool = False
    rewrites_checked: int = 0
    conformance_failures: "list[ConformanceFailure]" = field(default_factory=list)
    golden_mismatches: "list[str]" = field(default_factory=list)
    oracle_failures: "list[OracleFailure]" = field(default_factory=list)
    dbdeo_agreement: "dict[str, float]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (
            self.conformance_failures
            or self.golden_mismatches
            or self.oracle_failures
            or self.doc_failures
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "corpus_statements": self.corpus_statements,
            "examples_run": self.examples_run,
            "golden_entries": self.golden_entries,
            "golden_updated": self.golden_updated,
            "golden_skipped": self.golden_skipped,
            "rewrites_checked": self.rewrites_checked,
            "rules_documented": self.rules_documented,
            "doc_failures": list(self.doc_failures),
            "conformance_failures": [str(f) for f in self.conformance_failures],
            "golden_mismatches": list(self.golden_mismatches),
            "oracle_failures": [str(f) for f in self.oracle_failures],
            "dbdeo_agreement": dict(self.dbdeo_agreement),
        }

    def summary_lines(self) -> "list[str]":
        lines = [
            f"selftest: {'OK' if self.ok else 'FAILED'} (seed {self.seed})",
            f"    conformance: {self.examples_run} example(s), "
            f"{len(self.conformance_failures)} failure(s)",
            f"    rule docs: {self.rules_documented} documented rule(s), "
            f"{len(self.doc_failures)} failure(s)",
        ]
        if self.golden_skipped:
            lines.append("    golden corpus: skipped (no golden directory)")
        elif self.golden_updated:
            lines.append(f"    golden corpus: regenerated {self.golden_entries} entries")
        else:
            lines.append(
                f"    golden corpus: {self.golden_entries} entries, "
                f"{len(self.golden_mismatches)} mismatch(es)"
            )
        lines.append(
            f"    differential oracles: {self.corpus_statements} fuzzed statement(s), "
            f"{self.rewrites_checked} rewrite(s), {len(self.oracle_failures)} failure(s)"
        )
        if self.dbdeo_agreement:
            agreed = sum(1 for rate in self.dbdeo_agreement.values() if rate == 1.0)
            lines.append(
                f"    dbdeo agreement: {agreed}/{len(self.dbdeo_agreement)} "
                "shared anti-patterns fully agreed"
            )
        for failure in self.doc_failures:
            lines.append(f"    FAIL docs: {failure}")
        for failure in self.conformance_failures:
            lines.append(f"    FAIL {failure}")
        for mismatch in self.golden_mismatches:
            lines.append(f"    FAIL golden: {mismatch}")
        for failure in self.oracle_failures:
            lines.append(f"    FAIL {failure}")
        return lines


def run_selftest(
    corpus: "Sequence[str] | None" = None,
    *,
    seed: int = 2020,
    statements: int = 250,
    update_golden: bool = False,
    golden_dir: "str | Path | None" = None,
    config: DetectorConfig | None = None,
) -> SelftestResult:
    """Run the full conformance suite; see module docstring.

    ``corpus`` supplies the statements for the differential oracle; when
    omitted a seeded fuzzed corpus of roughly ``statements`` statement
    groups is generated.
    """
    result = SelftestResult(seed=seed)

    # 1. per-rule conformance examples — computed once; the same entries
    #    carry both the planted/control verdicts and the golden snapshot.
    current = golden_entries(config=config)
    result.conformance_failures, result.examples_run = failures_from_entries(current)
    result.golden_entries = len(current)

    # 1b. documentation contract: every registered rule carries a complete
    #     RuleDoc (the reporting subsystem renders it into every format).
    from ..rules.registry import default_registry

    for rule in default_registry():
        if rule.doc is None:
            result.doc_failures.append(f"{rule.name}: no RuleDoc declared")
            continue
        missing = rule.doc.missing_fields()
        if missing:
            result.doc_failures.append(f"{rule.name}: RuleDoc missing {', '.join(missing)}")
        else:
            result.rules_documented += 1

    # 2. golden corpus.  Only a repo checkout has a resolvable default
    #    golden directory; refuse to regenerate into a guessed location
    #    (e.g. inside site-packages for an installed package).
    if golden_dir is not None:
        golden_path = Path(golden_dir)
    elif DEFAULT_GOLDEN_DIR.parent.is_dir():
        golden_path = DEFAULT_GOLDEN_DIR
    else:
        golden_path = None
    if update_golden:
        if golden_path is None:
            raise ValueError(
                "cannot locate the golden corpus directory outside a repo "
                "checkout; pass golden_dir (CLI: --golden-dir) explicitly"
            )
        write_golden(golden_path, current)
        result.golden_updated = True
    elif golden_path is not None and golden_path.is_dir():
        result.golden_mismatches = diff_golden(current, load_golden(golden_path))
    else:
        result.golden_skipped = True

    # 3. cold/warm/batch differential oracle over the fuzzed or given corpus
    if corpus is None:
        corpus = CorpusGenerator(seed).corpus_sql(statements)
    corpus = list(corpus)
    result.corpus_statements = len(corpus)
    result.oracle_failures.extend(check_cold_warm_batch(corpus, config=config))

    # 4. detector vs. dbdeo agreement on the shared subset
    dbdeo_failures, result.dbdeo_agreement = check_dbdeo_agreement(seed=seed, config=config)
    result.oracle_failures.extend(dbdeo_failures)

    # 5. fixer round trip on planted statements
    fixer_failures, result.rewrites_checked = check_fixer_round_trip(seed=seed)
    result.oracle_failures.extend(fixer_failures)

    # 6. cost-model degeneracies over the same corpus: duration/hybrid with
    #    uniform durations ≡ frequency; logless ≡ the seed ranking.
    result.oracle_failures.extend(check_cost_model_equivalence(corpus, seed=seed))

    # 7. fault isolation: injected faults (crashing rules, corrupted logs,
    #    flaky/broken connectors) must be quarantined — the clean subset's
    #    detections stay byte-identical and every fault is recorded.
    result.oracle_failures.extend(
        check_fault_isolation(corpus, seed=seed, config=config)
    )

    # 8. pre-filter soundness: every rule the trigger automaton skips, run
    #    directly over the corpus, every rule example and the ablated
    #    configurations, must find nothing — the filter skips work, never
    #    findings.
    result.oracle_failures.extend(
        check_prefilter_soundness(corpus, seed=seed, config=config)
    )

    # 9. observability transparency: the metrics registry and the tracer
    #    are pure observation — enabling either must not change a single
    #    detection or ranking byte, and the instrumented runs must actually
    #    record timings/spans (no vacuous pass).
    result.oracle_failures.extend(
        check_observability_transparency(corpus, seed=seed, config=config)
    )

    # 10. service equivalence: detections served over a live keep-alive
    #     connection ≡ the in-process toolchain, and a warm restart over a
    #     persistent memo ≡ its own cold run (corrupt files fall back cold;
    #     a restarted check takes every statement from the stored memo).
    result.oracle_failures.extend(
        check_service_equivalence(corpus, seed=seed, config=config)
    )

    # 11. replay equivalence: a repeated small check, answered whole from
    #     the replay layer, ≡ its first cached run ≡ a cache-off run, for
    #     list and script inputs with and without a source.
    result.oracle_failures.extend(
        check_replay_equivalence(corpus, seed=seed, config=config)
    )
    return result
