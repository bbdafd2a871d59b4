"""Conformance testkit: the test-infrastructure subsystem.

SQLCheck's claims rest on detecting, ranking, and fixing anti-patterns
correctly over messy corpora; this package is the mechanical safety net
behind those claims:

* :mod:`repro.testkit.conformance` — runs each rule's declared
  :meth:`~repro.rules.base.Rule.examples` through the full detector and
  checks planted positives fire while clean controls stay silent;
* :mod:`repro.testkit.generator` — a seeded grammar-based SQL generator
  emitting statements with *known* planted anti-patterns plus clean
  controls, for fuzzing the detect→rank→fix pipeline at corpus scale;
* :mod:`repro.testkit.golden` — the golden-corpus snapshot format
  (``tests/conformance/golden/*.jsonl``) with an update path;
* :mod:`repro.testkit.oracles` — differential oracles: cold vs. warm-cache
  vs. batch equivalence, trigger pre-filter soundness, detector vs. dbdeo
  agreement, fixer round-trips,
  pipeline-stats accounting, live-scan vs. offline equivalence, fault
  isolation (degraded runs preserve the clean subset byte-for-byte), and
  observability transparency (metrics/tracing never change a detection);
* :mod:`repro.testkit.chaos` — seeded fault injection: crashing/flaky
  rules, flaky/broken connectors, and a log corrupter driving the
  fault-isolation oracle;
* :mod:`repro.testkit.coverage` — a dependency-free line-coverage tracer
  used to enforce the rules-package coverage floor;
* :mod:`repro.testkit.selftest` — the ``sqlcheck selftest`` entry point
  tying all of the above together.
"""
from .chaos import (
    BrokenConnector,
    ChaosError,
    CrashingRule,
    FaultPlan,
    FlakyConnector,
    FlakyRule,
    corrupt_log_lines,
)
from .conformance import ConformanceFailure, example_report, run_rule_examples
from .generator import CorpusGenerator, GeneratedStatement
from .golden import golden_entries, load_golden, diff_golden, write_golden
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
    check_scan_equivalence,
    check_service_equivalence,
    check_stats_accounting,
    detection_bytes,
    ranking_bytes,
)
from .selftest import SelftestResult, run_selftest

__all__ = [
    "BrokenConnector",
    "ChaosError",
    "ConformanceFailure",
    "CorpusGenerator",
    "CrashingRule",
    "FaultPlan",
    "FlakyConnector",
    "FlakyRule",
    "GeneratedStatement",
    "OracleFailure",
    "SelftestResult",
    "check_cold_warm_batch",
    "check_cost_model_equivalence",
    "check_dbdeo_agreement",
    "check_fault_isolation",
    "check_fixer_round_trip",
    "check_observability_transparency",
    "check_prefilter_soundness",
    "check_replay_equivalence",
    "check_scan_equivalence",
    "check_service_equivalence",
    "check_stats_accounting",
    "corrupt_log_lines",
    "detection_bytes",
    "ranking_bytes",
    "diff_golden",
    "example_report",
    "golden_entries",
    "load_golden",
    "run_rule_examples",
    "run_selftest",
    "write_golden",
]
