"""repro — a reproduction of SQLCheck (SIGMOD 2020).

SQLCheck is a toolchain that finds, ranks, and fixes SQL anti-patterns in
database applications.  The public API mirrors the paper's components:

* :func:`repro.find_anti_patterns` / :class:`repro.SQLCheck` — the toolchain;
* :class:`repro.APDetector` — ap-detect (query + data analysis);
* :class:`repro.APRanker` — ap-rank (impact-based ordering);
* :class:`repro.APFixer` — ap-fix (rule-based query repair);
* :class:`repro.Database` — the in-memory engine used for data analysis and
  for the performance experiments.

Quickstart::

    from repro import find_anti_patterns
    detections = find_anti_patterns("INSERT INTO Users VALUES (1, 'foo')")
    for detection in detections:
        print(detection.display_name, "-", detection.message)
"""
from .core.finder import find_anti_patterns
from .core.sqlcheck import BatchReport, SQLCheck, SQLCheckOptions, SQLCheckReport
from .detector.detector import APDetector, DetectorConfig
from .obs import PipelineStats
from .engine.database import Database
from .fixer.fix import Fix, FixKind
from .ingest import LiveScanner, WorkloadLog, connect, read_workload_log, scan
from .fixer.repair_engine import APFixer, QueryRepairEngine
from .model.antipatterns import AntiPattern, APCategory
from .model.detection import Detection, DetectionReport, Severity
from .ranking.config import C1, C2, RankingConfig
from .ranking.ranker import APRanker, RankedDetection
from .reporting import render_batch_report, render_report, to_sarif
from .rules.base import RuleDoc
from .rules.registry import RuleRegistry, default_registry
from .rules.thresholds import Thresholds

__version__ = "1.0.0"

__all__ = [
    "APCategory",
    "APDetector",
    "APFixer",
    "APRanker",
    "AntiPattern",
    "BatchReport",
    "C1",
    "C2",
    "Database",
    "Detection",
    "DetectionReport",
    "DetectorConfig",
    "Fix",
    "FixKind",
    "LiveScanner",
    "PipelineStats",
    "QueryRepairEngine",
    "RankedDetection",
    "RankingConfig",
    "RuleDoc",
    "RuleRegistry",
    "SQLCheck",
    "SQLCheckOptions",
    "SQLCheckReport",
    "Severity",
    "Thresholds",
    "WorkloadLog",
    "connect",
    "default_registry",
    "find_anti_patterns",
    "read_workload_log",
    "render_batch_report",
    "render_report",
    "scan",
    "to_sarif",
    "__version__",
]
