"""The interactive-shell convenience API from §7.

The paper shows::

    from sqlcheck.finder import find_anti_patterns
    query = "INSERT INTO Users VALUES (1, 'foo')"
    results = find_anti_patterns(query)

In this reproduction the equivalent import is
``from repro.core import find_anti_patterns``.
"""
from __future__ import annotations

from typing import Any, Sequence

from ..model.detection import Detection
from .sqlcheck import SQLCheck, SQLCheckOptions


def find_anti_patterns(
    query: "str | Sequence[str]",
    database: Any | None = None,
    *,
    options: SQLCheckOptions | None = None,
) -> list[Detection]:
    """Detect anti-patterns in one query (or a list of queries).

    Returns plain :class:`Detection` records ordered by impact, which is what
    the interactive shell prints.  ``database`` is anything
    :func:`repro.ingest.connect` accepts (an open ``sqlite3.Connection``, a
    path, a ``sqlite:///`` URL, a connector).
    """
    toolchain = SQLCheck(options)
    report = toolchain.check(query, database=database)
    return [entry.detection for entry in report.detections]
