"""Repo-level pytest configuration.

Registers the golden-corpus regeneration flag and the benchmark-file flag
(options must live in the rootdir conftest to be visible from any test
selection) and makes ``src`` importable even when ``PYTHONPATH`` is not set.
"""
from __future__ import annotations

import json
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/conformance/golden/*.jsonl from the current rules "
        "instead of comparing against them",
    )
    parser.addoption(
        "--write-bench",
        action="store_true",
        default=False,
        help="let benchmarks/test_perf_*.py rewrite their tracked BENCH_*.json "
        "files; without it they measure and assert but write nothing",
    )


@pytest.fixture
def write_bench(request):
    """``write(path, payload)`` for a benchmark's ``BENCH_*.json`` file: it
    writes only under ``--write-bench``, so a plain test run leaves the
    working tree clean."""
    enabled = request.config.getoption("--write-bench")

    def write(path, payload) -> None:
        if enabled:
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    return write
