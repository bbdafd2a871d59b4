"""Process hygiene: the pipeline runs in one process.

Every entry point (``check``, ``check_many``, ``detect_batch``, ``scan``,
``serve``) runs in the caller's process, on its warm caches, so every
span and metric series of a run is recorded where it is read.  This test
walks the ``src/`` AST and fails on any import of ``multiprocessing`` or
``concurrent.futures.process`` and on any use of ``ProcessPoolExecutor``.
Threads stay allowed: ``serve`` handles each connection on one.
"""
import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules whose import starts or manages worker processes.
PROCESS_MODULES = ("multiprocessing", "concurrent.futures.process")


def _is_process_module(name: "str | None") -> bool:
    return name is not None and any(
        name == module or name.startswith(module + ".") for module in PROCESS_MODULES
    )


def _process_uses(path: Path):
    """Yield (lineno, what) for every process-pool import or name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_process_module(alias.name):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else None
            for alias in node.names:
                if alias.name == "ProcessPoolExecutor" or _is_process_module(
                    module and f"{module}.{alias.name}"
                ):
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor":
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            yield node.lineno, node.attr


def test_no_module_starts_worker_processes():
    offenders = [
        f"{path.relative_to(SRC_ROOT).as_posix()}:{lineno} {what}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for lineno, what in _process_uses(path)
    ]
    assert offenders == [], (
        "the pipeline runs in one process: run the work in the caller's "
        f"process instead of a process pool (offenders: {offenders})"
    )


def test_the_walk_sees_each_form(tmp_path):
    """The detector itself: each spelling of a process pool is caught."""
    path = tmp_path / "sample.py"
    path.write_text(
        "import multiprocessing\n"
        "import multiprocessing.pool as pool\n"
        "from multiprocessing import Pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from concurrent.futures import process\n"
        "from concurrent import futures\n"
        "futures.ProcessPoolExecutor()\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import threading\n"
    )
    assert sorted(lineno for lineno, _ in _process_uses(path)) == [1, 2, 3, 4, 5, 7]
