"""Timing hygiene: one sanctioned clock for all pipeline timing.

``repro.obs.now`` is the single monotonic clock behind spans, stage
timings, and ``PipelineStats`` — stage spans and stats must come from the
*same* timestamps or the accounting oracle and the trace can disagree.
This test walks the ``src/`` AST and fails on any raw
``time.perf_counter()`` call (or ``from time import perf_counter``)
outside the sanctioned sites, so new timing code is forced through
``obs`` where it stays swappable and trace-consistent.

The one sanctioned site is everything under ``obs/`` — the clock's home.
"""
import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (module path relative to src/repro, enclosing function) pairs allowed
#: to call time.perf_counter() directly: none.  Everything under obs/ is
#: exempt wholesale — see the module docstring.
ALLOWED_PERF_COUNTER_SITES: "set[tuple[str, str]]" = set()


def _is_exempt_module(module: str) -> bool:
    return module.startswith("obs/")


def _perf_counter_uses(path: Path):
    """Yield (enclosing function, lineno) for every raw perf_counter use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    def enclosing_function(node) -> str:
        scope = node
        while scope in parents:
            scope = parents[scope]
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return scope.name
        return "<module>"

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time" and any(
                alias.name == "perf_counter" for alias in node.names
            ):
                yield enclosing_function(node), node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "perf_counter":
            yield enclosing_function(node), node.lineno


def test_raw_perf_counter_only_at_sanctioned_sites():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        module = path.relative_to(SRC_ROOT).as_posix()
        if _is_exempt_module(module):
            continue
        for function, lineno in _perf_counter_uses(path):
            if (module, function) not in ALLOWED_PERF_COUNTER_SITES:
                offenders.append(f"{module}:{lineno} in {function}()")
    assert offenders == [], (
        "raw time.perf_counter() outside repro.obs: use `from repro.obs "
        f"import now` instead (offenders: {offenders})"
    )


def test_sanctioned_sites_still_use_the_clock():
    """Every allowlisted site must still contain a raw perf_counter use —
    stale entries hide future regressions behind a pre-approved name."""
    live = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        module = path.relative_to(SRC_ROOT).as_posix()
        if _is_exempt_module(module):
            continue
        for function, _ in _perf_counter_uses(path):
            live.add((module, function))
    stale = ALLOWED_PERF_COUNTER_SITES - live
    assert stale == set(), (
        f"allowlist entries no longer match any perf_counter use: {sorted(stale)}"
    )


def test_obs_package_defines_the_sanctioned_clock():
    """The exemption exists because obs owns the clock; hold that true."""
    import time

    from repro import obs

    assert obs.now is time.perf_counter
