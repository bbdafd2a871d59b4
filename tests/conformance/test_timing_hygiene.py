"""Timing hygiene: one sanctioned clock, read at two sites outside ``obs``.

``repro.obs.now`` is the single monotonic clock behind spans, stage
timings, and ``PipelineStats`` — stage spans and stats must come from the
*same* readings or the stats and the trace can disagree.  Pipeline stages
are timed by one clock, ``PipelineStats.stage`` in ``obs/``, which also
opens the ``stage:*`` spans at the readings it accounts with.  This test
walks the ``src/`` AST and fails on

* any raw ``time.perf_counter()`` call (or ``from time import
  perf_counter``) outside ``obs/``, and
* any use of ``repro.obs.now`` outside ``obs/`` except at the allowlisted
  (module, function) sites: the shared rule timing hook, whose two
  readings feed the per-rule histogram and ``rule:*`` span, and
  ``check_many``'s batch wall clock, which spans many runs' stats.

Everything under ``obs/`` — the clock's home — is exempt.
"""
import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (module path relative to src/repro, enclosing function) pairs allowed
#: to call time.perf_counter() directly: none.  Everything under obs/ is
#: exempt wholesale — see the module docstring.
ALLOWED_PERF_COUNTER_SITES: "set[tuple[str, str]]" = set()

#: (module path relative to src/repro, enclosing function) pairs allowed
#: to read ``repro.obs.now``.
ALLOWED_NOW_SITES: "set[tuple[str, str]]" = {
    ("rules/base.py", "_timed_check"),
    ("core/sqlcheck.py", "check_many"),
}


def _is_exempt_module(module: str) -> bool:
    return module.startswith("obs/")


def _walk_with_scopes(path: Path):
    """Parse ``path``; return its tree and an enclosing-function lookup."""
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

    return tree, enclosing_function


def _perf_counter_uses(path: Path):
    """Yield (enclosing function, lineno) for every raw perf_counter use."""
    tree, enclosing_function = _walk_with_scopes(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time" and any(
                alias.name == "perf_counter" for alias in node.names
            ):
                yield enclosing_function(node), node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "perf_counter":
            yield enclosing_function(node), node.lineno


def _is_obs_module(module: "str | None", level: int) -> bool:
    """True for an import of ``repro.obs`` or one of its submodules."""
    if module is None:
        return False
    parts = module.split(".")
    if level == 0:
        return parts[:2] == ["repro", "obs"]
    return parts[0] == "obs"


def _now_uses(path: Path):
    """Yield (enclosing function, lineno) for every use of ``repro.obs.now``:
    a name imported as ``now`` from ``repro.obs`` (under any alias), or
    ``.now`` read off an imported obs module."""
    tree, enclosing_function = _walk_with_scopes(path)
    clock_names: "set[str]" = set()
    obs_modules: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if _is_obs_module(node.module, node.level):
                for alias in node.names:
                    if alias.name == "now":
                        clock_names.add(alias.asname or alias.name)
            elif node.module in (None, "repro"):
                for alias in node.names:
                    if alias.name == "obs":
                        obs_modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[:2] == ["repro", "obs"]:
                    obs_modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in clock_names:
                yield enclosing_function(node), node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "now":
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in obs_modules:
                yield enclosing_function(node), node.lineno


def _live_sites(uses) -> "dict[tuple[str, str], list[int]]":
    live: "dict[tuple[str, str], list[int]]" = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        module = path.relative_to(SRC_ROOT).as_posix()
        if _is_exempt_module(module):
            continue
        for function, lineno in uses(path):
            live.setdefault((module, function), []).append(lineno)
    return live


def test_raw_perf_counter_only_at_sanctioned_sites():
    offenders = [
        f"{module}:{lineno} in {function}()"
        for (module, function), lines in _live_sites(_perf_counter_uses).items()
        if (module, function) not in ALLOWED_PERF_COUNTER_SITES
        for lineno in lines
    ]
    assert offenders == [], (
        "raw time.perf_counter() outside repro.obs: use `from repro.obs "
        f"import now` instead (offenders: {offenders})"
    )


def test_obs_clock_read_only_at_sanctioned_sites():
    offenders = [
        f"{module}:{lineno} in {function}()"
        for (module, function), lines in _live_sites(_now_uses).items()
        if (module, function) not in ALLOWED_NOW_SITES
        for lineno in lines
    ]
    assert offenders == [], (
        "repro.obs.now read outside repro.obs: time a pipeline stage with "
        f"`with stats.stage(name):` instead (offenders: {offenders})"
    )


def test_sanctioned_sites_still_use_the_clock():
    """Every allowlisted site must still read its clock — stale entries
    hide future regressions behind a pre-approved name."""
    stale = (ALLOWED_PERF_COUNTER_SITES - set(_live_sites(_perf_counter_uses))) | (
        ALLOWED_NOW_SITES - set(_live_sites(_now_uses))
    )
    assert stale == set(), (
        f"allowlist entries no longer match any clock use: {sorted(stale)}"
    )


def test_obs_package_defines_the_sanctioned_clock():
    """The exemption exists because obs owns the clock; hold that true."""
    import time

    from repro import obs

    assert obs.now is time.perf_counter
