"""Exception hygiene: broad catches only where the design allows them.

``except Exception`` is how a fault-isolation boundary is built — and how
real bugs get silently swallowed everywhere else.  This test walks the
``src/`` AST and fails on any broad catch (``except Exception`` /
``except BaseException`` / bare ``except:``) outside the allowlisted
boundary sites, so every new one is a deliberate, reviewed decision.

The allowlist names (module, function) pairs, not line numbers — the
sites survive refactors, and moving a broad catch to a *new* function
still demands a conscious allowlist edit.
"""
import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (module path relative to src/repro, enclosing function) pairs where a
#: broad catch is a designed fault-isolation boundary:
#:
#: * quarantine sites — per-statement/per-rule/per-stage error capture that
#:   converts failures into structured PipelineError records;
#: * last-resort answer paths — a server thread or oracle that must report
#:   a failure rather than die silently.
ALLOWED_BROAD_CATCHES = {
    # context builder: per-statement parse/annotate quarantine
    ("context/builder.py", "_annotate_queries"),
    ("context/builder.py", "parse_element"),  # closure inside _annotate_queries
    # detector: per-rule and per-data-rule quarantine
    ("detector/detector.py", "_iter_detections"),
    ("detector/detector.py", "_detect_statement"),
    # core: rank/fix quarantine (the detect/rank/fix body check and
    # check_context share)
    ("core/sqlcheck.py", "_finish"),
    # REST: a handler bug must produce a JSON 500, not a dead socket
    ("interfaces/rest.py", "do_POST"),
    # persistent memo: a cache (de)serialisation failure of any kind must
    # degrade to a miss/invalidation, never crash the detection run
    ("detector/persist.py", "_loads"),
    ("detector/persist.py", "_dumps"),
    # oracles report failures, they never raise out of the suite
    ("testkit/oracles.py", "check_fixer_round_trip"),
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except:
        return True
    names = []
    node = handler.type
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in nodes:
        if isinstance(item, ast.Name):
            names.append(item.id)
        elif isinstance(item, ast.Attribute):
            names.append(item.attr)
    return any(name in ("Exception", "BaseException") for name in names)


def _broad_catches(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # Map every node to its enclosing function name.
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and _is_broad(node):
            scope = node
            function = "<module>"
            while scope in parents:
                scope = parents[scope]
                if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    function = scope.name
                    break
            yield function, node.lineno


def test_broad_catches_are_allowlisted():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        module = path.relative_to(SRC_ROOT).as_posix()
        for function, lineno in _broad_catches(path):
            if (module, function) not in ALLOWED_BROAD_CATCHES:
                offenders.append(f"{module}:{lineno} in {function}()")
    assert offenders == [], (
        "broad exception catch outside the allowlisted fault-isolation "
        f"boundaries: {offenders}; catch the specific exception, or add the "
        "site to ALLOWED_BROAD_CATCHES with a justification comment"
    )


def test_allowlist_entries_still_exist():
    """Every allowlisted site must still contain a broad catch — stale
    entries hide future regressions behind a pre-approved name."""
    live = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        module = path.relative_to(SRC_ROOT).as_posix()
        for function, _ in _broad_catches(path):
            live.add((module, function))
    stale = ALLOWED_BROAD_CATCHES - live
    assert stale == set(), f"allowlist entries no longer match any broad catch: {sorted(stale)}"
