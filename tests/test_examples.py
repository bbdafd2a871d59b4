"""Smoke tests: every example script must run end-to-end."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
SRC_DIR = EXAMPLES_DIR.parent / "src"


def test_examples_exist():
    assert len(EXAMPLES) >= 3, "the repository must ship at least three runnable examples"
    assert (EXAMPLES_DIR / "quickstart.py") in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    # The subprocess does not inherit this process's sys.path: the repo's
    # src goes first on its PYTHONPATH, so the examples import this checkout.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print something useful"
