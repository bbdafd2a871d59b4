"""``setup.py`` installs the ``repro`` package and the ``sqlcheck`` command."""
from __future__ import annotations

import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import setuptools

import repro
from repro.interfaces.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_metadata_names_the_package_and_its_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["sqlcheck", repro.__version__]


def test_packages_and_console_script(monkeypatch):
    captured: dict = {}
    monkeypatch.setattr(setuptools, "setup", lambda **kwargs: captured.update(kwargs))
    runpy.run_path(str(ROOT / "setup.py"))
    assert captured["package_dir"] == {"": "src"}
    assert {"repro", "repro.interfaces", "repro.ingest"} <= set(captured["packages"])
    (script,) = captured["entry_points"]["console_scripts"]
    name, _, target = (part.strip() for part in script.partition("="))
    module, _, attribute = target.partition(":")
    assert name == "sqlcheck"
    assert getattr(importlib.import_module(module), attribute) is main
