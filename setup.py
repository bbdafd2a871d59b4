"""Setuptools configuration for the ``repro`` package and its ``sqlcheck`` command.

``pip install -e .`` installs both where the ``wheel`` package is present
(it builds the editable wheel).  Without ``wheel``, ``python setup.py
develop`` installs the same editable package and command.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
# Read, not imported: importing the package would need its dependencies.
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="sqlcheck",
    version=VERSION,
    description="Detect, rank and fix SQL anti-patterns (a reproduction of SQLCheck, SIGMOD 2020)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["sqlcheck = repro.interfaces.cli:main"]},
)
