"""``check``, ``detect``, ``detect_batch`` and ``scan`` run with the cyclic
collector held off.

Everything a run builds stays reachable until it returns, so a collection
inside it frees nothing; the run pauses the collector and gives it back in
the state it found it, after the run's context is freed.
"""
from __future__ import annotations

import contextlib
import gc
import weakref

import pytest

from repro import APDetector, SQLCheck
from repro.context import builder
from repro.context.builder import collector_paused
from repro.core import sqlcheck
from repro.detector import detector
from repro.ingest import scan, scanner
from repro.workloads.sqlite import sqlite_database

STATEMENTS = [f"SELECT * FROM t WHERE a = {i} AND b LIKE '%x{i}%'" for i in range(200)]


def _collections_during(run) -> "list[int]":
    """The generations the collector started on while ``run()`` ran."""
    started: "list[int]" = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()  # empty generation 0, so nothing before the run triggers one
    gc.callbacks.append(record)
    try:
        run()
    finally:
        gc.callbacks.remove(record)
    return started


RUNS = {
    "check": lambda db: SQLCheck().check(STATEMENTS, database=db),
    "detect": lambda db: APDetector().detect(STATEMENTS, database=db),
    "detect_batch": lambda db: APDetector().detect_batch(STATEMENTS),
    "scan": lambda db: scan(db, STATEMENTS),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_run_collects_only_once_it_ends(name, monkeypatch):
    db = sqlite_database(
        ["CREATE TABLE t (a INTEGER, b TEXT)"],
        {"t": [{"a": i, "b": f"x{i}"} for i in range(300)]},
    )
    # Unpaused, the same run triggers a collection every few hundred
    # allocations (about twenty here).
    for module in (detector, sqlcheck, scanner):
        monkeypatch.setattr(module, "collector_paused", contextlib.nullcontext)
    assert len(_collections_during(lambda: RUNS[name](db))) > 1
    monkeypatch.undo()
    assert gc.isenabled()
    # Paused, the only one is the young collection its allocations trigger
    # when the collector comes back at the end of the run.
    assert _collections_during(lambda: RUNS[name](db)) in ([], [0])
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(RUNS) + ["check without a database"])
def test_the_context_is_freed_before_the_collector_resumes(name, monkeypatch):
    """The first collection after a run would otherwise walk every token,
    statement and annotation of it, and free none of them."""
    contexts: "list[weakref.ref]" = []
    alive_at_resume: "list[bool]" = []
    build = builder.ContextBuilder.build

    def recording_build(self, *args, **kwargs):
        context = build(self, *args, **kwargs)
        contexts.append(weakref.ref(context))
        return context

    class Collector:
        """The ``gc`` module, noting which contexts live when it resumes."""

        isenabled = staticmethod(gc.isenabled)
        disable = staticmethod(gc.disable)

        @staticmethod
        def enable():
            alive_at_resume.extend(ref() is not None for ref in contexts)
            gc.enable()

    monkeypatch.setattr(builder.ContextBuilder, "build", recording_build)
    monkeypatch.setattr(builder, "gc", Collector)
    if name in RUNS:
        RUNS[name](sqlite_database(
            ["CREATE TABLE t (a INTEGER, b TEXT)"], {"t": [{"a": 1, "b": "x"}]}
        ))
    else:
        SQLCheck().check(STATEMENTS)
    assert alive_at_resume == [False]


def test_a_collector_the_caller_turned_off_stays_off():
    gc.disable()
    try:
        APDetector().detect(STATEMENTS)
        with collector_paused():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_collector_comes_back_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with collector_paused():
            assert not gc.isenabled()
            raise RuntimeError("rule failed")
    assert gc.isenabled()
