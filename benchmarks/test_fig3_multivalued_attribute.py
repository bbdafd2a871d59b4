"""Figure 3 — performance impact of the Multi-Valued Attribute anti-pattern.

The paper measures three GlobaLeaks tasks with and without the AP and reports
0.762 s vs 0.003 s, 0.772 s vs 0.004 s, and 0.636 s vs 0.001 s (636× / 256× /
193× speedups once the intersection table replaces the comma-separated
column).  Our substrate is SQLite in memory rather than PostgreSQL with 10 M
rows, and the cost is counted in VDBE steps, the same on every run, so the
absolute numbers differ; the reproduced claim is the shape: every task takes
at least several times fewer steps without the AP, with the join task
(Task #2) showing the largest gap.
"""
from __future__ import annotations

import pytest

from repro.ranking import MetricEstimator
from repro.model import AntiPattern
from repro.workloads import GlobaLeaksWorkload

from ._helpers import print_table, speedup, steps

TENANTS = 800  # 3 200 users; keeps the regex join clearly super-linear


@pytest.fixture(scope="module")
def workload():
    return GlobaLeaksWorkload(tenants=TENANTS)


@pytest.fixture(scope="module")
def databases(workload):
    return workload.build_ap_database(), workload.build_fixed_database()


def _task_pairs(workload):
    return {
        "Task #1 (tenant lookup by user)": (workload.task1_ap("U101"), workload.task1_fixed("U101")),
        "Task #2 (users served by tenant)": (workload.task2_ap("T37"), workload.task2_fixed("T37")),
        "Task #3 (remove user everywhere)": (workload.task3_ap("U202"), workload.task3_fixed("U202")),
    }


def test_fig3_multivalued_attribute(benchmark, workload, databases):
    """Reproduce Figure 3(a)-(c): AP vs. no-AP cost per task."""
    ap_db, fixed_db = databases
    tasks = _task_pairs(workload)
    estimator = MetricEstimator()
    rows = []
    speedups = {}
    for name, (with_ap, without_ap) in tasks.items():
        ap_steps = steps(ap_db, with_ap)
        fixed_steps = steps(fixed_db, without_ap)
        factor = speedup(ap_steps, fixed_steps)
        speedups[name] = factor
        kind = "select" if "lookup" in name else ("join" if "served" in name else "update")
        estimator.record_measurement(
            AntiPattern.MULTI_VALUED_ATTRIBUTE, kind=kind, with_ap=ap_steps, without_ap=fixed_steps
        )
        rows.append([name, ap_steps, fixed_steps, f"{factor:.1f}x"])
    print_table(
        "Figure 3: Multi-Valued Attribute AP (paper: 636x / 256x / 193x on PostgreSQL, 10M rows)",
        ["task", "with AP (steps)", "AP fixed (steps)", "speedup"],
        rows,
    )

    # The benchmark timer tracks the AP-variant join task (the dominant cost).
    join = tasks["Task #2 (users served by tenant)"][0]
    benchmark(lambda: ap_db.execute(join).fetchall())

    # Shape assertions: fixing the AP wins on every task, the join task most.
    assert all(factor > 2.0 for factor in speedups.values())
    assert speedups["Task #2 (users served by tenant)"] == max(speedups.values())
    # The measured speedups feed the ranking model (the paper's retraining loop).
    table = estimator.apply()
    assert table[AntiPattern.MULTI_VALUED_ATTRIBUTE].read_performance > 2.0


def test_fig3_results_are_equivalent(benchmark, workload, databases):
    """The AP-free design must return the same logical answers (§2.1.1)."""
    ap_db, fixed_db = databases

    def tenants(cursor):
        position = [entry[0] for entry in cursor.description].index("Tenant_ID")
        return {row[position] for row in cursor}

    def both():
        return (
            tenants(ap_db.execute(workload.task1_ap("U55"))),
            tenants(fixed_db.execute(workload.task1_fixed("U55"))),
        )

    ap_tenants, fixed_tenants = benchmark(both)
    assert ap_tenants == fixed_tenants
