"""Generator planting recipes for context-dependent rules.

NO_FOREIGN_KEY is the paper's canonical *inter-query* detection (Example
3): the recipe must plant both tables' DDL and the uncovered JOIN in one
group so the label stays sound in isolation — the invariant every
fuzzed corpus relies on.  The golden lock below freezes the canonical
seed's output so recipe drift is a deliberate act, not an accident.

The same treatment covers the remaining context-dependent recipes:
INDEX_OVERUSE / INDEX_UNDERUSE (inter-query, judged against the whole
workload) and the data-rule scenarios with generated rows (ENUMERATED_TYPES
and EXTERNAL_DATA_STORAGE via profiling).  Each is locked in
``golden/generator_recipes.jsonl`` as a planted-positive *and* a derived
clean control; regenerate with ``pytest tests/conformance
--update-golden``.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.detector.detector import APDetector, DetectorConfig
from repro.model.antipatterns import AntiPattern
from repro.testkit import CorpusGenerator, GeneratedStatement
from repro.workloads.sqlite import sqlite_database

#: Golden: the canonical seed's NO_FOREIGN_KEY planting, locked verbatim.
GOLDEN_SEED = 2020
GOLDEN_NO_FOREIGN_KEY_SQL = (
    "CREATE TABLE events_1x (events_1x_key INTEGER PRIMARY KEY, "
    "label VARCHAR(40) NOT NULL)",
    "CREATE TABLE reviews_2x (reviews_2x_key INTEGER PRIMARY KEY, "
    "events_1x_key INTEGER, quantity INTEGER)",
    "SELECT c.quantity FROM reviews_2x c "
    "JOIN events_1x p ON p.events_1x_key = c.events_1x_key",
)


def test_no_foreign_key_is_plantable():
    generator = CorpusGenerator(GOLDEN_SEED)
    assert AntiPattern.NO_FOREIGN_KEY in generator.plantable_anti_patterns()


def test_no_foreign_key_golden_planting():
    group = CorpusGenerator(GOLDEN_SEED).planted_statement(AntiPattern.NO_FOREIGN_KEY)
    assert group.planted == (AntiPattern.NO_FOREIGN_KEY,)
    assert group.sql == GOLDEN_NO_FOREIGN_KEY_SQL


def test_no_foreign_key_label_is_sound_in_isolation():
    """The planted group, analysed alone, fires the inter-query rule —
    and adding the constraint (the control shape) silences it."""
    detector = APDetector(DetectorConfig())
    for seed in range(8):
        group = CorpusGenerator(seed).planted_statement(AntiPattern.NO_FOREIGN_KEY)
        detected = detector.detect(list(group.sql)).types_detected()
        assert AntiPattern.NO_FOREIGN_KEY in detected, (seed, group.sql)


def test_no_foreign_key_needs_inter_query_context():
    """Sanity: with inter-query analysis disabled the planting must be
    invisible — proving the recipe exercises the contextual path."""
    group = CorpusGenerator(GOLDEN_SEED).planted_statement(AntiPattern.NO_FOREIGN_KEY)
    intra_only = APDetector(DetectorConfig(enable_inter_query=False))
    detected = intra_only.detect(list(group.sql)).types_detected()
    assert AntiPattern.NO_FOREIGN_KEY not in detected


def test_fixed_planting_is_silenced():
    """Declaring the FK on the recipe's join columns removes the finding."""
    group = CorpusGenerator(GOLDEN_SEED).planted_statement(AntiPattern.NO_FOREIGN_KEY)
    parent_ddl, child_ddl, join = group.sql
    fixed_child = child_ddl.replace(
        "events_1x_key INTEGER,",
        "events_1x_key INTEGER REFERENCES events_1x(events_1x_key),",
    )
    assert fixed_child != child_ddl
    detected = APDetector(DetectorConfig()).detect(
        [parent_ddl, fixed_child, join]
    ).types_detected()
    assert AntiPattern.NO_FOREIGN_KEY not in detected


# ----------------------------------------------------------------------
# context-dependent recipes: INDEX_OVERUSE / INDEX_UNDERUSE + data rules
# ----------------------------------------------------------------------
RECIPES_GOLDEN_PATH = Path(__file__).parent / "golden" / "generator_recipes.jsonl"

#: Inter-query index recipes (SQL only) and data recipes (DDL + rows).
INDEX_RECIPES = (AntiPattern.INDEX_OVERUSE, AntiPattern.INDEX_UNDERUSE)
DATA_RECIPES = (AntiPattern.ENUMERATED_TYPES, AntiPattern.EXTERNAL_DATA_STORAGE)


def _detected_types(group: GeneratedStatement) -> "list[str]":
    """Full-detector anti-pattern types for a group (with its rows loaded)."""
    database = sqlite_database(group.sql, group.rows) if group.needs_database else None
    report = APDetector(DetectorConfig()).detect(list(group.sql), database=database)
    return sorted(ap.value for ap in report.types_detected())


def _control_for(anti_pattern: AntiPattern, group: GeneratedStatement) -> GeneratedStatement:
    """The mechanically fixed counterpart a recipe's rule must stay silent on."""
    if anti_pattern is AntiPattern.INDEX_OVERUSE:
        # Filter on the indexed column: the index is used, not overuse.
        ddl, index, select = group.sql
        table = ddl.split()[2]
        fixed = f"SELECT label FROM {table} WHERE region = 'alpha'"
        return GeneratedStatement(sql=(ddl, index, fixed))
    if anti_pattern is AntiPattern.INDEX_UNDERUSE:
        # Index the predicate column: the lookup is covered.
        ddl, select = group.sql
        table = ddl.split()[2]
        index = f"CREATE INDEX idx_{table}_region_fix ON {table} (region)"
        return GeneratedStatement(sql=(ddl, index, select))
    if anti_pattern is AntiPattern.ENUMERATED_TYPES:
        # Unique values per row: no implicit enum domain.
        (table, rows), = group.rows
        pk = next(key for key in rows[0] if key != "status")
        fresh = tuple({pk: row[pk], "status": f"status_{row[pk]:04d}"} for row in rows)
        return GeneratedStatement(sql=group.sql, rows=((table, fresh),))
    if anti_pattern is AntiPattern.EXTERNAL_DATA_STORAGE:
        # Prose captions, not file paths.
        (table, rows), = group.rows
        pk = next(key for key in rows[0] if key != "location")
        fresh = tuple(
            {pk: row[pk], "location": f"warehouse shelf number {row[pk]}"} for row in rows
        )
        return GeneratedStatement(sql=group.sql, rows=((table, fresh),))
    raise AssertionError(f"no control construction for {anti_pattern}")


def _recipe_entries() -> "list[dict]":
    """Recompute the canonical-seed golden entries for every new recipe."""
    entries: "list[dict]" = []
    for anti_pattern in INDEX_RECIPES + DATA_RECIPES:
        generator = CorpusGenerator(GOLDEN_SEED)
        if anti_pattern in INDEX_RECIPES:
            group = generator.planted_statement(anti_pattern)
        else:
            group = generator.planted_data_statement(anti_pattern)
        control = _control_for(anti_pattern, group)
        entries.append({
            "recipe": anti_pattern.value,
            "seed": GOLDEN_SEED,
            "sql": list(group.sql),
            "rows": {table: list(rows) for table, rows in group.rows},
            "detected": _detected_types(group),
            "control_sql": list(control.sql),
            "control_rows": {table: list(rows) for table, rows in control.rows},
            "control_detected": _detected_types(control),
        })
    return entries


@pytest.mark.parametrize("anti_pattern", INDEX_RECIPES)
def test_index_recipes_are_sound_in_isolation(anti_pattern):
    """Planted groups fire across seeds; they need inter-query context."""
    detector = APDetector(DetectorConfig())
    intra_only = APDetector(DetectorConfig(enable_inter_query=False))
    for seed in range(8):
        group = CorpusGenerator(seed).planted_statement(anti_pattern)
        assert group.planted == (anti_pattern,)
        detected = detector.detect(list(group.sql)).types_detected()
        assert anti_pattern in detected, (seed, group.sql)
        without_context = intra_only.detect(list(group.sql)).types_detected()
        assert anti_pattern not in without_context, (seed, group.sql)


@pytest.mark.parametrize("anti_pattern", DATA_RECIPES)
def test_data_recipes_are_sound_in_isolation(anti_pattern):
    """Data plantings fire only through data analysis of the generated rows."""
    for seed in range(8):
        group = CorpusGenerator(seed).planted_data_statement(anti_pattern)
        assert group.planted == (anti_pattern,)
        assert group.needs_database
        assert anti_pattern.value in _detected_types(group), (seed, group.sql)
        # Without the rows (DDL alone) the data rule has nothing to profile.
        ddl_only = APDetector(DetectorConfig()).detect(list(group.sql)).types_detected()
        assert anti_pattern not in ddl_only, (seed, group.sql)


@pytest.mark.parametrize("anti_pattern", INDEX_RECIPES + DATA_RECIPES)
def test_recipe_controls_stay_silent(anti_pattern):
    """The derived clean control silences the planted anti-pattern."""
    generator = CorpusGenerator(GOLDEN_SEED)
    if anti_pattern in INDEX_RECIPES:
        group = generator.planted_statement(anti_pattern)
    else:
        group = generator.planted_data_statement(anti_pattern)
    control = _control_for(anti_pattern, group)
    assert anti_pattern.value not in _detected_types(control)


def test_recipes_golden_lock(update_golden):
    """Planted-positive + clean-control verdicts locked per recipe."""
    current = _recipe_entries()
    if update_golden:
        with open(RECIPES_GOLDEN_PATH, "w", encoding="utf-8") as handle:
            for entry in current:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return
    assert RECIPES_GOLDEN_PATH.exists(), (
        f"no recipe golden at {RECIPES_GOLDEN_PATH}; generate it with "
        "`pytest tests/conformance --update-golden`"
    )
    with open(RECIPES_GOLDEN_PATH, "r", encoding="utf-8") as handle:
        stored = [json.loads(line) for line in handle if line.strip()]
    current_canonical = json.loads(json.dumps(current, sort_keys=True))
    assert current_canonical == stored, (
        "generator recipe drift (rerun with --update-golden if intentional)"
    )


def test_recipes_golden_has_positive_and_control_per_recipe():
    """The stored lock itself covers both sides of every recipe."""
    with open(RECIPES_GOLDEN_PATH, "r", encoding="utf-8") as handle:
        stored = {entry["recipe"]: entry for entry in map(json.loads, handle)}
    for anti_pattern in INDEX_RECIPES + DATA_RECIPES:
        entry = stored[anti_pattern.value]
        assert anti_pattern.value in entry["detected"]
        assert anti_pattern.value not in entry["control_detected"]
