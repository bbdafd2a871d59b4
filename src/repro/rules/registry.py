"""Rule registry.

The paper stresses extensibility: "A developer may add a new AP rule that
implements the generic rule interface ... and register it in the sqlcheck
rule registry" (§7).  :func:`default_registry` builds the registry covering
every Table 1 anti-pattern; callers can register additional rules or disable
existing ones.
"""
from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Iterator

from ..model.antipatterns import AntiPattern
from .base import DataRule, QueryRule, Rule
from .data_rules import (
    DataInMetadataDataRule,
    DenormalizedTableRule,
    GenericPrimaryKeyDataRule,
    IncorrectDataTypeRule,
    InformationDuplicationRule,
    MissingTimezoneRule,
    NoDomainConstraintRule,
    RedundantColumnRule,
)
from .logical_design import (
    AdjacencyListRule,
    CloneTableRule,
    DataInMetadataRule,
    GenericPrimaryKeyRule,
    GodTableRule,
    MultiValuedAttributeDataRule,
    MultiValuedAttributeRule,
    NoForeignKeyRule,
    NoPrimaryKeyDataRule,
    NoPrimaryKeyRule,
)
from .physical_design import (
    EnumeratedTypesDataRule,
    EnumeratedTypesRule,
    ExternalDataStorageDataRule,
    ExternalDataStorageRule,
    IndexOveruseRule,
    IndexUnderuseRule,
    RoundingErrorsRule,
)
from .query_rules import (
    ColumnWildcardRule,
    ConcatenateNullsRule,
    DistinctAndJoinRule,
    ImplicitColumnsRule,
    OrderingByRandRule,
    PatternMatchingRule,
    ReadablePasswordRule,
    TooManyJoinsRule,
)


class TriggerAutomaton:
    """Set-automaton pre-filter compiled from one statement type's rules.

    Each rule may declare :attr:`~repro.rules.base.QueryRule.trigger_tokens`
    — upper-cased substrings of which at least one must occur in the
    statement's upper-cased raw text for the rule to possibly fire.  The
    automaton inverts those declarations into an atom → rule-positions map,
    so selecting the applicable rules for a statement costs one containment
    test per *distinct* atom instead of one scan per rule, and rules whose
    atoms are all absent are never executed.  Rules that declare no
    triggers always run.  Selection preserves registration order, so
    filtered detection output is byte-identical to the unfiltered dispatch
    as long as every declaration is sound (``check_prefilter_soundness``).
    """

    __slots__ = ("rules", "_always", "_atom_positions", "_filtered")

    def __init__(self, rules: "tuple[QueryRule, ...]"):
        self.rules = rules
        always: list[int] = []
        atom_positions: "dict[str, list[int]]" = {}
        for position, rule in enumerate(rules):
            atoms = rule.trigger_tokens
            if atoms is None:
                always.append(position)
            else:
                for atom in atoms:
                    atom_positions.setdefault(atom.upper(), []).append(position)
        self._always = tuple(always)
        self._atom_positions = {atom: tuple(p) for atom, p in atom_positions.items()}
        self._filtered = bool(atom_positions)

    def select(self, raw_upper: str) -> "tuple[QueryRule, ...]":
        """Rules that can possibly fire on a statement, in registration order."""
        if not self._filtered:
            return self.rules
        active = set(self._always)
        for atom, positions in self._atom_positions.items():
            if atom in raw_upper:
                active.update(positions)
        if len(active) == len(self.rules):
            return self.rules
        return tuple(rule for position, rule in enumerate(self.rules) if position in active)


class RegistryIntegrityError(RuntimeError):
    """A registered rule mutated its dispatch metadata in place.

    The statement-type index is built from each rule's ``statement_types``
    *at registration time*; mutating the attribute afterwards would leave
    the rule silently missing from (or wrongly present in) dispatch.  The
    registry refuses to serve from a stale index — unregister the rule and
    re-register it (or register a fresh instance) instead.
    """


class RuleRegistry:
    """Holds the active query rules and data rules.

    Iterating a registry yields every registered rule (query rules first);
    ``len(registry)`` counts them; :meth:`get` looks one up by name.
    Mutate with :meth:`register` / :meth:`unregister` /
    :meth:`disable_anti_pattern`.  Each rule carries its own conformance
    ``examples()`` and :class:`~repro.rules.base.RuleDoc`, which the
    reporting subsystem renders into reports and the generated rule
    reference (``sqlcheck docs``).

    Dispatch by statement type is served from a precomputed index instead of
    a per-call scan: corpus-scale detection calls ``rules_for_statement``
    once per statement, so the O(rules) comprehension the seed used becomes
    a dict lookup.  The index is versioned — every mutation
    (``register`` / ``unregister`` / ``disable_anti_pattern``) bumps
    :attr:`version` and invalidates it, and changes :attr:`content_digest`,
    which re-scopes the detection memo.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._query_rules: list[QueryRule] = []
        self._data_rules: list[DataRule] = []
        self._version = 0
        self._dispatch: dict[str, tuple[QueryRule, ...]] = {}
        # Compiled trigger automatons by statement type; rebuilt lazily
        # after every mutation, i.e. once per version.
        self._compiled: dict[str, TriggerAutomaton] = {}
        # statement_types snapshots taken at registration; serving dispatch
        # against a drifted rule raises instead of returning stale results.
        self._declared_types: "dict[int, tuple[str, ...]]" = {}
        # content_digest cache, keyed by the version it was computed at.
        self._content_digest: "bytes | None" = None
        self._content_digest_version = -1
        for rule in rules:
            self.register(rule)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, rule: Rule) -> Rule:
        """Register a rule instance (returns it, so it can be used as a decorator helper)."""
        if isinstance(rule, QueryRule):
            self._query_rules.append(rule)
            self._declared_types[id(rule)] = tuple(rule.statement_types)
        elif isinstance(rule, DataRule):
            self._data_rules.append(rule)
        else:
            raise TypeError(f"{type(rule).__name__} is neither a QueryRule nor a DataRule")
        self._invalidate()
        return rule

    def unregister(self, name: str) -> None:
        """Remove every rule whose name matches ``name``."""
        self._query_rules = [r for r in self._query_rules if r.name != name]
        self._data_rules = [r for r in self._data_rules if r.name != name]
        self._invalidate()

    def disable_anti_pattern(self, anti_pattern: AntiPattern) -> None:
        """Remove every rule detecting the given anti-pattern."""
        self._query_rules = [r for r in self._query_rules if r.anti_pattern is not anti_pattern]
        self._data_rules = [r for r in self._data_rules if r.anti_pattern is not anti_pattern]
        self._invalidate()

    def _invalidate(self) -> None:
        self._version += 1
        self._dispatch.clear()
        self._compiled.clear()
        self._declared_types = {
            id(rule): self._declared_types.get(id(rule), tuple(rule.statement_types))
            for rule in self._query_rules
        }

    def check_integrity(self) -> None:
        """Raise :class:`RegistryIntegrityError` if any registered query
        rule's ``statement_types`` no longer matches its registration-time
        snapshot (in-place mutation the dispatch index cannot observe)."""
        for rule in self._query_rules:
            declared = self._declared_types.get(id(rule))
            current = tuple(rule.statement_types)
            if declared is not None and current != declared:
                raise RegistryIntegrityError(
                    f"rule {rule.name!r} mutated statement_types after registration "
                    f"(registered {declared!r}, now {current!r}); the dispatch index "
                    "would serve stale results — unregister and re-register the rule "
                    "instead of mutating it in place"
                )

    def _dispatch_is_fresh(self) -> bool:
        """O(rules) identity scan: true when every rule still carries the
        exact ``statement_types`` object snapshotted at registration (the
        common case — no tuple construction, no value comparison)."""
        declared = self._declared_types
        for rule in self._query_rules:
            if declared.get(id(rule)) is not rule.statement_types:
                return False
        return True

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every registry mutation."""
        return self._version

    @property
    def content_digest(self) -> bytes:
        """Stable digest of the registered rule *content*, in registration
        order.

        Two registries built from the same rule classes with the same
        declared metadata produce the same digest in any process.  This is
        the identity the persistent detection memo keys on: a rule added,
        removed, or re-declared changes the digest and cleanly orphans every
        stored entry, while a restart with the unchanged default registry
        keeps them warm.
        """
        if self._content_digest is None or self._content_digest_version != self._version:
            digest = hashlib.blake2b(digest_size=16)
            for rule in itertools.chain(self._query_rules, self._data_rules):
                cls = type(rule)
                triggers = getattr(rule, "trigger_tokens", None)
                digest.update(
                    "|".join(
                        (
                            f"{cls.__module__}.{cls.__qualname__}",
                            rule.name,
                            getattr(rule.anti_pattern, "value", str(rule.anti_pattern)),
                            getattr(rule.severity, "name", str(rule.severity)),
                            repr(tuple(getattr(rule, "statement_types", ()) or ())),
                            repr(tuple(triggers) if triggers is not None else None),
                            repr(bool(getattr(rule, "requires_context", False))),
                        )
                    ).encode("utf-8", "replace")
                )
                digest.update(b"\x00")
            self._content_digest = digest.digest()
            self._content_digest_version = self._version
        return self._content_digest

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def query_rules(self) -> list[QueryRule]:
        return list(self._query_rules)

    @property
    def data_rules(self) -> list[DataRule]:
        return list(self._data_rules)

    def rules_for_statement(self, statement_type: str) -> tuple[QueryRule, ...]:
        """Query rules applicable to a statement type (Algorithm 2's
        ``RulesForQuery``), served from the dispatch index."""
        if not self._dispatch_is_fresh():
            # A rule rebound its statement_types: raise on real drift; if the
            # new object is value-equal (no drift), refresh the identity
            # snapshots so the fast path resumes.  A non-tuple declaration
            # keeps its value snapshot and simply stays on the slow path.
            self.check_integrity()
            self._declared_types = {
                id(rule): (
                    rule.statement_types
                    if isinstance(rule.statement_types, tuple)
                    else tuple(rule.statement_types)
                )
                for rule in self._query_rules
            }
        cached = self._dispatch.get(statement_type)
        if cached is None:
            cached = self._dispatch[statement_type] = tuple(
                rule
                for rule in self._query_rules
                if not rule.statement_types or statement_type in rule.statement_types
            )
        return cached

    def automaton_for(self, statement_type: str) -> TriggerAutomaton:
        """The :class:`TriggerAutomaton` compiled from
        :meth:`rules_for_statement`; every mutation drops it."""
        automaton = self._compiled.get(statement_type)
        if automaton is None:
            automaton = self._compiled[statement_type] = TriggerAutomaton(
                self.rules_for_statement(statement_type)
            )
        return automaton

    def fused_rules_for(self, statement_type: str, raw_upper: str) -> "tuple[QueryRule, ...]":
        """Rules that can possibly fire on a statement (``raw_upper`` is its
        upper-cased raw text), pre-filtered by :meth:`automaton_for`."""
        return self.automaton_for(statement_type).select(raw_upper)

    def anti_patterns_covered(self) -> set[AntiPattern]:
        return {r.anti_pattern for r in self._query_rules} | {
            r.anti_pattern for r in self._data_rules
        }

    def get(self, name: str) -> Rule | None:
        """The registered rule with the given name, or ``None``."""
        for rule in self:
            if rule.name == name:
                return rule
        return None

    def __iter__(self) -> Iterator[Rule]:
        yield from self._query_rules
        yield from self._data_rules

    def __len__(self) -> int:
        return len(self._query_rules) + len(self._data_rules)


def default_registry() -> RuleRegistry:
    """The registry covering all 26 Table 1 anti-patterns (plus Readable Password)."""
    return RuleRegistry(
        [
            # logical design
            MultiValuedAttributeRule(),
            MultiValuedAttributeDataRule(),
            NoPrimaryKeyRule(),
            NoPrimaryKeyDataRule(),
            NoForeignKeyRule(),
            GenericPrimaryKeyRule(),
            GenericPrimaryKeyDataRule(),
            DataInMetadataRule(),
            AdjacencyListRule(),
            GodTableRule(),
            # physical design
            RoundingErrorsRule(),
            EnumeratedTypesRule(),
            EnumeratedTypesDataRule(),
            ExternalDataStorageRule(),
            ExternalDataStorageDataRule(),
            IndexOveruseRule(),
            IndexUnderuseRule(),
            CloneTableRule(),
            # query
            ColumnWildcardRule(),
            ConcatenateNullsRule(),
            OrderingByRandRule(),
            PatternMatchingRule(),
            ImplicitColumnsRule(),
            DistinctAndJoinRule(),
            TooManyJoinsRule(),
            ReadablePasswordRule(),
            # data
            DataInMetadataDataRule(),
            MissingTimezoneRule(),
            IncorrectDataTypeRule(),
            DenormalizedTableRule(),
            InformationDuplicationRule(),
            RedundantColumnRule(),
            NoDomainConstraintRule(),
        ]
    )
