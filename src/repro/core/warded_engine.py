"""The practical warded-Datalog∃ evaluation engine.

The conclusion of the paper states: *"a challenging task is to design a
practical algorithm for computing the ground semantics of a warded Datalog∃
program over a database"*.  This module is that algorithm for this library.

The theoretical membership proof (Proposition 6.8 / Lemmas 6.9-6.14) uses an
alternating logspace procedure (``ProofTree``).  Alternation is a proof
device; for a practical engine we materialise instead, using the structural
property that wardedness grants (and that the proof of Lemma 6.6 spells out):
a labelled null can only interact with the rest of a rule body through
*harmless* — hence ground — values, so the ground consequences of a null are
fully determined by

* the rule that invented it, and
* the ground values of that rule's frontier at invention time.

We call this pair the null's **type**.  The engine is a semi-naive chase that
fires each existential rule at most once per *abstracted trigger*, where an
abstracted trigger replaces every null of the frontier binding by its type.
It is literally the semi-naive evaluator
(:class:`~repro.datalog.seminaive.SemiNaiveEvaluator`: the same stratum loop,
fixpoint and ``seminaive.*`` trace events) with one thing added — the
firing function that keys existential triggers on their abstraction.  Its
nulls are named the way the chase names them
(:func:`~repro.datalog.chase.null_labels`: a digest of rule, existential
and frontier binding), so a trigger that fires under both policies invents
the same null in both routes, and a re-run interns no new term.
For a fixed program the number of types is polynomial in the active domain of
the database, so the materialisation (and therefore the extracted ground
semantics ``Pi(D)↓``) is computed in polynomial time — matching Theorem 6.7.
Stratified grounded negation is evaluated against the lower strata exactly as
in Step 1 of the Theorem 6.7 proof; constraints are checked against the final
ground semantics as in Theorem 4.4.

Triggers are fired from slot-ID rows
(:meth:`~repro.engine.plan.CompiledRule.trigger_row_batches`) through
precompiled ``RowOps`` templates — the one firing path every engine shares.

The engine additionally records provenance (one justification per derived
fact), which :mod:`repro.core.prooftree` unfolds into the proof trees of
Definition 6.11 / Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.analysis.guards import classify_program
from repro.datalog.atoms import Atom
from repro.datalog.chase import null_labels, violates
from repro.datalog.database import Instance
from repro.datalog.program import Program, Query
from repro.datalog.rules import Rule
from repro.datalog.semantics import INCONSISTENT, QueryResult, ground_answers
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.terms import Null
from repro.engine.interning import TERMS
from repro.engine.stats import STATS

# A justification: the rule plus the instantiated body atoms used to derive a fact.
Justification = Tuple[Rule, Tuple[Atom, ...]]

#: Triggers one stratum's fixpoint may fire before the engine gives up: a
#: guard against a program/database pair far larger than expected.
MAX_TRIGGERS = 2_000_000


@dataclass
class WardedResult:
    """Result of a warded materialisation run."""

    instance: Instance
    provenance: Dict[Atom, Justification]
    null_types: Dict[Null, Tuple]

    def ground(self) -> Instance:
        """``Pi(D)↓``: the atoms over constants only."""
        return self.instance.ground_part()


class WardedEngine(SemiNaiveEvaluator):
    """Semi-naive materialisation for warded Datalog∃ with grounded negation.

    :class:`~repro.datalog.seminaive.SemiNaiveEvaluator`'s stratum and round
    loops, plus one thing: an existential rule fires at most once per
    abstracted trigger (and a run may record provenance).
    """

    def __init__(self, program: Program, check_warded: bool = True):
        if check_warded:
            report = classify_program(program)
            if not report.warded:
                raise ValueError(
                    "program is not warded: "
                    + report.violations.get("warded", "unknown violation")
                )
        super().__init__(program)
        #: A rule's position in ``program.rules``: the rule half of a null's type.
        self._positions: Dict[Rule, int] = {
            rule: position for position, rule in enumerate(program.rules)
        }

    # -- public API ------------------------------------------------------------

    def materialise(
        self, database: Iterable[Atom], with_provenance: bool = True
    ) -> WardedResult:
        """Materialise the stratified semantics of the program over ``database``.

        ``with_provenance=False`` skips recording one justification per
        derived fact (and the body instantiations that requires); use it when
        only the materialised instance matters, e.g. plain query answering.
        """
        instance = Instance(database)
        provenance: Optional[Dict[Atom, Justification]] = (
            {} if with_provenance else None
        )
        null_types: Dict[Null, Tuple] = {}
        self._run_strata(instance, (provenance, null_types))
        return WardedResult(
            instance=instance,
            provenance=provenance if provenance is not None else {},
            null_types=null_types,
        )

    def ground_semantics(self, database: Iterable[Atom]) -> Instance:
        """``Pi(D)↓`` (ignores constraints)."""
        return self.materialise(database).ground()

    def is_consistent(self, database: Iterable[Atom]) -> bool:
        """True iff no constraint body embeds into the materialisation."""
        result = self.materialise(database, with_provenance=False)
        return not violates(self.program.constraints, result.instance)

    def evaluate_query(self, query: Query, database: Iterable[Atom]) -> QueryResult:
        """``Q(D)`` under the paper's semantics (⊤ on constraint violation)."""
        if query.program is not self.program and query.program != self.program:
            raise ValueError("query program differs from the engine's program")
        result = self.materialise(database, with_provenance=False)
        if violates(self.program.constraints, result.instance):
            return INCONSISTENT
        return ground_answers(result.instance, query.output_predicate)

    # -- the trigger abstraction -------------------------------------------------

    @staticmethod
    def _admit(program: Program) -> None:
        """Every rule is admitted: existential rules fire once per abstracted trigger."""

    def _firing(self, state=None):
        """A fresh firing function for one stratum's fixpoint.

        It carries the stratum's trigger budget (:data:`MAX_TRIGGERS`) and
        its set of fired abstracted triggers, and writes the run's
        ``state = (provenance, null_types)``: provenance only when not None.
        """
        provenance, null_types = state or (None, {})
        positions = self._positions
        fired = 0
        fired_existential_triggers: Set[Tuple[int, Tuple]] = set()

        def process_rows(crule, instance, negation_reference, delta_sink, delta) -> None:
            """Fire one rule for one round: slot rows in, head facts out.

            Negation is pre-filtered in bulk against the frozen lower-strata
            snapshot inside ``trigger_row_batches`` (equivalent to a
            per-trigger check because the reference cannot change between
            match time and fire time); head facts, provenance bodies, and the
            trigger abstraction all come from precompiled RowOps slot
            templates.
            """
            nonlocal fired
            rule = crule.rule
            rule_index = positions[rule]
            has_existentials = bool(rule.existential_variables)
            batches = crule.trigger_row_batches(instance, delta, negation_reference)
            add_key = instance.add_key
            sink_add = delta_sink.add_key
            for plan, rows in batches:
                ops = crule.row_ops(plan)
                frontier_slots = ops.frontier_slots
                head_keys_row = ops.head_keys_row
                for row in rows:
                    if fired >= MAX_TRIGGERS:
                        raise RuntimeError(
                            f"warded engine exceeded MAX_TRIGGERS={MAX_TRIGGERS}; "
                            "the program/database pair is larger than expected"
                        )
                    if has_existentials:
                        abstract = self._abstract_id_items(
                            (variable.name, row[slot])
                            for variable, slot in frontier_slots
                        )
                        key = (rule_index, abstract)
                        if key in fired_existential_triggers:
                            continue
                        fired_existential_triggers.add(key)
                        # The dedup key stays ID-based (fast, injective), but
                        # the *public* null_types record decodes the ground
                        # markers so the field is free of process-local IDs;
                        # this runs once per fired existential trigger, not
                        # per row.  Nulls are named by their trigger, as in
                        # the chase, so a re-run interns no new term.
                        decoded = self._decode_abstract(abstract)
                        fresh_ids = tuple(
                            TERMS.intern_null(label)
                            for label in null_labels(crule, ops, row)
                        )
                        for existential, nid in zip(crule.sorted_existentials, fresh_ids):
                            null_types[TERMS.term(nid)] = (rule_index, existential.name, decoded)
                        STATS.nulls_invented += len(fresh_ids)
                        extended = row + fresh_ids
                    else:
                        extended = row
                    fired += 1
                    STATS.triggers_fired += 1
                    body_instantiation = None
                    for fact_key in head_keys_row(extended):
                        if not add_key(fact_key):
                            continue
                        sink_add(fact_key)
                        if provenance is not None:
                            fact = TERMS.decode_atom(fact_key)
                            if fact not in provenance:
                                if body_instantiation is None:
                                    body_instantiation = ops.body_facts_row(row)
                                provenance[fact] = (rule, body_instantiation)

        return process_rows

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _decode_abstract(abstract: Tuple) -> Tuple:
        """Decode an ID-keyed abstraction into its public (spelling) form.

        Null markers are already ID-free (equality-pattern indexes); ground
        markers swap the process-local term ID for ``str(term)``, which is
        what external consumers of ``WardedResult.null_types`` can compare
        across runs and processes.
        """
        return tuple(
            (name, marker if marker[0] == "null" else ("ground", str(TERMS.term(marker[1]))))
            for name, marker in abstract
        )

    @staticmethod
    def _abstract_id_items(named_ids) -> Tuple:
        """The trigger abstraction: the frontier binding with nulls anonymised.

        Takes (variable name, term-ID) pairs.  Only the frontier matters for
        what the invented null will look like (non-frontier body variables
        never reach the head).  The key records, for every frontier variable,
        either its ground value or — when the value is a labelled null — an
        anonymous marker that only retains the *equality pattern* among the
        frontier nulls of this trigger.  The resulting key space is finite
        (polynomial in the active domain for a fixed program), which is what
        bounds the number of existential firings and yields the polynomial
        ground semantics of Theorem 6.7.

        Anonymising null identities is justified by wardedness: a null can
        only be joined with the remainder of a rule body through harmless
        (ground) values, so two triggers that agree on their ground frontier
        and on the null equality pattern generate isomorphic sub-instances and
        therefore exactly the same *ground* consequences (the argument of
        Lemma 6.6 read constructively).

        Ground markers key on the dictionary ID rather than the spelling —
        injective within a process — and the null test is a bit op.
        """
        items = []
        first_seen: Dict[int, int] = {}
        for name, tid in named_ids:
            if tid & 1:
                if tid not in first_seen:
                    first_seen[tid] = len(first_seen)
                items.append((name, ("null", first_seen[tid])))
            else:
                items.append((name, ("ground", tid)))
        return tuple(items)
