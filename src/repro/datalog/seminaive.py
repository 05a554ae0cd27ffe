"""Semi-naive evaluation of plain (existential-free) Datalog with stratified negation.

This is the workhorse used for:

* the SPARQL → Datalog¬s translation of Section 5.1 (programs ``P_dat``),
* the baseline comparisons of the benchmark suite, and
* the negation-elimination step of the TriQ-Lite 1.0 evaluation algorithm
  (Step 1 of the proof of Theorem 6.7), which needs the ground semantics of
  Datalog programs computed stratum by stratum.

Rules must not contain existential head variables; use the chase or the
warded engine for those.  Negated body atoms are evaluated against the result
of the lower strata, which is exactly the stratified semantics of Section 3.2
restricted to Datalog¬s.

Each rule is compiled once (per process, the plan cache is keyed by rule)
into a :class:`~repro.engine.plan.CompiledRule`; the delta rounds run the
precompiled pivot plans against the delta's index, and the lower-strata
negation reference is a frozen :meth:`~repro.datalog.database.Instance.snapshot`
rather than a full copy.

There is one firing path: matches arrive as slot-ID rows
(:meth:`~repro.engine.plan.CompiledRule.trigger_row_batches`), negation is
filtered in bulk against the frozen snapshot, and head facts are built from
precompiled ``RowOps`` templates.  Which matcher produced the rows — the
depth-first backtracker or the column-at-a-time batch matcher — is decided
inside :meth:`~repro.engine.plan.JoinPlan.rows` (:mod:`repro.engine.mode`);
both emit the same rows in the same order, so results and counters are
mode-independent.  Delta rounds additionally skip pivots whose delta
postings bucket is empty for a *bound* term of the pivot atom (not just
pivots whose predicate is absent from the delta) — counted in
``STATS.pivots_skipped``.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence, Set

from repro.datalog.atoms import Atom
from repro.datalog.database import Instance
from repro.datalog.program import Program
from repro.datalog.rules import RuleError
from repro.datalog.stratification import partition_by_stratum, stratify
from repro.engine.plan import compile_rule
from repro.engine.stats import STATS
from repro.obs.trace import TRACER


class SemiNaiveEvaluator:
    """Bottom-up evaluation with delta (semi-naive) iteration per stratum."""

    def __init__(self, program: Program):
        for rule in program.rules:
            if rule.has_existentials:
                raise RuleError(
                    f"semi-naive evaluation handles existential-free rules only; got {rule}"
                )
        self.program = program
        self.stratification = stratify(program.ex())
        self.strata = partition_by_stratum(program.ex(), self.stratification)
        self.compiled_strata = [
            [compile_rule(rule) for rule in stratum] for stratum in self.strata
        ]

    # -- public API ---------------------------------------------------------------

    def evaluate(self, database: Iterable[Atom]) -> Instance:
        """Materialise all derivable facts (ignores constraints)."""
        instance = Instance(database)
        for number, stratum in enumerate(self.compiled_strata):
            if not stratum:
                continue
            reference = instance.snapshot()
            with TRACER.span(
                "seminaive.stratum", stratum=number, rules=len(stratum)
            ):
                self._evaluate_stratum(stratum, instance, reference)
        return instance

    def facts_of(self, database: Iterable[Atom], predicate: str) -> Set[Atom]:
        """All derived facts over ``predicate``."""
        return set(self.evaluate(database).with_predicate(predicate))

    def resume_stratum(
        self,
        stratum: int,
        instance: Instance,
        delta: Instance,
        negation_reference,
    ) -> int:
        """Continue one stratum's fixpoint from an externally supplied delta.

        ``instance`` must already contain the facts of ``delta`` (they are
        the facts appended since the stratum last reached its fixpoint) and
        ``negation_reference`` must reflect the lower strata's *current*
        state.  This is the semi-naive entry point of the incremental
        streaming subsystem (:class:`~repro.engine.incremental.DeltaSession`):
        only the delta rounds run — the naive first pass already happened
        when the stratum was first evaluated.  Returns the number of delta
        rounds executed.
        """
        return self._delta_rounds(
            self.compiled_strata[stratum], instance, delta, negation_reference
        )

    # -- internals --------------------------------------------------------------------

    def _evaluate_stratum(
        self, compiled: Sequence, instance: Instance, negation_reference
    ) -> None:
        """Fixpoint of one stratum using delta iteration.

        ``negation_reference`` holds the facts of the strictly lower strata
        (a frozen snapshot); negated atoms are checked against it only, which
        is sound because a stratified program never derives a negated
        predicate in the same or a higher stratum.
        """
        # First round: plain naive pass so that rules whose bodies are fully
        # satisfied by lower strata fire at least once.
        delta = Instance()
        for crule in compiled:
            self._fire_rule(crule, instance, negation_reference, delta, None)

        # Delta rounds: at least one body atom must come from the last delta.
        self._delta_rounds(compiled, instance, delta, negation_reference)

    def _delta_rounds(
        self,
        compiled: Sequence,
        instance: Instance,
        delta: Instance,
        negation_reference,
    ) -> int:
        """Run delta rounds until the fixpoint; returns the round count."""
        rounds = 0
        while len(delta):
            rounds += 1
            new_delta = Instance()
            for crule in compiled:
                self._fire_rule(
                    crule, instance, negation_reference, new_delta, delta
                )
            delta = new_delta
        return rounds

    @staticmethod
    def _fire_rule(crule, instance, negation_reference, delta_sink, delta) -> None:
        """Match and fire one rule for one round (naive when ``delta`` is None).

        The trigger list is materialised per rule before firing, so each
        evaluation point sees the same instance state.  Head facts are fired directly from slot rows
        (precompiled RowOps templates).
        """
        traced = TRACER.enabled
        if traced:
            trace_start = time.perf_counter_ns()
        batches = crule.trigger_row_batches(instance, delta, negation_reference)
        add_key = instance.add_key
        sink_add = delta_sink.add_key
        for plan, rows in batches:
            head_keys_row = crule.row_ops(plan).head_keys_row
            for row in rows:
                STATS.triggers_fired += 1
                for key in head_keys_row(row):
                    if add_key(key):
                        sink_add(key)
        if traced:
            TRACER.record(
                "seminaive.rule",
                trace_start,
                head=crule.rule.head[0].predicate,
                naive=delta is None,
            )
