"""Semi-naive evaluation with stratified negation: the one fixpoint loop.

This is the workhorse used for:

* the SPARQL → Datalog¬s translation of Section 5.1 (programs ``P_dat``),
* the baseline comparisons of the benchmark suite, and
* the negation-elimination step of the TriQ-Lite 1.0 evaluation algorithm
  (Step 1 of the proof of Theorem 6.7), which needs the ground semantics of
  Datalog programs computed stratum by stratum.

:class:`SemiNaiveEvaluator` fires existential-free rules only.  Negated body
atoms are evaluated against the result of the lower strata, which is exactly
the stratified semantics of Section 3.2 restricted to Datalog¬s.

:func:`fixpoint` is the library's one round loop, run by cold strata and
:class:`~repro.engine.incremental.DeltaSession` continuations alike.  Each
engine is a firing function over it: this evaluator's, the warded engine's
trigger abstraction and the restricted chase.

Each rule is compiled once (per process, the plan cache is keyed by rule)
into a :class:`~repro.engine.plan.CompiledRule`; the delta rounds run the
precompiled pivot plans against the delta's index, and the lower-strata
negation reference is a frozen :meth:`~repro.datalog.database.Instance.snapshot`
rather than a full copy.

There is one firing path: matches arrive as slot-ID rows
(:meth:`~repro.engine.plan.CompiledRule.trigger_row_batches`), negation is
filtered in bulk against the frozen snapshot, and head facts are built from
precompiled ``RowOps`` templates.  Delta rounds additionally skip pivots
whose delta postings bucket is empty for a *bound* term of the pivot atom
(not just pivots whose predicate is absent from the delta) — counted in
``STATS.pivots_skipped``.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Set

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
        self._admit(program)
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
        self._run_strata(instance)
        return instance

    def facts_of(self, database: Iterable[Atom], predicate: str) -> Set[Atom]:
        """All derived facts over ``predicate``."""
        return set(self.evaluate(database).with_predicate(predicate))

    # -- internals --------------------------------------------------------------------

    @staticmethod
    def _admit(program: Program) -> None:
        """Reject the rules :meth:`_fire_rule` cannot fire: existential ones."""
        for rule in program.rules:
            if rule.has_existentials:
                raise RuleError(
                    f"semi-naive evaluation handles existential-free rules only; got {rule}"
                )

    def _firing(self, state=None):
        """A fresh firing function for one stratum's fixpoint.

        ``state`` is what one materialisation threads through its strata;
        plain firing keeps none.
        """
        return self._fire_rule

    def _run_strata(self, instance: Instance, state=None) -> None:
        """Run each non-empty stratum's fixpoint cold under one ``state``."""
        for number, stratum in enumerate(self.compiled_strata):
            if not stratum:
                continue
            reference = instance.snapshot()
            with TRACER.span(
                "seminaive.stratum", stratum=number, rules=len(stratum)
            ):
                self._fixpoint(number, instance, None, reference, state)

    def _fixpoint(self, stratum, instance, delta, negation_reference, state=None) -> int:
        """One stratum's :func:`fixpoint`, firing through a fresh :meth:`_firing`."""
        compiled = self.compiled_strata[stratum]
        return fixpoint(compiled, instance, delta, negation_reference, self._firing(state))

    @staticmethod
    def _fire_rule(crule, instance, negation_reference, delta_sink, delta) -> None:
        """Match and fire one rule for one round (full plan when ``delta`` is None).

        The trigger list is materialised per rule before firing, so each
        evaluation point sees the same instance state.  Head facts are fired directly from slot rows
        (precompiled RowOps templates).
        """
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


def fixpoint(
    compiled, instance: Instance, delta, negation_reference, fire, begin_round=None
) -> int:
    """Rounds of ``compiled`` until one adds nothing; returns the count.

    ``delta=None`` is a cold run, whose first round runs every rule's full
    plan; every other round runs the pivot plans over ``delta``, the facts
    the previous round (or, for a continuation, the caller) added.
    Negation reads ``negation_reference``, a frozen snapshot.
    ``fire(crule, instance, negation_reference, delta_sink, delta)`` fires
    one rule for one round; it may end the loop mid-round by raising.
    ``begin_round()``, when given, runs at the top of every round, before
    the round's first ``seminaive.rule`` record starts; it may end the loop
    between rounds by raising.
    """
    rounds = 0
    while delta is None or len(delta):
        rounds += 1
        if begin_round is not None:
            begin_round()
        new_delta = Instance()
        for crule in compiled:
            traced = TRACER.enabled
            if traced:
                trace_start = time.perf_counter_ns()
            fire(crule, instance, negation_reference, new_delta, delta)
            if traced:
                TRACER.record(
                    "seminaive.rule",
                    trace_start,
                    head=crule.rule.head[0].predicate,
                    naive=delta is None,
                )
        delta = new_delta
    return rounds
