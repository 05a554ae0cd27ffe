"""Incremental streaming-delta evaluation: the :class:`DeltaSession` API.

Every engine in this library is batch-oriented: hand it a database, get a
fixpoint back.  Under a streaming workload — facts trickling in from a feed,
a growing ontology, a social graph gaining edges — that model recomputes the
whole materialisation per arrival, which is exactly the waste semi-naive
evaluation exists to avoid *within* a run.  This module extends the same
delta discipline *across* runs:

* A :class:`DeltaSession` materialises an initial database once (the cold
  fixpoint the engines already compute), then accepts batches of new EDB
  facts via :meth:`DeltaSession.push`.  Each push appends the batch to the
  live :class:`~repro.datalog.database.Instance` and resumes
  evaluation **from the delta only**: the precompiled semi-naive pivot plans
  of :class:`~repro.engine.plan.CompiledRule` enumerate exactly the matches
  that read at least one new fact, so unchanged derivations are never
  revisited.
* **Stratified negation** is handled by stratum arithmetic.  New EDB facts
  of stratum ``s`` cannot change any stratum below ``s``, and *within* a
  stratum evaluation is monotone (negated predicates live strictly below),
  so strata up to the first one that negates a predicate of stratum ``>= s``
  are *continued* from the delta.  From that stratum upward the negation
  references have grown — previously derived facts may no longer be
  derivable — so those strata (and only those) are **re-run**: their derived
  facts are dropped, the kept lower prefix plus the accumulated EDB is
  reloaded, and the strata are evaluated cold, exactly as
  :class:`~repro.datalog.semantics.StratifiedSemantics` would.
* **One evaluator, one per-stratum fixpoint.**  The session builds a
  :class:`~repro.datalog.seminaive.SemiNaiveEvaluator` or, for programs
  with existential rules (or when a chase engine is passed), a
  :class:`~repro.datalog.semantics.StratifiedSemantics`, and runs that
  evaluator's ``_fixpoint`` for cold strata and continuations alike.  A
  chase session threads one :class:`~repro.datalog.chase.ChaseState` through
  every call, so null depths and the first resource limit span strata and
  pushes exactly as in one cold materialisation.
* **Null stability.**  The chase names an invented null by a digest of
  (rule, frontier binding, existential variable), so a stratum
  re-run re-derives byte-identical facts for every unchanged derivation and
  a continuation invents the same nulls a cold run over the grown database
  invents for the same triggers.  The differential suite in
  ``tests/test_engine_incremental_parity.py`` pins the resulting parity
  contract: existential-free sessions are **byte-identical** (sorted facts)
  to a cold evaluation of the accumulated EDB;
  chase sessions agree byte-identically whenever the cold run fires the same
  triggers, and always agree on the ground fact set and on query answers
  (both results are universal models of the same database and program).
* **One matcher.**  Continuations, over-deletion and goal-directed
  re-derivation all fire from the slot rows of
  :meth:`~repro.engine.plan.JoinPlan.rows`, as cold runs do; re-derivation
  seeds it with the frontier binding unified from the deleted fact.

* **Deletions** go through :meth:`DeltaSession.retract`, a DRed
  (delete-and-rederive, Gupta–Mumick–Subrahmanian) maintenance pass:

  1. **Over-delete.**  On the pre-deletion instance, the downward closure of
     the retracted EDB facts is *marked* per stratum ascending — every fact
     some rule match derives from at least one marked fact, enumerated with
     the same pivot plans (and the same matchers) the insertion path uses.
     For existential rules the invented null of a candidate trigger is
     reconstructed from its content-addressed label; a label the term table
     has never seen proves the trigger never fired, so nothing downstream of
     it is marked.  Marking is a superset of what must go (a marked fact may
     have other support) — DRed's classic over-estimate.
  2. **Delete.**  The marked set is tombstoned in place
     (:meth:`~repro.engine.index.PredicateIndex.tombstone`): surviving rows
     are never renumbered and postings stay sound (probes skip tombstones).
  3. **Re-derive.**  Per stratum ascending: retracted-but-still-accumulated
     EDB facts come back verbatim; every other marked fact is re-checked
     *goal-directedly* (unify the rule heads with the deleted fact, search
     the surviving instance for an alternative body match); restorations
     then propagate through the ordinary delta rounds.  For the chase, the
     goal-directed pass also re-fires triggers whose head *witness* was
     deleted — the restricted-chase fixpoint invariant ("every trigger's
     head is satisfied") is re-established with the same digest-named nulls
     a cold run would invent.
  4. **Re-check.**  Strata whose negation references may have shrunk are
     re-run from scratch (the same static dependency closure
     :meth:`push` uses), constraints whose body predicates intersect the
     changed closure are re-evaluated (verdicts for untouched constraints
     are served from a cache), and invented nulls no longer referenced by
     any surviving fact are garbage-collected from the chase's depth
     bookkeeping (the odd-ID reachability scan; the dictionary entry itself
     is reclaimed at the next term-table epoch).

  The parity oracle is the same as for pushes: after any interleaving of
  pushes and retractions, an existential-free session is byte-identical to a
  cold evaluation of the *surviving* EDB
  (``tests/test_engine_retract_parity.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.datalog.atoms import Atom, unify_with_fact
from repro.datalog.chase import ChaseEngine, ChaseState, embeds, null_labels, violates
from repro.datalog.database import Instance
from repro.datalog.program import Program
from repro.datalog.semantics import (
    INCONSISTENT,
    SemanticsResult,
    StratifiedSemantics,
    ground_answers,
)
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.terms import Term
from repro.engine import index as engine_index
from repro.engine.interning import TERMS
from repro.engine.plan import compile_body
from repro.engine.stats import STATS
from repro.obs.trace import TRACER


@dataclass
class PushResult:
    """What one :meth:`DeltaSession.push` did.

    ``derived`` is the net change in materialised facts beyond the new EDB
    facts themselves; it can be negative when a stratum re-run withdraws
    facts that stratified negation no longer supports.  ``rebuilt_from`` is
    the lowest stratum that was re-run from scratch (``None`` for a pure
    continuation), ``rounds`` counts the continuation delta rounds, and
    ``consistent`` reports the program's constraints against the new
    materialisation (always ``True`` for constraint-free programs).

    ``completed`` is ``False`` when a bounded chase engine configured with
    ``on_limit='stop'`` hit a resource limit during this session (the
    ``limit_reason`` says which): the materialisation is then an
    under-approximation of the stratified semantics and stays flagged on
    every later push — callers that supply budgets must check it.
    (With the default ``on_limit='raise'`` the limit surfaces as a
    :class:`~repro.datalog.chase.ChaseNonTermination` instead.)
    """

    batch_size: int
    new_edb: int
    derived: int
    affected_stratum: int
    rebuilt_from: Optional[int]
    rounds: int
    consistent: bool
    completed: bool = True
    limit_reason: Optional[str] = None


@dataclass
class RetractResult:
    """What one :meth:`DeltaSession.retract` did.

    ``removed_edb`` counts batch facts actually dropped from the accumulated
    EDB; ``overdeleted`` is the size of the marked downward closure that was
    physically tombstoned (the retracted facts themselves included);
    ``rederived`` counts the marked facts the re-derivation phase restored
    from alternative support; ``nulls_collected`` counts invented nulls
    garbage-collected because no surviving fact references them.
    ``affected_stratum`` / ``rebuilt_from`` / ``rounds`` / ``consistent`` /
    ``completed`` / ``limit_reason`` mirror :class:`PushResult` (a stratum
    re-run or the re-derivation rounds can hit the same chase budgets).
    """

    batch_size: int
    removed_edb: int
    overdeleted: int
    rederived: int
    nulls_collected: int
    affected_stratum: int
    rebuilt_from: Optional[int]
    rounds: int
    consistent: bool
    completed: bool = True
    limit_reason: Optional[str] = None


class DeltaSession:
    """Incremental evaluation of a stratified program over a growing database.

    Usage::

        session = DeltaSession(program, initial_database)
        session.push(batch_of_new_facts)       # resumes from the delta
        answers = session.query("connected")   # ground tuples, any time
        session.close()

    ``program`` is a :class:`~repro.datalog.program.Program` (or rule text,
    parsed with :func:`~repro.datalog.parser.parse_program`); facts may be
    :class:`~repro.datalog.atoms.Atom` objects, RDF
    :class:`~repro.rdf.graph.Triple` objects, or plain ``(s, p, o)`` string
    triples.  The evaluator is the chase
    (:class:`~repro.datalog.semantics.StratifiedSemantics`) when the program
    has existentials or a ``chase_engine`` is passed (which may supply
    resource bounds), and semi-naive evaluation of Datalog¬s otherwise.
    Step budgets apply per push (each batch gets a fresh
    ``max_steps`` allowance — a long-lived stream is never starved by its
    own history), while ``ChaseState.steps`` reports the lifetime total.

    The session may be used as a context manager; :meth:`close` makes it
    read-only.
    """

    def __init__(
        self,
        program,
        database: Iterable = (),
        *,
        chase_engine: Optional[ChaseEngine] = None,
    ):
        """Materialise ``database`` under ``program`` and arm the session."""
        if isinstance(program, str):
            from repro.datalog.parser import parse_program

            program = parse_program(program)
        self.program: Program = program
        #: Null depths, step total and first limit of every chase call.
        self._chase_state = ChaseState()
        if program.has_existentials or chase_engine is not None:
            self._evaluator = StratifiedSemantics(program, chase_engine)
            self.chase_engine: Optional[ChaseEngine] = self._evaluator.chase_engine
        else:
            self._evaluator = SemiNaiveEvaluator(program)
            self.chase_engine = None
        self.stratification = self._evaluator.stratification
        self.strata = self._evaluator.strata
        self.compiled_strata = self._evaluator.compiled_strata
        self.n_strata = len(self.strata)
        #: Negated predicates per stratum — the stratum-re-run trigger.
        self._neg_preds: List[Set[str]] = [
            {atom.predicate for rule in stratum for atom in rule.body_negative}
            for stratum in self.strata
        ]
        #: predicate -> head predicates of rules reading it (any polarity);
        #: the static "may change" reachability used to scope stratum re-runs.
        self._dependents: Dict[str, Set[str]] = {}
        for stratum in self.strata:
            for rule in stratum:
                for atom in (*rule.body_positive, *rule.body_negative):
                    targets = self._dependents.setdefault(atom.predicate, set())
                    for head in rule.head:
                        targets.add(head.predicate)
        #: The accumulated EDB in arrival order (insertion-ordered set).
        self._edb: Dict[Atom, None] = {}
        self.instance = Instance()
        for fact in (self._as_fact(value) for value in database):
            self._edb[fact] = None
            self.instance.add(fact)
        self._closed = False
        self.pushes = 0
        #: Retraction generation: bumped once per completed :meth:`retract`.
        #: Snapshot holders (the service's published views) record it so a
        #: snapshot pinned before a deletion fails loudly instead of
        #: silently missing rows.
        self.retractions = 0
        #: predicate -> lane compactions performed on it this session; the
        #: service surfaces this through ``MaterializedView.maintenance()``.
        self.compaction_counts: Dict[str, int] = {}
        #: Per-constraint verdict cache for incremental consistency checks:
        #: entry ``i`` is the last known "constraint i is satisfied" verdict
        #: (None = unknown), reusable while no predicate its body reads is
        #: in the changed closure of a push/retract.
        self._constraint_preds: List[FrozenSet[str]] = [
            frozenset(atom.predicate for atom in constraint.body)
            for constraint in program.constraints
        ]
        self._constraint_cache: List[Optional[bool]] = [None] * len(
            self._constraint_preds
        )
        self._materialise_from(0)

    @property
    def completed(self) -> bool:
        """False once a stop-mode chase engine hit a resource limit: the
        materialisation is an under-approximation from then on."""
        return self._chase_state.limit_reason is None

    @property
    def limit_reason(self) -> Optional[str]:
        """The first resource limit this session's chase hit, or None."""
        return self._chase_state.limit_reason

    # -- streaming API -------------------------------------------------------

    def push(self, facts: Iterable) -> PushResult:
        """Feed one batch of new EDB facts and resume evaluation.

        Facts already present (as EDB or as derived facts) are recorded in
        the EDB but seed no work.  The evaluation resumed is exactly the
        stratified semantics of the accumulated database: strata below the
        batch's lowest stratum are untouched, monotone strata are continued
        from the delta, and strata whose negation references changed are
        re-run (see the module docstring for the argument).
        """
        if self._closed:
            raise RuntimeError("DeltaSession is closed")
        batch = [self._as_fact(value) for value in facts]
        push_start = time.perf_counter_ns() if TRACER.enabled else 0
        for fact in batch:
            self._edb[fact] = None
        size_before = len(self.instance)
        mark = self.instance._counter
        mark_limits = self.instance._index.row_limits()
        added: List[Atom] = []
        for fact in batch:
            if self.instance.add(fact):
                added.append(fact)
        self.pushes += 1
        if not added:
            return PushResult(
                len(batch),
                0,
                0,
                -1,
                None,
                0,
                self._check_consistent(set()),
                self.completed,
                self.limit_reason,
            )
        affected = min(
            self.stratification.get(fact.predicate, 0) for fact in added
        )
        changed = self._changed_closure(fact.predicate for fact in added)
        rebuild_from = self._rebuild_point(affected, changed)
        stop = rebuild_from if rebuild_from is not None else self.n_strata
        rounds = 0
        for stratum in range(affected, stop):
            if not self.compiled_strata[stratum]:
                continue
            delta = self._window_delta(mark, mark_limits)
            reference = self.instance.snapshot()
            with TRACER.span("push.stratum", stratum=stratum):
                rounds += self._fixpoint(stratum, delta, reference)
        if rebuild_from is not None:
            self._rebuild(rebuild_from)
        if TRACER.enabled:
            TRACER.record(
                "delta.push",
                push_start,
                batch=len(batch),
                new_edb=len(added),
                derived=len(self.instance) - size_before - len(added),
                rounds=rounds,
            )
        return PushResult(
            batch_size=len(batch),
            new_edb=len(added),
            derived=len(self.instance) - size_before - len(added),
            affected_stratum=affected,
            rebuilt_from=rebuild_from,
            rounds=rounds,
            consistent=self._check_consistent(changed),
            completed=self.completed,
            limit_reason=self.limit_reason,
        )

    def retract(self, facts: Iterable) -> RetractResult:
        """Remove a batch of EDB facts and repair the materialisation (DRed).

        Facts absent from the materialisation are dropped from the
        accumulated EDB (if recorded) and seed no work.  For the rest the
        session over-deletes the downward closure on the pre-deletion
        instance, tombstones it, re-derives every marked fact that still has
        alternative support (goal-directed, then propagated through the
        ordinary delta rounds), re-runs strata whose negation references may
        have shrunk, re-checks only the constraints the change can have
        flipped, and garbage-collects invented nulls no surviving fact
        references.  When over-deletion would mark more than half the
        materialisation — DRed's dense-instance worst case — the session
        aborts marking and rebuilds the affected strata cold from the
        surviving EDB instead (:meth:`_retract_degenerate`), landing on the
        same answer for less than per-fact restoration would cost.
        The result is exactly the stratified semantics of the
        surviving EDB — the same parity contract as :meth:`push`, pinned by
        ``tests/test_engine_retract_parity.py``.  For chase sessions,
        over-deletion reconstructs invented-null labels from their
        content-addressed (rule, frontier) digests.
        """
        if self._closed:
            raise RuntimeError("DeltaSession is closed")
        batch = [self._as_fact(value) for value in facts]
        retract_start = time.perf_counter_ns() if TRACER.enabled else 0
        removed_edb = 0
        for fact in batch:
            if fact in self._edb:
                del self._edb[fact]
                removed_edb += 1
        seeds: List[Atom] = []
        seen: Set[Atom] = set()
        for fact in batch:
            if fact in self.instance and fact not in seen:
                seen.add(fact)
                seeds.append(fact)
        if not seeds:
            return RetractResult(
                len(batch),
                removed_edb,
                0,
                0,
                0,
                -1,
                None,
                0,
                self._check_consistent(set()),
                self.completed,
                self.limit_reason,
            )
        affected = min(
            self.stratification.get(fact.predicate, 0) for fact in seeds
        )
        changed = self._changed_closure(fact.predicate for fact in seeds)
        rebuild_from = self._rebuild_point(affected, changed)
        stop = rebuild_from if rebuild_from is not None else self.n_strata
        # Phase 1: mark the downward closure on the pre-deletion instance.
        # ``None`` means marking aborted past the degeneration threshold —
        # the closure covers most of the materialisation, so per-fact
        # restoration would cost strictly more than evaluating cold.
        with TRACER.span("retract.overdelete", seeds=len(seeds)):
            marked = self._overdelete_closure(seeds, affected, stop)
        if marked is None:
            with TRACER.span("retract.degenerate", stratum=affected):
                return self._retract_degenerate(
                    len(batch), removed_edb, affected, changed
                )
        # Phase 2: physical deletion.
        with TRACER.span("retract.tombstone", marked=len(marked)):
            discard = self.instance.discard
            for fact in marked:
                discard(fact)
            STATS.retractions += len(marked)
        # Phase 3: restore survivors, strata ascending.
        with TRACER.span("retract.rederive", strata=max(0, stop - affected)):
            rounds = self._rederive(affected, stop, marked)
        # Phase 4: strata whose negation references shrank re-run cold.
        if rebuild_from is not None:
            self._rebuild(rebuild_from)
        rederived = sum(1 for fact in marked if fact in self.instance)
        STATS.rederived += rederived
        with TRACER.span("retract.null_gc", marked=len(marked)):
            collected = self._collect_nulls(marked, rebuild_from is not None)
        self._maybe_compact()
        self.retractions += 1
        if TRACER.enabled:
            TRACER.record(
                "delta.retract",
                retract_start,
                batch=len(batch),
                overdeleted=len(marked),
                rederived=rederived,
                nulls_collected=collected,
            )
        return RetractResult(
            batch_size=len(batch),
            removed_edb=removed_edb,
            overdeleted=len(marked),
            rederived=rederived,
            nulls_collected=collected,
            affected_stratum=affected,
            rebuilt_from=rebuild_from,
            rounds=rounds,
            consistent=self._check_consistent(changed),
            completed=self.completed,
            limit_reason=self.limit_reason,
        )

    def _maybe_compact(self) -> int:
        """Compact predicates whose tombstone ratio crossed the threshold.

        The maintenance tail of :meth:`retract`: any predicate holding at
        least :data:`~repro.engine.index._COMPACT_MIN_ROWS` rows with more
        than :data:`~repro.engine.index.COMPACT_RATIO` of them dead gets its
        lanes packed and renumbered (:meth:`PredicateIndex.compact
        <repro.engine.index.PredicateIndex.compact>`), so a long churn
        stream stops carrying its whole deletion history in RAM.  Purely
        physical — the live facts, their order, and their gids are
        untouched, which is why results and the gated counters stay
        byte-identical to a never-compacting run (pinned by the retract
        parity suite).  Any snapshot that predates a compaction was already
        flagged stale by the tombstoning that pushed the ratio over the
        threshold.  Both thresholds are read at call time, so tests can
        patch them.
        """
        index = self.instance._index
        ratio = engine_index.COMPACT_RATIO
        min_rows = engine_index._COMPACT_MIN_ROWS
        live_counts = index.live
        compacted = 0
        for predicate in list(index.cols):
            total = index.row_count(predicate)
            if total < min_rows:
                continue
            dead = total - live_counts.get(predicate, 0)
            if dead and dead / total > ratio:
                index.compact(predicate)
                STATS.compactions += 1
                self.compaction_counts[predicate] = (
                    self.compaction_counts.get(predicate, 0) + 1
                )
                compacted += 1
        return compacted

    def query(self, predicate: str) -> FrozenSet[Tuple[Term, ...]]:
        """The ground answer tuples over ``predicate`` — the paper's ``Q(D)``."""
        return ground_answers(self.instance, predicate)

    def facts(self, predicate: str) -> FrozenSet[Atom]:
        """All materialised facts over ``predicate`` (including nulls)."""
        return self.instance.with_predicate(predicate)

    def result(self) -> SemanticsResult:
        """``Pi(D)`` for the accumulated database: the instance, or ⊤."""
        if not self._check_consistent():
            return INCONSISTENT
        return self.instance

    def check_consistency(self) -> bool:
        """True iff no constraint body embeds into the materialisation.

        Recomputes every constraint (and refreshes the incremental verdict
        cache); the push/retract paths pass :meth:`_check_consistent` the
        batch's changed closure instead, re-evaluating only constraints
        whose body predicates intersect it.
        """
        return self._check_consistent()

    def close(self) -> None:
        """The session becomes read-only: later pushes and retractions raise."""
        self._closed = True

    def __enter__(self) -> "DeltaSession":
        """Context-manager entry (returns the session itself)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    def __len__(self) -> int:
        """Number of materialised facts."""
        return len(self.instance)

    def __contains__(self, atom: Atom) -> bool:
        """Membership test against the materialisation."""
        return atom in self.instance

    # -- internals -----------------------------------------------------------

    def _materialise_from(self, first: int) -> None:
        """Evaluate strata ``first..top`` cold on the current instance."""
        for stratum in range(first, self.n_strata):
            if self.compiled_strata[stratum]:
                self._fixpoint(stratum, None, self.instance.snapshot())

    def _fixpoint(self, stratum: int, delta: Optional[Instance], reference) -> int:
        """One stratum's fixpoint on the live instance, cold for ``delta=None``
        and otherwise resumed from ``delta``, under the session's
        :class:`~repro.datalog.chase.ChaseState`; returns the resumed rounds."""
        return self._evaluator._fixpoint(
            stratum, self.instance, delta, reference, self._chase_state
        )

    def _changed_closure(self, predicates: Iterable[str]) -> Set[str]:
        """The static upward closure of ``predicates`` in the dependency graph.

        A predicate only gains or loses facts if some rule reading a changed
        predicate — positively or through negation — derives it; the closure
        therefore over-approximates "every predicate whose fact set can have
        changed" for both pushes and retractions, and scopes stratum re-runs
        and constraint re-checks alike.
        """
        changed: Set[str] = set(predicates)
        queue = list(changed)
        while queue:
            predicate = queue.pop()
            for dependent in self._dependents.get(predicate, ()):
                if dependent not in changed:
                    changed.add(dependent)
                    queue.append(dependent)
        return changed

    def _rebuild_point(self, affected: int, changed: Set[str]) -> Optional[int]:
        """Lowest stratum above ``affected`` that must be re-run, or None.

        A stratum must be re-run iff it negates a predicate of the changed
        closure; everything below the first such stratum is monotone in the
        new facts (respectively, sees unchanged negation references after a
        retraction) and is continued instead.
        """
        for stratum in range(affected + 1, self.n_strata):
            if self._neg_preds[stratum] & changed:
                return stratum
        return None

    def _rebuild(self, first: int) -> None:
        """Re-run strata ``first..top``: drop their derivations, evaluate cold.

        The new instance keeps every fact of the strata below ``first`` (in
        their original insertion order — ordinals of surviving facts are
        stable relative to each other) plus the accumulated EDB facts of the
        re-run strata, then the strata are materialised exactly as an
        initial run would.  Content-addressed nulls bring the unchanged
        derivations of the re-run strata back byte-identical.
        """
        with TRACER.span("delta.rebuild", first=first):
            stratum_of = self.stratification
            kept_pids = {
                TERMS.intern_constant(predicate)
                for predicate in self.instance._index.cols
                if stratum_of.get(predicate, 0) < first
            }
            instance = Instance()
            instance.load_keys(
                key for key in self.instance._keys if key[0] in kept_pids
            )
            instance.bulk_load(
                fact
                for fact in self._edb
                if stratum_of.get(fact.predicate, 0) >= first
            )
            self.instance = instance
            # The instance was swapped and the re-run strata re-derived: every
            # cached constraint verdict is suspect.
            self._constraint_cache = [None] * len(self._constraint_preds)
            self._materialise_from(first)

    def _window_delta(self, mark: int, mark_limits: Dict[str, int]) -> Instance:
        """The facts appended since ordinal ``mark``, as a delta instance."""
        delta = Instance()
        delta.load_keys(self._window_keys(mark, mark_limits))
        return delta

    def _window_keys(self, mark: int, mark_limits: Dict[str, int]) -> Iterable[Tuple[int, ...]]:
        """The keys of the facts appended since ordinal ``mark``, in order.

        ``mark_limits`` holds the per-predicate row counts captured at
        ``mark``, so the window is collected from the index's row suffixes in
        O(delta) — not by skipping ``mark`` entries of the key map, which
        would make every push pay for the whole accumulated history.  The
        session's instance is append-only, so sorting the suffix rows by
        their gid lane yields a contiguous, ascending ordinal range — the
        delta replays the appends in the order a cold run makes them.
        """
        if self.instance._counter <= mark:
            return ()
        appended: List[Tuple[int, Tuple[int, ...]]] = []
        for predicate, cols in self.instance._index.cols.items():
            pid = TERMS.intern_constant(predicate)
            for row_id in range(mark_limits.get(predicate, 0), len(cols)):
                ids = cols.row(row_id)
                if ids is not None:
                    appended.append((cols.gids[row_id], (pid, *ids)))
        appended.sort()
        return (key for _, key in appended)

    # -- retraction internals (DRed) -----------------------------------------

    def _retract_degenerate(
        self, batch_size: int, removed_edb: int, affected: int, changed: Set[str]
    ) -> RetractResult:
        """Deletion's analogue of a negation stratum re-run: over-deletion
        marked more than half the live materialisation, so drop every fact of
        strata ``>= affected`` and rebuild them cold from the surviving EDB.

        :meth:`_rebuild` already owns the machinery (fresh instance,
        constraint-cache reset, content-addressed nulls), and cold
        evaluation of the surviving EDB *is* the parity oracle — the rebuilt
        instance is byte-identical to what per-fact restoration would have
        produced, minus the 2×-or-worse cost of restoring each survivor
        individually.  ``overdeleted`` counts the facts dropped by the
        instance swap and ``rederived`` the ones the rebuild brought back
        (monotone shrinkage: the surviving EDB derives a subset of the old
        instance, so everything re-materialised was indeed dropped first).
        """
        dropped = self._facts_from(affected)
        STATS.retractions += dropped
        self._rebuild(affected)
        rederived = self._facts_from(affected)
        STATS.rederived += rederived
        collected = self._collect_nulls({}, True)
        self.retractions += 1
        return RetractResult(
            batch_size=batch_size,
            removed_edb=removed_edb,
            overdeleted=dropped,
            rederived=rederived,
            nulls_collected=collected,
            affected_stratum=affected,
            rebuilt_from=affected,
            rounds=0,
            consistent=self._check_consistent(changed),
            completed=self.completed,
            limit_reason=self.limit_reason,
        )

    def _facts_from(self, stratum: int) -> int:
        """The number of live facts of strata ``>= stratum``."""
        stratum_of = self.stratification
        return sum(
            live
            for predicate, live in self.instance._index.live.items()
            if stratum_of.get(predicate, 0) >= stratum
        )

    def _overdelete_closure(
        self, seeds: List[Atom], first: int, stop: int
    ) -> Optional[Dict[Atom, None]]:
        """Mark the downward closure of ``seeds``: every fact some derivation
        chain from a retracted fact reaches, over-approximated rule by rule.

        Pure marking — the instance is untouched until phase 2, so every
        trigger is matched against the *pre-deletion* materialisation (DRed's
        over-deletion semantics).  The negation reference is likewise the
        pre-deletion snapshot: strata in ``[first, stop)`` negate only
        predicates outside the changed closure (that is what
        :meth:`_rebuild_point` computed), so pre- and post-deletion snapshots
        agree on every predicate these rules negate.

        Returns ``None`` when the closure outgrows half the materialisation
        (checked between rounds).  On densely connected instances — a clique
        of overlapping social windows, say — almost every derived fact can be
        routed through a deleted edge, over-deletion approaches the whole
        instance, and per-fact restoration costs strictly more than
        re-evaluating the survivors cold; the caller falls back to
        :meth:`_retract_degenerate`.
        """
        marked: Dict[Atom, None] = dict.fromkeys(seeds)
        threshold = len(self.instance) // 2
        if len(marked) > threshold:
            return None
        reference = self.instance.snapshot()
        for stratum in range(first, stop):
            compiled = self.compiled_strata[stratum]
            if not compiled:
                continue
            delta = Instance()
            for fact in marked:
                delta.add(fact)
            while len(delta):
                sink = Instance()
                for crule in compiled:
                    self._overdelete_rule(crule, delta, reference, marked, sink)
                if len(marked) > threshold:
                    return None
                delta = sink
        return marked

    def _overdelete_rule(self, crule, delta, reference, marked, sink) -> None:
        """One rule's over-deletion round: mark every currently-materialised
        head fact of a trigger that reads at least one marked fact.

        Enumerates triggers exactly as ``SemiNaiveEvaluator._fire_rule`` does,
        so the marked dict's insertion order is the trigger order.
        """
        batches = crule.trigger_row_batches(self.instance, delta, reference)
        for plan, rows in batches:
            ops = crule.row_ops(plan)
            for row in rows:
                extended = self._extend_row(crule, ops, row)
                if extended is None:
                    continue
                for key in ops.head_keys_row(extended):
                    if self.instance.has_key(key):
                        atom = TERMS.decode_atom(key)
                        if atom not in marked:
                            marked[atom] = None
                            sink.add_key(key)

    def _extend_row(self, crule, ops, row):
        """Extend an over-deletion trigger row with the nulls its chase firing
        *would have* invented, looked up (never interned) by digest label.

        An unknown label proves the trigger never fired — content-addressed
        nulls make the label a pure function of (rule, frontier) — so the
        trigger derived nothing and marks nothing (return ``None``).
        Interning here would pollute the dictionary, hence
        :meth:`~repro.engine.interning.TermTable.find_null`.
        """
        if not crule.sorted_existentials:
            return row
        fresh_ids = []
        for label in null_labels(crule, ops, row):
            tid = TERMS.find_null(label)
            if tid is None:
                return None
            fresh_ids.append(tid)
        return row + tuple(fresh_ids)

    def _rederive(self, first: int, stop: int, marked: Dict[Atom, None]) -> int:
        """Phase 3 for strata ``first..stop-1``; returns the round count.

        The chase's witness repair (:meth:`_refire_chase_triggers`) can add
        facts that are not restorations — a trigger whose head only a deleted
        witness satisfied fires under its own null labels — so no marked
        fact stands for their consequences: each higher stratum continues
        from these ``fresh`` facts after its own restorations.
        """
        rounds = 0
        fresh = Instance()
        for stratum in range(first, stop):
            mark = self.instance._counter
            mark_limits = self.instance._index.row_limits()
            rounds += self._rederive_stratum(stratum, marked)
            if len(fresh) and self.compiled_strata[stratum]:
                reference = self.instance.snapshot()
                rounds += self._fixpoint(stratum, fresh, reference)
            if self.chase_engine is not None:
                fresh.load_keys(
                    key
                    for key in self._window_keys(mark, mark_limits)
                    if TERMS.decode_atom(key) not in marked
                )
        return rounds

    def _rederive_stratum(self, stratum: int, marked: Dict[Atom, None]) -> int:
        """Phase 3 for one stratum: reinsert surviving EDB, goal-directedly
        restore marked facts with alternative support, then propagate the
        restorations through the ordinary delta rounds.  Returns the round
        count of the propagation.

        The delta window is contiguous (all deletions happened before
        ``mark``; re-derived facts get strictly fresh ordinals because
        ``Instance._counter`` never rewinds), so the propagation reuses
        :meth:`_window_delta` / :meth:`_fixpoint` unchanged.
        """
        stratum_of = self.stratification
        mark = self.instance._counter
        mark_limits = self.instance._index.row_limits()
        for fact in marked:
            if (
                stratum_of.get(fact.predicate, 0) == stratum
                and fact in self._edb
            ):
                self.instance.add(fact)
        reference = self.instance.snapshot()
        self._rederive_goal_directed(stratum, marked, reference)
        if self.instance._counter > mark:
            delta = self._window_delta(mark, mark_limits)
            reference = self.instance.snapshot()
            return self._fixpoint(stratum, delta, reference)
        return 0

    def _rederive_goal_directed(
        self, stratum: int, marked: Dict[Atom, None], reference
    ) -> None:
        """Re-derive marked facts of ``stratum`` that still have alternative
        support, by unifying each against the rule heads that can produce it
        and matching the rule bodies under that binding.

        Semi-naive sessions stop at the first surviving trigger (one support
        suffices; the delta rounds propagate).  Chase sessions enumerate
        *every* trigger and re-fire each one whose head is no longer
        satisfied — this is also what restores the restricted-chase
        invariant for triggers whose head witness was over-deleted, with the
        digest nulls guaranteeing the re-invented labels match a cold chase
        of the surviving EDB whenever the trigger sets align.  This pass is
        goal-directed repair, not forward chase, so it is exempt from the
        engine's ``max_steps`` budget (``state.steps`` is not bumped).
        """
        stratum_of = self.stratification
        compiled = self.compiled_strata[stratum]
        for fact in marked:
            if stratum_of.get(fact.predicate, 0) != stratum:
                continue
            if fact in self.instance:
                # Already restored (EDB reinsert, or an earlier re-fire):
                # every trigger producing it is head-satisfied again.
                continue
            for crule in compiled:
                for head_atom in crule.rule.head:
                    if head_atom.predicate != fact.predicate:
                        continue
                    binding = unify_with_fact(head_atom, fact)
                    if binding is None:
                        continue
                    frontier_set = set(crule.sorted_frontier)
                    initial = {
                        v: t for v, t in binding.items() if v in frontier_set
                    }
                    plan = compile_body(crule.rule.body_positive, initial)
                    if self.chase_engine is not None:
                        self._refire_chase_triggers(crule, plan, initial, reference)
                    elif self._restore_seminaive(crule, plan, initial, reference):
                        break
                else:
                    continue
                break

    def _restore_seminaive(self, crule, plan, initial, reference) -> bool:
        """Fire the first surviving trigger of ``crule`` under ``initial``;
        returns True if one fired (the fact is restored)."""
        ops = crule.row_ops(plan)
        negated = crule.rule.body_negative
        for row in plan.rows(self.instance, initial):
            if negated and ops.negation_blocked_row(row, reference):
                continue
            STATS.triggers_fired += 1
            for key in ops.head_keys_row(row):
                self.instance.add_key(key)
            return True
        return False

    def _refire_chase_triggers(self, crule, plan, initial, reference) -> None:
        """Re-fire every surviving trigger of ``crule`` under ``initial``
        whose head is no longer satisfied (restricted-chase repair).

        The matches are computed before the first re-fire, as on every
        other firing path; a trigger that a re-fired fact newly enables is
        left to the delta rounds that follow."""
        ops = crule.row_ops(plan)
        negated = crule.rule.body_negative
        state = self._chase_state
        for row in plan.rows(self.instance, initial):
            if negated and ops.negation_blocked_row(row, reference):
                continue
            if ChaseEngine._head_satisfied_row(crule, ops, row, self.instance):
                continue
            if crule.sorted_existentials:
                extended = self.chase_engine._invent(crule, ops, row, state.null_depth)
                if extended is None:
                    # Too deep: a cold chase skips this trigger too.
                    if state.limit_reason is None:
                        state.limit_reason = self.chase_engine._depth_cut()
                    continue
                STATS.nulls_invented += len(crule.sorted_existentials)
                row = extended
            STATS.triggers_fired += 1
            for key in ops.head_keys_row(row):
                self.instance.add_key(key)

    def _collect_nulls(self, marked: Dict[Atom, None], rebuilt: bool) -> int:
        """Drop invented nulls no surviving fact references from the chase's
        depth bookkeeping; returns the count (0 for semi-naive sessions).

        Candidates are the odd term IDs of marked facts that stayed deleted
        — the only place references can have been lost — widened to every
        tracked null after a stratum rebuild (the rebuild swaps the whole
        instance, so any null may have died).  The dictionary entries
        themselves are retired logically here and reclaimed physically at
        the next term-table epoch (:meth:`TermTable.begin_epoch`).
        """
        if self.chase_engine is None:
            return 0
        null_depth = self._chase_state.null_depth
        candidates = {
            tid
            for fact in marked
            if fact not in self.instance
            for tid in TERMS.atom_key(fact)[1:]
            if tid & 1
        }
        if rebuilt:
            candidates.update(null_depth)
        if not candidates:
            return 0
        dead = candidates - self.instance.null_ids()
        if not dead:
            return 0
        for tid in dead:
            null_depth.pop(tid, None)
        TERMS.retire_nulls(len(dead))
        STATS.nulls_collected += len(dead)
        return len(dead)

    def _check_consistent(self, changed: Optional[Set[str]] = None) -> bool:
        """Constraint check, skipped entirely for constraint-free programs.

        With a ``changed`` closure, constraints whose body predicates are
        disjoint from it serve their cached verdict — a retraction or push
        over a handful of predicates re-evaluates only the constraints it
        can actually have flipped.  Without one, everything is recomputed.
        """
        if not self.program.constraints:
            return True
        ok = True
        for i, constraint in enumerate(self.program.constraints):
            verdict = self._constraint_cache[i]
            if (
                verdict is None
                or changed is None
                or self._constraint_preds[i] & changed
            ):
                verdict = not embeds(constraint.body, self.instance)
                self._constraint_cache[i] = verdict
            if not verdict:
                ok = False
        return ok

    @staticmethod
    def _as_fact(value) -> Atom:
        """Normalise an input fact: Atom, Triple, or ``(s, p, o)`` strings."""
        if isinstance(value, Atom):
            atom = value
        elif hasattr(value, "to_atom"):
            atom = value.to_atom()
        elif isinstance(value, tuple) and len(value) == 3:
            from repro.rdf.graph import triple_atom

            atom = triple_atom(*value)
        else:
            raise TypeError(
                "streamed facts must be Atoms, Triples, or (s, p, o) tuples; "
                f"got {value!r}"
            )
        if not atom.is_ground:
            raise ValueError(
                f"streamed facts must be ground over constants; got {atom}"
            )
        return atom


def cold_equivalent(
    session_or_program,
    database: Iterable = (),
    *,
    chase_engine: Optional[ChaseEngine] = None,
) -> SemanticsResult:
    """The cold (from-scratch) evaluation a :class:`DeltaSession` must match.

    Given a session, re-evaluates its program over its *accumulated* EDB with
    the same engine selection in one batch run — the reference side of the
    incremental parity contract, used by the differential suite and by the
    streaming benchmarks' recompute baseline.  Given a program (plus a
    database), behaves like :func:`~repro.datalog.semantics.evaluate_program`
    / :meth:`~repro.datalog.seminaive.SemiNaiveEvaluator.evaluate`, picking
    the evaluator by the same rule as :class:`DeltaSession`.
    """
    if isinstance(session_or_program, DeltaSession):
        session = session_or_program
        return cold_equivalent(
            session.program, list(session._edb), chase_engine=session.chase_engine
        )
    program = session_or_program
    if isinstance(program, str):
        from repro.datalog.parser import parse_program

        program = parse_program(program)
    if program.has_existentials or chase_engine is not None:
        return StratifiedSemantics(program, chase_engine).materialise(database)
    evaluator = SemiNaiveEvaluator(program)
    instance = evaluator.evaluate(database)
    if violates(program.constraints, instance):
        return INCONSISTENT
    return instance
