"""The chase procedure for Datalog with existential quantification.

The chase (Section 3.2) exhaustively applies rules to a database, inventing
labelled nulls for existential head variables.  There is one chase: the
**restricted** chase (a rule application is skipped when the head is already
satisfied by extending the triggering homomorphism), whose nulls are named
by a digest of (rule, frontier binding, existential variable)
(:func:`null_labels`), so the same trigger invents the same null in every
run, incremental or cold, and in the warded engine too.

The chase of a Datalog∃ program may in general be infinite, so the engine
takes explicit resource bounds (``max_steps`` and ``max_null_depth``) and
either stops gracefully or raises :class:`ChaseNonTermination`, as requested.

Negation is handled the way the stratified semantics needs it: a trigger is
discarded when one of its negative body atoms is satisfied in a frozen
*negation reference* (this realises the indefinite grounding ``Pi^I`` of
Section 3.2).  The stratum loop lives in
:class:`~repro.datalog.semantics.StratifiedSemantics`.

The chase is not a loop of its own: it is a firing function of the shared
semi-naive round loop (:func:`~repro.datalog.seminaive.fixpoint`).  A cold
:meth:`ChaseEngine.chase` is a :meth:`ChaseEngine.resume` whose first round
runs the full plans; every round fires from the slot-ID rows
:meth:`~repro.engine.plan.CompiledRule.trigger_row_batches` returns, with
negation pre-filtered in bulk.  The firing adds the restricted chase's head
check, the step budget, null invention and the depth cut.
:func:`embeds` and :func:`violates` answer constraint checks on the same
plans, without decoding a row.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.database import Instance
from repro.datalog.program import Program
from repro.datalog.rules import Constraint, Rule
from repro.datalog.seminaive import fixpoint
from repro.datalog.terms import Constant, Null, Term
from repro.engine.interning import TERMS
from repro.engine.plan import compile_body, compile_rule
from repro.engine.stats import STATS
from repro.obs.trace import TRACER


class ChaseNonTermination(RuntimeError):
    """Raised when a resource bound is exceeded and ``on_limit='raise'``."""


@dataclass
class ChaseResult:
    """Outcome of a chase run."""

    instance: Instance
    steps: int
    completed: bool
    limit_reason: Optional[str] = None
    invented_nulls: int = 0
    #: Delta rounds executed by :meth:`ChaseEngine.resume` (0 for full runs).
    delta_rounds: int = 0

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.instance)


@dataclass
class ChaseState:
    """Bookkeeping one materialisation threads through all its chase calls.

    :class:`~repro.datalog.semantics.StratifiedSemantics` hands one state to
    every stratum, and a :class:`~repro.engine.incremental.DeltaSession` to
    every cold stratum, continuation and re-derivation, so null depths count
    from the database across strata and batches, and the session can report
    its lifetime step total and first resource limit.  The ``max_steps``
    budget stays *per call*: each push gets a fresh allowance — bounding a
    runaway program without an ever-growing total eventually bricking a
    long-lived stream — while ``steps`` accumulates for reporting.
    """

    #: Invention depth of every null invented so far (any other null, such
    #: as an input's, has depth 0), keyed by the null's dictionary-encoded
    #: term ID (:mod:`repro.engine.interning`) — a slot value tests as a
    #: null with one bit operation in the trigger loops.
    null_depth: Dict[int, int] = field(default_factory=dict)
    #: Cumulative restricted-chase steps fired under this state (reporting
    #: only; the per-call budget does not read it).
    steps: int = 0
    #: The first resource limit a stop-mode run under this state hit; None
    #: while every run completed.
    limit_reason: Optional[str] = None


#: Rule -> stable textual signature, the null-label key component.
#: Cached because resumable sessions re-enter the chase once per push per
#: stratum, and re-serialising every rule each time is pure waste (rules are
#: immutable and hash by content, like the plan caches' keys).
_SIGNATURE_CACHE: Dict[Rule, str] = {}


def _rule_signature(rule: Rule) -> str:
    """The cached ``str(rule)`` used in null-label keys."""
    signature = _SIGNATURE_CACHE.get(rule)
    if signature is None:
        if len(_SIGNATURE_CACHE) >= 4096:
            _SIGNATURE_CACHE.clear()
        signature = _SIGNATURE_CACHE[rule] = str(rule)
    return signature


def null_labels(crule, ops, row) -> List[str]:
    """The labels of the nulls a firing of ``crule`` on trigger ``row`` invents.

    One per existential, in ``sorted_existentials`` order: ``_:d`` plus a
    digest of (rule, existential, frontier binding) — a pure function of the
    trigger, so DRed's over-deletion can look a label up without interning.
    """
    signature = _rule_signature(crule.rule)
    frontier = "".join(
        f"{len(part)}:{part}"
        for part in map(
            _term_key, TERMS.decode(row[slot] for _, slot in ops.frontier_slots)
        )
    )
    labels = []
    for existential in crule.sorted_existentials:
        name = existential.name
        key = f"{len(signature)}:{signature}{len(name)}:{name}{frontier}"
        labels.append("_:d" + hashlib.sha1(key.encode("utf-8")).hexdigest()[:16])
    return labels


def _term_key(value: Term) -> str:
    """A stable, collision-free serialisation of a ground term (nulls allowed).

    Length-prefixed (netstring style): term values are arbitrary strings, so
    separator characters alone could let two distinct frontiers serialise
    identically; a prefix-free encoding cannot alias.  Null-label keys must be
    **content**-addressed — never ID-addressed — because term IDs depend on
    per-process interning order while the labels must stay byte-stable
    across pushes, re-runs, and processes; a trigger row's frontier IDs are
    therefore decoded back to terms before keying.
    """
    if isinstance(value, Constant):
        return f"c{len(value.value)}:{value.value}"
    if isinstance(value, Null):
        return f"n{len(value.label)}:{value.label}"
    raise TypeError(f"frontier values must be ground terms, got {value!r}")


def embeds(atoms: Sequence[Atom], instance) -> bool:
    """True iff some homomorphism maps every atom of ``atoms`` into ``instance``.

    The constraint check of every engine: :meth:`JoinPlan.exists
    <repro.engine.plan.JoinPlan.exists>` over the body's cached plan.
    """
    return compile_body(atoms).exists(instance)


def violates(constraints: Iterable[Constraint], instance) -> bool:
    """True iff some constraint body embeds into ``instance`` (the paper's ⊤)."""
    return any(embeds(constraint.body, instance) for constraint in constraints)


class ChaseEngine:
    """The restricted chase for Datalog∃ programs (optionally with negation)."""

    def __init__(
        self,
        max_steps: int = 200_000,
        max_null_depth: Optional[int] = None,
        on_limit: str = "raise",
    ):
        """``max_steps`` caps the triggers one call fires, ``max_null_depth``
        a null's invention depth (inputs have 0); ``on_limit`` is ``'raise'``
        (:class:`ChaseNonTermination`) or ``'stop'`` (``completed=False``)."""
        if on_limit not in ("raise", "stop"):
            raise ValueError("on_limit must be 'raise' or 'stop'")
        self.max_steps = max_steps
        self.max_null_depth = max_null_depth
        self.on_limit = on_limit

    # -- public API ------------------------------------------------------------

    def chase(
        self,
        database: Iterable[Atom],
        program: Program,
        negation_reference: Optional[Instance] = None,
        *,
        state: Optional[ChaseState] = None,
    ) -> ChaseResult:
        """Run the chase of ``program`` over a copy of ``database``.

        ``negation_reference`` is the instance against which negated body
        atoms are evaluated (the previous stratum's result under the
        stratified semantics).  When omitted, it is a snapshot of
        ``database``, which is correct for programs whose negated predicates
        are never derived within the same run.

        ``state`` carries bookkeeping across calls (:class:`ChaseState`):
        when supplied, the null-depth map is read from and written back to it
        and the lifetime step total accumulates onto it.  The ``max_steps``
        budget stays per call.
        """
        # Copy into a plain Instance: the working set may receive nulls even
        # when the input is a (constants-only) Database, and the caller's
        # input must stay untouched.  A cold run is a resume from "everything
        # is new": its first round runs every rule's full plan.
        return self.resume(Instance(database), program, None, negation_reference, state=state)

    def resume(
        self,
        instance: Instance,
        program: Program,
        delta: Optional[Instance],
        negation_reference: Optional[Instance] = None,
        *,
        state: Optional[ChaseState] = None,
    ) -> ChaseResult:
        """Continue a completed chase after new facts were appended.

        ``instance`` is the live result of an earlier chase of ``program``
        that has since received new facts; ``delta`` holds exactly those new
        facts (they must already be present in ``instance``; ``None`` runs
        a cold chase of ``instance``).  Instead of re-enumerating every rule
        body, each round runs only the semi-naive pivot plans against the
        current delta — sound for the restricted chase because a trigger not
        seen before must read at least one new fact, previously skipped
        triggers stay skipped (their heads remain satisfied: facts are never
        deleted), and previously fired triggers would be skipped again for
        the same reason.

        Negated body atoms are read from ``negation_reference`` (default: a
        snapshot of ``instance``) exactly as in :meth:`chase`.  ``state``
        (:class:`ChaseState`) carries the null-depth map and the lifetime
        step total from the initial run (the ``max_steps`` budget is per
        call).

        Returns a :class:`ChaseResult` whose ``steps`` / ``invented_nulls``
        count this continuation and whose ``delta_rounds`` reports the
        rounds executed.
        """
        if negation_reference is None:
            negation_reference = instance.snapshot()
        compiled = [compile_rule(rule) for rule in program.rules]
        return self._run_fixpoint(
            compiled, instance, delta, negation_reference, state or ChaseState()
        )

    def _run_fixpoint(self, compiled, instance, delta, negation_reference, state) -> ChaseResult:
        """One chase fixpoint of ``compiled`` on ``instance`` (cold for
        ``delta=None``): the shared :func:`~repro.datalog.seminaive.fixpoint`
        firing through :class:`_ChaseFiring`, which ``max_steps`` leaves mid-round.
        A stop-mode limit is also recorded on ``state`` unless an earlier one is.
        """
        fire = _ChaseFiring(self, state)
        run_start = time.perf_counter_ns() if TRACER.enabled else 0
        try:
            rounds = fixpoint(
                compiled, instance, delta, negation_reference, fire, fire.begin_round
            )
        except _StepBudgetSpent:
            rounds = fire.rounds
        fire.end_round()
        if TRACER.enabled:
            TRACER.record(
                "chase.run" if delta is None else "chase.resume",
                run_start,
                steps=fire.steps,
                invented=fire.invented,
                rounds=rounds,
            )
        STATS.nulls_invented += fire.invented
        state.steps += fire.steps
        if fire.limit_reason and self.on_limit == "raise":
            raise ChaseNonTermination(fire.limit_reason)
        limit_reason = fire.limit_reason or fire.depth_cut
        if state.limit_reason is None:
            state.limit_reason = limit_reason
        return ChaseResult(
            instance=instance,
            steps=fire.steps,
            completed=limit_reason is None,
            limit_reason=limit_reason,
            invented_nulls=fire.invented,
            delta_rounds=0 if delta is None else rounds,
        )

    # -- helpers ------------------------------------------------------------------

    def _invent(self, crule, ops, row, null_depth: Dict[int, int]):
        """``row`` plus the IDs of the nulls its firing invents (depths noted
        in ``null_depth``), or None past ``max_null_depth`` (raise mode raises)."""
        depth = self._values_depth_ids(row, null_depth) + 1
        if self.max_null_depth is not None and depth > self.max_null_depth:
            if self.on_limit == "raise":
                raise ChaseNonTermination(self._depth_cut())
            return None
        fresh_ids = tuple(TERMS.intern_null(label) for label in null_labels(crule, ops, row))
        for nid in fresh_ids:
            null_depth[nid] = depth
        return row + fresh_ids

    def _depth_cut(self) -> str:
        """The limit reason a skipped too-deep trigger records."""
        return f"max_null_depth={self.max_null_depth} exceeded"

    @staticmethod
    def _head_satisfied_row(crule, ops, row, instance) -> bool:
        """Row-level restricted-chase head check.

        Existential-free heads reduce to encoded-key membership of the
        instantiated head atoms (no Atom built); existential heads seed the
        precompiled head plan with just the frontier slot IDs.
        """
        if crule.head_plan is None:
            has_key = instance.has_key
            for key in ops.head_keys_row(row):
                if not has_key(key):
                    return False
            return True
        initial = {variable: row[slot] for variable, slot in ops.frontier_slots}
        return crule.head_plan.exists(instance, initial)

    @staticmethod
    def _values_depth_ids(ids, null_depth: Dict[int, int]) -> int:
        """Max invention depth over slot IDs — null test is one bit op."""
        depth = 0
        for tid in ids:
            if tid & 1:
                depth = max(depth, null_depth.get(tid, 0))
        return depth


class _StepBudgetSpent(Exception):
    """``max_steps`` reached: ends the shared loop mid-round; the chase catches it."""


class _ChaseFiring:
    """The restricted chase as a firing function: one per fixpoint call.

    Per trigger row (negation already filtered against the frozen
    reference): a trigger whose head is satisfied is skipped — which also
    stops a pivot plan re-firing a first-round trigger; past the step budget
    the loop ends (:class:`_StepBudgetSpent`); a trigger that would invent a
    too-deep null is skipped and noted in ``depth_cut``.  The loop's round
    hook (:meth:`begin_round`) closes one ``chase.round`` event and opens
    the next, so each round's ``seminaive.rule`` records lie inside it.
    """

    def __init__(self, engine: ChaseEngine, state: ChaseState):
        self.engine = engine
        self.null_depth = state.null_depth
        self.steps = self.invented = self.rounds = 0
        self.limit_reason: Optional[str] = None
        self.depth_cut: Optional[str] = None
        self._round_start = self._round_steps = 0

    def __call__(self, crule, instance, negation_reference, delta_sink, delta) -> None:
        engine = self.engine
        add_key = instance.add_key
        sink_add = delta_sink.add_key
        for plan, rows in crule.trigger_row_batches(instance, delta, negation_reference):
            ops = crule.row_ops(plan)
            for trigger in rows:
                if engine._head_satisfied_row(crule, ops, trigger, instance):
                    continue
                if self.steps >= engine.max_steps:
                    self.limit_reason = f"max_steps={engine.max_steps} exceeded"
                    raise _StepBudgetSpent
                extended = trigger
                if crule.sorted_existentials:
                    # Only a trigger that invents nulls has a depth.
                    extended = engine._invent(crule, ops, trigger, self.null_depth)
                    if extended is None:
                        self.depth_cut = engine._depth_cut()
                        continue
                    self.invented += len(crule.sorted_existentials)
                self.steps += 1
                STATS.triggers_fired += 1
                for key in ops.head_keys_row(extended):
                    if add_key(key):
                        sink_add(key)

    def begin_round(self) -> None:
        """Record the finished round (if any) and open the next one."""
        self.end_round()
        self.rounds += 1
        if TRACER.enabled:
            self._round_start = time.perf_counter_ns()
            self._round_steps = self.steps

    def end_round(self) -> None:
        """Record the round in progress as a ``chase.round`` event (when traced)."""
        if self.rounds and TRACER.enabled:
            TRACER.record(
                "chase.round",
                self._round_start,
                round=self.rounds,
                steps=self.steps - self._round_steps,
            )
