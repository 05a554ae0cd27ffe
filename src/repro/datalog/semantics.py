"""The stratified semantics ``Pi(D)`` and query evaluation (Section 3.2).

Given a database ``D`` and a stratified ``Datalog^{E,neg_s,⊥}`` program ``Pi``
with stratification ``mu: sch(Pi) -> [0, l]``, the semantics is computed as::

    S_0 = chase(D, ex(Pi)_0)
    S_i = chase(S_{i-1}, (ex(Pi)_i)^{S_{i-1}})        for i in [1, l]

If some constraint body embeds into ``S_l``, the database is inconsistent
w.r.t. the program and ``Pi(D)`` is the special value ``INCONSISTENT`` (the
paper's ⊤); otherwise ``Pi(D) = S_l``.

For a query ``Q = (Pi, p)``::

    Q(D) = INCONSISTENT                               if Pi(D) = ⊤
    Q(D) = { t in U^n | p(t) in Pi(D) }               otherwise

The associated decision problem Eval asks, given ``D``, ``Q`` and a tuple
``t``, whether ``Q(D) != ⊤`` implies ``t in Q(D)``; :func:`eval_decision`
implements exactly that convention.

:class:`StratifiedSemantics` is the one stratified chase loop, shaped like
:class:`~repro.datalog.seminaive.SemiNaiveEvaluator`: a per-stratum
``_fixpoint`` over one live instance and one
:class:`~repro.datalog.chase.ChaseState` per materialisation, which a
:class:`~repro.engine.incremental.DeltaSession` also calls.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine, ChaseState, embeds, violates
from repro.datalog.database import Instance
from repro.datalog.program import Program, Query
from repro.datalog.rules import Constraint
from repro.datalog.stratification import partition_by_stratum, stratify
from repro.datalog.terms import Constant
from repro.engine.plan import compile_rule


class _Inconsistent:
    """Singleton sentinel for the paper's ⊤ (inconsistency) value."""

    _instance: Optional["_Inconsistent"] = None

    def __new__(cls) -> "_Inconsistent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INCONSISTENT"

    def __bool__(self) -> bool:
        return False


INCONSISTENT = _Inconsistent()

SemanticsResult = Union[Instance, _Inconsistent]
QueryResult = Union[FrozenSet[Tuple[Constant, ...]], _Inconsistent]


class StratifiedSemantics:
    """Computes ``Pi(D)`` for stratified programs with existentials and ⊥."""

    def __init__(self, program: Program, chase_engine: Optional[ChaseEngine] = None):
        self.program = program
        self.chase_engine = chase_engine or ChaseEngine()
        self.stratification = stratify(program.ex())
        self.strata = partition_by_stratum(program.ex(), self.stratification)
        self.compiled_strata = [
            [compile_rule(rule) for rule in stratum] for stratum in self.strata
        ]

    def materialise(self, database: Iterable[Atom]) -> SemanticsResult:
        """Compute ``Pi(D)`` (an instance, or ``INCONSISTENT``)."""
        current = self._chase_strata(database)
        if violates(self.program.constraints, current):
            return INCONSISTENT
        return current

    def delta_session(self, database: Iterable[Atom] = ()):
        """An incremental session computing ``Pi(D)`` over a growing ``D``.

        Materialises ``database`` once with this semantics' chase engine and
        returns a :class:`~repro.engine.incremental.DeltaSession`: batches of
        new EDB facts fed to :meth:`~repro.engine.incremental.DeltaSession.push`
        resume evaluation from the affected strata only, instead of
        recomputing the stratified fixpoint from scratch.
        """
        from repro.engine.incremental import DeltaSession

        return DeltaSession(self.program, database, chase_engine=self.chase_engine)

    def _chase_strata(self, database: Iterable[Atom]) -> Instance:
        """``S_l``: the strata chased in order, constraints not yet checked.

        One live :class:`Instance` and one :class:`ChaseState` go through all
        strata, so ``max_null_depth`` counts from ``D``; each stratum's
        negation reference is a frozen snapshot of the instance.
        """
        instance = Instance(database)
        state = ChaseState()
        for number, stratum in enumerate(self.compiled_strata):
            if stratum:
                self._fixpoint(number, instance, None, instance.snapshot(), state)
        return instance

    def _fixpoint(
        self,
        stratum: int,
        instance: Instance,
        delta: Optional[Instance],
        negation_reference,
        state: ChaseState,
    ) -> int:
        """One stratum's chase on ``instance``: cold for ``delta=None``, else
        resumed from ``delta``; returns the resumed rounds (0 when cold)."""
        return self.chase_engine._run(
            instance, self.compiled_strata[stratum], delta, negation_reference, state
        ).delta_rounds

    def violated_constraints(self, database: Iterable[Atom]) -> List[Constraint]:
        """The constraints violated by ``database`` under the program (diagnostics)."""
        current = self._chase_strata(database)
        return [c for c in self.program.constraints if embeds(c.body, current)]


def evaluate_program(
    program: Program,
    database: Iterable[Atom],
    chase_engine: Optional[ChaseEngine] = None,
) -> SemanticsResult:
    """Convenience wrapper around :class:`StratifiedSemantics`."""
    return StratifiedSemantics(program, chase_engine).materialise(database)


def evaluate_query(
    query: Query,
    database: Iterable[Atom],
    chase_engine: Optional[ChaseEngine] = None,
) -> QueryResult:
    """Compute ``Q(D)``: the set of constant tuples in the output predicate, or ⊤."""
    materialised = evaluate_program(query.program, database, chase_engine)
    if materialised is INCONSISTENT:
        return INCONSISTENT
    return ground_answers(materialised, query.output_predicate)


def ground_answers(instance: Instance, predicate: str) -> FrozenSet[Tuple[Constant, ...]]:
    """``{ t in U^n | p(t) in I }``: the null-free tuples of ``predicate``."""
    return frozenset(
        tuple(atom.terms)  # type: ignore[misc]
        for atom in instance.with_predicate(predicate)
        if atom.is_ground
    )


def eval_decision(
    query: Query,
    database: Iterable[Atom],
    candidate: Sequence[Constant],
    chase_engine: Optional[ChaseEngine] = None,
) -> bool:
    """The decision problem Eval: does ``Q(D) != ⊤`` imply ``t in Q(D)``?"""
    result = evaluate_query(query, database, chase_engine)
    if result is INCONSISTENT:
        return True
    return tuple(candidate) in result
