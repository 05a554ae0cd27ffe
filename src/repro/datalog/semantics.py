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

:class:`StratifiedSemantics` is a
:class:`~repro.datalog.seminaive.SemiNaiveEvaluator` whose per-stratum
fixpoint fires through the restricted chase
(:class:`~repro.datalog.chase.ChaseEngine`): the same stratum and round
loops over one live instance, with one
:class:`~repro.datalog.chase.ChaseState` per materialisation, which a
:class:`~repro.engine.incremental.DeltaSession` also threads through its
calls.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine, ChaseState, embeds, violates
from repro.datalog.database import Instance
from repro.datalog.program import Program, Query
from repro.datalog.rules import Constraint
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.terms import Constant


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


class StratifiedSemantics(SemiNaiveEvaluator):
    """Computes ``Pi(D)`` for stratified programs with existentials and ⊥."""

    def __init__(self, program: Program, chase_engine: Optional[ChaseEngine] = None):
        super().__init__(program)
        self.chase_engine = chase_engine or ChaseEngine()

    def materialise(self, database: Iterable[Atom]) -> SemanticsResult:
        """Compute ``Pi(D)`` (an instance, or ``INCONSISTENT``)."""
        current = self.evaluate(database)
        if violates(self.program.constraints, current):
            return INCONSISTENT
        return current

    def evaluate(self, database: Iterable[Atom]) -> Instance:
        """``S_l``: the strata chased in order, constraints not yet checked.

        One :class:`ChaseState` goes through all strata, so
        ``max_null_depth`` counts from ``D``.
        """
        instance = Instance(database)
        self._run_strata(instance, ChaseState())
        return instance

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

    def violated_constraints(self, database: Iterable[Atom]) -> List[Constraint]:
        """The constraints violated by ``database`` under the program (diagnostics)."""
        current = self.evaluate(database)
        return [c for c in self.program.constraints if embeds(c.body, current)]

    @staticmethod
    def _admit(program: Program) -> None:
        """Every rule is admitted: the chase invents nulls for existentials."""

    def _fixpoint(self, stratum, instance, delta, negation_reference, state) -> int:
        """One stratum's chase under ``state``: cold for ``delta=None``, else
        resumed from ``delta``; returns the resumed rounds (0 when cold)."""
        compiled = self.compiled_strata[stratum]
        return self.chase_engine._run_fixpoint(
            compiled, instance, delta, negation_reference, state
        ).delta_rounds


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
