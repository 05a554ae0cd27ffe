"""Executable specifications the differential tests compare the engine against.

* :func:`reference_match_atoms` is, in behaviour, the backtracking
  homomorphism matcher that ``repro.datalog.chase.match_atoms`` implemented
  before the compiled join-plan core existed: selectivity reordering by
  constant count, substitution application per step, and per-fact
  unification.  It is deliberately simple and obviously correct, which makes
  it the reference oracle for ``tests/test_engine_parity.py`` — every
  compiled plan must produce exactly this set of substitutions.  It reads
  its candidates from ``Instance.with_predicate`` (a walk of the predicate's
  lanes), not from the postings the code under test probes.
* :func:`depth_first_rows` walks a compiled plan's steps depth-first, one
  candidate fact at a time.  It fixes the *order* the batch matcher
  (:meth:`JoinPlan.rows <repro.engine.plan.JoinPlan.rows>`) must reproduce
  row for row; the differential suites swap it in behind ``rows``.
* :func:`plan_matches` is not an oracle: it decodes a plan's ID rows into
  the substitution dicts the oracle yields, so the two can be compared.

It lives under ``tests/``, outside the ``repro`` package
(``tests/test_engine_mode_lazy.py`` checks that no ``src/repro`` module is
named ``reference``); it is quadratic-ish in all the ways the compiled core
exists to avoid.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import Atom, unify_with_fact
from repro.datalog.terms import Term, Variable
from repro.engine.interning import TERMS


def _facts_by_predicate(atoms: Sequence[Atom], instance) -> Dict[str, frozenset]:
    """Every fact of each predicate ``atoms`` mention, read once."""
    return {
        predicate: instance.with_predicate(predicate)
        for predicate in {atom.predicate for atom in atoms}
    }


def reference_match_atoms(
    atoms: Sequence[Atom],
    instance,
    initial: Optional[Dict[Variable, Term]] = None,
) -> Iterator[Dict[Variable, Term]]:
    """All homomorphisms mapping every atom of ``atoms`` into ``instance``."""
    facts = _facts_by_predicate(atoms, instance)
    substitution: Dict[Variable, Term] = dict(initial or {})
    ordered = sorted(
        atoms,
        key=lambda a: -sum(1 for t in a.terms if not isinstance(t, Variable)),
    )

    def backtrack(position: int) -> Iterator[Dict[Variable, Term]]:
        """Depth-first extension of ``substitution`` over atoms[index:]."""
        if position == len(ordered):
            yield dict(substitution)
            return
        pattern = ordered[position].apply(substitution)
        for fact in facts[pattern.predicate]:
            binding = unify_with_fact(pattern, fact)
            if binding is None:
                continue
            for variable, value in binding.items():
                substitution[variable] = value
            yield from backtrack(position + 1)
            for variable in binding:
                del substitution[variable]

    return backtrack(0)


def reference_satisfies_some(
    atoms: Sequence[Atom], instance, substitution: Dict[Variable, Term]
) -> bool:
    """True iff at least one of ``atoms`` (under ``substitution``) holds in ``instance``."""
    facts = _facts_by_predicate(atoms, instance)
    for atom in atoms:
        grounded = atom.apply(substitution)
        for fact in facts[grounded.predicate]:
            if unify_with_fact(grounded, fact) is not None:
                return True
    return False


def depth_first_rows(
    plan, source, initial=None, delta_source=None
) -> List[Tuple[int, ...]]:
    """``plan``'s matches as slot-ID tuples, found by backtracking.

    Same contract as :meth:`JoinPlan.rows <repro.engine.plan.JoinPlan.rows>`
    (term-ID seeds, delta pivot, row caps of ``source``), but each step probes the
    shortest postings bucket per partial row and verifies every field of
    the :class:`~repro.engine.batch.Step` on each candidate in turn.
    """
    index, limits = source._plan_source()
    delta = delta_source._plan_source() if delta_source is not None else None
    n_prebound = len(plan.prebound)
    base: List[Optional[int]] = [None] * n_prebound
    for variable, tid in (initial or {}).items():
        slot = plan.slot_of.get(variable)
        if slot is not None and slot < n_prebound:
            base[slot] = tid
    steps = plan.steps
    out: List[Tuple[int, ...]] = []

    def extend(depth: int, row: Tuple[int, ...]) -> None:
        """Append every completion of the partial ``row`` from ``depth`` on."""
        if depth == len(steps):
            out.append(row)
            return
        step = steps[depth]
        step_index, step_limits = delta if depth == 0 and delta is not None else (index, limits)
        cols = step_index.cols.get(step.predicate)
        if not cols:
            return
        cap = len(cols)
        if step_limits is not None:
            cap = min(cap, step_limits.get(step.predicate, 0))
        probes = step.const_pairs + tuple(
            (position, row[slot]) for position, slot in step.slot_probes
        )
        candidates = range(cap)
        for position, value in probes:
            bucket = step_index.postings.get((step.predicate, position, value), ())
            if len(bucket) < len(candidates):
                candidates = bucket
        for row_id in candidates:
            if row_id >= cap:
                break
            if cols.arities[row_id] != step.arity:
                continue
            ids = [buffer[row_id] for buffer in cols.buffers[: step.arity]]
            if all(ids[p] == value for p, value in probes) and all(
                ids[p] == ids[q] for p, q in step.intra_pairs
            ):
                extend(depth + 1, row + tuple(ids[p] for p in step.bind_positions))

    extend(0, tuple(base))
    return out


def plan_matches(
    plan, source, initial: Optional[Dict[Variable, Term]] = None
) -> List[Dict[Variable, Term]]:
    """``plan.rows(source, ...)`` decoded into one variable → term dict per row.

    ``initial`` maps the prebound variables to terms, as
    :func:`reference_match_atoms` takes them: they are seeded as term IDs
    and reported as given.  A term the table never interned seeds None,
    which equals no stored ID, so a join on it finds nothing.
    """
    initial = initial or {}
    seeds = {variable: TERMS.find_term(term) for variable, term in initial.items()}
    variables = tuple(plan.slot_of)
    term = TERMS.term
    return [
        {
            variable: initial[variable] if variable in initial else term(tid)
            for variable, tid in zip(variables, row)
        }
        for row in plan.rows(source, seeds)
    ]
