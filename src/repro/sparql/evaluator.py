"""The SPARQL evaluation function ``⟦P⟧_G`` (Section 3.1), ID-native.

The semantics is defined recursively on the pattern structure:

1. basic graph patterns: all mappings ``mu`` with ``dom(mu) = var(P)`` such
   that some assignment ``h: B -> U`` of the blank nodes makes
   ``mu(h(P)) ⊆ G``;
2. ``⟦P1 AND P2⟧ = ⟦P1⟧ ⋈ ⟦P2⟧``;
3. ``⟦P1 UNION P2⟧ = ⟦P1⟧ ∪ ⟦P2⟧``;
4. ``⟦P1 OPT P2⟧ = ⟦P1⟧ ⟕ ⟦P2⟧``;
5. ``⟦P FILTER R⟧ = { mu ∈ ⟦P⟧ | mu ⊨ R }``;
6. ``⟦SELECT W P⟧ = { mu|_W | mu ∈ ⟦P⟧ }``.

The evaluation core runs on the engine's interned term IDs
(:mod:`repro.engine.interning`): an *ID mapping* is a frozenset of
``(Variable, tid)`` pairs, triple matching probes flat int rows, and the
whole algebra (join/union/minus/left-outer-join, built-in conditions)
compares ints.  Terms are decoded back into boxed
:class:`~repro.sparql.mappings.Mapping` objects only at the result boundary
(:func:`decode_id_mappings`).  The BGP case reads triples through a
``scan(pairs)`` callable, and every scan is the engine's
:meth:`~repro.engine.index.PredicateIndex.scan_ids`:

* :func:`evaluate_pattern` / :func:`evaluate_bgp` (``⟦P⟧_G``) load
  ``tau_db(G)`` into a fresh index per call and scan its ``triple`` rows;
  nothing is cached on the graph;
* the entailment-regime view
  (:func:`repro.translation.entailment_regime.evaluate_view_ids`, and
  through it the query service) scans the ``triple1`` rows of a
  materialized ``Instance`` or frozen ``InstanceSnapshot``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union as TypingUnion

from repro.datalog.terms import Null, Variable
from repro.engine.index import PredicateIndex
from repro.engine.interning import TERMS
from repro.rdf.graph import TRIPLE_PREDICATE, RDFGraph
from repro.sparql.ast import (
    And,
    AndCondition,
    BGP,
    Bound,
    Condition,
    EqualsConstant,
    EqualsVariable,
    Filter,
    GraphPattern,
    Not,
    Opt,
    OrCondition,
    Select,
    TriplePattern,
    Union,
)
from repro.sparql.mappings import Mapping

#: An ID mapping: ``mu`` as a hashable set of (variable, term-ID) pairs.
IdMapping = FrozenSet[Tuple[Variable, int]]

#: ``mu_∅`` in ID form.
EMPTY_ID_MAPPING: IdMapping = frozenset()


# ---------------------------------------------------------------------------
# Basic graph patterns, ID-native
# ---------------------------------------------------------------------------

_Binder = TypingUnion[Variable, Null]


def _pattern_slots(pattern: TriplePattern) -> Optional[Tuple[object, object, object]]:
    """Per-position ``tid`` (bound constant) or binder object, or None.

    ``None`` means a pattern constant was never interned, so the pattern
    cannot match any stored fact.
    """
    slots: List[object] = []
    find = TERMS.find_term
    for term in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(term, (Variable, Null)):
            slots.append(term)
        else:
            tid = find(term)
            if tid is None:
                return None
            slots.append(tid)
    return tuple(slots)


def evaluate_bgp_ids(
    bgp: BGP,
    scan: Callable[[Sequence[Tuple[int, int]]], Iterable[Tuple[int, ...]]],
    guard: Optional[Callable[[_Binder, int], bool]] = None,
    empty_bgp_result: bool = True,
) -> Set[IdMapping]:
    """Case (1) of the semantics on interned IDs.

    ``scan(pairs)`` yields the stored triple ID rows matching the bound
    ``(position, tid)`` pairs.  ``guard`` (optional) vets every fresh binder
    binding — the entailment regimes pass active-domain membership here, so
    guardedness is enforced during matching instead of by post-filtering.
    ``empty_bgp_result`` decides ``⟦{}⟧``: True for the plain semantics
    (always ``{mu_∅}``), while the entailment translation makes the empty
    BGP contingent on a non-empty domain.
    """
    if not bgp.patterns:
        return {EMPTY_ID_MAPPING} if empty_bgp_result else set()
    bindings: List[Dict[_Binder, int]] = [{}]
    for pattern in bgp.patterns:
        slots = _pattern_slots(pattern)
        if slots is None:
            return set()
        extended: List[Dict[_Binder, int]] = []
        for binding in bindings:
            pairs: List[Tuple[int, int]] = []
            binders: List[Tuple[int, _Binder]] = []
            for position, slot in enumerate(slots):
                if type(slot) is int:
                    pairs.append((position, slot))
                else:
                    tid = binding.get(slot)
                    if tid is None:
                        binders.append((position, slot))
                    else:
                        pairs.append((position, tid))
            for row in scan(pairs):
                extension = dict(binding)
                consistent = True
                for position, binder in binders:
                    tid = row[position]
                    bound = extension.get(binder)
                    if bound is None:
                        if guard is not None and not guard(binder, tid):
                            consistent = False
                            break
                        extension[binder] = tid
                    elif bound != tid:
                        consistent = False
                        break
                if consistent:
                    extended.append(extension)
        bindings = extended
        if not bindings:
            return set()
    variables = bgp.variables()
    return {
        frozenset(
            (binder, tid)
            for binder, tid in binding.items()
            if isinstance(binder, Variable) and binder in variables
        )
        for binding in bindings
    }


# ---------------------------------------------------------------------------
# The mapping algebra on ID mappings
# ---------------------------------------------------------------------------


def _merge_ids(base: Dict[Variable, int], other: IdMapping) -> Optional[IdMapping]:
    """``mu1 ∪ mu2`` if compatible, else None."""
    merged = dict(base)
    for variable, tid in other:
        bound = merged.get(variable)
        if bound is None:
            merged[variable] = tid
        elif bound != tid:
            return None
    return frozenset(merged.items())


def join_ids(first: Set[IdMapping], second: Set[IdMapping]) -> Set[IdMapping]:
    """``Omega1 ⋈ Omega2`` on ID mappings."""
    result: Set[IdMapping] = set()
    for mu1 in first:
        base = dict(mu1)
        for mu2 in second:
            merged = _merge_ids(base, mu2)
            if merged is not None:
                result.add(merged)
    return result


def minus_ids(first: Set[IdMapping], second: Set[IdMapping]) -> Set[IdMapping]:
    """``Omega1 ∖ Omega2``: mappings compatible with no mapping of Omega2."""
    result: Set[IdMapping] = set()
    for mu1 in first:
        base = dict(mu1)
        if all(_merge_ids(base, mu2) is None for mu2 in second):
            result.add(mu1)
    return result


def left_outer_join_ids(first: Set[IdMapping], second: Set[IdMapping]) -> Set[IdMapping]:
    """``Omega1 ⟕ Omega2 = (Omega1 ⋈ Omega2) ∪ (Omega1 ∖ Omega2)``."""
    return join_ids(first, second) | minus_ids(first, second)


def satisfies_ids(binding: Dict[Variable, int], condition: Condition) -> bool:
    """``mu ⊨ R`` on an ID mapping (as a dict)."""
    if isinstance(condition, Bound):
        return condition.variable in binding
    if isinstance(condition, EqualsConstant):
        tid = binding.get(condition.variable)
        return tid is not None and tid == TERMS.find_term(condition.constant)
    if isinstance(condition, EqualsVariable):
        left = binding.get(condition.left)
        right = binding.get(condition.right)
        return left is not None and right is not None and left == right
    if isinstance(condition, Not):
        return not satisfies_ids(binding, condition.condition)
    if isinstance(condition, OrCondition):
        return satisfies_ids(binding, condition.left) or satisfies_ids(binding, condition.right)
    if isinstance(condition, AndCondition):
        return satisfies_ids(binding, condition.left) and satisfies_ids(binding, condition.right)
    raise TypeError(f"unknown built-in condition {condition!r}")


def evaluate_pattern_ids(
    pattern: GraphPattern,
    bgp_evaluator: Callable[[BGP], Set[IdMapping]],
) -> Set[IdMapping]:
    """``⟦P⟧`` on interned IDs, parameterised by the BGP base case.

    The recursion over AND/UNION/OPT/FILTER/SELECT is shared between the
    plain graph semantics and the entailment-regime view; only the basic
    graph pattern case differs (triple source + guards), so callers inject
    it.
    """
    if isinstance(pattern, BGP):
        return bgp_evaluator(pattern)
    if isinstance(pattern, And):
        return join_ids(
            evaluate_pattern_ids(pattern.left, bgp_evaluator),
            evaluate_pattern_ids(pattern.right, bgp_evaluator),
        )
    if isinstance(pattern, Union):
        return evaluate_pattern_ids(pattern.left, bgp_evaluator) | evaluate_pattern_ids(
            pattern.right, bgp_evaluator
        )
    if isinstance(pattern, Opt):
        return left_outer_join_ids(
            evaluate_pattern_ids(pattern.left, bgp_evaluator),
            evaluate_pattern_ids(pattern.right, bgp_evaluator),
        )
    if isinstance(pattern, Filter):
        return {
            mapping
            for mapping in evaluate_pattern_ids(pattern.pattern, bgp_evaluator)
            if satisfies_ids(dict(mapping), pattern.condition)
        }
    if isinstance(pattern, Select):
        allowed = {
            v if isinstance(v, Variable) else Variable(v) for v in pattern.projection
        }
        return {
            frozenset((v, tid) for v, tid in mapping if v in allowed)
            for mapping in evaluate_pattern_ids(pattern.pattern, bgp_evaluator)
        }
    raise TypeError(f"unknown graph pattern {pattern!r}")


# ---------------------------------------------------------------------------
# The result boundary
# ---------------------------------------------------------------------------


def decode_id_mappings(id_mappings: Iterable[IdMapping]) -> Set[Mapping]:
    """Decode ID mappings into boxed :class:`Mapping` objects (result boundary)."""
    term = TERMS.term
    return {
        Mapping({variable: term(tid) for variable, tid in mapping})
        for mapping in id_mappings
    }


# ---------------------------------------------------------------------------
# The classic decoded entry points (⟦P⟧_G over an RDFGraph)
# ---------------------------------------------------------------------------


def satisfies(mapping: Mapping, condition: Condition) -> bool:
    """``mu ⊨ R`` for built-in conditions (Section 3.1), on boxed mappings."""
    if isinstance(condition, Bound):
        return condition.variable in mapping
    if isinstance(condition, EqualsConstant):
        value = mapping.get(condition.variable)
        return value is not None and value == condition.constant
    if isinstance(condition, EqualsVariable):
        left = mapping.get(condition.left)
        right = mapping.get(condition.right)
        return left is not None and right is not None and left == right
    if isinstance(condition, Not):
        return not satisfies(mapping, condition.condition)
    if isinstance(condition, OrCondition):
        return satisfies(mapping, condition.left) or satisfies(mapping, condition.right)
    if isinstance(condition, AndCondition):
        return satisfies(mapping, condition.left) and satisfies(mapping, condition.right)
    raise TypeError(f"unknown built-in condition {condition!r}")


def _graph_scan(
    graph: RDFGraph,
) -> Callable[[Sequence[Tuple[int, int]]], Iterable[Tuple[int, ...]]]:
    """The ``scan`` of ``tau_db(G)``, loaded into a fresh engine index.

    The rows land in a bare :class:`PredicateIndex` rather than an
    :class:`~repro.datalog.database.Instance`, whose load would count in the
    engine's ``facts_added``: evaluating a pattern materializes nothing.
    """
    intern = TERMS.intern_term
    rows = [(intern(t.subject), intern(t.predicate), intern(t.object)) for t in graph]
    index = PredicateIndex()
    index.add_bulk(TRIPLE_PREDICATE, rows, range(len(rows)))
    return lambda pairs: index.scan_ids(TRIPLE_PREDICATE, 3, pairs)


def evaluate_bgp(bgp: BGP, graph: RDFGraph) -> Set[Mapping]:
    """Case (1) of the semantics: basic graph patterns (decoded boundary)."""
    return decode_id_mappings(evaluate_bgp_ids(bgp, _graph_scan(graph)))


def evaluate_pattern(pattern: GraphPattern, graph: RDFGraph) -> Set[Mapping]:
    """``⟦P⟧_G``: the set of mappings resulting from evaluating ``P`` over ``G``."""
    scan = _graph_scan(graph)
    return decode_id_mappings(
        evaluate_pattern_ids(pattern, lambda bgp: evaluate_bgp_ids(bgp, scan))
    )
