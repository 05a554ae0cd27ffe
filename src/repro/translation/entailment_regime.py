"""SPARQL under the OWL 2 QL core direct-semantics entailment regime (Sections 5.2-5.3).

Given a graph pattern ``P``, the paper defines two TriQ-Lite 1.0 queries:

* ``P^U_dat   = (tau_owl2ql_core ∪ tau^U_bgp(P)   ∪ tau_opr(P) ∪ tau_out(P), answer_P)``
  — the OWL 2 QL core direct-semantics entailment regime with the *active
  domain* restriction (every variable and blank node takes values among the
  URIs of the graph);
* ``P^All_dat = (tau_owl2ql_core ∪ tau^All_bgp(P) ∪ tau_opr(P) ∪ tau_out(P), answer_P)``
  — the more natural semantics of Section 5.3, where blank nodes are
  existential and may be witnessed by anonymous individuals invented by the
  ontology's existential axioms.

Theorem 5.3 states ``⟦P⟧^U_G = ⟦(P^U_dat, tau_db(G))⟧`` and Definition 5.5
*defines* ``⟦P⟧^All_G`` as ``⟦(P^All_dat, tau_db(G))⟧``.  Corollaries 5.4 and
6.2 observe that both queries are TriQ 1.0 and indeed TriQ-Lite 1.0 queries;
:func:`entailment_regime_query` returns them as validated
:class:`repro.core.TriQLiteQuery` objects.

Two evaluation strategies implement the same semantics:

* :func:`evaluate_under_entailment` — the paper-literal route: build the
  full translated program (core ∪ query rules) and run it through the warded
  engine.  One materialization *per query*; this is the differential oracle.
* the **materialized view** route — materialize ``tau_owl2ql_core`` over
  ``tau_db(G)`` *once* (:class:`EntailmentView`, or the query service's
  :class:`~repro.engine.incremental.DeltaSession`), then answer each pattern
  by evaluating the SPARQL mapping algebra directly over the instance's
  interned ``triple1`` rows with active-domain guards
  (:func:`evaluate_view_ids`).  This is sound and complete because the
  translation's query rules never feed back into the core predicates: every
  ``query^S_P`` rule is exactly one algebra operation over the core-chased
  ``triple1``/``C``, and a universal model answers those (C-guarded, or
  existentially projected) conjunctive parts identically whichever chase
  produced it.  Answers are byte-identical to the oracle — the parity suite
  asserts it — while each query skips re-chasing the ontology and decodes
  only at the result boundary.
"""

from __future__ import annotations

from typing import Set, Tuple, Union

from repro.core.triqlite import TriQLiteQuery
from repro.datalog.semantics import INCONSISTENT
from repro.datalog.terms import Constant, Variable
from repro.engine.interning import TERMS
from repro.owl.entailment_rules import owl2ql_core_program
from repro.rdf.graph import RDFGraph
from repro.sparql.ast import BGP, GraphPattern, Select
from repro.sparql.evaluator import (
    IdMapping,
    decode_id_mappings,
    evaluate_bgp_ids,
    evaluate_pattern_ids,
)
from repro.sparql.mappings import Mapping
from repro.sparql.parser import SelectQuery, parse_sparql
from repro.translation.answers import decode_answers
from repro.translation.sparql_to_datalog import (
    ENTAILMENT_ALL,
    ENTAILMENT_U,
    TRIPLE,
    TRIPLE1,
    ACTIVE_DOMAIN,
    DatalogTranslation,
    SPARQLToDatalogTranslator,
)

#: The two entailment-regime flavours.
EntailmentMode = str
ACTIVE_DOMAIN_MODE: EntailmentMode = "U"
ALL_MODE: EntailmentMode = "All"


def translate_under_entailment(
    pattern: Union[str, GraphPattern, SelectQuery],
    mode: EntailmentMode = ACTIVE_DOMAIN_MODE,
    answer_predicate: str = "answer",
) -> DatalogTranslation:
    """Build ``P^U_dat`` or ``P^All_dat`` (program includes ``tau_owl2ql_core``)."""
    translator_mode = ENTAILMENT_U if mode == ACTIVE_DOMAIN_MODE else ENTAILMENT_ALL
    if mode not in (ACTIVE_DOMAIN_MODE, ALL_MODE):
        raise ValueError(f"unknown entailment mode {mode!r}; expected 'U' or 'All'")
    translation = SPARQLToDatalogTranslator(translator_mode).translate(
        pattern, answer_predicate
    )
    program = owl2ql_core_program().union(translation.program)
    return DatalogTranslation(
        program=program,
        answer_predicate=translation.answer_predicate,
        answer_variables=translation.answer_variables,
        mode=translation.mode,
    )


def entailment_regime_query(
    pattern: Union[str, GraphPattern, SelectQuery],
    mode: EntailmentMode = ACTIVE_DOMAIN_MODE,
    answer_predicate: str = "answer",
    validate: bool = True,
) -> Tuple[TriQLiteQuery, DatalogTranslation]:
    """The TriQ-Lite 1.0 query of Corollary 6.2, plus its translation metadata."""
    translation = translate_under_entailment(pattern, mode, answer_predicate)
    query = TriQLiteQuery(
        translation.program,
        translation.answer_predicate,
        translation.arity,
        validate=validate,
    )
    return query, translation


def evaluate_under_entailment(
    pattern: Union[str, GraphPattern, SelectQuery],
    graph: RDFGraph,
    mode: EntailmentMode = ACTIVE_DOMAIN_MODE,
):
    """``⟦P⟧^U_G`` / ``⟦P⟧^All_G`` as a set of mappings (or ``INCONSISTENT``).

    Paper-literal route: one warded-engine materialization of the full
    translated program per call.  For repeated queries over one graph, use
    :class:`EntailmentView` (same answers, one materialization total).
    """
    query, translation = entailment_regime_query(pattern, mode)
    result = query.evaluate(graph.to_database())
    if result is INCONSISTENT:
        return INCONSISTENT
    return decode_answers(result, translation.answer_variables)


# ---------------------------------------------------------------------------
# The materialized-view route (ID-native)
# ---------------------------------------------------------------------------


def _as_pattern(pattern: Union[str, GraphPattern, SelectQuery]) -> GraphPattern:
    """A parsed SELECT query becomes an explicit projection node.

    SPARQL text is accepted and parsed; this keeps the in-process entry
    points (:class:`EntailmentView`, the service's ``MaterializedView``)
    callable with the same query strings the HTTP endpoint takes.
    """
    if isinstance(pattern, str):
        pattern = parse_sparql(pattern)
    if isinstance(pattern, SelectQuery):
        return Select(pattern.projection, pattern.pattern)
    return pattern


def evaluate_view_ids(
    pattern: Union[str, GraphPattern, SelectQuery],
    store,
    mode: EntailmentMode = ACTIVE_DOMAIN_MODE,
) -> Set[IdMapping]:
    """``⟦P⟧^mode`` over an already-materialized core instance, as ID mappings.

    ``store`` must hold a materialization of ``tau_owl2ql_core`` (the
    ``triple``/``triple1``/``C`` predicates); consistency is the caller's
    concern (see :class:`EntailmentView` / the query service, which check it
    once per materialization, not per query).  Basic graph patterns read the
    interned ``triple1`` rows; variables are guarded by active-domain
    membership (a ``C`` fact of the store) in both regimes, blank nodes only
    under the active-domain semantics ``"U"`` (Section 5.3 drops that guard,
    letting blank nodes be witnessed by invented nulls).  Decoding is left
    to the caller — the service serializes straight from IDs.
    """
    if mode not in (ACTIVE_DOMAIN_MODE, ALL_MODE):
        raise ValueError(f"unknown entailment mode {mode!r}; expected 'U' or 'All'")
    # ``find_term``, not ``intern``: readers run off the writer thread and
    # must not grow the term table.  ``None`` (no ``C`` fact was ever
    # stored) makes every probe miss, as it should.
    domain_pid = TERMS.find_term(Constant(ACTIVE_DOMAIN))
    has_key = store.has_key
    guard_blanks = mode == ACTIVE_DOMAIN_MODE

    def guard(binder, tid: int) -> bool:
        if guard_blanks or isinstance(binder, Variable):
            return has_key((domain_pid, tid))
        return True

    # The translation's empty-BGP rule fires iff the (graph) domain is
    # non-empty, i.e. iff any ``triple`` fact exists.
    nonempty = next(iter(store.matching_ids(TRIPLE, 3, ())), None) is not None

    def bgp_evaluator(bgp: BGP) -> Set[IdMapping]:
        return evaluate_bgp_ids(
            bgp,
            lambda pairs: store.matching_ids(TRIPLE1, 3, pairs),
            guard=guard,
            empty_bgp_result=nonempty,
        )

    return evaluate_pattern_ids(_as_pattern(pattern), bgp_evaluator)


class EntailmentView:
    """One core materialization of a graph, answering many queries ID-natively.

    The library-level face of the query service's read path: materialize
    ``tau_owl2ql_core`` over ``tau_db(G)`` once, then evaluate each pattern
    directly over the interned instance.  Answers are byte-identical to
    :func:`evaluate_under_entailment` (the parity suite proves it on every
    existing entailment test plus random patterns).
    """

    def __init__(self, graph: RDFGraph):
        from repro.engine.incremental import DeltaSession

        self._session = DeltaSession(owl2ql_core_program(), graph.to_database())
        self.instance = self._session.instance
        self.consistent = self._session.check_consistency()

    def evaluate_ids(
        self,
        pattern: Union[str, GraphPattern, SelectQuery],
        mode: EntailmentMode = ACTIVE_DOMAIN_MODE,
    ) -> Set[IdMapping]:
        """ID answers (callers must have checked :attr:`consistent`)."""
        return evaluate_view_ids(pattern, self.instance, mode)

    def evaluate(
        self,
        pattern: Union[str, GraphPattern, SelectQuery],
        mode: EntailmentMode = ACTIVE_DOMAIN_MODE,
    ) -> Union[Set[Mapping], type(INCONSISTENT)]:
        """``⟦P⟧^mode_G`` as decoded mappings, or ``INCONSISTENT`` (⊤)."""
        if not self.consistent:
            return INCONSISTENT
        return decode_id_mappings(self.evaluate_ids(pattern, mode))
