"""The SPARQL → Datalog¬s translation ``P_dat`` (Section 5.1).

For a graph pattern ``P`` the translation builds a query
``P_dat = (tau_bgp(P) ∪ tau_opr(P) ∪ tau_out(P), answer_P)`` over the schema
``{triple(·,·,·)}`` such that ``⟦P⟧_G = ⟦(P_dat, tau_db(G))⟧`` for every RDF
graph ``G`` (Theorem 5.2).

Representation of partial mappings
----------------------------------

A SPARQL evaluation produces *partial* mappings, so a single fixed-arity
answer predicate cannot carry them directly.  Following the paper (and its
Example 5.1), the translation keeps one predicate per (sub-pattern, possible
domain) pair — the predicate the paper writes ``query^S_P`` — and only the
final output rules pad the missing positions with the reserved constant ``⋆``.
The set of possible domains of a pattern is computed structurally (a BGP has
exactly one, OPT adds the "left only" domains, SELECT intersects with the
projection), which keeps the program finite; it may be exponential in the size
of the pattern in the worst case, exactly as the paper notes for ``P_dat``.

Modes
-----

The same translator builds the three flavours used in Section 5:

* ``plain``       — ``tau_bgp``: basic graph patterns read the ``triple`` predicate;
* ``entailment_U``   — ``tau^U_bgp``: ``triple`` is replaced by ``triple1`` and every
  variable and blank node is guarded by the active-domain predicate ``C``;
* ``entailment_All`` — ``tau^All_bgp``: as above but blank nodes are *not* guarded
  by ``C`` (Section 5.3, the semantics without the active-domain restriction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple, Union as TypingUnion

from repro.datalog.atoms import Atom
from repro.datalog.program import Program, Query
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Null, Term, Variable
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
    Union,
)
from repro.sparql.parser import SelectQuery, parse_sparql

#: The reserved constant representing "this position was left unbound".
STAR = Constant("__unbound__")

#: Valid translation modes.
PLAIN = "plain"
ENTAILMENT_U = "entailment_U"
ENTAILMENT_ALL = "entailment_All"
_MODES = (PLAIN, ENTAILMENT_U, ENTAILMENT_ALL)

#: Predicate names used by the translation.
TRIPLE = "triple"
TRIPLE1 = "triple1"
ACTIVE_DOMAIN = "C"
DOM = "dom"
EQ = "eq"


Domain = FrozenSet[Variable]


@dataclass
class _NodeTranslation:
    """Bookkeeping for one node of the pattern tree."""

    identifier: int
    variables: FrozenSet[Variable]
    domains: Set[Domain] = field(default_factory=set)

    def sorted_domains(self) -> List[Domain]:
        """The domains by sorted variable names: set order follows the
        variables' per-process hashes, and the rule order must not."""
        return sorted(self.domains, key=lambda domain: sorted(v.name for v in domain))

    def predicate(self, domain: Domain) -> str:
        ordered = "_".join(v.name for v in sorted(domain)) or "empty"
        return f"query_{self.identifier}_{ordered}"


@dataclass
class DatalogTranslation:
    """The result of translating a graph pattern.

    ``answer_variables`` fixes the order of the answer-tuple positions; an
    answer tuple may carry :data:`STAR` at positions whose variable was left
    unbound by the corresponding SPARQL mapping.
    """

    program: Program
    answer_predicate: str
    answer_variables: Tuple[Variable, ...]
    mode: str

    @property
    def arity(self) -> int:
        """Return the arity of the answer predicate."""
        return len(self.answer_variables)

    def query(self) -> Query:
        """Return the translation packaged as an executable :class:`Query`."""
        return Query(self.program, self.answer_predicate, self.arity)


class SPARQLToDatalogTranslator:
    """Builds ``P_dat`` (and its entailment-regime variants) for graph patterns."""

    def __init__(self, mode: str = PLAIN):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
        self.mode = mode
        self._rules: List[Rule] = []
        self._counter = itertools.count()
        self._blank_counter = itertools.count()

    # -- public API ------------------------------------------------------------

    def translate(
        self,
        pattern: TypingUnion[str, GraphPattern, SelectQuery],
        answer_predicate: str = "answer",
    ) -> DatalogTranslation:
        """Translate a graph pattern (or a SELECT query, parsed or as text)."""
        self._rules = []
        self._counter = itertools.count()
        self._blank_counter = itertools.count()

        if isinstance(pattern, str):
            pattern = parse_sparql(pattern)
        if isinstance(pattern, SelectQuery):
            answer_variables: Tuple[Variable, ...] = tuple(pattern.projection)
            root_pattern: GraphPattern = Select(pattern.projection, pattern.pattern)
        else:
            answer_variables = tuple(sorted(pattern.variables()))
            root_pattern = pattern

        self._emit_preamble()
        root = self._translate_node(root_pattern)
        self._emit_output(root, answer_predicate, answer_variables)
        return DatalogTranslation(
            program=Program(self._rules),
            answer_predicate=answer_predicate,
            answer_variables=answer_variables,
            mode=self.mode,
        )

    # -- preamble -----------------------------------------------------------------

    def _emit_preamble(self) -> None:
        """Domain and equality helper predicates shared by all translations."""
        x, y, z = Variable("PreX"), Variable("PreY"), Variable("PreZ")
        self._rules.append(
            Rule((Atom(TRIPLE, (x, y, z)),), (Atom(DOM, (x,)), Atom(DOM, (y,)), Atom(DOM, (z,))))
        )
        self._rules.append(Rule((Atom(DOM, (x,)),), (Atom(EQ, (x, x)),)))

    # -- structural recursion ---------------------------------------------------------

    def _translate_node(self, pattern: GraphPattern) -> _NodeTranslation:
        if isinstance(pattern, BGP):
            return self._translate_bgp(pattern)
        if isinstance(pattern, And):
            return self._translate_and(pattern)
        if isinstance(pattern, Union):
            return self._translate_union(pattern)
        if isinstance(pattern, Opt):
            return self._translate_opt(pattern)
        if isinstance(pattern, Filter):
            return self._translate_filter(pattern)
        if isinstance(pattern, Select):
            return self._translate_select(pattern)
        raise TypeError(f"unknown graph pattern {pattern!r}")

    def _new_node(self, variables: Iterable[Variable]) -> _NodeTranslation:
        return _NodeTranslation(identifier=next(self._counter), variables=frozenset(variables))

    # .. basic graph patterns (tau_bgp / tau^U_bgp / tau^All_bgp) ..................

    def _translate_bgp(self, bgp: BGP) -> _NodeTranslation:
        node = self._new_node(bgp.variables())
        domain: Domain = frozenset(bgp.variables())
        node.domains.add(domain)

        blank_variables: Dict[Null, Variable] = {}

        def convert(term) -> Term:
            if isinstance(term, Variable):
                return term
            if isinstance(term, Null):
                if term not in blank_variables:
                    blank_variables[term] = Variable(
                        f"Blank_{next(self._blank_counter)}_{term.label.lstrip('_:')}"
                    )
                return blank_variables[term]
            return term

        triple_predicate = TRIPLE if self.mode == PLAIN else TRIPLE1
        body: List[Atom] = []
        for triple in bgp.patterns:
            body.append(Atom(triple_predicate, tuple(convert(t) for t in triple)))

        if self.mode in (ENTAILMENT_U, ENTAILMENT_ALL):
            guarded: Set[Variable] = set(bgp.variables())
            if self.mode == ENTAILMENT_U:
                guarded |= set(blank_variables.values())
            for variable in sorted(guarded):
                body.append(Atom(ACTIVE_DOMAIN, (variable,)))

        if not body:
            # The empty basic graph pattern evaluates to { mu_empty }; make the
            # 0-ary predicate hold whenever the database is non-empty.
            body = [Atom(DOM, (Variable("AnyX"),))]

        head = Atom(node.predicate(domain), tuple(sorted(domain)))
        self._rules.append(Rule(tuple(body), (head,)))
        return node

    # .. AND ..........................................................................

    def _translate_and(self, pattern: And) -> _NodeTranslation:
        left = self._translate_node(pattern.left)
        right = self._translate_node(pattern.right)
        node = self._new_node(left.variables | right.variables)
        for left_domain in left.sorted_domains():
            for right_domain in right.sorted_domains():
                joined = frozenset(left_domain | right_domain)
                node.domains.add(joined)
                body = (
                    Atom(left.predicate(left_domain), tuple(sorted(left_domain))),
                    Atom(right.predicate(right_domain), tuple(sorted(right_domain))),
                )
                head = Atom(node.predicate(joined), tuple(sorted(joined)))
                self._rules.append(Rule(body, (head,)))
        return node

    # .. UNION ..........................................................................

    def _translate_union(self, pattern: Union) -> _NodeTranslation:
        left = self._translate_node(pattern.left)
        right = self._translate_node(pattern.right)
        node = self._new_node(left.variables | right.variables)
        for child in (left, right):
            for domain in child.sorted_domains():
                node.domains.add(domain)
                body = (Atom(child.predicate(domain), tuple(sorted(domain))),)
                head = Atom(node.predicate(domain), tuple(sorted(domain)))
                self._rules.append(Rule(body, (head,)))
        return node

    # .. OPT ............................................................................

    def _translate_opt(self, pattern: Opt) -> _NodeTranslation:
        left = self._translate_node(pattern.left)
        right = self._translate_node(pattern.right)
        node = self._new_node(left.variables | right.variables)

        # Join part (as in AND).
        for left_domain in left.sorted_domains():
            for right_domain in right.sorted_domains():
                joined = frozenset(left_domain | right_domain)
                node.domains.add(joined)
                body = (
                    Atom(left.predicate(left_domain), tuple(sorted(left_domain))),
                    Atom(right.predicate(right_domain), tuple(sorted(right_domain))),
                )
                head = Atom(node.predicate(joined), tuple(sorted(joined)))
                self._rules.append(Rule(body, (head,)))

        # Difference part: left mappings compatible with no right mapping.
        for left_domain in left.sorted_domains():
            node.domains.add(left_domain)
            compatible_predicate = f"compatible_{node.identifier}_" + (
                "_".join(v.name for v in sorted(left_domain)) or "empty"
            )
            for right_domain in right.sorted_domains():
                body = (
                    Atom(left.predicate(left_domain), tuple(sorted(left_domain))),
                    Atom(right.predicate(right_domain), tuple(sorted(right_domain))),
                )
                head = Atom(compatible_predicate, tuple(sorted(left_domain)))
                self._rules.append(Rule(body, (head,)))
            body_positive = (Atom(left.predicate(left_domain), tuple(sorted(left_domain))),)
            body_negative = (Atom(compatible_predicate, tuple(sorted(left_domain))),)
            head = Atom(node.predicate(left_domain), tuple(sorted(left_domain)))
            self._rules.append(Rule(body_positive, (head,), body_negative=body_negative))
        return node

    # .. FILTER ...........................................................................

    def _translate_filter(self, pattern: Filter) -> _NodeTranslation:
        child = self._translate_node(pattern.pattern)
        node = self._new_node(child.variables)
        for domain in child.sorted_domains():
            disjuncts = _condition_to_dnf(pattern.condition, domain)
            for positive_literals, negative_literals in disjuncts:
                node.domains.add(domain)
                body: List[Atom] = [Atom(child.predicate(domain), tuple(sorted(domain)))]
                negatives: List[Atom] = []
                for left, right in positive_literals:
                    body.append(Atom(EQ, (left, right)))
                for left, right in negative_literals:
                    negatives.append(Atom(EQ, (left, right)))
                head = Atom(node.predicate(domain), tuple(sorted(domain)))
                self._rules.append(Rule(tuple(body), (head,), body_negative=tuple(negatives)))
        if not node.domains:
            # The filter rejects every mapping of every domain; keep the node
            # around with no rules (its predicates are simply never derivable).
            node.domains = set(child.domains)
        return node

    # .. SELECT .............................................................................

    def _translate_select(self, pattern: Select) -> _NodeTranslation:
        child = self._translate_node(pattern.pattern)
        node = self._new_node(pattern.projection)
        for domain in child.sorted_domains():
            projected = frozenset(domain & pattern.projection)
            node.domains.add(projected)
            body = (Atom(child.predicate(domain), tuple(sorted(domain))),)
            head = Atom(node.predicate(projected), tuple(sorted(projected)))
            self._rules.append(Rule(body, (head,)))
        return node

    # .. tau_out ..............................................................................

    def _emit_output(
        self,
        root: _NodeTranslation,
        answer_predicate: str,
        answer_variables: Tuple[Variable, ...],
    ) -> None:
        for domain in root.sorted_domains():
            body = (Atom(root.predicate(domain), tuple(sorted(domain))),)
            head_terms: List[Term] = [
                variable if variable in domain else STAR for variable in answer_variables
            ]
            if not answer_variables:
                head_terms = []
            head = Atom(answer_predicate, tuple(head_terms))
            self._rules.append(Rule(body, (head,)))


# ---------------------------------------------------------------------------
# FILTER condition compilation
# ---------------------------------------------------------------------------

_EqLiteral = Tuple[Term, Term]
_Disjunct = Tuple[Tuple[_EqLiteral, ...], Tuple[_EqLiteral, ...]]


def _condition_to_dnf(condition: Condition, domain: Domain) -> List[_Disjunct]:
    """Compile a built-in condition (w.r.t. a fixed mapping domain) to DNF.

    ``bound(?X)`` literals are resolved statically against the domain; the
    remaining literals are (dis)equalities compiled to positive/negated ``eq``
    atoms.  Equalities mentioning an unbound variable are false (cases (2)
    and (3) of the satisfaction definition require the variable to be bound).
    Each returned disjunct is a pair (positive equalities, negated equalities);
    an unsatisfiable disjunct is dropped, and a tautological condition yields
    a single empty disjunct.
    """

    TRUE = "true"
    FALSE = "false"

    def simplify(cond: Condition, positive: bool):
        if isinstance(cond, Bound):
            value = cond.variable in domain
            if not positive:
                value = not value
            return TRUE if value else FALSE
        if isinstance(cond, EqualsConstant):
            if cond.variable not in domain:
                return FALSE if positive else TRUE
            literal = ((cond.variable, cond.constant), positive)
            return [literal]
        if isinstance(cond, EqualsVariable):
            if cond.left not in domain or cond.right not in domain:
                return FALSE if positive else TRUE
            literal = ((cond.left, cond.right), positive)
            return [literal]
        if isinstance(cond, Not):
            return simplify(cond.condition, not positive)
        if isinstance(cond, OrCondition):
            connective = "or" if positive else "and"
            return (connective, simplify(cond.left, positive), simplify(cond.right, positive))
        if isinstance(cond, AndCondition):
            connective = "and" if positive else "or"
            return (connective, simplify(cond.left, positive), simplify(cond.right, positive))
        raise TypeError(f"unknown condition {cond!r}")

    def to_disjuncts(tree) -> List[List[Tuple[_EqLiteral, bool]]]:
        if tree == TRUE:
            return [[]]
        if tree == FALSE:
            return []
        if isinstance(tree, list):
            return [list(tree)]
        connective, left, right = tree
        left_disjuncts = to_disjuncts(left)
        right_disjuncts = to_disjuncts(right)
        if connective == "or":
            return left_disjuncts + right_disjuncts
        combined: List[List[Tuple[_EqLiteral, bool]]] = []
        for l in left_disjuncts:
            for r in right_disjuncts:
                combined.append(l + r)
        return combined

    result: List[_Disjunct] = []
    for conjunction in to_disjuncts(simplify(condition, True)):
        positive_literals = tuple(lit for lit, sign in conjunction if sign)
        negative_literals = tuple(lit for lit, sign in conjunction if not sign)
        result.append((positive_literals, negative_literals))
    return result


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------


def translate_pattern(
    pattern: GraphPattern, mode: str = PLAIN, answer_predicate: str = "answer"
) -> DatalogTranslation:
    """Translate a graph pattern into ``P_dat`` (or a regime variant)."""
    return SPARQLToDatalogTranslator(mode).translate(pattern, answer_predicate)


def translate_select_query(
    query: SelectQuery, mode: str = PLAIN, answer_predicate: str = "answer"
) -> DatalogTranslation:
    """Translate a parsed SELECT query, preserving its projection order."""
    return SPARQLToDatalogTranslator(mode).translate(query, answer_predicate)
