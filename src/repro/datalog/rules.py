"""Rules and constraints of Datalog with existentials and stratified negation.

A ``Datalog^{E,neg}`` rule (Section 3.2) has the form::

    a1, ..., an, not b1, ..., not bm  ->  exists ?Y1 ... ?Yk . c1, ..., cj

subject to the paper's well-formedness conditions:

1. ``n >= 1`` and ``m, k >= 0``;
2. body atoms mention only constants and variables;
3. every variable of a negative body atom also occurs in a positive body atom
   (safety of negation);
4. the existential variables are disjoint from the body variables;
5. head atoms mention only constants, existential variables, and (frontier)
   body variables.

The paper states rules with a single head atom but notes (footnote 6) that
multi-atom heads are harmless syntactic sugar; we support them natively and
provide :meth:`Rule.split_head` for the single-head normal form.

A constraint is ``a1, ..., an -> false`` (the ``⊥`` of the paper).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Null, Term, Variable


class RuleError(ValueError):
    """Raised when a rule or constraint violates the syntactic conditions."""


class Rule:
    """A Datalog rule, possibly with existential head variables and negation."""

    __slots__ = ("body_positive", "body_negative", "head", "existential_variables", "label", "_hash")

    def __init__(
        self,
        body_positive: Iterable[Atom],
        head: Iterable[Atom],
        body_negative: Iterable[Atom] = (),
        existential_variables: Iterable[Variable] = (),
        label: Optional[str] = None,
    ):
        self.body_positive: Tuple[Atom, ...] = tuple(body_positive)
        self.body_negative: Tuple[Atom, ...] = tuple(body_negative)
        self.head: Tuple[Atom, ...] = tuple(head)
        self.existential_variables: FrozenSet[Variable] = frozenset(existential_variables)
        self.label = label
        self._validate()
        self._hash = hash(
            (
                Rule,
                self.body_positive,
                self.body_negative,
                self.head,
                self.existential_variables,
            )
        )

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if not self.body_positive:
            raise RuleError("a rule needs at least one positive body atom (n >= 1)")
        if not self.head:
            raise RuleError("a rule needs at least one head atom")
        for atom in self.body_positive + self.body_negative:
            for term in atom.terms:
                if isinstance(term, Null):
                    # Nulls in bodies only arise through the indefinite
                    # grounding, which is an internal construction; the
                    # user-facing syntax forbids them.  We allow them but only
                    # when explicitly requested via Rule.allow_nulls().
                    raise RuleError(
                        f"body atom {atom} mentions the null {term}; "
                        "rules may only use constants and variables"
                    )
        positive_vars = self.positive_body_variables
        for atom in self.body_negative:
            if not atom.variables <= positive_vars:
                missing = sorted(atom.variables - positive_vars)
                raise RuleError(
                    f"negative atom {atom} uses variables {missing} that do not "
                    "occur in any positive body atom"
                )
        if self.existential_variables & self.body_variables:
            clash = sorted(self.existential_variables & self.body_variables)
            raise RuleError(
                f"existential variables {clash} also occur in the rule body"
            )
        allowed_head_vars = positive_vars | self.existential_variables
        for atom in self.head:
            for term in atom.terms:
                if isinstance(term, Null):
                    raise RuleError(f"head atom {atom} mentions the null {term}")
                if isinstance(term, Variable) and term not in allowed_head_vars:
                    raise RuleError(
                        f"head variable {term} of {atom} is neither a body variable "
                        "nor an existential variable"
                    )

    # -- basic protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and self.body_positive == other.body_positive
            and self.body_negative == other.body_negative
            and self.head == other.head
            and self.existential_variables == other.existential_variables
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Rule({str(self)!r})"

    def __str__(self) -> str:
        body_parts = [str(a) for a in self.body_positive]
        body_parts += [f"not {a}" for a in self.body_negative]
        body = ", ".join(body_parts)
        head = ", ".join(str(a) for a in self.head)
        if self.existential_variables:
            evars = " ".join(str(v) for v in sorted(self.existential_variables))
            head = f"exists {evars} . {head}"
        return f"{body} -> {head}"

    # -- inspection -------------------------------------------------------------

    @property
    def body(self) -> Tuple[Atom, ...]:
        """``body(rho)``: positive followed by negative body atoms."""
        return self.body_positive + self.body_negative

    @property
    def positive_body_variables(self) -> FrozenSet[Variable]:
        """Variables of the positive body atoms."""
        return frozenset(
            v for atom in self.body_positive for v in atom.variables
        )

    @property
    def negative_body_variables(self) -> FrozenSet[Variable]:
        """Variables of the negated body atoms."""
        return frozenset(
            v for atom in self.body_negative for v in atom.variables
        )

    @property
    def body_variables(self) -> FrozenSet[Variable]:
        """Variables occurring anywhere in the body."""
        return self.positive_body_variables | self.negative_body_variables

    @property
    def head_variables(self) -> FrozenSet[Variable]:
        """Variables occurring in the head."""
        return frozenset(v for atom in self.head for v in atom.variables)

    @property
    def frontier(self) -> FrozenSet[Variable]:
        """The frontier: body variables propagated to the head."""
        return self.body_variables & self.head_variables

    @property
    def variables(self) -> FrozenSet[Variable]:
        """All variables of the rule."""
        return self.body_variables | self.head_variables | self.existential_variables

    @property
    def constants(self) -> FrozenSet[Constant]:
        """All constants of the rule."""
        return frozenset(
            c for atom in self.body + self.head for c in atom.constants
        )

    @property
    def has_existentials(self) -> bool:
        """True iff the head has existential variables."""
        return bool(self.existential_variables)

    @property
    def has_negation(self) -> bool:
        """True iff the body has negated atoms."""
        return bool(self.body_negative)

    @property
    def is_plain_datalog(self) -> bool:
        """True iff the rule has neither existentials nor negation."""
        return not self.has_existentials and not self.has_negation

    @property
    def head_predicates(self) -> FrozenSet[str]:
        """Predicates of the head atoms."""
        return frozenset(a.predicate for a in self.head)

    @property
    def body_predicates(self) -> FrozenSet[str]:
        """Predicates of the body atoms (either polarity)."""
        return frozenset(a.predicate for a in self.body)

    @property
    def predicates(self) -> FrozenSet[str]:
        """All predicates of the rule."""
        return self.head_predicates | self.body_predicates

    # -- transformations --------------------------------------------------------

    def positive_part(self) -> "Rule":
        """Drop negative body atoms (the ``Pi+`` operation of Section 4.2)."""
        if not self.body_negative:
            return self
        return Rule(
            self.body_positive,
            self.head,
            body_negative=(),
            existential_variables=self.existential_variables,
            label=self.label,
        )

    def split_head(self) -> Tuple["Rule", ...]:
        """Rewrite a multi-atom head into single-head rules.

        If the rule has no existential variables the split is the obvious one
        (one rule per head atom).  With existentials, the standard rewriting
        introduces an auxiliary predicate collecting the frontier and the
        existential variables so that all head atoms see the *same* invented
        nulls (footnote 6 of the paper / [12]).
        """
        if len(self.head) == 1:
            return (self,)
        if not self.existential_variables:
            return tuple(
                Rule(
                    self.body_positive,
                    (atom,),
                    body_negative=self.body_negative,
                    existential_variables=(),
                    label=self.label,
                )
                for atom in self.head
            )
        shared = sorted(self.frontier) + sorted(self.existential_variables)
        aux_predicate = f"aux_split_{abs(self._hash) % 10_000_000}"
        aux_atom = Atom(aux_predicate, tuple(shared))
        first = Rule(
            self.body_positive,
            (aux_atom,),
            body_negative=self.body_negative,
            existential_variables=self.existential_variables,
            label=self.label,
        )
        rest = tuple(
            Rule((aux_atom,), (atom,), label=self.label) for atom in self.head
        )
        return (first,) + rest

    def apply(self, substitution: Mapping[Term, Term]) -> "Rule":
        """Apply a substitution to every atom of the rule.

        Existential variables must not be in the substitution's domain.
        """
        if any(v in substitution for v in self.existential_variables):
            raise RuleError("cannot substitute an existential variable")
        return Rule(
            tuple(a.apply(substitution) for a in self.body_positive),
            tuple(a.apply(substitution) for a in self.head),
            body_negative=tuple(a.apply(substitution) for a in self.body_negative),
            existential_variables=self.existential_variables,
            label=self.label,
        )

    def rename_apart(self, suffix: str) -> "Rule":
        """Rename every variable by appending ``suffix`` (for variable-disjoint copies)."""
        renaming = {v: Variable(f"{v.name}{suffix}") for v in self.variables}
        return Rule(
            tuple(a.rename_variables(renaming) for a in self.body_positive),
            tuple(a.rename_variables(renaming) for a in self.head),
            body_negative=tuple(a.rename_variables(renaming) for a in self.body_negative),
            existential_variables=tuple(renaming[v] for v in self.existential_variables),
            label=self.label,
        )


class Constraint:
    """A negative constraint ``a1, ..., an -> false`` (⊥ in the head)."""

    __slots__ = ("body", "label", "_hash")

    def __init__(self, body: Iterable[Atom], label: Optional[str] = None):
        self.body: Tuple[Atom, ...] = tuple(body)
        self.label = label
        if not self.body:
            raise RuleError("a constraint needs at least one body atom")
        for atom in self.body:
            if atom.nulls:
                raise RuleError(f"constraint atom {atom} mentions a null")
        self._hash = hash((Constraint, self.body))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constraint) and self.body == other.body

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constraint({str(self)!r})"

    def __str__(self) -> str:
        return ", ".join(str(a) for a in self.body) + " -> false"

    @property
    def variables(self) -> FrozenSet[Variable]:
        """Variables of the constraint body."""
        return frozenset(v for atom in self.body for v in atom.variables)

    @property
    def body_predicates(self) -> FrozenSet[str]:
        """Predicates of the constraint body."""
        return frozenset(a.predicate for a in self.body)

    def to_rule(self, witness_predicate: str, arity: int, star: Constant) -> Rule:
        """The ``Pi_⊥`` rewriting of Theorem 4.4.

        The constraint becomes a rule deriving ``witness_predicate(*, ..., *)``
        (``arity`` copies of the reserved constant ``star``), so that
        inconsistency of the database can be read off the query answer.
        """
        head = Atom(witness_predicate, tuple(star for _ in range(arity)))
        return Rule(self.body, (head,), label=self.label)
