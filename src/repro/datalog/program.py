"""Programs and queries.

A ``Datalog^{E,neg,⊥}`` program is a finite set of rules and constraints.
A query ``Q = (Pi, p)`` pairs a program with an output predicate that does not
occur in any rule body (Section 3.2).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.datalog.atoms import Atom, Position
from repro.datalog.rules import Constraint, Rule, RuleError
from repro.datalog.terms import Constant


class Program:
    """A finite set of Datalog rules and constraints."""

    def __init__(self, rules: Iterable[Rule] = (), constraints: Iterable[Constraint] = ()):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_clauses(cls, clauses: Iterable[object]) -> "Program":
        """Build a program from a mixed iterable of rules and constraints."""
        rules: List[Rule] = []
        constraints: List[Constraint] = []
        for clause in clauses:
            if isinstance(clause, Rule):
                rules.append(clause)
            elif isinstance(clause, Constraint):
                constraints.append(clause)
            else:
                raise TypeError(f"expected Rule or Constraint, got {type(clause).__name__}")
        return cls(rules, constraints)

    def union(self, other: "Program") -> "Program":
        """The union of two programs (duplicate clauses are kept once)."""
        rules = list(dict.fromkeys(self.rules + other.rules))
        constraints = list(dict.fromkeys(self.constraints + other.constraints))
        return Program(rules, constraints)

    def __add__(self, other: "Program") -> "Program":
        return self.union(other)

    def with_rules(self, extra: Iterable[Rule]) -> "Program":
        """A new program with ``extra`` rules appended (constraints kept)."""
        return Program(tuple(self.rules) + tuple(extra), self.constraints)

    # -- basic protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rules) + len(self.constraints)

    def __iter__(self):
        yield from self.rules
        yield from self.constraints

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Program)
            and set(self.rules) == set(other.rules)
            and set(self.constraints) == set(other.constraints)
        )

    def __hash__(self) -> int:
        """Order-insensitive content hash (matches ``__eq__``).

        Programs are immutable by convention; hashability lets the analysis
        and stratification caches key on them, so re-translating the same
        query does not re-run wardedness checks or SCC computations.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(
                (frozenset(self.rules), frozenset(self.constraints))
            )
        return cached

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules, {len(self.constraints)} constraints)"

    def __str__(self) -> str:
        lines = [f"{r}." for r in self.rules] + [f"{c}." for c in self.constraints]
        return "\n".join(lines)

    # -- inspection -------------------------------------------------------------

    def ex(self) -> "Program":
        """``ex(Pi)``: the program without its constraints (Section 3.2)."""
        return Program(self.rules, ())

    def positive_program(self) -> "Program":
        """``Pi+``: drop negative atoms from every rule (and all constraints)."""
        return Program(tuple(r.positive_part() for r in self.rules), ())

    @property
    def schema(self) -> FrozenSet[str]:
        """``sch(Pi)``: every predicate occurring in the program."""
        preds: Set[str] = set()
        for rule in self.rules:
            preds |= rule.predicates
        for constraint in self.constraints:
            preds |= constraint.body_predicates
        return frozenset(preds)

    @property
    def head_predicates(self) -> FrozenSet[str]:
        """Predicates defined (derived) by some rule head — the IDB predicates."""
        return frozenset(p for rule in self.rules for p in rule.head_predicates)

    @property
    def body_predicates(self) -> FrozenSet[str]:
        """Predicates occurring in some rule body (either polarity)."""
        preds: Set[str] = set()
        for rule in self.rules:
            preds |= rule.body_predicates
        for constraint in self.constraints:
            preds |= constraint.body_predicates
        return frozenset(preds)

    @property
    def constants(self) -> FrozenSet[Constant]:
        """All constants mentioned by the rules and constraints."""
        consts: Set[Constant] = set()
        for rule in self.rules:
            consts |= rule.constants
        for constraint in self.constraints:
            for atom in constraint.body:
                consts |= atom.constants
        return frozenset(consts)

    def arities(self) -> Dict[str, int]:
        """Arity of every predicate; raises on inconsistent use."""
        arities: Dict[str, int] = {}
        for clause in self:
            atoms: Tuple[Atom, ...]
            if isinstance(clause, Rule):
                atoms = clause.body + clause.head
            else:
                atoms = clause.body
            for atom in atoms:
                known = arities.get(atom.predicate)
                if known is None:
                    arities[atom.predicate] = atom.arity
                elif known != atom.arity:
                    raise RuleError(
                        f"predicate {atom.predicate} used with arities {known} and {atom.arity}"
                    )
        return arities

    def positions(self) -> FrozenSet[Position]:
        """``pos(Pi)``: every position of every predicate of the program."""
        return frozenset(
            Position(pred, i + 1)
            for pred, arity in self.arities().items()
            for i in range(arity)
        )

    @property
    def has_existentials(self) -> bool:
        """True iff some rule has existential head variables."""
        return any(r.has_existentials for r in self.rules)

    @property
    def has_negation(self) -> bool:
        """True iff some rule has negated body atoms."""
        return any(r.has_negation for r in self.rules)

    @property
    def has_constraints(self) -> bool:
        """True iff the program carries negative constraints."""
        return bool(self.constraints)

    @property
    def is_plain_datalog(self) -> bool:
        """True iff plain Datalog: no existentials, negation, or constraints."""
        return not (self.has_existentials or self.has_negation or self.has_constraints)

    def fresh_predicate(self, prefix: str) -> str:
        """A predicate name not yet used by the program."""
        existing = self.schema
        if prefix not in existing:
            return prefix
        i = 0
        while f"{prefix}_{i}" in existing:
            i += 1
        return f"{prefix}_{i}"


class Query:
    """A query ``Q = (Pi, p)``: a program plus an output predicate.

    The output predicate must not occur in the body of any rule or constraint
    of the program (Section 3.2).  ``output_arity`` may be given explicitly
    when the program does not mention the output predicate at all (e.g. for a
    query that is unsatisfiable by construction).
    """

    def __init__(self, program: Program, output_predicate: str, output_arity: Optional[int] = None):
        self.program = program
        self.output_predicate = output_predicate
        if output_predicate in program.body_predicates:
            raise RuleError(
                f"output predicate {output_predicate!r} occurs in a rule body"
            )
        arities = program.arities()
        if output_arity is None:
            output_arity = arities.get(output_predicate)
        if output_arity is None:
            raise RuleError(
                f"cannot determine the arity of output predicate {output_predicate!r}; "
                "pass output_arity explicitly"
            )
        self.output_arity = output_arity

    def __repr__(self) -> str:
        return f"Query({self.output_predicate!r}/{self.output_arity}, {self.program!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Query)
            and self.program == other.program
            and self.output_predicate == other.output_predicate
            and self.output_arity == other.output_arity
        )
