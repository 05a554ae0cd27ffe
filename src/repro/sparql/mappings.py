"""Mappings and the SPARQL algebra over sets of mappings (Section 3.1).

A mapping is a partial function from variables to URIs.  The paper's graphs
hold no blank nodes (footnote 5), but the graphs here tolerate them
(:mod:`repro.rdf.graph`), so a mapping may also bind a variable to a blank
node of the data (a :class:`~repro.datalog.terms.Null`).  Two mappings are
compatible when they agree on their shared domain.  The algebra provides the
join, union, difference and left-outer join used to define the semantics of
AND, UNION and OPT.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping as TypingMapping, Optional, Set, Tuple

from repro.datalog.terms import Constant, Null, Variable


class Mapping:
    """A partial function ``mu: V -> U`` (immutable, hashable).

    Values are constants or blank nodes of the data (nulls); a plain string
    value is read as a constant.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: TypingMapping[Variable, Constant] = ()):
        items: Dict[Variable, Constant] = {}
        source = bindings.items() if isinstance(bindings, dict) else bindings
        for variable, value in source:
            if not isinstance(variable, Variable):
                variable = Variable(variable)
            if isinstance(value, str):
                value = Constant(value)
            elif not isinstance(value, (Constant, Null)):
                raise TypeError(f"mapping values must be constants or nulls, got {value!r}")
            items[variable] = value
        self._bindings: Tuple[Tuple[Variable, Constant], ...] = tuple(
            sorted(items.items(), key=lambda kv: kv[0].name)
        )
        self._hash = hash((Mapping, self._bindings))

    # -- basic protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mapping) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v} -> {c}" for v, c in self._bindings)
        return f"Mapping({{{inner}}})"

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.domain)

    def __contains__(self, variable: Variable) -> bool:
        return any(v == variable for v, _ in self._bindings)

    def __getitem__(self, variable: Variable) -> Constant:
        for v, c in self._bindings:
            if v == variable:
                return c
        raise KeyError(variable)

    def get(self, variable: Variable, default: Optional[Constant] = None) -> Optional[Constant]:
        """The binding of ``variable``, or ``default`` when unbound."""
        for v, c in self._bindings:
            if v == variable:
                return c
        return default

    # -- the paper's operations -----------------------------------------------------

    @property
    def domain(self) -> FrozenSet[Variable]:
        """``dom(mu)``."""
        return frozenset(v for v, _ in self._bindings)

    def items(self) -> Tuple[Tuple[Variable, Constant], ...]:
        """The bindings as (variable, constant) pairs in canonical order."""
        return self._bindings

    def as_dict(self) -> Dict[Variable, Constant]:
        """The bindings as a plain dict."""
        return dict(self._bindings)

    def restrict(self, variables: Iterable[Variable]) -> "Mapping":
        """``mu|_W``: restriction of the mapping to a set of variables."""
        allowed = {v if isinstance(v, Variable) else Variable(v) for v in variables}
        return Mapping({v: c for v, c in self._bindings if v in allowed})

    def merge(self, other: "Mapping") -> "Mapping":
        """``mu1 ∪ mu2`` — only meaningful for compatible mappings."""
        merged = dict(self._bindings)
        merged.update(dict(other._bindings))
        return Mapping(merged)


#: ``mu_∅``: the mapping with empty domain (compatible with every mapping).
EMPTY_MAPPING = Mapping({})


def compatible(first: Mapping, second: Mapping) -> bool:
    """``mu1 ~ mu2``: the mappings agree on every shared variable."""
    smaller, larger = (first, second) if len(first) <= len(second) else (second, first)
    for variable, value in smaller.items():
        other = larger.get(variable)
        if other is not None and other != value:
            return False
    return True


def join(first: Set[Mapping], second: Set[Mapping]) -> Set[Mapping]:
    """``Omega1 ⋈ Omega2 = { mu1 ∪ mu2 | mu1 ∈ Omega1, mu2 ∈ Omega2, mu1 ~ mu2 }``."""
    result: Set[Mapping] = set()
    for mu1 in first:
        for mu2 in second:
            if compatible(mu1, mu2):
                result.add(mu1.merge(mu2))
    return result


def union(first: Set[Mapping], second: Set[Mapping]) -> Set[Mapping]:
    """``Omega1 ∪ Omega2``."""
    return set(first) | set(second)


def minus(first: Set[Mapping], second: Set[Mapping]) -> Set[Mapping]:
    """``Omega1 ∖ Omega2``: mappings of Omega1 compatible with no mapping of Omega2."""
    return {mu1 for mu1 in first if all(not compatible(mu1, mu2) for mu2 in second)}


def left_outer_join(first: Set[Mapping], second: Set[Mapping]) -> Set[Mapping]:
    """``Omega1 ⟕ Omega2 = (Omega1 ⋈ Omega2) ∪ (Omega1 ∖ Omega2)``."""
    return join(first, second) | minus(first, second)
