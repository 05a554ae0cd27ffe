"""RDF triples, graphs and the translation ``tau_db(G)``.

An RDF triple is ``(s, p, o) in U x U x U`` and an RDF graph is a finite set
of triples (Section 3.1; blank nodes and literals are deliberately excluded
from graphs, per footnote 5 of the paper, though the data model tolerates
nulls so that CONSTRUCT-style outputs with invented blank nodes can still be
represented).  ``tau_db(G) = { triple(a, b, c) | (a, b, c) in G }`` is the
relational view used by every translation of Section 5.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple, Union

from repro.datalog.atoms import Atom
from repro.datalog.database import Database, Instance
from repro.datalog.terms import Constant, Null

#: The relational predicate storing RDF triples.
TRIPLE_PREDICATE = "triple"

TripleLike = Tuple[Union[Constant, Null, str], Union[Constant, Null, str], Union[Constant, Null, str]]


def _as_node(value: Union[Constant, Null, str]) -> Union[Constant, Null]:
    if isinstance(value, (Constant, Null)):
        return value
    if isinstance(value, str):
        if value.startswith("_:"):
            return Null(value)
        return Constant(value)
    raise TypeError(f"RDF nodes must be URIs (constants), blank nodes or strings; got {value!r}")


class Triple:
    """An RDF triple ``(subject, predicate, object)``."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(
        self,
        subject: Union[Constant, Null, str],
        predicate: Union[Constant, Null, str],
        object: Union[Constant, Null, str],
    ):
        self.subject = _as_node(subject)
        self.predicate = _as_node(predicate)
        self.object = _as_node(object)

    def __iter__(self) -> Iterator[Union[Constant, Null]]:
        return iter((self.subject, self.predicate, self.object))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Triple) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash((Triple, self.subject, self.predicate, self.object))

    def __repr__(self) -> str:
        return f"Triple({self.subject}, {self.predicate}, {self.object})"

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.object})"

    def to_atom(self) -> Atom:
        """The relational fact ``triple(s, p, o)``."""
        return Atom(TRIPLE_PREDICATE, (self.subject, self.predicate, self.object))

    @property
    def is_ground(self) -> bool:
        """True iff every component is a URI (no blank nodes, no variables)."""
        return all(isinstance(t, Constant) for t in self)


def triple_atom(
    subject: Union[Constant, Null, str],
    predicate: Union[Constant, Null, str],
    object: Union[Constant, Null, str],
) -> Atom:
    """Shorthand for ``Triple(s, p, o).to_atom()``."""
    return Triple(subject, predicate, object).to_atom()


class RDFGraph:
    """A finite, insertion-ordered set of RDF triples; SPARQL reads the engine's store, not this."""

    def __init__(self, triples: Iterable[Union[Triple, TripleLike]] = ()):
        # Insertion-ordered (dict-backed): iteration and ``to_database()``
        # must not depend on the per-process string-hash seed, or downstream
        # null numbering (e.g. the anonymisation example) flips between
        # runs and example outputs stop being byte-comparable across modes.
        self._triples: Dict[Triple, None] = {}
        for triple in triples:
            self.add(triple)

    # -- mutation -----------------------------------------------------------

    def add(self, triple: Union[Triple, TripleLike]) -> bool:
        """Add a triple; returns True if it was new."""
        if not isinstance(triple, Triple):
            triple = Triple(*triple)
        if triple in self._triples:
            return False
        self._triples[triple] = None
        return True

    def add_all(self, triples: Iterable[Union[Triple, TripleLike]]) -> int:
        """Add many triples; returns the number genuinely new."""
        return sum(1 for t in triples if self.add(t))

    def discard(self, triple: Union[Triple, TripleLike]) -> bool:
        """Remove a triple if present; returns True if it was there."""
        if not isinstance(triple, Triple):
            triple = Triple(*triple)
        if triple not in self._triples:
            return False
        del self._triples[triple]
        return True

    def union(self, other: "RDFGraph") -> "RDFGraph":
        """A new graph holding the triples of both graphs."""
        merged = RDFGraph(self._triples)
        merged.add_all(other)
        return merged

    def __or__(self, other: "RDFGraph") -> "RDFGraph":
        return self.union(other)

    # -- set protocol -----------------------------------------------------------

    def __contains__(self, triple: Union[Triple, TripleLike]) -> bool:
        if not isinstance(triple, Triple):
            triple = Triple(*triple)
        return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RDFGraph) and self._triples.keys() == other._triples.keys()

    def __repr__(self) -> str:
        return f"RDFGraph({len(self._triples)} triples)"

    def copy(self) -> "RDFGraph":
        """An independent graph with the same triples."""
        return RDFGraph(self._triples)

    # -- lookup -------------------------------------------------------------------

    def triples(
        self,
        subject: Optional[Union[Constant, Null, str]] = None,
        predicate: Optional[Union[Constant, Null, str]] = None,
        object: Optional[Union[Constant, Null, str]] = None,
    ) -> Iterator[Triple]:
        """All triples matching the given (possibly ``None``) components, in insertion order."""
        subject = _as_node(subject) if subject is not None else None
        predicate = _as_node(predicate) if predicate is not None else None
        object = _as_node(object) if object is not None else None
        for triple in self._triples:
            if subject is not None and triple.subject != subject:
                continue
            if predicate is not None and triple.predicate != predicate:
                continue
            if object is not None and triple.object != object:
                continue
            yield triple

    def subjects(self) -> FrozenSet[Union[Constant, Null]]:
        """All subject nodes."""
        return frozenset(t.subject for t in self._triples)

    def predicates(self) -> FrozenSet[Union[Constant, Null]]:
        """All predicate nodes."""
        return frozenset(t.predicate for t in self._triples)

    def objects(self) -> FrozenSet[Union[Constant, Null]]:
        """All object nodes."""
        return frozenset(t.object for t in self._triples)

    def nodes(self) -> FrozenSet[Union[Constant, Null]]:
        """Every URI/blank node occurring anywhere in the graph."""
        nodes: Set[Union[Constant, Null]] = set()
        for triple in self._triples:
            nodes.update(triple)
        return frozenset(nodes)

    def constants(self) -> FrozenSet[Constant]:
        """Every URI (constant) occurring in the graph."""
        return frozenset(n for n in self.nodes() if isinstance(n, Constant))

    # -- relational view ------------------------------------------------------------

    def to_database(self) -> Database:
        """``tau_db(G)``: the database over ``{triple(·,·,·)}``.

        Only ground triples (URIs in every position) are representable in a
        database; graphs containing blank nodes should use
        :meth:`to_instance` instead.
        """
        for triple in self._triples:
            if not triple.is_ground:
                raise ValueError(
                    f"graph contains the non-ground triple {triple}; use to_instance()"
                )
        database = Database()
        database.bulk_load(t.to_atom() for t in self._triples)
        return database

    def to_instance(self) -> Instance:
        """The instance view, allowing blank nodes (labelled nulls)."""
        instance = Instance()
        instance.bulk_load(t.to_atom() for t in self._triples)
        return instance


def graph_to_database(graph: RDFGraph) -> Database:
    """Module-level alias for ``graph.to_database()`` (the paper's ``tau_db``)."""
    return graph.to_database()


def database_to_graph(facts: Iterable[Atom], predicate: str = TRIPLE_PREDICATE) -> RDFGraph:
    """Read an RDF graph back from ``triple(·,·,·)`` facts (CONSTRUCT-style output)."""
    graph = RDFGraph()
    for atom in facts:
        if atom.predicate != predicate or atom.arity != 3:
            continue
        graph.add(Triple(*atom.terms))  # type: ignore[arg-type]
    return graph
