"""RDF graph generators: the Section 2 scenarios plus random/synthetic graphs."""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import OWL, RDF, RDFS


# ---------------------------------------------------------------------------
# The motivating graphs G1-G4 of Section 2
# ---------------------------------------------------------------------------


def section2_g1() -> RDFGraph:
    """``G1``: Ullman authored "The Complete Book"."""
    return RDFGraph(
        [
            ("dbUllman", "is_author_of", "The Complete Book"),
            ("dbUllman", "name", "Jeffrey Ullman"),
        ]
    )


def section2_g2() -> RDFGraph:
    """``G2``: ``G1`` plus the co-authorship triple about Aho."""
    graph = section2_g1()
    graph.add_all(
        [
            ("dbAho", "is_coauthor_of", "dbUllman"),
            ("dbAho", "name", "Alfred Aho"),
        ]
    )
    return graph


def section2_g3() -> RDFGraph:
    """``G3``: ``G2`` plus the OWL restrictions relating co-authorship and authorship."""
    graph = section2_g2()
    graph.add_all(
        [
            ("r1", RDF.type, OWL.Restriction),
            ("r2", RDF.type, OWL.Restriction),
            ("r1", OWL.onProperty, "is_coauthor_of"),
            ("r2", OWL.onProperty, "is_author_of"),
            ("r1", OWL.someValuesFrom, OWL.Thing),
            ("r2", OWL.someValuesFrom, OWL.Thing),
            ("r1", RDFS.subClassOf, "r2"),
        ]
    )
    return graph


def section2_g4() -> RDFGraph:
    """``G4``: the owl:sameAs scenario with DBpedia and YAGO URIs for Ullman."""
    return RDFGraph(
        [
            ("dbUllman", "is_author_of", "The Complete Book"),
            ("dbUllman", OWL.sameAs, "yagoUllman"),
            ("yagoUllman", "name", "Jeffrey Ullman"),
        ]
    )


# ---------------------------------------------------------------------------
# Transport networks (the final Section 2 scenario)
# ---------------------------------------------------------------------------


def transport_network(
    n_cities: int,
    n_services: int = 3,
    hierarchy_depth: int = 2,
    seed: int = 0,
) -> Tuple[RDFGraph, List[str]]:
    """A transport-service scenario of configurable size.

    Cities ``city0 .. city{n-1}`` form a line, consecutive cities are linked by
    a service; each concrete service (e.g. ``A311``) belongs, through a
    ``partOf`` chain of length ``hierarchy_depth``, to the ``transportService``
    node.  Returns the graph and the ordered list of city names, so callers
    know which reachability pairs to expect (all ``i < j`` pairs).
    """
    rng = random.Random(seed)
    graph = RDFGraph()
    cities = [f"city{i}" for i in range(n_cities)]

    operators = [f"operator{i}" for i in range(n_services)]
    for operator in operators:
        previous = operator
        for level in range(hierarchy_depth - 1):
            intermediate = f"{operator}_group{level}"
            graph.add((previous, "partOf", intermediate))
            previous = intermediate
        graph.add((previous, "partOf", "transportService"))

    for index in range(n_cities - 1):
        operator = operators[rng.randrange(len(operators))] if operators else "operator0"
        service = f"service{index}"
        graph.add((service, "partOf", operator))
        graph.add((cities[index], service, cities[index + 1]))
    return graph, cities


def paper_transport_graph() -> RDFGraph:
    """The exact Oxford/London/Madrid/Valladolid figure of Section 2."""
    return RDFGraph(
        [
            ("TheAirline", "partOf", "transportService"),
            ("BritishAirways", "partOf", "transportService"),
            ("Renfe", "partOf", "transportService"),
            ("A311", "partOf", "TheAirline"),
            ("BA201", "partOf", "BritishAirways"),
            ("R502", "partOf", "Renfe"),
            ("Oxford", "A311", "London"),
            ("London", "BA201", "Madrid"),
            ("Madrid", "R502", "Valladolid"),
        ]
    )


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------


def random_rdf_graph(
    n_triples: int,
    n_nodes: int = 50,
    predicates: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> RDFGraph:
    """A uniformly random RDF graph over a fixed node and predicate pool."""
    rng = random.Random(seed)
    predicates = list(predicates) if predicates else ["name", "knows", "phone", "worksFor", "cites"]
    nodes = [f"n{i}" for i in range(n_nodes)]
    graph = RDFGraph()
    attempts = 0
    while len(graph) < n_triples and attempts < 50 * n_triples:
        attempts += 1
        graph.add(
            (
                nodes[rng.randrange(n_nodes)],
                predicates[rng.randrange(len(predicates))],
                nodes[rng.randrange(n_nodes)],
            )
        )
    return graph


def random_undirected_graph(
    n_vertices: int, edge_probability: float, seed: int = 0
) -> List[Tuple[str, str]]:
    """An Erdős–Rényi style undirected graph as an edge list (for Example 4.3)."""
    rng = random.Random(seed)
    edges: List[Tuple[str, str]] = []
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < edge_probability:
                edges.append((f"v{i}", f"v{j}"))
    return edges


# ---------------------------------------------------------------------------
# Deep chains and layered graphs (the large-scale reachability series)
# ---------------------------------------------------------------------------


def chain_graph(
    length: int, branches_per_node: int = 0, predicate: str = "knows"
) -> RDFGraph:
    """A depth-``length`` chain ``c0 → c1 → … → c_length`` of ``predicate``
    edges, optionally with ``branches_per_node`` leaf branches hanging off
    every chain node.

    Transitive closure over the chain produces Θ(length²) pairs in Θ(length)
    semi-naive rounds — the deep-fixpoint shape (many small deltas) that
    stresses per-round overhead, as opposed to the wide-delta shape of
    :func:`layered_graph`.
    """
    graph = RDFGraph()
    for i in range(length):
        graph.add((f"c{i}", predicate, f"c{i + 1}"))
        for b in range(branches_per_node):
            graph.add((f"c{i}", predicate, f"c{i}b{b}"))
    return graph


def layered_graph(
    layers: int, width: int, out_degree: int = 3, seed: int = 0, predicate: str = "knows"
) -> RDFGraph:
    """A layered DAG: ``width`` nodes per layer, each with ``out_degree``
    random edges into the next layer.

    Reachability closes in Θ(layers) rounds over wide deltas of up to
    ``width²`` pairs per layer distance — the bulk-delta shape, as opposed
    to the many small deltas of :func:`chain_graph`.
    """
    rng = random.Random(seed)
    graph = RDFGraph()
    for layer in range(layers):
        for i in range(width):
            for _ in range(out_degree):
                j = rng.randrange(width)
                graph.add((f"l{layer}n{i}", predicate, f"l{layer + 1}n{j}"))
    return graph
