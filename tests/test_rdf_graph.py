"""Tests for the RDF graph substrate and tau_db."""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Null
from repro.rdf.graph import RDFGraph, Triple, database_to_graph, graph_to_database, triple_atom
from repro.rdf.namespaces import OWL, RDF


class TestTriple:
    def test_string_coercion(self):
        triple = Triple("a", "knows", "b")
        assert triple.subject == Constant("a") and triple.object == Constant("b")

    def test_blank_node_coercion(self):
        triple = Triple("_:b1", "knows", "a")
        assert isinstance(triple.subject, Null)
        assert not triple.is_ground

    def test_to_atom(self):
        assert Triple("a", "p", "b").to_atom() == Atom(
            "triple", (Constant("a"), Constant("p"), Constant("b"))
        )
        assert triple_atom("a", "p", "b") == Triple("a", "p", "b").to_atom()

    def test_equality_and_hash(self):
        assert Triple("a", "p", "b") == Triple("a", "p", "b")
        assert len({Triple("a", "p", "b"), Triple("a", "p", "b")}) == 1

    def test_invalid_node_type(self):
        with pytest.raises(TypeError):
            Triple(3, "p", "b")


class TestRDFGraph:
    def test_add_and_len(self):
        graph = RDFGraph()
        assert graph.add(("a", "p", "b"))
        assert not graph.add(("a", "p", "b"))
        assert len(graph) == 1
        assert ("a", "p", "b") in graph

    def test_discard(self):
        graph = RDFGraph([("a", "p", "b")])
        assert graph.discard(("a", "p", "b"))
        assert len(graph) == 0

    def test_triples_lookup_by_components(self):
        graph = RDFGraph([("a", "p", "b"), ("a", "q", "c"), ("d", "p", "b")])
        assert len(list(graph.triples(subject="a"))) == 2
        assert len(list(graph.triples(predicate="p"))) == 2
        assert len(list(graph.triples(object="b"))) == 2
        assert len(list(graph.triples(subject="a", predicate="p"))) == 1
        assert list(graph.triples(subject="zzz")) == []

    def test_triples_come_in_insertion_order(self):
        rows = [("e", "p", "b"), ("a", "p", "b"), ("c", "q", "b"), ("d", "p", "b")]
        graph = RDFGraph(rows)
        matches = [tuple(map(str, t)) for t in graph.triples(predicate="p", object="b")]
        assert matches == [rows[0], rows[1], rows[3]]
        assert list(graph.triples()) == list(graph)

    def test_union(self):
        left = RDFGraph([("a", "p", "b")])
        right = RDFGraph([("c", "p", "d")])
        assert len(left | right) == 2

    def test_node_views(self):
        graph = RDFGraph([("a", "p", "b")])
        assert graph.subjects() == {Constant("a")}
        assert graph.predicates() == {Constant("p")}
        assert graph.objects() == {Constant("b")}
        assert graph.nodes() == {Constant("a"), Constant("p"), Constant("b")}

    def test_namespace_constants_work_as_nodes(self):
        graph = RDFGraph([("r1", RDF.type, OWL.Restriction)])
        assert ("r1", "rdf:type", "owl:Restriction") in graph


class TestTauDb:
    def test_graph_to_database(self):
        graph = RDFGraph([("a", "p", "b"), ("b", "q", "c")])
        database = graph_to_database(graph)
        assert len(database) == 2
        assert Atom("triple", (Constant("a"), Constant("p"), Constant("b"))) in database

    def test_blank_nodes_rejected_in_database(self):
        graph = RDFGraph([("_:b", "p", "a")])
        with pytest.raises(ValueError):
            graph.to_database()
        assert len(graph.to_instance()) == 1

    def test_database_to_graph_roundtrip(self):
        graph = RDFGraph([("a", "p", "b"), ("b", "q", "c")])
        assert database_to_graph(graph.to_database()) == graph

    def test_database_to_graph_ignores_other_predicates(self):
        facts = [
            Atom("triple", (Constant("a"), Constant("p"), Constant("b"))),
            Atom("other", (Constant("x"),)),
        ]
        assert len(database_to_graph(facts)) == 1
