"""Tests for the SPARQL evaluation semantics ⟦P⟧_G (Section 3.1)."""

from repro.datalog.terms import Constant, Variable
from repro.engine.interning import TERMS
from repro.rdf.graph import RDFGraph
from repro.sparql.ast import (
    And,
    BGP,
    Bound,
    EqualsConstant,
    EqualsVariable,
    Filter,
    Not,
    Opt,
    OrCondition,
    Select,
    Union,
)
from repro.sparql.evaluator import evaluate_pattern, satisfies
from repro.sparql.mappings import Mapping

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
N = Variable("N")


def graph():
    return RDFGraph(
        [
            ("alice", "name", "Alice"),
            ("alice", "phone", "123"),
            ("bob", "name", "Bob"),
            ("alice", "knows", "bob"),
        ]
    )


class TestBGP:
    def test_single_pattern(self):
        result = evaluate_pattern(BGP.of(("?X", "name", "?Y")), graph())
        assert Mapping({X: "alice", Y: "Alice"}) in result
        assert len(result) == 2

    def test_join_within_bgp(self):
        result = evaluate_pattern(BGP.of(("?X", "name", "?Y"), ("?X", "phone", "?Z")), graph())
        assert result == {Mapping({X: "alice", Y: "Alice", Z: "123"})}

    def test_blank_nodes_are_existential(self):
        pattern = BGP.of(("?X", "phone", "_:B"))
        result = evaluate_pattern(pattern, graph())
        assert result == {Mapping({X: "alice"})}

    def test_constants_must_match(self):
        result = evaluate_pattern(BGP.of(("bob", "name", "?Y")), graph())
        assert result == {Mapping({Y: "Bob"})}

    def test_empty_bgp_yields_empty_mapping(self):
        assert evaluate_pattern(BGP(()), graph()) == {Mapping({})}

    def test_repeated_variable(self):
        g = RDFGraph([("a", "p", "a"), ("a", "p", "b")])
        result = evaluate_pattern(BGP.of(("?X", "p", "?X")), g)
        assert result == {Mapping({X: "a"})}


class TestOperators:
    def test_and(self):
        pattern = And(BGP.of(("?X", "name", "?Y")), BGP.of(("?X", "phone", "?Z")))
        assert evaluate_pattern(pattern, graph()) == {
            Mapping({X: "alice", Y: "Alice", Z: "123"})
        }

    def test_union(self):
        pattern = Union(BGP.of(("?X", "phone", "?Z")), BGP.of(("?X", "knows", "?Z")))
        assert len(evaluate_pattern(pattern, graph())) == 2

    def test_opt_keeps_unmatched_left(self):
        pattern = Opt(BGP.of(("?X", "name", "?Y")), BGP.of(("?X", "phone", "?Z")))
        result = evaluate_pattern(pattern, graph())
        assert Mapping({X: "alice", Y: "Alice", Z: "123"}) in result
        assert Mapping({X: "bob", Y: "Bob"}) in result

    def test_filter_equals_constant(self):
        pattern = Filter(BGP.of(("?X", "name", "?Y")), EqualsConstant(Y, Constant("Alice")))
        assert evaluate_pattern(pattern, graph()) == {Mapping({X: "alice", Y: "Alice"})}

    def test_filter_bound_after_opt(self):
        pattern = Filter(
            Opt(BGP.of(("?X", "name", "?Y")), BGP.of(("?X", "phone", "?Z"))),
            Bound(Z),
        )
        assert evaluate_pattern(pattern, graph()) == {
            Mapping({X: "alice", Y: "Alice", Z: "123"})
        }

    def test_filter_negation(self):
        pattern = Filter(
            BGP.of(("?X", "name", "?Y")), Not(EqualsConstant(Y, Constant("Alice")))
        )
        assert evaluate_pattern(pattern, graph()) == {Mapping({X: "bob", Y: "Bob"})}

    def test_select_projects(self):
        pattern = Select([X], BGP.of(("?X", "name", "?Y")))
        assert evaluate_pattern(pattern, graph()) == {
            Mapping({X: "alice"}),
            Mapping({X: "bob"}),
        }

    def test_nested_operators(self):
        pattern = Select(
            [X, Z],
            And(
                Union(BGP.of(("?X", "name", "Alice")), BGP.of(("?X", "name", "Bob"))),
                Opt(BGP.of(("?X", "name", "?Y")), BGP.of(("?X", "phone", "?Z"))),
            ),
        )
        result = evaluate_pattern(pattern, graph())
        assert Mapping({X: "alice", Z: "123"}) in result
        assert Mapping({X: "bob"}) in result


class TestEveryCallReadsTheGraphAsItIs:
    """``evaluate_pattern`` answers over the graph as it is at each call."""

    KNOWS = BGP.of(("?X", "knows", "?Y"))

    def test_add_and_discard_between_calls(self):
        g = graph()
        assert evaluate_pattern(self.KNOWS, g) == {Mapping({X: "alice", Y: "bob"})}
        g.add(("bob", "knows", "carol"))
        assert evaluate_pattern(self.KNOWS, g) == {
            Mapping({X: "alice", Y: "bob"}),
            Mapping({X: "bob", Y: "carol"}),
        }
        g.discard(("alice", "knows", "bob"))
        assert evaluate_pattern(self.KNOWS, g) == {Mapping({X: "bob", Y: "carol"})}
        g.discard(("bob", "knows", "carol"))
        assert evaluate_pattern(self.KNOWS, g) == set()

    @staticmethod
    def blank_graph():
        return RDFGraph(
            [
                ("_:b1", "knows", "alice"),
                ("_:b1", "name", "B1"),
                ("_:b2", "knows", "bob"),
                ("_:b2", "name", "B2"),
                ("carol", "knows", "_:b2"),
            ]
        )

    #: Joins on the data's blank nodes, projected onto URIs.
    NAMED = Select([Y, N], BGP.of(("?X", "knows", "?Y"), ("?X", "name", "?N")))
    EXPECTED = {Mapping({Y: "alice", N: "B1"}), Mapping({Y: "bob", N: "B2"})}

    def test_data_holding_blank_nodes(self):
        g = self.blank_graph()
        assert evaluate_pattern(self.NAMED, g) == self.EXPECTED
        # A pattern blank node is existential over the data's blank nodes.
        assert evaluate_pattern(
            BGP.of(("carol", "knows", "_:B"), ("_:B", "name", "?N")), g
        ) == {Mapping({N: "B2"})}

    def test_before_and_after_an_epoch_reset(self):
        # A ground graph outlives the reset (constant IDs survive it); a
        # null-bearing one belongs to the old epoch and is rebuilt after.
        ground = graph()
        assert evaluate_pattern(self.KNOWS, ground) == {Mapping({X: "alice", Y: "bob"})}
        assert evaluate_pattern(self.NAMED, self.blank_graph()) == self.EXPECTED
        TERMS.begin_epoch()
        # Other nulls take the reset null space first, so the rebuilt
        # graph's blank nodes get IDs other than their pre-reset ones.
        for label in ("_:e1", "_:e2", "_:e3"):
            TERMS.intern_null(label)
        assert evaluate_pattern(self.KNOWS, ground) == {Mapping({X: "alice", Y: "bob"})}
        ground.add(("bob", "knows", "alice"))
        assert evaluate_pattern(self.KNOWS, ground) == {
            Mapping({X: "alice", Y: "bob"}),
            Mapping({X: "bob", Y: "alice"}),
        }
        rebuilt = self.blank_graph()
        assert evaluate_pattern(self.NAMED, rebuilt) == self.EXPECTED
        rebuilt.discard(("_:b2", "name", "B2"))
        assert evaluate_pattern(self.NAMED, rebuilt) == {Mapping({Y: "alice", N: "B1"})}


class TestConditionSatisfaction:
    def test_bound(self):
        assert satisfies(Mapping({X: "a"}), Bound(X))
        assert not satisfies(Mapping({}), Bound(X))

    def test_equals_variable(self):
        assert satisfies(Mapping({X: "a", Y: "a"}), EqualsVariable(X, Y))
        assert not satisfies(Mapping({X: "a", Y: "b"}), EqualsVariable(X, Y))
        assert not satisfies(Mapping({X: "a"}), EqualsVariable(X, Y))

    def test_boolean_connectives(self):
        condition = OrCondition(EqualsConstant(X, Constant("a")), Bound(Y))
        assert satisfies(Mapping({X: "a"}), condition)
        assert satisfies(Mapping({X: "zzz", Y: "w"}), condition)
        assert not satisfies(Mapping({X: "zzz"}), condition)
