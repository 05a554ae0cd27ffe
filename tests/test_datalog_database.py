"""Unit tests for instances and databases."""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import Database, Instance
from repro.datalog.terms import Constant, Null, Variable
from repro.engine.interning import TERMS

a, b, c = Constant("a"), Constant("b"), Constant("c")
z = Null("_:z")


class TestInstance:
    def test_add_and_contains(self):
        instance = Instance()
        assert instance.add(Atom("p", (a, b)))
        assert not instance.add(Atom("p", (a, b)))  # duplicate
        assert Atom("p", (a, b)) in instance
        assert len(instance) == 1

    def test_rejects_atoms_with_variables(self):
        with pytest.raises(ValueError):
            Instance().add(Atom("p", (Variable("X"),)))

    def test_accepts_nulls(self):
        instance = Instance([Atom("p", (a, z))])
        assert instance.nulls() == {z}

    def test_discard(self):
        instance = Instance([Atom("p", (a,))])
        assert instance.discard(Atom("p", (a,)))
        assert not instance.discard(Atom("p", (a,)))
        assert len(instance) == 0
        assert list(instance.matching_ids("p", 1)) == []

    def test_with_predicate(self):
        instance = Instance([Atom("p", (a,)), Atom("q", (b,))])
        assert instance.with_predicate("p") == {Atom("p", (a,))}

    def test_matching_uses_constants(self):
        instance = Instance([Atom("p", (a, b)), Atom("p", (a, c)), Atom("p", (b, c))])
        rows = instance.matching_ids("p", 2, [(0, TERMS.intern_term(a))])
        assert {TERMS.decode(ids) for ids in rows} == {(a, b), (a, c)}

    def test_matching_no_candidates(self):
        instance = Instance([Atom("p", (a, b))])
        assert list(instance.matching_ids("p", 2, [(0, TERMS.intern_term(c))])) == []

    def test_domain_and_constants(self):
        instance = Instance([Atom("p", (a, z))])
        assert instance.domain() == {a, z}
        assert instance.constants() == {a}

    def test_ground_part(self):
        instance = Instance([Atom("p", (a,)), Atom("p", (z,))])
        assert instance.ground_part().to_set() == {Atom("p", (a,))}

    def test_copy_is_independent(self):
        instance = Instance([Atom("p", (a,))])
        copy = instance.copy()
        copy.add(Atom("p", (b,)))
        assert len(instance) == 1 and len(copy) == 2

    def test_equality_with_sets(self):
        instance = Instance([Atom("p", (a,))])
        assert instance == {Atom("p", (a,))}

    def test_sorted_atoms_deterministic(self):
        instance = Instance([Atom("q", (b,)), Atom("p", (a,))])
        assert [atom.predicate for atom in instance.sorted_atoms()] == ["p", "q"]

    def test_arity_of(self):
        instance = Instance([Atom("p", (a, b))])
        assert instance.arity_of("p") == 2
        assert instance.arity_of("missing") is None


class TestDatabase:
    def test_rejects_nulls(self):
        with pytest.raises(ValueError):
            Database().add(Atom("p", (z,)))

    def test_copy_preserves_type(self):
        database = Database([Atom("p", (a,))])
        assert isinstance(database.copy(), Database)

    def test_predicates(self):
        database = Database([Atom("p", (a,)), Atom("q", (a, b))])
        assert database.predicates == {"p", "q"}
