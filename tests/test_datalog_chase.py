"""Unit tests for the chase procedure."""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine, ChaseNonTermination, ChaseState, match_atoms
from repro.datalog.database import Database, Instance
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.terms import Constant, Null, Variable


def db(*facts):
    return Database([parse_atom(f) for f in facts])


class TestMatchAtoms:
    def test_join_two_atoms(self):
        instance = Instance([parse_atom("e(a,b)"), parse_atom("e(b,c)")])
        program = parse_program("e(?X, ?Y), e(?Y, ?Z) -> t(?X, ?Z).")
        rule = program.rules[0]
        matches = list(match_atoms(rule.body_positive, instance))
        assert len(matches) == 1
        assert matches[0][Variable("X")] == Constant("a")
        assert matches[0][Variable("Z")] == Constant("c")

    def test_initial_binding_respected(self):
        instance = Instance([parse_atom("e(a,b)"), parse_atom("e(c,d)")])
        pattern = [Atom("e", (Variable("X"), Variable("Y")))]
        matches = list(match_atoms(pattern, instance, initial={Variable("X"): Constant("c")}))
        assert len(matches) == 1 and matches[0][Variable("Y")] == Constant("d")

    def test_no_match(self):
        instance = Instance([parse_atom("e(a,b)")])
        assert list(match_atoms([parse_atom("f(?X, ?Y)")], instance)) == []


class TestChaseDatalog:
    def test_transitive_closure(self):
        program = parse_program(
            "e(?X, ?Y) -> t(?X, ?Y). e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z)."
        )
        result = ChaseEngine().chase(db("e(a,b)", "e(b,c)", "e(c,d)"), program)
        assert parse_atom("t(a,d)") in result.instance
        assert result.completed
        assert len(result.instance.with_predicate("t")) == 6

    def test_multi_atom_head(self):
        program = parse_program("triple(?X, ?Y, ?Z) -> C(?X), C(?Y), C(?Z).")
        result = ChaseEngine().chase(db("triple(a, p, b)"), program)
        assert len(result.instance.with_predicate("C")) == 3


class TestChaseExistential:
    def test_invents_nulls(self):
        program = parse_program("person(?X) -> exists ?Y . parent(?X, ?Y).")
        result = ChaseEngine().chase(db("person(alice)"), program)
        parents = list(result.instance.with_predicate("parent"))
        assert len(parents) == 1
        assert isinstance(parents[0].terms[1], Null)
        assert result.invented_nulls == 1

    def test_restricted_chase_does_not_refire_satisfied_heads(self):
        program = parse_program(
            """
            person(?X) -> exists ?Y . parent(?X, ?Y).
            parent(?X, ?Y) -> person(?X).
            """
        )
        result = ChaseEngine().chase(db("person(alice)", "parent(alice, bob)"), program)
        # alice already has a parent, so no null should be invented for her
        assert result.invented_nulls == 0

    def test_shared_nulls_across_head_atoms(self):
        program = parse_program(
            "coauthor(?X, ?Y) -> exists ?Z . author_of(?X, ?Z), author_of(?Y, ?Z)."
        )
        result = ChaseEngine().chase(db("coauthor(aho, ullman)"), program)
        atoms = list(result.instance.with_predicate("author_of"))
        assert len(atoms) == 2
        nulls = {a.terms[1] for a in atoms}
        assert len(nulls) == 1  # the same blank node witnesses both

    def test_restricted_chase_terminates_on_self_satisfying_rule(self):
        # p(a) already provides a witness for the head, so the restricted
        # chase must not invent anything.
        program = parse_program("p(?X) -> exists ?Y . p(?Y).")
        result = ChaseEngine().chase(db("p(a)"), program)
        assert result.completed and result.invented_nulls == 0

    def test_infinite_chase_stopped_by_depth_bound(self):
        program = parse_program("p(?X) -> exists ?Y . q(?X, ?Y). q(?X, ?Y) -> p(?Y).")
        result = ChaseEngine(max_null_depth=5, on_limit="stop").chase(db("p(a)"), program)
        assert not result.completed
        assert result.limit_reason is not None

    # An unbounded null chain beside a finite transitive closure.
    GROW_AND_REACH = """
        grow(?X) -> exists ?Y . next(?X, ?Y), grow(?Y).
        e(?X, ?Y) -> reach(?X, ?Y).
        reach(?X, ?Y), e(?Y, ?Z) -> reach(?X, ?Z).
    """
    CHAIN = [f"e(v{i}, v{i + 1})" for i in range(8)]

    def test_depth_bound_cuts_only_too_deep_triggers(self):
        program = parse_program(self.GROW_AND_REACH)
        result = ChaseEngine(max_null_depth=2, on_limit="stop").chase(
            db("grow(v0)", *self.CHAIN), program
        )
        assert not result.completed
        assert result.limit_reason == "max_null_depth=2 exceeded"
        assert len(result.instance.with_predicate("reach")) == 36
        assert result.invented_nulls == 2

    def test_depth_bound_cuts_only_too_deep_triggers_on_resume(self):
        program = parse_program(self.GROW_AND_REACH)
        engine = ChaseEngine(max_null_depth=2, on_limit="stop")
        state = ChaseState()
        instance = engine.chase(db("grow(v0)"), program, state=state).instance
        delta = Instance(db("grow(w0)", *self.CHAIN))
        instance.bulk_load(delta)
        result = engine.resume(instance, program, delta, state=state)
        assert not result.completed
        assert len(instance.with_predicate("reach")) == 36
        assert result.invented_nulls == 2

    def test_infinite_chase_raises_when_asked(self):
        program = parse_program("p(?X) -> exists ?Y . q(?X, ?Y). q(?X, ?Y) -> p(?Y).")
        with pytest.raises(ChaseNonTermination):
            ChaseEngine(max_null_depth=3, on_limit="raise").chase(db("p(a)"), program)

    def test_max_steps_guard(self):
        program = parse_program("e(?X, ?Y) -> t(?X, ?Y). t(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).")
        facts = [f"e(v{i}, v{i + 1})" for i in range(30)]
        result = ChaseEngine(max_steps=10, on_limit="stop").chase(db(*facts), program)
        assert not result.completed
        assert result.steps == 10 and result.invented_nulls == 0
        assert result.limit_reason == "max_steps=10 exceeded"
        # The budget ends the first round mid-way: 30 e facts plus 10 of t.
        assert len(result.instance) == 40
        with pytest.raises(ChaseNonTermination, match="max_steps=10 exceeded"):
            ChaseEngine(max_steps=10, on_limit="raise").chase(db(*facts), program)


class TestChaseNegation:
    def test_negation_against_reference(self):
        program = parse_program("node(?X), not banned(?X) -> ok(?X).")
        database = db("node(a)", "node(b)", "banned(b)")
        reference = Instance(database)
        result = ChaseEngine().chase(database, program, negation_reference=reference)
        assert parse_atom("ok(a)") in result.instance
        assert parse_atom("ok(b)") not in result.instance
