"""Unit tests for semi-naive evaluation of Datalog with stratified negation."""

import pytest

from repro.datalog.chase import violates
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rules import RuleError
from repro.datalog.seminaive import SemiNaiveEvaluator


def db(*facts):
    return Database([parse_atom(f) for f in facts])


class TestSemiNaive:
    def test_transitive_closure(self):
        program = parse_program(
            "e(?X, ?Y) -> t(?X, ?Y). t(?X, ?Y), e(?Y, ?Z) -> t(?X, ?Z)."
        )
        evaluator = SemiNaiveEvaluator(program)
        facts = evaluator.facts_of(db("e(a,b)", "e(b,c)", "e(c,d)"), "t")
        assert parse_atom("t(a,d)") in facts
        assert len(facts) == 6

    def test_matches_chase_on_positive_programs(self):
        from repro.datalog.chase import ChaseEngine

        program = parse_program(
            """
            e(?X, ?Y) -> conn(?X, ?Y).
            conn(?X, ?Y), e(?Y, ?Z) -> conn(?X, ?Z).
            conn(?X, ?Y), conn(?Y, ?X) -> cycle(?X).
            """
        )
        database = db("e(a,b)", "e(b,a)", "e(b,c)")
        seminaive = SemiNaiveEvaluator(program).evaluate(database)
        chase = ChaseEngine().chase(database, program).instance
        assert seminaive.to_set() == chase.to_set()

    def test_stratified_negation(self):
        program = parse_program(
            """
            e(?X, ?Y) -> reach(?X, ?Y).
            reach(?X, ?Y), e(?Y, ?Z) -> reach(?X, ?Z).
            node(?X), node(?Y), not reach(?X, ?Y) -> unreachable(?X, ?Y).
            """
        )
        database = db("node(a)", "node(b)", "node(c)", "e(a,b)")
        evaluator = SemiNaiveEvaluator(program)
        unreachable = evaluator.facts_of(database, "unreachable")
        assert parse_atom("unreachable(b, c)") in unreachable
        assert parse_atom("unreachable(a, b)") not in unreachable

    def test_two_levels_of_negation(self):
        program = parse_program(
            """
            p(?X), not q(?X) -> r(?X).
            p(?X), not r(?X) -> s(?X).
            """
        )
        database = db("p(a)", "p(b)", "q(b)")
        evaluator = SemiNaiveEvaluator(program)
        result = evaluator.evaluate(database)
        assert parse_atom("r(a)") in result and parse_atom("r(b)") not in result
        assert parse_atom("s(b)") in result and parse_atom("s(a)") not in result

    def test_rejects_existential_rules(self):
        program = parse_program("p(?X) -> exists ?Y . q(?X, ?Y).")
        with pytest.raises(RuleError):
            SemiNaiveEvaluator(program)

    def test_constraint_detection(self):
        program = parse_program(
            """
            p(?X) -> q(?X).
            q(?X), bad(?X) -> false.
            """
        )
        evaluator = SemiNaiveEvaluator(program)
        instance = evaluator.evaluate(db("p(a)", "bad(a)"))
        assert violates(program.constraints, instance)
        instance_ok = evaluator.evaluate(db("p(a)"))
        assert not violates(program.constraints, instance_ok)

    def test_multi_head_rules(self):
        program = parse_program("triple(?X, ?Y, ?Z) -> dom(?X), dom(?Z).")
        result = SemiNaiveEvaluator(program).evaluate(db("triple(a, p, b)"))
        assert parse_atom("dom(a)") in result and parse_atom("dom(b)") in result

    def test_empty_database(self):
        program = parse_program("e(?X, ?Y) -> t(?X, ?Y).")
        result = SemiNaiveEvaluator(program).evaluate(Database())
        assert len(result) == 0
