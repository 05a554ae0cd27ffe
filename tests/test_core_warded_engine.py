"""Tests for the polynomial warded evaluation engine (Theorem 6.7 machinery)."""

import pytest

from repro.core.warded_engine import WardedEngine
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.program import Query
from repro.datalog.semantics import INCONSISTENT
from repro.datalog.terms import Constant


def db(*facts):
    return Database([parse_atom(f) for f in facts])


class TestWardedEngineBasics:
    def test_rejects_unwarded_programs(self):
        from repro.reductions.clique import clique_program

        with pytest.raises(ValueError):
            WardedEngine(clique_program())

    def test_plain_datalog_fixpoint(self):
        program = parse_program("e(?X, ?Y) -> t(?X, ?Y). t(?X, ?Y), e(?Y, ?Z) -> t(?X, ?Z).")
        engine = WardedEngine(program)
        ground = engine.ground_semantics(db("e(a,b)", "e(b,c)", "e(c,d)"))
        assert parse_atom("t(a,d)") in ground
        assert len(ground.with_predicate("t")) == 6

    def test_matches_seminaive_on_datalog(self):
        from repro.datalog.seminaive import SemiNaiveEvaluator

        program = parse_program(
            """
            e(?X, ?Y) -> conn(?X, ?Y).
            conn(?X, ?Y), e(?Y, ?Z) -> conn(?X, ?Z).
            node(?X), not conn(?X, ?X) -> acyclic(?X).
            """
        )
        database = db("node(a)", "node(b)", "e(a,b)", "e(b,b)")
        warded = WardedEngine(program).ground_semantics(database)
        seminaive = SemiNaiveEvaluator(program).evaluate(database)
        assert warded.to_set() == seminaive.to_set()

    def test_existential_rule_invents_typed_nulls(self):
        program = parse_program("person(?X) -> exists ?Y . parent(?X, ?Y).")
        engine = WardedEngine(program)
        result = engine.materialise(db("person(a)", "person(b)"))
        assert len(result.null_types) == 2
        assert len(result.instance.with_predicate("parent")) == 2

    def test_ground_semantics_excludes_null_atoms(self):
        program = parse_program("person(?X) -> exists ?Y . parent(?X, ?Y).")
        ground = WardedEngine(program).ground_semantics(db("person(a)"))
        assert len(ground.with_predicate("parent")) == 0
        assert parse_atom("person(a)") in ground


    def test_rematerialising_interns_no_new_term(self):
        from repro.engine.interning import TERMS

        program = parse_program(
            "person(?X) -> exists ?Y . parent(?X, ?Y), person(?Y). person(?X) -> human(?X)."
        )
        engine = WardedEngine(program)
        database = db("person(a)", "person(b)")
        engine.materialise(database)
        interned = len(TERMS)
        engine.materialise(database)
        assert len(TERMS) == interned


class TestWardedEngineTermination:
    def test_terminates_on_cyclic_existential_axioms(self):
        """A DL-Lite style cycle makes the restricted chase infinite; the engine must stop."""
        program = parse_program(
            """
            a(?X) -> exists ?Y . p(?X, ?Y).
            p(?X, ?Y) -> b(?Y).
            b(?X) -> exists ?Y . q(?X, ?Y).
            q(?X, ?Y) -> a(?Y).
            """
        )
        engine = WardedEngine(program)
        result = engine.materialise(db("a(c)"))
        assert parse_atom("a(c)") in result.instance
        # Finitely many null types: the materialisation is small.
        assert len(result.instance) < 50

    def test_ground_atoms_of_cyclic_program_are_complete(self):
        program = parse_program(
            """
            a(?X) -> exists ?Y . p(?X, ?Y).
            p(?X, ?Y) -> b(?Y).
            p(?X, ?Y) -> reached(?X).
            b(?X) -> exists ?Y . q(?X, ?Y).
            q(?X, ?Y) -> a(?Y).
            q(?X, ?Y) -> reachedq(?X).
            """
        )
        ground = WardedEngine(program).ground_semantics(db("a(c)"))
        assert parse_atom("reached(c)") in ground
        # Ground atoms never mention the invented witnesses.
        assert all(atom.is_ground for atom in ground)


class TestWardedEngineAgainstChase:
    def test_ground_semantics_agrees_with_generic_chase(self):
        """On terminating programs the engine and the stratified chase agree on Pi(D)↓."""
        from repro.datalog.semantics import evaluate_program

        program = parse_program(
            """
            emp(?X) -> exists ?Y . works_for(?X, ?Y).
            works_for(?X, ?Y), mgr(?X) -> boss(?X).
            emp(?X), not mgr(?X) -> worker(?X).
            """
        )
        database = db("emp(a)", "emp(b)", "mgr(a)")
        warded_ground = WardedEngine(program).ground_semantics(database)
        chase_ground = evaluate_program(program, database).ground_part()
        assert warded_ground.to_set() == chase_ground.to_set()

    def test_materialisation_equals_the_chase_null_labels_included(self):
        """Both routes name a null by its trigger, so their facts are equal as text."""
        from repro.datalog.semantics import StratifiedSemantics

        program = parse_program(
            "emp(?X) -> exists ?D . worksIn(?X, ?D). worksIn(?X, ?D) -> hasDept(?X)."
        )
        database = db("emp(a)", "emp(b)")
        warded = WardedEngine(program).materialise(database).instance
        chase = StratifiedSemantics(program).materialise(database)
        assert sorted(map(str, warded)) == sorted(map(str, chase))

    def test_owl_entailment_fixed_program_agrees_with_chase(self):
        from repro.datalog.semantics import evaluate_program
        from repro.owl.entailment_rules import owl2ql_core_program
        from repro.workloads.ontologies import chain_ontology_graph

        program = owl2ql_core_program()
        database = chain_ontology_graph(3).to_database()
        warded_ground = WardedEngine(program).ground_semantics(database)
        chase_ground = evaluate_program(program, database).ground_part()
        assert warded_ground.to_set() == chase_ground.to_set()


class TestWardedEngineQueries:
    def test_evaluate_query(self):
        program = parse_program("p(?X) -> exists ?Y . s(?X, ?Y). s(?X, ?Y) -> hasS(?X).")
        engine = WardedEngine(program)
        query = Query(program, "hasS", 1)
        assert engine.evaluate_query(query, db("p(a)")) == {(Constant("a"),)}

    def test_constraints_yield_inconsistent(self):
        program = parse_program(
            """
            p(?X) -> q(?X).
            q(?X), bad(?X) -> false.
            """
        )
        engine = WardedEngine(program)
        query = Query(program, "missing", output_arity=1)
        assert engine.evaluate_query(query, db("p(a)", "bad(a)")) is INCONSISTENT
        assert not engine.is_consistent(db("p(a)", "bad(a)"))
        assert engine.is_consistent(db("p(a)"))

    def test_provenance_recorded(self):
        program = parse_program("e(?X, ?Y) -> t(?X, ?Y).")
        engine = WardedEngine(program)
        result = engine.materialise(db("e(a,b)"))
        fact = parse_atom("t(a,b)")
        rule, body = result.provenance[fact]
        assert body == (parse_atom("e(a,b)"),)

    def test_null_types_record_the_rules_position_in_the_program(self):
        """Two existential rules in different strata invent nulls of different types.

        The rule half of a null's type is the rule's position in
        ``program.rules``, not its index inside its stratum: with the latter,
        both rules below would record ``0``, and with a shared existential
        variable name the two null types would be equal.
        """
        program = parse_program(
            """
            a(?X) -> exists ?Y . r(?X, ?Y).
            b(?X) -> q(?X).
            a(?X), not q(?X) -> exists ?Y . s(?X, ?Y).
            """
        )
        result = WardedEngine(program).materialise(db("a(c)"))
        by_predicate = {
            atom.predicate: result.null_types[atom.terms[1]]
            for atom in result.instance
            if atom.predicate in ("r", "s")
        }
        assert by_predicate["r"][0] == 0
        assert by_predicate["s"][0] == 2
        assert by_predicate["r"] != by_predicate["s"]
        for position, _, _ in by_predicate.values():
            assert program.rules[position].has_existentials
