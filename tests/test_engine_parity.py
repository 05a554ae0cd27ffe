"""Differential tests: compiled join plans vs the legacy interpretive matcher.

The compiled core (:mod:`repro.engine.plan`) must produce *exactly* the
substitution sets of the seed's backtracking matcher, which is preserved
verbatim as :func:`engine_reference.reference_match_atoms`.  These
tests compare the two across the ``workloads/`` generators — random RDF
graphs, chain ontologies, and k-clique reductions — and additionally check
the engines end-to-end (atom-for-atom equal instances) on programs with
negation and existentials, where a naive fixpoint built on the reference
matcher serves as the oracle.
"""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine, match_atoms
from repro.datalog.database import Instance
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.stratification import partition_by_stratum, stratify
from repro.datalog.terms import Constant, Variable
from repro.reductions.clique import clique_database, clique_program
from repro.workloads.graphs import random_rdf_graph, transport_network
from repro.workloads.ontologies import chain_ontology_graph, university_graph

from engine_reference import reference_match_atoms, reference_satisfies_some


def canonical(substitutions):
    """Order-insensitive, hashable form of a substitution iterator."""
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in s.items())) for s in substitutions
    )


def assert_same_matches(atoms, instance, initial=None):
    compiled = canonical(match_atoms(atoms, instance, initial))
    reference = canonical(reference_match_atoms(atoms, instance, initial))
    assert compiled == reference


def naive_stratified_fixpoint(program, database):
    """Oracle evaluator: naive iteration with the reference matcher only."""
    stratification = stratify(program.ex())
    strata = partition_by_stratum(program.ex(), stratification)
    instance = Instance(database)
    for rules in strata:
        if not rules:
            continue
        reference = Instance(instance)  # frozen copy of the lower strata
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for sub in list(reference_match_atoms(rule.body_positive, instance)):
                    if rule.body_negative and reference_satisfies_some(
                        rule.body_negative, reference, sub
                    ):
                        continue
                    for head_atom in rule.head:
                        if instance.add(head_atom.apply(sub)):
                            changed = True
    return instance


V = Variable
TRIPLE = "triple"


class TestMatchParityOnWorkloads:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_rdf_graph_patterns(self, seed):
        graph = random_rdf_graph(n_triples=120, n_nodes=25, seed=seed)
        instance = graph.to_database()
        knows, works = Constant("knows"), Constant("worksFor")
        bodies = [
            (Atom(TRIPLE, (V("X"), knows, V("Y"))),),
            (
                Atom(TRIPLE, (V("X"), knows, V("Y"))),
                Atom(TRIPLE, (V("Y"), knows, V("Z"))),
            ),
            (
                Atom(TRIPLE, (V("X"), knows, V("Y"))),
                Atom(TRIPLE, (V("X"), works, V("W"))),
                Atom(TRIPLE, (V("Y"), works, V("W"))),
            ),
            # Repeated variable: self-loops.
            (Atom(TRIPLE, (V("X"), V("P"), V("X"))),),
        ]
        for body in bodies:
            assert_same_matches(body, instance)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_chain_ontology_joins(self, n):
        instance = chain_ontology_graph(n).to_database()
        sub_class = Constant("rdfs:subClassOf")
        body = (
            Atom(TRIPLE, (V("A"), sub_class, V("B"))),
            Atom(TRIPLE, (V("B"), sub_class, V("C"))),
        )
        assert_same_matches(body, instance)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
    def test_clique_reduction_bodies(self, n, k):
        edges = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)]
        instance = clique_database(edges, k)
        for rule in clique_program().rules:
            assert_same_matches(rule.body_positive, instance)

    def test_university_graph_with_seed_bindings(self):
        instance = university_graph(
            n_departments=1, students_per_department=4
        ).to_database()
        rdf_type = Constant("rdf:type")
        body = (Atom(TRIPLE, (V("X"), rdf_type, V("C"))),)
        classes = {s[V("C")] for s in reference_match_atoms(body, instance)}
        for cls in sorted(classes, key=str):
            assert_same_matches(body, instance, initial={V("C"): cls})

    def test_transport_network_paths(self):
        graph, _ = transport_network(8, n_services=2)
        instance = graph.to_database()
        part_of = Constant("partOf")
        body = (
            Atom(TRIPLE, (V("X"), part_of, V("Y"))),
            Atom(TRIPLE, (V("Y"), part_of, V("Z"))),
        )
        assert_same_matches(body, instance)
        # City links use per-edge service predicates: join through them too.
        body = (
            Atom(TRIPLE, (V("A"), V("S"), V("B"))),
            Atom(TRIPLE, (V("S"), part_of, V("O"))),
        )
        assert_same_matches(body, instance)


class TestEngineParity:
    def test_seminaive_equals_naive_oracle_with_negation(self):
        program = parse_program(
            """
            edge(?X, ?Y) -> node(?X), node(?Y).
            edge(?X, ?Y) -> reach(?X, ?Y).
            reach(?X, ?Y), edge(?Y, ?Z) -> reach(?X, ?Z).
            node(?X), node(?Y), not reach(?X, ?Y) -> unreachable(?X, ?Y).
            """
        )
        database = [
            Atom("edge", (Constant("a"), Constant("b"))),
            Atom("edge", (Constant("b"), Constant("c"))),
            Atom("edge", (Constant("d"), Constant("d"))),
        ]
        compiled = SemiNaiveEvaluator(program).evaluate(database)
        oracle = naive_stratified_fixpoint(program, database)
        assert compiled.to_set() == oracle.to_set()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seminaive_equals_oracle_on_random_graph(self, seed):
        graph = random_rdf_graph(n_triples=60, n_nodes=12, seed=seed)
        program = parse_program(
            """
            triple(?X, knows, ?Y) -> knows(?X, ?Y).
            knows(?X, ?Y) -> connected(?X, ?Y).
            connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
            knows(?X, ?Y), not connected(?Y, ?X) -> oneway(?X, ?Y).
            """
        )
        database = graph.to_database()
        compiled = SemiNaiveEvaluator(program).evaluate(database)
        oracle = naive_stratified_fixpoint(program, database)
        assert compiled.to_set() == oracle.to_set()

    def test_restricted_chase_parity_on_existentials(self):
        program = parse_program(
            """
            person(?X) -> exists ?Y . parent(?X, ?Y), person(?Y).
            """
        )
        database = [
            Atom("person", (Constant("alice"),)),
            Atom("parent", (Constant("alice"), Constant("bob"))),
            Atom("person", (Constant("bob"),)),
        ]
        result = ChaseEngine(max_null_depth=2, on_limit="stop").chase(
            database, program
        )
        # alice's head is satisfiable (bob); bob triggers invention up to the
        # depth bound — the ground part must be exactly the input.
        assert result.instance.ground_part().to_set() == set(database)
        assert all(
            atom.predicate in {"person", "parent"} for atom in result.instance
        )

    def test_chase_negation_against_reference_instance(self):
        program = parse_program("p(?X), not q(?X) -> r(?X).")
        database = [Atom("p", (Constant("a"),)), Atom("p", (Constant("b"),))]
        reference = Instance(database + [Atom("q", (Constant("a"),))])
        result = ChaseEngine().chase(database, program, negation_reference=reference)
        assert Atom("r", (Constant("b"),)) in result.instance
        assert Atom("r", (Constant("a"),)) not in result.instance
