"""Tests for the OWL 2 QL core entailment regimes (Sections 5.2-5.3)."""

import os
import subprocess
import sys

import pytest

from repro.datalog.semantics import INCONSISTENT
from repro.datalog.terms import Variable
from repro.owl.dllite import DLLiteReasoner
from repro.owl.model import NamedClass, Ontology, inverse, some
from repro.owl.rdf_mapping import ontology_to_graph
from repro.sparql.mappings import Mapping
from repro.sparql.parser import parse_sparql
from repro.translation.entailment_regime import (
    entailment_regime_query,
    evaluate_under_entailment,
    translate_under_entailment,
)
from repro.workloads.graphs import section2_g3
from repro.workloads.ontologies import university_ontology

X = Variable("X")


def animal_graph():
    ontology = Ontology()
    ontology.assert_class("animal", "dog")
    ontology.sub_class("animal", some("eats"))
    return ontology_to_graph(ontology)


def herbivore_graph():
    ontology = Ontology()
    ontology.assert_class("animal", "dog")
    ontology.sub_class("animal", some("eats"))
    ontology.sub_class(some(inverse("eats")), "plant_material")
    return ontology_to_graph(ontology)


class TestSection52:
    def test_active_domain_semantics_misses_anonymous_witness(self):
        """⟦(?X, eats, _:B)⟧^U is empty on the animal graph (Section 5.2)."""
        query = parse_sparql("SELECT ?X WHERE { ?X eats _:B }")
        assert evaluate_under_entailment(query, animal_graph(), "U") == set()

    def test_rewritten_restriction_query_finds_dog(self):
        query = parse_sparql("SELECT ?X WHERE { ?X rdf:type some_eats }")
        answers = evaluate_under_entailment(query, animal_graph(), "U")
        assert answers == {Mapping({X: "dog"})}

    def test_section2_g3_authors_include_aho(self):
        """Over G3 the restriction encoding makes dbAho an author (Section 2)."""
        query = parse_sparql(
            """
            SELECT ?X WHERE {
              ?Y name ?X .
              ?Y rdf:type ?Z .
              ?Z rdf:type owl:Restriction .
              ?Z owl:onProperty is_author_of .
              ?Z owl:someValuesFrom owl:Thing
            }
            """
        )
        answers = evaluate_under_entailment(query, section2_g3(), "U")
        names = {mapping[X].value for mapping in answers}
        assert "Alfred Aho" in names and "Jeffrey Ullman" in names

    def test_translations_are_triq_lite_queries(self):
        """Corollaries 5.4 / 6.2."""
        query = parse_sparql("SELECT ?X WHERE { ?X eats _:B . ?X rdf:type animal }")
        for mode in ("U", "All"):
            triq_lite, translation = entailment_regime_query(query, mode)
            assert triq_lite.report.is_triq_lite
            assert translation.answer_variables == (X,)

    def test_fixed_program_is_shared_across_patterns(self):
        """The tau_owl2ql_core rules appear verbatim in every translation (black-box reuse)."""
        from repro.owl.entailment_rules import owl2ql_core_program

        fixed_rules = set(owl2ql_core_program().rules)
        for text in ("SELECT ?X WHERE { ?X eats _:B }", "SELECT ?X WHERE { ?X rdf:type animal }"):
            translation = translate_under_entailment(parse_sparql(text), "U")
            assert fixed_rules <= set(translation.program.rules)


class TestSection53:
    def test_all_semantics_finds_anonymous_witness(self):
        query = parse_sparql("SELECT ?X WHERE { ?X eats _:B }")
        answers = evaluate_under_entailment(query, animal_graph(), "All")
        assert answers == {Mapping({X: "dog"})}

    def test_herbivore_example(self):
        """Q = {(?X, eats, _:B), (_:B, rdf:type, plant_material)} from Section 5.3."""
        query = parse_sparql(
            "SELECT ?X WHERE { ?X eats _:B . _:B rdf:type plant_material }"
        )
        assert evaluate_under_entailment(query, herbivore_graph(), "U") == set()
        assert evaluate_under_entailment(query, herbivore_graph(), "All") == {
            Mapping({X: "dog"})
        }

    def test_all_subsumes_u_answers(self):
        """Every ⟦·⟧^U answer is also a ⟦·⟧^All answer (the converse fails)."""
        graph = ontology_to_graph(university_ontology(n_departments=1, students_per_department=4))
        for text in (
            "SELECT ?X WHERE { ?X rdf:type Person }",
            "SELECT ?X WHERE { ?X worksFor _:B }",
            "SELECT ?X WHERE { ?X takesCourse _:B }",
        ):
            query = parse_sparql(text)
            u_answers = evaluate_under_entailment(query, graph, "U")
            all_answers = evaluate_under_entailment(query, graph, "All")
            assert u_answers <= all_answers


class TestAgainstOracle:
    def test_class_queries_match_dllite_instances(self):
        ontology = university_ontology(n_departments=1, students_per_department=5)
        graph = ontology_to_graph(ontology)
        reasoner = DLLiteReasoner(ontology)
        for class_name in ("Person", "Student", "Faculty", "Employee", "Course"):
            query = parse_sparql(f"SELECT ?X WHERE {{ ?X rdf:type {class_name} }}")
            answers = evaluate_under_entailment(query, graph, "U")
            datalog_individuals = {mapping[X] for mapping in answers}
            oracle_individuals = set(reasoner.instances_of(NamedClass(class_name)))
            assert datalog_individuals == oracle_individuals, class_name

    def test_inconsistent_ontology_returns_top(self):
        ontology = Ontology()
        ontology.disjoint_classes("Cat", "Dog")
        ontology.assert_class("Cat", "felix").assert_class("Dog", "felix")
        query = parse_sparql("SELECT ?X WHERE { ?X rdf:type Cat }")
        assert evaluate_under_entailment(query, ontology_to_graph(ontology), "U") is INCONSISTENT

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            translate_under_entailment(parse_sparql("SELECT ?X WHERE { ?X p ?Y }"), "bogus")


#: The ``lubm-mix6`` queries of the layer ledger (``ledger/inputs.py``).
LUBM_MIX6_QUERIES = (
    "SELECT ?X WHERE { ?X rdf:type Person }",
    "SELECT ?X WHERE { ?X rdf:type Professor }",
    "SELECT ?X ?Y WHERE { ?X rdf:type Student . ?X takesCourse ?Y }",
    "SELECT ?X WHERE { ?X worksFor _:B }",
    "SELECT ?X ?Z WHERE { { ?X rdf:type GraduateStudent } OPTIONAL { ?X advisor ?Z } }",
    "SELECT ?X WHERE { { ?X rdf:type Lecturer } UNION { ?X headOf ?D } }",
)


def test_translated_rule_order_is_the_same_in_every_process():
    # Variables hash by their class object, whose hash varies per process,
    # so a translation that walked a set of variable sets emitted its rules
    # in a different order from run to run.
    script = (
        "import sys\n"
        "from repro.sparql.parser import parse_sparql\n"
        "from repro.translation.entailment_regime import translate_under_entailment\n"
        "for query in sys.argv[1:]:\n"
        "    program = translate_under_entailment(parse_sparql(query)).program\n"
        "    print(' | '.join(map(str, program.rules)))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = set()
    for hash_seed in range(6):
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=str(hash_seed))
        result = subprocess.run(
            [sys.executable, "-c", script, *LUBM_MIX6_QUERIES],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1
