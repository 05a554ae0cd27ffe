"""Scale series L — LUBM-style university workloads.

University-scale materialisation (ROADMAP: "wider workloads").  The fixed
entailment-regime query of the Theorem 6.7 series runs over the richer
multi-university ABoxes of
:func:`repro.workloads.ontologies.lubm_style_ontology` at three scales, so
the per-round deltas are far larger than the paper-figure scenarios'.
"""

import pytest

from repro.owl.rdf_mapping import ontology_to_graph
from repro.sparql.parser import parse_sparql
from repro.translation.entailment_regime import entailment_regime_query
from repro.workloads.ontologies import lubm_style_ontology

QUERY_TEXT = "SELECT ?X WHERE { ?X rdf:type Person }"

#: (universities, departments per university, students per department)
SCALES = [(1, 2, 20), (2, 3, 30), (3, 4, 40)]


def _database(universities, departments, students):
    ontology = lubm_style_ontology(
        n_universities=universities,
        departments_per_university=departments,
        faculty_per_department=4,
        students_per_department=students,
        courses_per_department=6,
    )
    return ontology_to_graph(ontology).to_database()


@pytest.mark.parametrize("universities,departments,students", SCALES)
def test_lubm_person_query(benchmark, universities, departments, students):
    query, _ = entailment_regime_query(parse_sparql(QUERY_TEXT), "U")
    database = _database(universities, departments, students)

    answers = benchmark.pedantic(lambda: query.evaluate(database), rounds=1, iterations=1)
    assert len(answers) >= universities * departments * (students + 4)
    benchmark.extra_info["triples"] = len(database)
    benchmark.extra_info["answers"] = len(answers)
