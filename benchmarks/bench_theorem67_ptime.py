"""Experiment T6.7 — PTime data complexity of TriQ-Lite 1.0.

Theorem 6.7: Eval for TriQ-Lite 1.0 is PTime-complete in data complexity.
The benchmark runs the fixed entailment-regime query (program fixed = data
complexity) over university ABoxes of growing size and fits the growth
exponent of the warded engine's runtime and output: it must look polynomial
with a small exponent, in sharp contrast with the T4.4 series.
"""

import math
import time

import pytest

from repro.owl.rdf_mapping import ontology_to_graph
from repro.sparql.parser import parse_sparql
from repro.translation.entailment_regime import entailment_regime_query
from repro.workloads.ontologies import university_ontology

QUERY_TEXT = "SELECT ?X WHERE { ?X rdf:type Person }"
SCALES = [(1, 5), (2, 10), (3, 20)]


def _database(departments, students):
    ontology = university_ontology(
        n_departments=departments, students_per_department=students
    )
    return ontology_to_graph(ontology).to_database()


@pytest.mark.parametrize("departments,students", SCALES)
def test_theorem67_fixed_query_growing_data(benchmark, departments, students):
    query, _ = entailment_regime_query(parse_sparql(QUERY_TEXT), "U")
    database = _database(departments, students)

    answers = benchmark.pedantic(lambda: query.evaluate(database), rounds=1, iterations=1)
    assert answers and answers is not None
    benchmark.extra_info["triples"] = len(database)
    benchmark.extra_info["answers"] = len(answers)


def test_theorem67_growth_exponent_is_polynomial(benchmark):
    """Fit log(time) against log(data size): the exponent stays small (< 3)."""
    query, _ = entailment_regime_query(parse_sparql(QUERY_TEXT), "U")

    def measure():
        points = []
        for departments, students in SCALES:
            database = _database(departments, students)
            start = time.perf_counter()
            answers = query.evaluate(database)
            elapsed = time.perf_counter() - start
            points.append((len(database), max(elapsed, 1e-4), len(answers)))
        return points

    points = benchmark.pedantic(measure, rounds=1, iterations=1)
    # The small point is ~15 ms, so one scheduler hiccup in a single-shot
    # timing bends the fitted exponent past the bound: time each scale as the
    # min of three passes.  The two extra passes run outside the benchmarked
    # call, so the record's counters and wall time stay those of one pass.
    passes = [points, measure(), measure()]
    (n0, _, _), (n1, _, _) = points[0], points[-1]
    t0 = min(run[0][1] for run in passes)
    t1 = min(run[-1][1] for run in passes)
    exponent = math.log(t1 / t0) / math.log(n1 / n0)
    assert exponent < 3.0, f"runtime grows with exponent {exponent:.2f}; expected polynomial"
    # Answers grow linearly with the ABox.
    assert points[-1][2] > points[0][2]
    benchmark.extra_info["points"] = points
    benchmark.extra_info["fitted_exponent"] = round(exponent, 2)
