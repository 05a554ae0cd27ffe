"""Seeded inputs of the five ledger workloads, and the oracles that check them.

Everything here is a pure function of ``(seed, smoke)``: the same seed gives
the same graphs, schedules and write batches.  The program under test only
ever receives what these functions return, as text or facts.
"""

from __future__ import annotations

import random

from repro.datalog.parser import parse_program
from repro.rdf.parser import serialize_ntriples
from repro.workloads.graphs import layered_graph
from repro.workloads.ontologies import lubm_style_graph
from repro.workloads.streams import sliding_social_stream

#: LUBM[3-4-40]: 1 769 triples / 65 KB of N-Triples, 13.8 k materialised facts.
LUBM_SCALE = dict(
    n_universities=3,
    departments_per_university=4,
    faculty_per_department=4,
    students_per_department=40,
    courses_per_department=6,
)
LUBM_SMOKE_SCALE = dict(
    n_universities=1,
    departments_per_university=1,
    faculty_per_department=4,
    students_per_department=6,
    courses_per_department=2,
)

#: ``lubm-mix6``: one query per translation feature the paper's Section 5
#: exercises, over the LUBM-style vocabulary.  The order is the pass order
#: of ``lubm-cold``; the serve workloads draw seeded permutations of it.
LUBM_MIX6 = (
    ("person", "SELECT ?X WHERE { ?X rdf:type Person }"),
    ("professor", "SELECT ?X WHERE { ?X rdf:type Professor }"),
    ("student-join", "SELECT ?X ?Y WHERE { ?X rdf:type Student . ?X takesCourse ?Y }"),
    ("worksfor-blank", "SELECT ?X WHERE { ?X worksFor _:B }"),
    (
        "grad-optional",
        "SELECT ?X ?Z WHERE { { ?X rdf:type GraduateStudent } OPTIONAL { ?X advisor ?Z } }",
    ),
    (
        "lecturer-union",
        "SELECT ?X WHERE { { ?X rdf:type Lecturer } UNION { ?X headOf ?D } }",
    ),
)

REACHABILITY = """
    triple(?X, knows, ?Y) -> knows(?X, ?Y).
    knows(?X, ?Y) -> connected(?X, ?Y).
    connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
"""

SOCIAL = REACHABILITY + """
    knows(?X, ?Y), not connected(?Y, ?X) -> oneway(?X, ?Y).
"""

#: Batches replayed before the measured section of ``churn-social``, so the
#: live instance has left its initial transient (22 k facts falling to the
#: 15-16 k plateau) when timing starts.
CHURN_RAMP_BATCHES = 10


def lubm_graph(seed: int, smoke: bool):
    """The LUBM-style graph every LUBM workload starts from."""
    return lubm_style_graph(seed=seed, **(LUBM_SMOKE_SCALE if smoke else LUBM_SCALE))


def lubm_text(seed: int, smoke: bool):
    """``(graph, N-Triples text)``; the text is what the program receives."""
    graph = lubm_graph(seed, smoke)
    return graph, serialize_ntriples(graph)


def closure_graph(seed: int, smoke: bool):
    """The layered DAG whose ``knows`` closure is ``closure-184k``."""
    if smoke:
        return layered_graph(5, 8, out_degree=3, seed=seed)
    return layered_graph(12, 64, out_degree=3, seed=seed)


def closure_reference_count(graph) -> int:
    """``connected`` pairs of the closure, by plain reachability sets.

    Independent of the engine: one pass over the nodes in reverse layer
    order, each node's reach being its successors plus their reach.
    """
    successors = {}
    for triple in graph:
        successors.setdefault(triple.subject.value, set()).add(triple.object.value)

    def layer_of(node: str) -> int:
        return int(node[1 : node.index("n")])

    reach = {}
    for node in sorted(successors, key=layer_of, reverse=True):
        reached = set()
        for successor in successors[node]:
            reached.add(successor)
            reached.update(reach.get(successor, ()))
        reach[node] = reached
    return sum(len(reached) for reached in reach.values())


def reachability_program():
    """The three-rule transitive closure over ``triple(_, knows, _)``."""
    return parse_program(REACHABILITY)


def social_program():
    """Reachability plus the stratified-negation ``oneway`` rule."""
    return parse_program(SOCIAL)


def churn_stream(seed: int, smoke: bool, batches: int):
    """``(initial atoms, [(insert atoms, delete atoms), ...])`` of the sliding window."""
    if smoke:
        shape = dict(initial_edges=60, edges_per_batch=10, window=30, drift=3)
    else:
        shape = dict(initial_edges=600, edges_per_batch=60, window=150, drift=10)
    initial, feed = sliding_social_stream(batches=batches, seed=seed, **shape)
    return (
        [triple.to_atom() for triple in initial],
        [
            ([t.to_atom() for t in inserts], [t.to_atom() for t in deletes])
            for inserts, deletes in feed
        ],
    )


def read_schedule(seed: int, reader: int):
    """An endless stream of ``lubm-mix6`` indices: seeded permutations, back to back.

    Every block of six holds each query once, so the mix is exact whatever
    the number of reads a round fits.
    """
    rng = random.Random(f"{seed}/{reader}")
    order = list(range(len(LUBM_MIX6)))
    while True:
        rng.shuffle(order)
        yield from order


def write_batch(index: int):
    """The 4-triple batch about synthetic student ``ldg<index>``.

    Pushed then retracted, so the EDB returns to the base graph; every row
    it adds to an answer mentions ``ldg<index>``, which is how the serve
    oracle tells a legitimate extra row from a wrong one.
    """
    student = f"ldg{index}"
    return [
        [student, "rdf:type", "GraduateStudent"],
        [student, "takesCourse", "u0d0course0"],
        [student, "advisor", "u0d0fac0"],
        [student, "memberOf", "u0dept0"],
    ]
