"""Service series — concurrent read/write throughput over the materialized view.

The schema-v6 scenario: a single writer pushes delta batches into a
:class:`~repro.service.MaterializedView` while reader threads answer
entailment-regime queries against pinned snapshots.  The workload is fixed
(N batches, M queries per reader), so the engine counters stay
deterministic; the measured section reports queries-per-second and
p50/p99 per-query latency through ``benchmark.extra_info``, which the
harness lifts into first-class gated columns.
"""

import threading
import time

from repro.sparql.parser import parse_sparql
from repro.workloads.ontologies import university_graph

QUERY_TEXTS = (
    "SELECT ?X WHERE { ?X rdf:type Person }",
    "SELECT ?X WHERE { ?X rdf:type Student }",
    "SELECT ?X WHERE { ?X takesCourse ?Y }",
    "SELECT ?X WHERE { ?X worksFor _:B }",
)

N_BATCHES = 8
QUERIES_PER_READER = 32
N_READERS = 2


def _batches():
    return [
        [
            (f"delta_student_{i}", "rdf:type", "Student"),
            (f"delta_student_{i}", "takesCourse", f"course_0_{i % 4}"),
        ]
        for i in range(N_BATCHES)
    ]


def test_concurrent_read_write(benchmark):
    from repro.service import MaterializedView

    graph = university_graph(n_departments=1, students_per_department=5)
    queries = [parse_sparql(text) for text in QUERY_TEXTS]
    batches = _batches()

    def workload():
        view = MaterializedView(graph)
        latencies = []
        lock = threading.Lock()
        errors = []

        def writer():
            try:
                for batch in batches:
                    view.push(batch)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def reader(offset):
            try:
                local = []
                for i in range(QUERIES_PER_READER):
                    query = queries[(offset + i) % len(queries)]
                    start = time.perf_counter()
                    view.query(query, "U")
                    local.append(time.perf_counter() - start)
                with lock:
                    latencies.extend(local)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(n,)) for n in range(N_READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        view.close()
        if errors:
            raise errors[0]
        return latencies

    start = time.perf_counter()
    latencies = benchmark.pedantic(workload, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    total_queries = N_READERS * QUERIES_PER_READER
    assert len(latencies) == total_queries
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, (len(latencies) * 99) // 100)]
    benchmark.extra_info["qps"] = round(total_queries / elapsed, 1)
    benchmark.extra_info["latency_p50_ms"] = round(p50 * 1000, 3)
    benchmark.extra_info["latency_p99_ms"] = round(p99 * 1000, 3)
    benchmark.extra_info["queries"] = total_queries
    benchmark.extra_info["push_batches"] = N_BATCHES
    benchmark.extra_info["readers"] = N_READERS
