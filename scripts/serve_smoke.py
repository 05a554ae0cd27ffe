#!/usr/bin/env python
"""CI smoke test for the query service: boot, query mix, latency ceiling.

Boots a real :class:`repro.service.QueryService` on an ephemeral port, runs
a fixed query mix over HTTP (interleaved with delta pushes, DRed
retractions, and an epoch reset), checks every response for consistency,
checks the final answers of every query against a cold in-process
:class:`~repro.translation.entailment_regime.EntailmentView` of the expected
final graph (so a retraction that leaves a derived fact behind fails), and
asserts the query p50 stays under a deliberately loose ceiling — this is a smoke gate against
"serving got 100x slower or wedged", not a benchmark (the harness's
``bench_service_concurrent.py`` scenario is the measured, baseline-gated
number).

Exit status 0 on success; prints the latency summary either way.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--p50-ceiling-ms 250]
"""

import argparse
import asyncio
import json
import statistics
import sys
import threading
import time
import urllib.parse
import urllib.request

QUERY_TEXTS = (
    "SELECT ?X WHERE { ?X rdf:type Person }",
    "SELECT ?X WHERE { ?X rdf:type Student }",
    "SELECT ?X WHERE { ?X takesCourse ?Y }",
    "SELECT ?X WHERE { ?X worksFor _:B }",
)
ROUNDS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="query-service smoke test")
    parser.add_argument(
        "--p50-ceiling-ms",
        type=float,
        default=250.0,
        help="fail if the query p50 exceeds this many milliseconds (loose by "
        "design: a smoke gate, not a benchmark)",
    )
    args = parser.parse_args(argv)

    from repro.service import QueryService
    from repro.sparql.parser import parse_sparql
    from repro.translation.entailment_regime import EntailmentView
    from repro.workloads.ontologies import university_graph

    def base_graph():
        return university_graph(n_departments=1, students_per_department=5)

    service = QueryService(base_graph(), port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    if not started.wait(timeout=60):
        print("FAIL: server did not start within 60s", file=sys.stderr)
        return 1
    base = f"http://127.0.0.1:{service.port}"

    def get(path):
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return json.loads(response.read())

    def get_text(path):
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return response.headers.get("Content-Type", ""), response.read().decode()

    def post(path, document):
        request = urllib.request.Request(
            base + path, data=json.dumps(document).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read())

    failures = []
    latencies = []
    live_writes = {}  # the smoke triples pushed and not retracted, in order
    health = get("/healthz")
    if health.get("status") != "ok" or not health.get("consistent"):
        failures.append(f"unhealthy boot: {health}")

    for round_number in range(ROUNDS):
        for text in QUERY_TEXTS:
            quoted = urllib.parse.quote(text)
            start = time.perf_counter()
            response = get(f"/query?q={quoted}&mode=U")
            latencies.append(time.perf_counter() - start)
            if not response["consistent"]:
                failures.append(f"inconsistent answer for {text!r}")
            if response["cardinality"] != len(response["answers"]):
                failures.append(f"cardinality mismatch for {text!r}")
        # Interleave writer traffic: a push every other round, one epoch
        # reset mid-run.
        if round_number % 2 == 0:
            triple = (f"smoke_{round_number}", "rdf:type", "Student")
            pushed = post("/push", {"triples": [list(triple)]})
            live_writes[triple] = None
            if not pushed["consistent"]:
                failures.append(f"push declared inconsistent: {pushed}")
        elif round_number > 1:
            # Retract the previous round's smoke student: the deletion path
            # (DRed) must remove it from the EDB and stay consistent.
            triple = (f"smoke_{round_number - 1}", "rdf:type", "Student")
            retracted = post("/retract", {"triples": [list(triple)]})
            live_writes.pop(triple, None)
            if retracted["removed_edb"] != 1:
                failures.append(f"retract missed its fact: {retracted}")
            if not retracted["consistent"]:
                failures.append(f"retract declared inconsistent: {retracted}")
        if round_number == ROUNDS // 2:
            post("/rematerialize", {})

    # After the writes, every query must answer exactly what a cold
    # materialisation of the expected final graph answers.
    expected_graph = base_graph()
    expected_graph.add_all(live_writes)
    reference = EntailmentView(expected_graph)
    for text in QUERY_TEXTS:
        served = get(f"/query?q={urllib.parse.quote(text)}&mode=U")["answers"]
        answers = reference.evaluate(parse_sparql(text), "U")
        expected = sorted(
            (
                {variable.name: term.value for variable, term in mapping.items()}
                for mapping in answers
            ),
            key=lambda row: sorted(row.items()),
        )
        if served != expected:
            failures.append(
                f"answers after the writes differ for {text!r}: served "
                f"{len(served)} rows, a cold view of the final graph {len(expected)}"
            )

    stats = get("/stats")

    # The Prometheus exposition must be present, well-formed, and carry the
    # query-latency histogram the queries above populated.
    content_type, exposition = get_text("/metrics")
    if "text/plain" not in content_type or "version=0.0.4" not in content_type:
        failures.append(f"unexpected /metrics content type: {content_type!r}")
    if "# TYPE repro_query_seconds histogram" not in exposition:
        failures.append("/metrics is missing the repro_query_seconds histogram")
    if "repro_queries_total" not in exposition:
        failures.append("/metrics is missing repro_queries_total")
    if "repro_engine_triggers_fired_total" not in exposition:
        failures.append("/metrics is missing the mirrored engine counters")
    for line in exposition.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.rsplit(" ", 1)
        if len(fields) != 2:
            failures.append(f"malformed exposition line: {line!r}")
            continue
        try:
            float(fields[1])
        except ValueError:
            failures.append(f"non-numeric sample value: {line!r}")

    latencies.sort()
    p50 = statistics.median(latencies) * 1000
    p99 = latencies[min(len(latencies) - 1, (len(latencies) * 99) // 100)] * 1000
    print(
        f"serve-smoke: {len(latencies)} queries, p50 {p50:.2f}ms, p99 {p99:.2f}ms, "
        f"{stats['pushes']} pushes, {stats['retractions']} retractions, "
        f"epoch {stats['epoch']}, {stats['facts']} facts"
    )

    if p50 > args.p50_ceiling_ms:
        failures.append(f"p50 {p50:.2f}ms exceeds ceiling {args.p50_ceiling_ms}ms")
    if stats["epoch"] < 1:
        failures.append("epoch reset did not happen")

    asyncio.run_coroutine_threadsafe(service.stop(), loop).result(30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
