"""Scale series D — streaming incremental deltas vs full recomputation.

Each scenario replays an insert-only fact stream (generators in
:mod:`repro.workloads.streams`) through a
:class:`~repro.engine.incremental.DeltaSession` — the measured section — and
separately times the naive strategy the session replaces: a cold fixpoint
after the initial load and after **every** batch arrival.  The recompute
time and the derived ``incremental_speedup`` are attached as extra info;
``benchmarks/harness.py`` (schema v4) promotes them, together with the
``delta_rounds`` count, into first-class record columns and gates the
speedup against the committed baseline.

The four scenarios cover the subsystem's regimes: a trickle-insert chain
(pure continuation, the incremental best case), a growing LUBM-style
universe (wide mixed-predicate batches), a sliding social window with a
negation stratum (every push re-runs the stratum above the closure), and an
existential trickle (chase continuation with stable content-addressed
nulls).
"""

import time

import pytest

from repro.datalog.parser import parse_program
from repro.engine.incremental import DeltaSession, cold_equivalent
from repro.workloads.streams import (
    growing_university_stream,
    sliding_social_stream,
    trickle_insert_chain,
)

REACHABILITY = parse_program(
    """
    triple(?X, knows, ?Y) -> knows(?X, ?Y).
    knows(?X, ?Y) -> connected(?X, ?Y).
    connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
    """
)

SOCIAL = parse_program(
    """
    triple(?X, knows, ?Y) -> knows(?X, ?Y).
    knows(?X, ?Y) -> connected(?X, ?Y).
    connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
    knows(?X, ?Y), not connected(?Y, ?X) -> oneway(?X, ?Y).
    """
)

HIERARCHY = parse_program(
    """
    triple(?C, rdfs:subClassOf, ?D) -> sub_class(?C, ?D).
    sub_class(?C, ?D), sub_class(?D, ?E) -> sub_class(?C, ?E).
    triple(?P, rdfs:subPropertyOf, ?Q) -> sub_prop(?P, ?Q).
    sub_prop(?P, ?Q), sub_prop(?Q, ?R) -> sub_prop(?P, ?R).
    triple(?X, rdf:type, ?C) -> inst(?X, ?C).
    inst(?X, ?C), sub_class(?C, ?D) -> inst(?X, ?D).
    triple(?X, ?P, ?Y), sub_prop(?P, ?Q) -> linked(?X, ?Q, ?Y).
    linked(?X, ?P, ?Y), sub_prop(?P, ?Q) -> linked(?X, ?Q, ?Y).
    """
)

REGISTRATION_CHASE = parse_program(
    """
    triple(?X, memberOf, ?G) -> member(?X, ?G).
    member(?X, ?G) -> exists ?P . profile(?X, ?P).
    profile(?X, ?P) -> registered(?X).
    """
)


def _stream_atoms(initial, batches):
    """(initial atoms, batch atom lists) from a (graph, triple feed) pair."""
    return (
        [triple.to_atom() for triple in initial],
        [[triple.to_atom() for triple in batch] for batch in batches],
    )


#: scenario key -> (recompute seconds, final size).  The recompute probe is
#: identical for every warmup/repeat invocation of a scenario, so it runs
#: once per scenario: repeats measure the
#: incremental section without ~seconds of unmeasured allocation churn
#: (and its GC fallout) in front of them.
_RECOMPUTE_MEMO = {}


def _time_recompute(key, program, initial_atoms, batch_atoms):
    """Wall time of cold-evaluating after the load and after every arrival.

    Best of two probes: the ``incremental_speedup`` this feeds is gated
    against half its baseline value, and a single multi-second probe on a
    busy 1-core runner swings ~2x process to process — enough to record a
    lucky-high baseline that later honest runs cannot reach.  The minimum
    of two probes is a stable lower bound on the recompute cost, which
    keeps the recorded ratio conservative on both sides of the gate.
    """
    cached = _RECOMPUTE_MEMO.get(key)
    if cached is not None:
        return cached
    best = None
    for _ in range(2):
        start = time.perf_counter()
        edb = list(initial_atoms)
        result = cold_equivalent(program, edb)
        for batch in batch_atoms:
            edb.extend(batch)
            result = cold_equivalent(program, edb)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, len(result))
    _RECOMPUTE_MEMO[key] = best
    return best


def _run_stream(benchmark, key, program, initial, batches):
    """Benchmark the incremental replay; report recompute extras."""
    initial_atoms, batch_atoms = _stream_atoms(initial, batches)
    recompute_seconds, cold_size = _time_recompute(
        key, program, initial_atoms, batch_atoms
    )

    def incremental():
        session = DeltaSession(program, initial_atoms)
        rounds = 0
        for batch in batch_atoms:
            rounds += session.push(batch).rounds
        size = len(session)
        session.close()
        return rounds, size

    probe_start = time.perf_counter()
    rounds, size = incremental()
    incremental_seconds = time.perf_counter() - probe_start
    assert size == cold_size  # incremental == recompute, at scale

    benchmark.pedantic(incremental, rounds=1, iterations=1)
    benchmark.extra_info["batches"] = len(batch_atoms)
    benchmark.extra_info["delta_rounds"] = rounds
    benchmark.extra_info["facts_total"] = size
    benchmark.extra_info["recompute_seconds"] = round(recompute_seconds, 6)
    benchmark.extra_info["probe_speedup"] = round(
        recompute_seconds / incremental_seconds, 2
    )
    return recompute_seconds, incremental_seconds


@pytest.mark.parametrize("depth,batches", [(64, 12), (128, 16)])
def test_trickle_insert_chain(benchmark, depth, batches):
    initial, feed = trickle_insert_chain(depth, batches=batches, edges_per_batch=1)
    recompute, incremental = _run_stream(
        benchmark, ("trickle", depth, batches), REACHABILITY, initial, feed
    )
    # The headline claim of the streaming subsystem: trickle inserts beat
    # recompute-per-arrival comfortably (the committed baseline records the
    # real margin; this in-test floor only guards against the incremental
    # path silently degenerating into recomputation).
    assert recompute > incremental


@pytest.mark.parametrize("universities", [4])
def test_growing_universities(benchmark, universities):
    initial, feed = growing_university_stream(
        universities, departments_per_university=2, students_per_department=12
    )
    _run_stream(benchmark, ("lubm", universities), HIERARCHY, initial, feed)


@pytest.mark.parametrize("batches", [8])
def test_sliding_social_window(benchmark, batches):
    # insert_only keeps this series comparable with the committed baseline
    # records from before the stream gained real eviction batches; the
    # churn (insert + retract) schedule is measured by bench_stream_churn.py.
    initial, feed = sliding_social_stream(
        initial_edges=150, batches=batches, edges_per_batch=30, window=40, drift=8,
        insert_only=True,
    )
    _run_stream(benchmark, ("social", batches), SOCIAL, initial, feed)


@pytest.mark.parametrize("members", [120])
def test_trickle_chase_registrations(benchmark, members):
    initial, feed = trickle_insert_chain(
        members, batches=10, edges_per_batch=4, predicate="memberOf"
    )
    _run_stream(benchmark, ("chase", members), REGISTRATION_CHASE, initial, feed)
