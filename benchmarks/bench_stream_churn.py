"""Scale series E — churn streams: incremental DRed deletion vs recompute.

The insert-only streaming series (``bench_scale_streaming.py``) measures
:meth:`~repro.engine.incremental.DeltaSession.push`; this series measures the
other half of the maintenance story.  Each scenario replays a churn feed —
``(inserts, deletes)`` batches — through one long-lived session (``push`` +
``retract``, the measured section), and separately times the strategy
retraction replaces: a cold fixpoint over the *surviving* EDB after every
window slide.  ``recompute_seconds`` and the derived ``probe_speedup`` land
in extra info for the harness to promote and gate, exactly like the
insert-only series.

Two regimes, deliberately:

* The **sliding chain** (:func:`~repro.workloads.streams.sliding_chain_stream`)
  is deletion's best case — a tail eviction supports only the pairs starting
  at the dead node, nothing is re-derivable, so DRed touches Θ(window) facts
  where a recompute pays Θ(window²).  This scenario carries the in-test
  floor (recompute must stay slower): it guards the subsystem's reason to
  exist.
* The **churn-heavy social window**
  (:func:`~repro.workloads.streams.churn_heavy_social_stream`) is deletion's
  worst case — the window is densely connected, nearly every derived fact
  routes through an evicted edge, and over-deletion approaches the whole
  materialisation.  Here the engine's degeneration guard aborts marking and
  rebuilds cold, so these scenarios pin *parity and bounded badness* (the
  baseline records the real ratio), not a win DRed cannot deliver on
  strongly connected inputs.
"""

import time

import pytest

from repro.datalog.parser import parse_program
from repro.engine.incremental import DeltaSession, cold_equivalent
from repro.workloads.streams import churn_heavy_social_stream, sliding_chain_stream

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


def _churn_atoms(initial, feed):
    """(initial atoms, [(insert atoms, delete atoms), ...])."""
    return (
        [triple.to_atom() for triple in initial],
        [
            (
                [triple.to_atom() for triple in inserts],
                [triple.to_atom() for triple in deletes],
            )
            for inserts, deletes in feed
        ],
    )


#: scenario key -> (recompute seconds, final size); one probe per
#: scenario, shared by every warmup/repeat invocation —
#: see the twin memo in bench_scale_streaming.py for the rationale.
_RECOMPUTE_MEMO = {}


def _time_recompute(key, program, initial_atoms, batches):
    """Wall time of cold-evaluating the surviving EDB after every slide.

    Best of two probes, for the same reason as the streaming series: the
    derived ``incremental_speedup`` gates against half its baseline, and a
    one-shot multi-second probe on a 1-core runner is ~2x noisy — the
    minimum of two is a stable, conservative estimate.
    """
    cached = _RECOMPUTE_MEMO.get(key)
    if cached is not None:
        return cached
    best = None
    for _ in range(2):
        start = time.perf_counter()
        edb = dict.fromkeys(initial_atoms)
        result = cold_equivalent(program, list(edb))
        for inserts, deletes in batches:
            for atom in inserts:
                edb[atom] = None
            for atom in deletes:
                edb.pop(atom, None)
            result = cold_equivalent(program, list(edb))
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, len(result))
    _RECOMPUTE_MEMO[key] = best
    return best


def _run_churn(benchmark, key, program, initial, feed):
    """Benchmark the incremental push/retract replay; report recompute extras."""
    initial_atoms, batches = _churn_atoms(initial, feed)
    recompute_seconds, cold_size = _time_recompute(
        key, program, initial_atoms, batches
    )

    def incremental():
        session = DeltaSession(program, initial_atoms)
        rounds = overdeleted = rederived = 0
        for inserts, deletes in batches:
            rounds += session.push(inserts).rounds
            result = session.retract(deletes)
            rounds += result.rounds
            overdeleted += result.overdeleted
            rederived += result.rederived
        size = len(session)
        session.close()
        return rounds, overdeleted, rederived, size

    probe_start = time.perf_counter()
    rounds, overdeleted, rederived, size = incremental()
    incremental_seconds = time.perf_counter() - probe_start
    assert size == cold_size  # retraction parity with recompute, at scale

    benchmark.pedantic(incremental, rounds=1, iterations=1)
    benchmark.extra_info["batches"] = len(batches)
    benchmark.extra_info["delta_rounds"] = rounds
    benchmark.extra_info["overdeleted"] = overdeleted
    benchmark.extra_info["rederived_facts"] = rederived
    benchmark.extra_info["facts_total"] = size
    benchmark.extra_info["recompute_seconds"] = round(recompute_seconds, 6)
    benchmark.extra_info["probe_speedup"] = round(
        recompute_seconds / incremental_seconds, 2
    )
    return recompute_seconds, incremental_seconds


@pytest.mark.parametrize("batches", [6])
def test_churn_chain_window(benchmark, batches):
    initial, feed = sliding_chain_stream(
        window=200, batches=batches, edges_per_batch=8
    )
    recompute, incremental = _run_churn(
        benchmark, ("churn-chain", batches), REACHABILITY, initial, feed
    )
    # The headline claim of the retraction subsystem: on sparse churn,
    # incremental DRed deletion beats a cold fixpoint per window slide (the
    # committed baseline records the real margin — ~2.5× at this scale; this
    # floor only guards against the deletion path degenerating into
    # recomputation).
    assert recompute > incremental


@pytest.mark.parametrize("batches", [6])
def test_churn_compaction_bounded_lanes(benchmark, batches):
    """Forced-low compact ratio keeps tombstoned lanes bounded under churn.

    The sliding-chain feed again, but with ``COMPACT_RATIO`` forced to 0.2 so
    tombstone compaction actually fires mid-replay (the default 0.5 rarely
    trips on this feed).  The probe pins the bounded-lane contract of the
    maintenance surface: after the final retraction, no lane above the
    compaction row floor may carry more than the configured tombstone
    fraction — the dead rows a lane is allowed to accumulate are bounded by
    the knob, not by the lifetime of the session.  Compaction counts land in
    extra info; result parity with the no-compaction engine is pinned
    separately in ``tests/test_engine_retract_parity.py``.
    """
    from repro.engine import index as engine_index

    ratio = 0.2
    initial, feed = sliding_chain_stream(
        window=200, batches=batches, edges_per_batch=8
    )
    initial_atoms, batch_atoms = _churn_atoms(initial, feed)

    def churn():
        previous = engine_index.COMPACT_RATIO
        engine_index.COMPACT_RATIO = ratio
        try:
            session = DeltaSession(REACHABILITY, initial_atoms)
            for inserts, deletes in batch_atoms:
                session.push(inserts)
                session.retract(deletes)
            index = session.instance._index
            lanes = {
                predicate: (index.row_count(predicate), index.live.get(predicate, 0))
                for predicate in index.cols
            }
            compactions = dict(session.compaction_counts)
            size = len(session)
            session.close()
            return size, lanes, compactions
        finally:
            engine_index.COMPACT_RATIO = previous

    size, lanes, compactions = benchmark.pedantic(churn, rounds=1, iterations=1)
    # The bounded-lane invariant: retraction ends every batch, and
    # _maybe_compact runs at the end of every retraction, so any big lane
    # still above the ratio after the replay means compaction failed to fire.
    for predicate, (total, live) in sorted(lanes.items()):
        if total >= engine_index._COMPACT_MIN_ROWS:
            assert (total - live) / total <= ratio, (predicate, total, live)
    assert sum(compactions.values()) >= 1  # the forced ratio really compacts
    benchmark.extra_info["batches"] = len(batch_atoms)
    benchmark.extra_info["compactions"] = sum(compactions.values())
    benchmark.extra_info["facts_total"] = size


@pytest.mark.parametrize("batches", [8])
def test_churn_reachability(benchmark, batches):
    initial, feed = churn_heavy_social_stream(
        initial_edges=150, batches=batches, edges_per_batch=30, window=40
    )
    recompute, incremental = _run_churn(
        benchmark, ("churn-tc", batches), REACHABILITY, initial, feed
    )
    # DRed's adversarial regime: the window is one dense component, so the
    # degeneration guard rebuilds cold instead of restoring per fact.  The
    # parity assert inside _run_churn is the contract here; the ceiling only
    # catches the guard failing open (marking the whole closure *and* paying
    # per-fact restoration was ~7× recompute before the guard existed).
    assert incremental < 6 * recompute


@pytest.mark.parametrize("batches", [8])
def test_churn_social_negation(benchmark, batches):
    initial, feed = churn_heavy_social_stream(
        initial_edges=120, batches=batches, edges_per_batch=24, window=36
    )
    recompute, incremental = _run_churn(
        benchmark, ("churn-social", batches), SOCIAL, initial, feed
    )
    assert incremental < 6 * recompute
