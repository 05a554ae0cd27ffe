"""Global engine counters sampled by the benchmark harness.

The harness (``benchmarks/harness.py``) needs per-scenario throughput
numbers — facts materialised, triggers fired, nulls invented — without every
benchmark having to thread a result object out of whatever engine it happens
to exercise.  The engines therefore increment one process-global
:class:`EngineStats` instance (:data:`STATS`); the harness resets it before a
measured run and snapshots it afterwards.

Two classes of counter coexist:

* **Gated** (``facts_added``, ``triggers_fired``, ``nulls_invented``,
  ``pivots_skipped``, and the retraction trio ``retractions`` /
  ``rederived`` / ``nulls_collected``) — deterministic, and unchanged if the
  batch matcher behind ``JoinPlan.rows`` is swapped for the depth-first
  one, because both produce the same rows in the same order, one firing
  path consumes them, and the pivot-skip test is shared.  The retraction
  counters are defined on *sets* (the over-deleted closure, the restored
  survivors, the unreachable nulls), which makes them
  match-order-independent by construction.  These are the counters the
  bench-smoke gate requires to **equal** the committed baseline's;
  ``tests/test_engine_stats_determinism.py`` pins both the repeatability and
  the equality against the depth-first oracle.
* **Batch instrumentation** (``batch_probe_groups``) — only advances when
  the batch matcher runs; it counts distinct probe-key groups per step and
  is reported in the benchmark JSON but never gated.

The counters are advisory instrumentation: they are not thread-safe and must
never influence evaluation results.

**Thread scoping.**  The blob's single-writer assumption holds for the
harness and the service's writer thread, but the query service also runs
engine code on concurrent *reader* threads.  Those threads must not mutate
the global blob (lost updates would silently corrupt the writer's gated
counters), so the shared counter sites consult :func:`active_stats` — the
thread's scratch :class:`EngineStats` bound by :func:`local_stats`, or
:data:`STATS` when none is bound.  The service's read path binds a scratch
blob around every query (:meth:`repro.service.view.MaterializedView.read`);
single-threaded callers never bind one and keep the exact historical
behaviour.  Only the sites reachable from reader threads pay the lookup —
the per-trigger hot counters of the chase and semi-naive loops run on the
writer thread and keep writing :data:`STATS` directly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class EngineStats:
    """Monotonic counters incremented by the evaluation engines."""

    facts_added: int = 0
    triggers_fired: int = 0
    nulls_invented: int = 0
    #: Semi-naive pivots skipped because the delta's postings bucket for a
    #: bound (constant) term of the pivot atom was empty — the cost-based
    #: pivot selection of the ROADMAP, identical under either matcher.
    pivots_skipped: int = 0
    #: Facts physically removed by DRed retraction: the retracted EDB seeds
    #: plus the over-deleted downward closure that was tombstoned before
    #: re-derivation ran.  Defined on the marked *set*, so order-independent.
    retractions: int = 0
    #: Over-deleted facts restored by the re-derivation phase because they
    #: still had alternative support in the surviving instance.
    rederived: int = 0
    #: Invented nulls dropped by the post-retraction garbage collector
    #: because no surviving fact references them (odd-ID reachability scan).
    nulls_collected: int = 0
    #: Distinct probe-key groups evaluated by the batch executor (0 under
    #: the depth-first oracle of the differential tests); the ratio to batch
    #: rows shows how much probe work was shared.
    batch_probe_groups: int = 0
    #: Predicate lane compactions performed by the DRed maintenance path
    #: (tombstone ratio crossed the threshold and the live rows were packed
    #: and renumbered).  Reported, never gated — the forced-compaction
    #: tests run with a deliberately different trigger threshold.
    compactions: int = 0

    def reset(self) -> None:
        """Zero every counter (the harness calls this before a measured run)."""
        self.facts_added = 0
        self.triggers_fired = 0
        self.nulls_invented = 0
        self.pivots_skipped = 0
        self.retractions = 0
        self.rederived = 0
        self.nulls_collected = 0
        self.batch_probe_groups = 0
        self.compactions = 0

    def snapshot(self) -> dict:
        """A plain-dict copy, in the key order the harness JSON uses."""
        return {
            "facts_added": self.facts_added,
            "triggers_fired": self.triggers_fired,
            "nulls_invented": self.nulls_invented,
            "pivots_skipped": self.pivots_skipped,
            "retractions": self.retractions,
            "rederived": self.rederived,
            "nulls_collected": self.nulls_collected,
            "batch_probe_groups": self.batch_probe_groups,
            "compactions": self.compactions,
        }

    def gated(self) -> dict:
        """The deterministic counters the bench-smoke gate compares."""
        return {
            "facts_added": self.facts_added,
            "triggers_fired": self.triggers_fired,
            "nulls_invented": self.nulls_invented,
            "pivots_skipped": self.pivots_skipped,
            "retractions": self.retractions,
            "rederived": self.rederived,
            "nulls_collected": self.nulls_collected,
        }


STATS = EngineStats()

_LOCAL = threading.local()


def active_stats() -> EngineStats:
    """The stats blob for this thread: the bound scratch one, else :data:`STATS`."""
    local = getattr(_LOCAL, "stats", None)
    return STATS if local is None else local


@contextmanager
def local_stats(stats: EngineStats = None):
    """Bind a scratch :class:`EngineStats` for this thread's counter sites.

    While bound, every counter site that goes through :func:`active_stats`
    lands in the scratch blob instead of the process-global one — the
    isolation the service's concurrent readers rely on.  Bindings nest;
    the previous binding (or none) is restored on exit.  Yields the bound
    blob so callers can inspect what their scope accumulated.
    """
    if stats is None:
        stats = EngineStats()
    previous = getattr(_LOCAL, "stats", None)
    _LOCAL.stats = stats
    try:
        yield stats
    finally:
        _LOCAL.stats = previous
