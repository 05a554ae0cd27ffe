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
  matcher behind ``JoinPlan.rows`` is swapped for the depth-first oracle
  (``depth_first_rows`` in ``tests/engine_reference.py``), because both produce
  the same rows in the same order, one firing path consumes them, and the
  pivot-skip test is shared.  The retraction
  counters are defined on *sets* (the over-deleted closure, the restored
  survivors, the unreachable nulls), which makes them
  match-order-independent by construction.  These are the counters the
  bench-smoke gate requires to **equal** the committed baseline's;
  ``tests/test_engine_stats_determinism.py`` pins both the repeatability and
  the equality against the depth-first oracle.
* **Matcher instrumentation** (``batch_probe_groups``) — counts distinct
  probe-key groups per step of every ``JoinPlan.rows`` run (firing, head
  and constraint checks alike); the oracle does not advance it, so it is
  reported in the benchmark JSON but never gated.

The counters are advisory instrumentation: they are not thread-safe and must
never influence evaluation results.  Only engine code increments them, and in
the query service engine code runs only on the writer thread: a reader's
evaluation goes ``evaluate_view_ids`` → ``matching_ids`` → the index's
``scan_ids`` / ``probe_ids`` (and ``has_key`` for the active-domain guard)
and never reaches a counter site
(``tests/test_service_metrics.py`` patches the matcher entry points to raise
off the main thread and pins this).  The service reads :data:`STATS` at
request time for ``/stats`` and ``/metrics``; nothing copies it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: The deterministic counters the bench-smoke gate compares, in harness order.
GATED = (
    "facts_added",
    "triggers_fired",
    "nulls_invented",
    "pivots_skipped",
    "retractions",
    "rederived",
    "nulls_collected",
)


@dataclass
class EngineStats:
    """Monotonic counters incremented by the evaluation engines."""

    facts_added: int = 0
    triggers_fired: int = 0
    nulls_invented: int = 0
    #: Semi-naive pivots skipped because the delta's postings bucket for a
    #: bound (constant) term of the pivot atom was empty — the cost-based
    #: pivot selection of the ROADMAP, identical under the matcher and the
    #: depth-first oracle.
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
    #: Distinct probe-key groups evaluated by the matcher (0 under
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
        for counter in fields(self):
            setattr(self, counter.name, 0)

    def snapshot(self) -> dict:
        """A plain-dict copy, in field order (the key order the harness JSON uses)."""
        return {counter.name: getattr(self, counter.name) for counter in fields(self)}

    def gated(self) -> dict:
        """The deterministic counters the bench-smoke gate compares."""
        return {name: getattr(self, name) for name in GATED}


STATS = EngineStats()
