"""The materialized entailment view: single writer, snapshot-isolated readers.

This is the storage half of the query service (ROADMAP item 1): materialize
``tau_owl2ql_core`` over a graph **once** through a
:class:`~repro.engine.incremental.DeltaSession`, then

* a single writer applies ``push()`` batches (streamed triples), and
* any number of readers answer entailment-regime SPARQL queries over the
  interned instance, each pinned to an immutable :class:`ViewSnapshot`.

Snapshot isolation rests on two append-only facts.  First, the engine's
:class:`~repro.engine.index.PredicateIndex` only ever appends rows, so a
frozen :class:`~repro.engine.index.InstanceSnapshot` (per-predicate row
caps + global ordinal cut) is a consistent prefix forever — a reader holding
one can keep scanning while the writer appends past its caps.  Second, the
view only *publishes* a fresh snapshot after a push has fully completed
(including stratum re-runs and rebuilds), so the published state always
steps from one complete materialization to the next; a reader can never
observe half a push.  When an incremental push triggers a from-scratch
rebuild, the session swaps in a brand-new instance — published snapshots of
the old instance stay valid (they reference the old, now-frozen index) and
simply age out as readers finish.

Retractions are the one writer operation append-only isolation does not
cover: :meth:`MaterializedView.retract` tombstones rows *in place*, under
any pinned prefix.  The view therefore keeps a retraction sequence (a
seqlock): it is odd while a retraction is in flight and advances by two per
retraction.  Every published snapshot records the (even) value it was
published under, and a read checks it before evaluating, after evaluating
and after decoding; any change raises :class:`StaleSnapshotError` — the
same loud failure as a snapshot held across an epoch reset, instead of an
answer computed over half-deleted rows.

The third lifecycle concern of a long-lived server — the term table growing
one entry per invented null forever — is handled by
:meth:`MaterializedView.rematerialize`: it drains readers, starts a new
:meth:`TermTable epoch <repro.engine.interning.TermTable.begin_epoch>`
(reclaiming every null ID and dropping the plan caches), and re-materializes
from the accumulated EDB.  Readers admitted after the reset see the fresh
epoch; snapshots from before it are invalidated (their epoch number no
longer matches) and refuse to decode.  Until the new state is published the
old session and snapshot stay in place, so ``/healthz``, ``/stats`` and
``/metrics`` keep answering from them while reads wait at the gate.

Telemetry is read, never copied: :meth:`MaterializedView.stats` and
:meth:`MaterializedView.metrics_text` take the view's state, the index
health of :meth:`MaterializedView.maintenance` and the engine's
:data:`~repro.engine.stats.STATS` at request time.  The registry holds only
what the view produces itself — query and write counts and latencies.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional, Set, Union

from repro.datalog.semantics import INCONSISTENT
from repro.engine.incremental import DeltaSession, PushResult, RetractResult
from repro.engine.interning import TERMS
from repro.engine.stats import STATS
from repro.obs.metrics import REGISTRY, Family
from repro.owl.entailment_rules import owl2ql_core_program
from repro.rdf.graph import RDFGraph
from repro.sparql.ast import GraphPattern
from repro.sparql.evaluator import IdMapping, decode_id_mappings
from repro.sparql.parser import SelectQuery
from repro.translation.entailment_regime import ACTIVE_DOMAIN_MODE, evaluate_view_ids


#: Milliseconds above which a query lands in the slow-query log (the
#: ``slow_query_ms`` attribute of a view; ``inf`` disables the log).
DEFAULT_SLOW_QUERY_MS = 100.0


# Service-level instruments.  The registry is idempotent, so re-importing the
# module (or constructing several views) reuses the same instruments.
_QUERIES = REGISTRY.counter(
    "repro_queries_total", "Queries served by the materialized view.", ("mode",)
)
_QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds", "Query latency in seconds.", ("mode",)
)
_SLOW_QUERIES = REGISTRY.counter(
    "repro_slow_queries_total", "Queries slower than the slow-query threshold."
)
_WRITES = REGISTRY.counter(
    "repro_writes_total", "Writer operations applied to the view.", ("op",)
)
_WRITE_SECONDS = REGISTRY.histogram(
    "repro_write_seconds", "Writer operation latency in seconds.", ("op",)
)
#: Help text of the gauges :meth:`MaterializedView.metrics_text` reads at
#: scrape time.
_GAUGE_HELP = {
    "repro_view_facts": "Materialized facts in the writer's instance.",
    "repro_view_watermark": "Published insertion-ordinal high-water mark.",
    "repro_view_epoch": "Term-table epoch of the published snapshot.",
    "repro_view_consistent": "1 when the published materialization is consistent.",
    "repro_snapshot_readers_pinned": "Readers currently pinning a snapshot.",
    "repro_term_table_constants": "Interned constants in the term table.",
    "repro_term_table_nulls": "Interned invented nulls in the term table.",
    "repro_term_table_orphaned_nulls": (
        "Null dictionary entries no materialized fact references."
    ),
    "repro_predicate_live_rows": "Live (non-tombstoned) rows per predicate.",
    "repro_predicate_tombstone_ratio": (
        "Fraction of a predicate's index rows that are tombstones."
    ),
}


class StaleSnapshotError(RuntimeError):
    """A snapshot from a previous term-table epoch was queried or decoded."""


class ViewSnapshot:
    """An immutable published read state of a :class:`MaterializedView`.

    Carries the frozen instance prefix, the term-table epoch it was built
    under, and the ordinal high-water mark.
    All query work happens on interned IDs; decoding checks the epoch first,
    so a reader that (incorrectly) held a snapshot across a
    :meth:`MaterializedView.rematerialize` fails loudly instead of decoding
    reassigned null IDs.
    """

    __slots__ = (
        "_snapshot",
        "epoch",
        "watermark",
        "consistent",
        "_view",
        "_retract_seq",
    )

    def __init__(self, snapshot, epoch: int, consistent: bool, view=None):
        self._snapshot = snapshot
        self.epoch = epoch
        self.watermark = snapshot.cut
        self.consistent = consistent
        # The snapshot shares live storage with the writer's instance, and
        # retractions tombstone rows *in place* — append-only isolation does
        # not cover them.  Recording the view's retraction sequence at
        # publication lets every read detect a deletion that slid under the
        # frozen prefix before or during it (including one hidden inside a
        # stratum rebuild, where the instance swap leaves the old index
        # untouched but the published answers nonetheless changed
        # non-monotonically).
        self._view = view
        self._retract_seq = view._retract_seq if view is not None else 0

    def _check_epoch(self) -> None:
        if TERMS.epoch() != self.epoch:
            raise StaleSnapshotError(
                f"snapshot from epoch {self.epoch} used in epoch {TERMS.epoch()}; "
                "re-pin the current snapshot after a rematerialization"
            )
        view = self._view
        if view is not None and view._retract_seq != self._retract_seq:
            # Odd: a retraction is tombstoning rows right now; larger even:
            # one completed since publication.  Either way the prefix this
            # snapshot answers from is no longer faithful.
            raise StaleSnapshotError(
                f"snapshot at watermark {self.watermark} overlaps retraction "
                f"sequence {view._retract_seq} (pinned at {self._retract_seq}); "
                "re-pin the current snapshot"
            )

    def query_ids(
        self,
        pattern: Union[str, GraphPattern, SelectQuery],
        mode: str = ACTIVE_DOMAIN_MODE,
    ) -> Set[IdMapping]:
        """``⟦P⟧^mode`` over the frozen prefix, as ID mappings.

        Callers must have checked :attr:`consistent`: the active-domain
        guard reads the store's ``C`` facts as they are.  Checked against
        the retraction sequence before and after evaluating, so a
        retraction that overlaps the evaluation raises
        :class:`StaleSnapshotError` instead of returning its partial view.
        """
        self._check_epoch()
        ids = evaluate_view_ids(pattern, self._snapshot, mode)
        self._check_epoch()
        return ids

    def query(
        self,
        pattern: Union[str, GraphPattern, SelectQuery],
        mode: str = ACTIVE_DOMAIN_MODE,
    ):
        """Decoded answers (set of mappings), or ``INCONSISTENT`` (⊤)."""
        if not self.consistent:
            return INCONSISTENT
        answers = decode_id_mappings(self.query_ids(pattern, mode))
        self._check_epoch()
        return answers

    def __repr__(self) -> str:
        return (
            f"ViewSnapshot(watermark={self.watermark}, epoch={self.epoch}, "
            f"consistent={self.consistent})"
        )


class MaterializedView:
    """Single-writer materialized OWL 2 QL view with published snapshots.

    Thread contract: :meth:`push` and :meth:`rematerialize` are writer
    operations, serialized by an internal lock (the service runs them on one
    writer thread).  :meth:`current` / :meth:`read` / :meth:`query` are safe
    from any thread at any time and never block on the writer — they touch
    only the last *published* snapshot.
    """

    def __init__(self, graph: Union[RDFGraph, Iterator, None] = None, program=None):
        self._program = program if program is not None else owl2ql_core_program()
        initial = () if graph is None else graph
        self._write_lock = threading.RLock()
        # Reader gate for rematerialize(): readers register while evaluating,
        # the epoch reset waits for zero and blocks new admissions.
        self._gate = threading.Condition()
        self._active_readers = 0
        self._draining = False
        self.pushes = 0
        self.retractions = 0
        # The seqlock readers validate against (see the module docstring):
        # odd while retract() is in flight, advanced by two per retraction.
        self._retract_seq = 0
        self.queries_served = 0
        # Query bookkeeping shared by concurrent reader threads: the bare
        # ``queries_served += 1`` read-modify-write is a lost-update race, so
        # every reader-side counter mutation goes through this lock
        # (:meth:`record_query`).
        self._stats_lock = threading.Lock()
        self.slow_query_ms = DEFAULT_SLOW_QUERY_MS
        self._slow_queries: deque = deque(maxlen=32)
        self._session = DeltaSession(self._program, initial)
        self._published = self._publish()

    # -- publication ---------------------------------------------------------

    def _publish(self, consistent: Optional[bool] = None) -> ViewSnapshot:
        """Freeze the session's current instance into a new published state.

        ``consistent`` is the constraint verdict of the write being
        published: pushes and retractions pass the one their result already
        carries, so only construction, :meth:`rematerialize` and a raising
        retraction pay a full :meth:`DeltaSession.check_consistency`.
        """
        if consistent is None:
            consistent = self._session.check_consistency()
        return ViewSnapshot(
            self._session.instance.snapshot(), TERMS.epoch(), consistent, self
        )

    @property
    def current(self) -> ViewSnapshot:
        """The latest published snapshot (one attribute read — always safe)."""
        return self._published

    @property
    def watermark(self) -> int:
        """The published ordinal high-water mark."""
        return self._published.watermark

    @property
    def epoch(self) -> int:
        """The term-table epoch of the published snapshot."""
        return self._published.epoch

    @property
    def consistent(self) -> bool:
        """Whether the published materialization satisfies all constraints."""
        return self._published.consistent

    def __len__(self) -> int:
        return len(self._session.instance)

    # -- reads ---------------------------------------------------------------

    @contextmanager
    def read(self) -> Iterator[ViewSnapshot]:
        """Pin the current snapshot for a read (gates rematerialization).

        Pushes never wait for readers — only :meth:`rematerialize` drains
        them, because an epoch reset is the one writer operation that
        invalidates already-published state.
        """
        with self._gate:
            while self._draining:
                self._gate.wait()
            self._active_readers += 1
            snapshot = self._published
        try:
            yield snapshot
        finally:
            with self._gate:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._gate.notify_all()

    def query(
        self,
        pattern: Union[str, GraphPattern, SelectQuery],
        mode: str = ACTIVE_DOMAIN_MODE,
    ):
        """Snapshot-isolated decoded answers, or ``INCONSISTENT``."""
        start = time.perf_counter()
        with self.read() as snapshot:
            result = snapshot.query(pattern, mode)
        self.record_query(mode, time.perf_counter() - start, pattern, snapshot)
        return result

    def record_query(
        self,
        mode: str,
        seconds: float,
        pattern=None,
        snapshot: Optional[ViewSnapshot] = None,
    ) -> None:
        """Account one served query: counter, latency histogram, slow log.

        Thread-safe — this is the only mutation path for
        ``queries_served`` and the slow-query log, and it runs on whichever
        reader thread evaluated the query.
        """
        with self._stats_lock:
            self.queries_served += 1
        _QUERIES.labels(mode).inc()
        _QUERY_SECONDS.labels(mode).observe(seconds)
        if seconds * 1000.0 >= self.slow_query_ms:
            _SLOW_QUERIES.inc()
            entry = {
                "query": str(pattern)[:200] if pattern is not None else None,
                "mode": mode,
                "ms": round(seconds * 1000.0, 3),
                "watermark": snapshot.watermark if snapshot else None,
                "epoch": snapshot.epoch if snapshot else None,
            }
            with self._stats_lock:
                self._slow_queries.append(entry)

    # -- writes --------------------------------------------------------------

    def push(self, facts) -> PushResult:
        """Apply one writer batch, then publish the post-push state."""
        start = time.perf_counter()
        with self._write_lock:
            result = self._session.push(facts)
            self.pushes += 1
            self._published = self._publish(result.consistent)
        _WRITES.labels("push").inc()
        _WRITE_SECONDS.labels("push").observe(time.perf_counter() - start)
        return result

    def retract(self, facts) -> RetractResult:
        """Remove one writer batch (DRed), then publish the repaired state.

        Snapshots published before the call raise
        :class:`StaleSnapshotError` on further use — deletions tombstone
        rows in place, so the frozen prefixes those snapshots answer from
        are no longer faithful.  Readers pinned *during* the retraction are
        not drained (unlike :meth:`rematerialize`): their queries fail fast
        on the retraction-sequence check rather than block the writer.  The
        sequence turns odd before the session tombstones anything and even
        again in ``finally``, so the degenerate rebuild, compaction and a
        raising retraction are all covered.  The ``finally`` also
        republishes: the advanced sequence invalidates the old snapshot even
        when the retraction raised, and readers must have a current one.
        """
        start = time.perf_counter()
        with self._write_lock:
            self._retract_seq += 1
            result = None
            try:
                result = self._session.retract(facts)
                self.retractions += 1
            finally:
                self._retract_seq += 1
                self._published = self._publish(
                    None if result is None else result.consistent
                )
        _WRITES.labels("retract").inc()
        _WRITE_SECONDS.labels("retract").observe(time.perf_counter() - start)
        return result

    def rematerialize(self) -> int:
        """Reclaim null dictionary space: new epoch, fresh materialization.

        Drains in-flight readers, begins a new term-table epoch (dropping
        every invented-null entry and the plan caches),
        rebuilds the materialization from the accumulated EDB, and publishes
        it.  Returns the new epoch ordinal.  Snapshots published before the
        call raise :class:`StaleSnapshotError` on further use.
        """
        start = time.perf_counter()
        with self._write_lock:
            edb = list(self._session._edb)
            self._session.close()
            with self._gate:
                while self._active_readers:
                    self._gate.wait()
                self._draining = True
            try:
                # The old session and snapshot stay in place until the new
                # ones replace them: /healthz, /stats and /metrics read only
                # their counts, and reads wait at the gate, so nothing
                # decodes the old null IDs after begin_epoch().
                epoch = TERMS.begin_epoch()
                self._session = DeltaSession(self._program, edb)
                self._published = self._publish()
            finally:
                with self._gate:
                    self._draining = False
                    self._gate.notify_all()
            _WRITES.labels("rematerialize").inc()
            _WRITE_SECONDS.labels("rematerialize").observe(
                time.perf_counter() - start
            )
            return epoch

    def close(self) -> None:
        """Close the underlying session: the view stops accepting writes."""
        self._session.close()

    def __enter__(self) -> "MaterializedView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Counters for the service's ``/stats`` endpoint, read at request time.

        ``engine`` is :meth:`STATS.snapshot()
        <repro.engine.stats.EngineStats.snapshot>`; ``metrics`` holds the
        registry's own counters and histograms.
        """
        published = self._published
        session = self._session
        with self._stats_lock:
            queries_served = self.queries_served
            slow_queries = list(self._slow_queries)
        return {
            "facts": len(session.instance),
            "edb_facts": len(session._edb),
            "pushes": self.pushes,
            "retractions": self.retractions,
            "queries_served": queries_served,
            "watermark": published.watermark,
            "epoch": published.epoch,
            "consistent": published.consistent,
            "maintenance": self.maintenance(),
            "slow_queries": slow_queries,
            "engine": STATS.snapshot(),
            "metrics": REGISTRY.collect(),
        }

    def maintenance(self) -> dict:
        """Index and dictionary health: tombstones, term table, pinned readers."""
        session = self._session
        index = session.instance._index
        compaction_counts = session.compaction_counts
        predicates = {}
        for predicate in sorted(index.cols):
            total = len(index.cols[predicate])
            live = index.live.get(predicate, 0)
            predicates[predicate] = {
                "rows": total,
                "live": live,
                "tombstone_ratio": (
                    round(1.0 - live / total, 6) if total else 0.0
                ),
                "compactions": compaction_counts.get(predicate, 0),
            }
        constants, nulls = TERMS.counts()
        with self._gate:
            readers = self._active_readers
        return {
            "predicates": predicates,
            "term_table": {
                "constants": constants,
                "nulls": nulls,
                "orphaned_nulls": TERMS.orphaned_nulls,
                "epoch": TERMS.epoch(),
            },
            "readers_pinned": readers,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition body for ``GET /metrics``.

        The view state, index health and term table families and the
        ``repro_engine_<counter>_total`` families are read at scrape time
        and rendered beside the registry's own instruments.
        """
        published = self._published
        health = self.maintenance()
        term_table = health["term_table"]
        gauges = {
            "repro_view_facts": len(self),
            "repro_view_watermark": published.watermark,
            "repro_view_epoch": published.epoch,
            "repro_view_consistent": 1 if published.consistent else 0,
            "repro_snapshot_readers_pinned": health["readers_pinned"],
            "repro_term_table_constants": term_table["constants"],
            "repro_term_table_nulls": term_table["nulls"],
            "repro_term_table_orphaned_nulls": term_table["orphaned_nulls"],
        }
        scraped = [
            Family(name, _GAUGE_HELP[name], "gauge", (), [((), value)])
            for name, value in gauges.items()
        ]
        for name, field in (
            ("repro_predicate_live_rows", "live"),
            ("repro_predicate_tombstone_ratio", "tombstone_ratio"),
        ):
            samples = [
                ((predicate,), entry[field])
                for predicate, entry in health["predicates"].items()
            ]
            scraped.append(Family(name, _GAUGE_HELP[name], "gauge", ("predicate",), samples))
        scraped.extend(
            Family(
                f"repro_engine_{name}_total",
                f"Engine advisory counter {name} (process-global).",
                "counter", (), [((), value)],
            )
            for name, value in STATS.snapshot().items()
        )
        return REGISTRY.render(scraped)
