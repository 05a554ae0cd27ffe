"""Hash-indexed fact storage, dictionary-encoded on dense integer term IDs.

Facts live in append-only per-predicate rows with row-id postings, the whole
structure **dictionary-encoded** on the engine's
:mod:`~repro.engine.interning` term IDs.  No :class:`Atom` is stored: the
lookups that hand facts to callers (:meth:`PredicateIndex.scan`,
:meth:`PredicateIndex.atoms`) decode them from the ID rows on the way out.

* ``cols[predicate]`` holds the **ID rows** packed into a flat
  :class:`~repro.engine.colbuf.ColumnBuffer`: one int64 buffer per
  position plus an arity column and a gid column (the fact's insertion
  ordinal).  Both executors — the row-at-a-time backtracker and the
  column-at-a-time batch steps — probe and verify on these flat buffers
  (``arities[row] != arity`` is the single check that rejects both
  tombstones and wrong-arity rows).  While a lane is clean
  (:attr:`ColumnBuffer.mixed <repro.engine.colbuf.ColumnBuffer.mixed>`
  False) that check cannot reject anything, so the batch gather and
  :meth:`PredicateIndex.distinct_values` skip it and read the lanes with
  C loops.
  The gid lane ascends within a predicate, so deletion finds a fact's row
  by bisecting it.
* ``postings`` keys are ``(predicate, position, tid)`` — int-keyed plain
  ``list`` buckets of ascending row ids, probed with IDs the plans compiled
  in at plan time.  Lists, not ``array('q')``: buckets are appended to on
  every fact and iterated in every depth-first probe, and CPython lists beat
  typed arrays ~3x on append and ~30% on iteration (no re-boxing).

Because rows are append-only, row ids within a postings list are strictly
increasing, and a lookup is made stable under concurrent insertion simply by
capturing the candidate count once — no copying.  The same mechanism yields
frozen prefix views (:class:`InstanceSnapshot`).  Deletion — the DRed
retraction path of :meth:`DeltaSession.retract
<repro.engine.incremental.DeltaSession.retract>` — tombstones the ID row
in place, eagerly unlinks the row id from its postings
buckets (buckets stay ascending; an emptied bucket is deleted so viability
pre-checks treat the vanished value like a never-seen one), and never
renumbers surviving rows, so postings and snapshots taken *after* the
deletion stay valid.  Snapshots taken *before* a deletion observe it (the
prefix view shares the live storage); the query service detects this with
its own retraction sequence (:class:`~repro.service.view.ViewSnapshot`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.terms import Variable
from repro.engine.colbuf import ColumnBuffer
from repro.engine.interning import TERMS

#: Floor of the distinct-value summary budget: the per-round pivot-viability
#: probe walks the summary value by value, so an unbounded summary would turn
#: a cheap skip test into a scan.  The effective cap adapts to predicate
#: cardinality (see :func:`_summary_cap`) — a fixed 128 left skips on the
#: table for wide deltas whose joins dwarf a slightly longer summary walk.
_SUMMARY_CAP = 128


def _summary_cap(n_rows: int) -> int:
    """The distinct-value budget for a predicate column of ``n_rows`` rows.

    A quarter of the row count, floored at :data:`_SUMMARY_CAP`: the summary
    walk stays a small fraction of the scan it might save, and the cap is a
    pure function of the row count, so the summaries (and the skips they
    decide) are deterministic.
    """
    return max(_SUMMARY_CAP, n_rows >> 2)


#: Predicates below this many rows never compact: at small scale the rebuild
#: overhead dwarfs the reclaimed bytes, and the retract-parity suites rely on
#: small fixtures keeping their row numbering stable.
_COMPACT_MIN_ROWS = 256

#: The tombstone ratio above which a predicate's lanes are compacted: once
#: more than this fraction of a predicate's rows are tombstones — and the
#: predicate has at least :data:`_COMPACT_MIN_ROWS` rows — the DRed
#: maintenance path packs the live rows and renumbers
#: (:meth:`PredicateIndex.compact`).  Read at call time, so tests can patch
#: it; a ratio of 1.0 or higher disables compaction (the dead fraction never
#: exceeds 1).
COMPACT_RATIO = 0.5


class PredicateIndex:
    """Append-only ID rows + int-keyed postings, per predicate."""

    __slots__ = (
        "cols",
        "postings",
        "live",
        "tombstoned",
        "_summaries",
    )

    def __init__(self) -> None:
        # predicate -> flat column buffer (arities + gids + one int64 buffer
        # per position), rows in insertion order.
        self.cols: Dict[str, ColumnBuffer] = {}
        # (predicate, position, tid) -> ascending row ids.
        self.postings: Dict[Tuple[str, int, int], List[int]] = {}
        # predicate -> number of non-tombstoned rows.
        self.live: Dict[str, int] = {}
        # Total tombstones ever created (lets snapshots detect deletions).
        self.tombstoned = 0
        # (predicate, position) -> (row count, distinct tids | None) — the
        # per-round bound-value summaries behind extended pivot skipping.
        self._summaries: Dict[Tuple[str, int], Tuple[int, Optional[frozenset]]] = {}

    def _lane(self, predicate: str) -> ColumnBuffer:
        """The predicate's column buffer, created empty on first use."""
        cols = self.cols.get(predicate)
        if cols is None:
            cols = self.cols[predicate] = ColumnBuffer()
            self.live[predicate] = 0
        return cols

    def append(self, predicate: str, ids: Tuple[int, ...], gid: int) -> int:
        """Append one (caller-deduplicated) ID row; returns its row id.

        ``gid`` is the fact's global insertion ordinal, stored in the
        buffer's gid column.
        """
        cols = self.cols.get(predicate)
        if cols is None:
            cols = self._lane(predicate)
        buffers = cols.buffers
        arity = len(ids)
        if len(buffers) == arity:
            # Inlined ColumnBuffer.append fast path (fixed-arity row):
            # this is the per-derived-fact hot spot of every fixpoint, so
            # the dominant arities unpack the lanes instead of zipping.  A
            # row at the lane width leaves ``cols.mixed`` as it was.
            row_id = cols.n_rows
            if arity == 2:
                first, second = buffers
                first.append(ids[0])
                second.append(ids[1])
            elif arity == 3:
                first, second, third = buffers
                first.append(ids[0])
                second.append(ids[1])
                third.append(ids[2])
            else:
                for buffer, value in zip(buffers, ids):
                    buffer.append(value)
            cols.arities.append(arity)
            cols.gids.append(gid)
            cols.n_rows = row_id + 1
        else:
            row_id = cols.append(ids, gid)
        self.live[predicate] += 1
        postings = self.postings
        for position, tid in enumerate(ids):
            key = (predicate, position, tid)
            bucket = postings.get(key)
            if bucket is None:
                postings[key] = [row_id]
            else:
                bucket.append(row_id)
        return row_id

    def add_bulk(self, predicate: str, id_rows, gids) -> int:
        """Append many (caller-deduplicated) ID rows of one predicate at once.

        Returns the first row id.  The columns extend lane-wise
        (:meth:`ColumnBuffer.extend_rows`) instead of row-wise, which is
        what keeps cold rebuilds and bulk loads off the per-fact append
        cost; the postings update is necessarily per fact (one bucket per
        position value) but runs with locals hoisted.  Row ids are
        assigned sequentially, so per-bucket ascending order is preserved
        exactly as by repeated :meth:`append`.
        """
        row_id = self._lane(predicate).extend_rows(id_rows, gids)
        self.live[predicate] += len(id_rows)
        postings = self.postings
        for ids in id_rows:
            for position, tid in enumerate(ids):
                key = (predicate, position, tid)
                bucket = postings.get(key)
                if bucket is None:
                    postings[key] = [row_id]
                else:
                    bucket.append(row_id)
            row_id += 1
        return row_id - len(id_rows)

    def tombstone(self, predicate: str, ids: Tuple[int, ...], gid: int) -> None:
        """Mark the fact with insertion ordinal ``gid`` deleted and unlink its
        row id from every postings bucket.

        The row is found by bisecting the gid lane, which ascends because
        rows are appended in ordinal order and compaction keeps it.  The
        eager postings unlink is what keeps probe cost proportional to the
        *live* bucket: leaving dead ids behind made every later probe of a
        churned value wade through the predicate's whole deletion history,
        which turned long push/retract streams quadratic (each removal
        instead pays one bisect per position, against buckets that
        deletions keep small).
        """
        cols = self.cols[predicate]
        row_id = bisect_left(cols.gids, gid)
        cols.kill(row_id)
        self.live[predicate] -= 1
        self.tombstoned += 1
        self._unlink(predicate, row_id, ids)

    def _unlink(self, predicate: str, row_id: int, ids: Tuple[int, ...]) -> None:
        """Drop ``row_id`` from each of its postings buckets (which stay
        ascending), deleting buckets that empty so viability pre-checks see
        the vanished value as cheaply as a never-seen one."""
        postings = self.postings
        for position, tid in enumerate(ids):
            bucket_key = (predicate, position, tid)
            bucket = postings.get(bucket_key)
            if bucket is None:
                continue
            i = bisect_left(bucket, row_id)
            if i < len(bucket) and bucket[i] == row_id:
                del bucket[i]
            if not bucket:
                del postings[bucket_key]

    def compact(self, predicate: str) -> int:
        """Pack the predicate's live rows and renumber; returns rows reclaimed.

        The tombstone-compaction half of the DRed maintenance path: the live
        rows are rewritten in their existing relative order (gids preserved)
        into a fresh :class:`ColumnBuffer` through the bulk rebuild path
        (:meth:`add_bulk`), so lane bytes shrink to the live set instead of
        carrying the predicate's whole deletion history.  Renumbering
        invalidates every row-id-bearing structure for this predicate, so the
        method also

        * drops the predicate's postings buckets (rebuilt by ``add_bulk``), and
        * drops its memoised distinct-value summaries (a stale summary is no
          longer a superset once new appends land on the shrunken count).

        :attr:`tombstoned` stays monotone — snapshots taken before the
        triggering retraction already recount their length after the
        tombstoning that preceded this call.
        """
        cols = self.cols.get(predicate)
        if cols is None:
            return 0
        id_rows: List[Tuple[int, ...]] = []
        gids: List[int] = []
        for row_id in range(cols.n_rows):
            ids = cols.row(row_id)
            if ids is not None:
                id_rows.append(ids)
                gids.append(cols.gids[row_id])
        reclaimed = cols.n_rows - len(id_rows)
        self.cols[predicate] = ColumnBuffer()
        self.live[predicate] = 0
        postings = self.postings
        for key in [key for key in postings if key[0] == predicate]:
            del postings[key]
        summaries = self._summaries
        for key in [key for key in summaries if key[0] == predicate]:
            del summaries[key]
        self.add_bulk(predicate, id_rows, gids)
        return reclaimed

    def probe_ids(
        self,
        predicate: str,
        pairs: Sequence[Tuple[int, int]],
        cap: int,
        cols: ColumnBuffer,
    ) -> Sequence[int]:
        """Row ids (< ``cap``, ascending) whose ID row equals every
        ``(position, tid)`` pair — the bulk probe of the column-at-a-time
        executor.

        With one bound pair this is a capped postings slice; with several it
        is a posting-list intersection anchored on the shortest bucket, which
        is walked in order so the result stays ascending.  The intersection
        strategy is selectivity-adaptive: when the anchor is short, the other
        bound positions are verified directly on the candidate ID rows; when
        the anchor is long relative to the other buckets, those buckets are
        hashed once and probed instead.  An empty ``pairs`` means a full scan
        of the ``cap`` prefix.  Ids of tombstoned or wrong-arity rows may be
        included; callers skip them exactly as the row-at-a-time executor
        does.

        ``cols`` is the buffer the caller captured with ``cap``.  A read
        overlapping a retraction must reach its stale check, so the anchor is
        walked by iterator (a concurrent ``del bucket[i]`` cannot push it out
        of range) and rows are verified on ``cols``, not on a buffer a
        compaction swapped in since.
        """
        if not pairs:
            return range(cap)
        postings = self.postings
        if len(pairs) == 1:
            position, value = pairs[0]
            bucket = postings.get((predicate, position, value))
            if not bucket:
                return ()
            end = bisect_left(bucket, cap)
            return bucket if end == len(bucket) else bucket[:end]
        buckets: List[Tuple[int, List[int], int, int]] = []
        for position, value in pairs:
            bucket = postings.get((predicate, position, value))
            if not bucket:
                return ()
            buckets.append((len(bucket), bucket, position, value))
        buckets.sort(key=lambda item: item[0])
        anchor_length, anchor = buckets[0][:2]
        rest = buckets[1:]
        out: List[int] = []
        if anchor_length * len(rest) <= sum(item[0] for item in rest):
            # Short anchor: verifying the remaining positions on the flat
            # columns is cheaper than hashing the other postings lists.
            arities = cols.arities
            buffers = cols.buffers
            for row_id in anchor:
                if row_id >= cap:
                    break
                row_arity = arities[row_id]
                if row_arity < 0:
                    continue
                for _, _, position, value in rest:
                    if position >= row_arity or buffers[position][row_id] != value:
                        break
                else:
                    out.append(row_id)
        else:
            others = [set(item[1]) for item in rest]
            for row_id in anchor:
                if row_id >= cap:
                    break
                for other in others:
                    if row_id not in other:
                        break
                else:
                    out.append(row_id)
        return out

    def scan_ids(
        self,
        predicate: str,
        arity: int,
        pairs: Sequence[Tuple[int, int]],
        row_limits: Optional[Dict[str, int]] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """ID rows of ``predicate`` whose value at each ``(position, tid)``
        pair matches — the ID-level sibling of :meth:`scan`.

        Yields the flat ``(tid1, ..., tidn)`` tuples directly (no Atom is
        touched), skipping tombstoned and wrong-arity rows.  ``row_limits``
        restricts the scan to a frozen prefix (snapshot isolation); without
        it the prefix is captured at call time, like :meth:`scan`.  The
        SPARQL evaluator's BGP matching and the query service's read path
        run on this.
        """
        cols = self.cols.get(predicate)
        if not cols:
            return iter(())
        cap = len(cols) if row_limits is None else min(len(cols), row_limits.get(predicate, 0))
        if cap <= 0:
            return iter(())
        return self._iterate_ids(cols, self.probe_ids(predicate, pairs, cap, cols), cap, arity)

    @staticmethod
    def _iterate_ids(
        cols: ColumnBuffer,
        row_ids: Sequence[int],
        cap: int,
        arity: int,
    ) -> Iterator[Tuple[int, ...]]:
        # Row ids ascend in every probe_ids branch, so the cap re-check can
        # break instead of continue; it guards the single-pair branch, which
        # returns the live postings bucket when the whole bucket fits the cap
        # — appends racing the iteration would otherwise leak past the
        # snapshot prefix.
        arities = cols.arities
        buffers = cols.buffers[:arity]
        for row_id in row_ids:
            if row_id >= cap:
                break
            if arities[row_id] == arity:
                yield tuple(buffer[row_id] for buffer in buffers)

    def distinct_values(self, predicate: str, position: int) -> Optional[frozenset]:
        """The distinct term IDs at ``predicate[position]``, or None.

        ``None`` means "no usable summary" — either more distinct values
        than the cardinality-adaptive budget (:func:`_summary_cap`; walking
        them would cost more than the join it guards) or an out-of-range
        position.  The summary is memoised per (predicate, position) and
        invalidated by appends, so a frozen delta pays the scan once per
        round however many pivot plans consult it.  In-place tombstoning
        does not invalidate the memo: a stale summary is a superset of the
        live values, which only ever keeps a pivot the viability test might
        have skipped — conservative in the safe direction.
        """
        cols = self.cols.get(predicate)
        if not cols:
            return frozenset()
        key = (predicate, position)
        n_rows = len(cols)
        cached = self._summaries.get(key)
        if cached is not None and cached[0] == n_rows:
            return cached[1]
        cap = _summary_cap(n_rows)
        summary: Optional[frozenset]
        if position >= len(cols.buffers):
            summary = frozenset()
        elif not cols.mixed:
            # Every row is live at the lane width: the whole lane is the
            # value set, collected by one C loop.
            summary = frozenset(cols.buffers[position])
            if len(summary) > cap:
                summary = None
        else:
            # Skip tombstones and rows too narrow to reach ``position``.
            arities = cols.arities
            column = cols.buffers[position]
            values = set()
            add = values.add
            for row_id in range(n_rows):
                if arities[row_id] > position:
                    add(column[row_id])
                    if len(values) > cap:
                        break
            summary = frozenset(values) if len(values) <= cap else None
        self._summaries[key] = (n_rows, summary)
        return summary

    def row_count(self, predicate: str) -> int:
        """The number of rows stored for ``predicate`` (tombstones included)."""
        cols = self.cols.get(predicate)
        return len(cols) if cols else 0

    def row_limits(self) -> Dict[str, int]:
        """Current per-predicate row counts (the state an InstanceSnapshot captures)."""
        return {predicate: len(cols) for predicate, cols in self.cols.items()}

    def scan(
        self,
        pattern: Atom,
        row_limits: Optional[Dict[str, int]] = None,
    ) -> Iterator[Atom]:
        """Facts agreeing with ``pattern`` on every constant and null, decoded.

        The bound positions are probed together (:meth:`probe_ids`);
        repeated variables are left to the caller's unifier.  Bound pattern
        terms are looked up in the term table without interning, so scans
        over unseen vocabulary allocate nothing.  ``row_limits`` restricts
        the scan to a frozen prefix; without it the prefix is captured
        **now**, at call time (not at first consumption), so facts added
        while the iterator is consumed stay invisible to it.
        """
        predicate = pattern.predicate
        if not self.cols.get(predicate):
            return iter(())
        pairs = []
        for position, term in enumerate(pattern.terms):
            if isinstance(term, Variable):
                continue
            tid = TERMS.find_term(term)
            if tid is None:
                return iter(())
            pairs.append((position, tid))
        return _decode(
            predicate, self.scan_ids(predicate, pattern.arity, pairs, row_limits)
        )

    def atoms(
        self, predicate: str, row_limits: Optional[Dict[str, int]] = None
    ) -> Iterator[Atom]:
        """Every live fact of ``predicate`` (any arity), decoded, in row order.

        ``row_limits`` restricts the rows to a frozen prefix, as in
        :meth:`scan_ids`.
        """
        cols = self.cols.get(predicate)
        if not cols:
            return iter(())
        cap = len(cols) if row_limits is None else min(len(cols), row_limits.get(predicate, 0))
        # One (arity, *lane values) tuple per row; tombstones have arity -1.
        rows = islice(zip(cols.arities, *cols.buffers), cap)
        return _decode(predicate, (row[1 : row[0] + 1] for row in rows if row[0] >= 0))


def _decode(predicate: str, id_rows) -> Iterator[Atom]:
    """Decode ID rows of a stored ``predicate`` into Atoms (the result boundary)."""
    pid = TERMS.intern_constant(predicate)
    decode_atom = TERMS.decode_atom
    return (decode_atom((pid, *ids)) for ids in id_rows)


class InstanceSnapshot:
    """A frozen prefix view of an :class:`~repro.datalog.database.Instance`.

    Captures the per-predicate row counts and the global insertion cut of the
    underlying instance at construction time; facts added to the instance
    afterwards are invisible through the view.  This is the negation
    reference the stratified engines need — "the facts of the strictly lower
    strata" — without the full re-index that ``Instance.copy()`` performed
    per stratum.  Deletions *do* propagate (the view shares the live
    storage); the service layer turns a retraction under a pinned
    :class:`~repro.service.view.ViewSnapshot` into a loud error with its own
    retraction sequence.  Membership is answered at the encoded-key level
    (:meth:`has_key`, the executors' hot path); ``in`` encodes the atom
    first, without interning.
    """

    __slots__ = ("_keys", "_index", "_cut", "_limits", "_size", "_tombstoned")

    def __init__(
        self,
        keys: Dict[Tuple[int, ...], int],
        index: PredicateIndex,
        cut: int,
        limits: Dict[str, int],
        size: int,
    ):
        self._keys = keys
        self._index = index
        self._cut = cut
        self._limits = limits
        self._size = size
        self._tombstoned = index.tombstoned

    def __contains__(self, atom: Atom) -> bool:
        return self.has_key(TERMS.find_key(atom))

    def has_key(self, key: Tuple[int, ...]) -> bool:
        """Encoded-fact membership inside the frozen prefix."""
        ordinal = self._keys.get(key)
        return ordinal is not None and ordinal < self._cut

    def __iter__(self) -> Iterator[Atom]:
        cut = self._cut
        for key, ordinal in self._keys.items():
            if ordinal >= cut:
                break
            yield TERMS.decode_atom(key)

    def __len__(self) -> int:
        # The captured size is exact unless the base instance deleted facts
        # after the snapshot; in that (rare, diagnostic-only) case, recount so
        # len() stays consistent with iteration and membership.
        if self._index.tombstoned != self._tombstoned:
            cut = self._cut
            return sum(1 for ordinal in self._keys.values() if ordinal < cut)
        return self._size

    def __repr__(self) -> str:
        return f"InstanceSnapshot({self._size} atoms)"

    @property
    def cut(self) -> int:
        """The global insertion ordinal this view is frozen at.

        Monotone over the lifetime of the base instance — the query
        service publishes it as the reader-visible high-water mark.
        """
        return self._cut

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        """As ``Instance.matching``, restricted to the frozen prefix."""
        return self._index.scan(pattern, self._limits)

    def matching_ids(
        self,
        predicate: str,
        arity: int,
        pairs: Sequence[Tuple[int, int]] = (),
    ) -> Iterator[Tuple[int, ...]]:
        """As ``Instance.matching_ids``, restricted to the frozen prefix.

        This is the query service's snapshot-isolated read path: the captured
        per-predicate row counts are the ordinal high-water mark, so a reader
        holding this snapshot never observes rows a concurrent writer appends.
        """
        return self._index.scan_ids(predicate, arity, pairs, self._limits)

    def with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        """The snapshot's facts over ``predicate`` (prefix rows only)."""
        return frozenset(self._index.atoms(predicate, self._limits))

    @property
    def predicates(self) -> FrozenSet[str]:
        """Predicates with at least one live fact inside the snapshot."""
        cols = self._index.cols
        return frozenset(
            predicate
            for predicate, limit in self._limits.items()
            if predicate in cols
            and any(arity >= 0 for arity in cols[predicate].arities[:limit])
        )

    def _plan_source(self) -> Tuple[PredicateIndex, Optional[Dict[str, int]]]:
        """(index, row limits) pair the join-plan executor runs against."""
        return self._index, self._limits
