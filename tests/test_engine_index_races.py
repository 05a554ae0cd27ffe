"""A read that overlaps a retraction must not fail inside the index.

The query service lets a reader walk the live postings while a writer
retracts: the reader checks the view's retraction sequence afterwards and
raises ``StaleSnapshotError``, so whatever the walk read meanwhile is
discarded — but only if the walk itself got that far.  These tests land the
two writer mutations a multi-pair :meth:`PredicateIndex.probe_ids` can meet
at a fixed point of the read, so the interleavings are deterministic:

* a retraction's ``_unlink`` deleting from the anchor bucket being walked;
* a compaction swapping in a new, shorter buffer after the reader captured
  the old one.
"""

from repro.engine.index import PredicateIndex

K, V, W, DEAD = 10, 12, 14, 16  # constant term IDs (even: constants)


def build_index():
    """``t`` holds 10 dead rows, then four ``(K, V)`` rows and one ``(K, W)``."""
    index = PredicateIndex()
    gid = 0
    for i in range(10):
        index.append("t", (DEAD, 100 + 2 * i), gid)
        gid += 1
    for _ in range(4):
        index.append("t", (K, V), gid)
        gid += 1
    index.append("t", (K, W), gid)
    for i in range(10):
        index.tombstone("t", (DEAD, 100 + 2 * i), i)
    return index


class ShrinkingBucket(list):
    """A postings bucket from which a retraction unlinks one row the first
    time a reader reads its elements (by index, slice or iteration)."""

    def __init__(self, values, index, victim):
        super().__init__(values)
        self.index, self.victim = index, victim

    def _retract_once(self):
        if self.victim is not None:
            gid, self.victim = self.victim, None
            self.index.tombstone("t", (K, V), gid)

    def __getitem__(self, item):
        self._retract_once()
        return super().__getitem__(item)

    def __iter__(self):
        self._retract_once()
        return super().__iter__()


class CompactingPostings(dict):
    """Postings whose first lookup lets a compaction land right after it."""

    def __init__(self, postings, index):
        super().__init__(postings)
        self.index, self.armed = index, True

    def get(self, key, default=None):
        value = super().get(key, default)
        if self.armed:
            self.armed = False
            self.index.compact("t")
        return value


def test_probe_survives_an_unlink_from_the_bucket_it_walks():
    index = build_index()
    key = ("t", 1, V)
    # The (1, V) bucket is the shorter one, so it anchors the intersection.
    index.postings[key] = ShrinkingBucket(index.postings[key], index, victim=13)
    rows = list(index.scan_ids("t", 2, ((0, K), (1, V))))
    # Rows 10..12 survive; the walk may or may not see the retracted one.
    assert rows[:3] == [(K, V)] * 3 and len(rows) <= 4


def test_probe_reads_the_buffer_it_captured_across_a_compaction():
    index = build_index()
    index.postings = CompactingPostings(index.postings, index)
    # The first lookup returns the old (1, V) bucket (ids 10..13), which
    # anchors the walk; then the compaction renumbers the five live rows
    # 0..4 into a new buffer and the (0, K) lookup reads the new postings.
    rows = list(index.scan_ids("t", 2, ((1, V), (0, K))))
    assert rows == [(K, V)] * 4
    # After the race the index answers from the compacted rows.
    assert list(index.scan_ids("t", 2, ((0, K), (1, V)))) == [(K, V)] * 4
