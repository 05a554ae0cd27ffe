"""Flat columnar fact storage: one int64 buffer per predicate position.

:attr:`PredicateIndex.cols <repro.engine.index.PredicateIndex.cols>` holds
one :class:`ColumnBuffer` per predicate, packing the fact ID rows into
**flat 64-bit columns** — no ``PyObject`` header per value and no pointer
chase per row.  Together with the instance's encoded-key map these rows are
the only stored form of a fact; no decoded atom sits beside them:

* ``arities[row]`` — the row's arity, or :data:`TOMB` (``-1``) for a
  tombstoned row.  Tombstoning flips *only* the arity: the position values
  stay in place, and every scan path filters dead rows with the same single
  ``arities[row] != arity`` comparison that already rejects wrong-arity
  rows.
* ``gids[row]`` — the fact's global insertion ordinal, stored at append
  time: the row's birth ordinal.  Rows are appended in ordinal order and
  compaction keeps their order, so the lane ascends; deletion bisects it to
  find a fact's row, and a push's delta window is sorted by it.
* ``buffers[p][row]`` — the term ID at position ``p``; rows narrower than
  the widest arity seen pad the wider columns with ``-1`` (never read: the
  arity filter runs first).

* ``mixed`` — False while every row is live with the lane width as its
  arity, so the per-row arity filter cannot reject anything.  It is derived,
  one-way state: a tombstone sets it, and so does a row after row 0 whose
  arity differs from the lane width (it pads that row or widens the lanes
  under the earlier ones).  Only a rebuild (compaction) clears it.
  While it is False the batch matcher gathers extension tuples straight
  from lane slices (:meth:`repro.engine.batch.Step._extensions`).

All lanes are heap ``array('q')`` for compactness: 8 bytes per value, where
a list of ints pays a pointer plus a boxed int.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

#: The arity value marking a tombstoned row.  Position values of a dead row
#: are deliberately left in place (see module docstring).
TOMB = -1

#: Padding value for positions beyond a row's arity.  Never read by scans
#: (the arity filter runs first); distinct-value scans skip it.
PAD = -1


class ColumnBuffer:
    """Flat int64 columns (arities, gids, one buffer per position) for one
    predicate's rows."""

    __slots__ = ("n_rows", "arities", "gids", "buffers", "mixed")

    def __init__(self) -> None:
        self.n_rows = 0
        self.arities = array("q")
        self.gids = array("q")
        self.buffers: List = []
        # True once some row is dead or padded (see module docstring);
        # never cleared in place.
        self.mixed = False

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self.n_rows

    @property
    def n_positions(self) -> int:
        """The widest arity this buffer has stored (column count)."""
        return len(self.buffers)

    def row(self, row_id: int) -> Optional[Tuple[int, ...]]:
        """The ID row at ``row_id`` as a tuple, or None if tombstoned."""
        arity = self.arities[row_id]
        if arity < 0:
            return None
        buffers = self.buffers
        return tuple(buffers[p][row_id] for p in range(arity))

    # -- writes --------------------------------------------------------------

    def append(self, ids, gid: int) -> int:
        """Append one ID row with its global ordinal; returns its row id."""
        arity = len(ids)
        row_id = self.n_rows
        buffers = self.buffers
        if len(buffers) == arity:
            # Hot path: predicates are fixed-arity in practice, so the
            # row exactly spans the existing columns — no widening, no
            # padding.
            for buffer, value in zip(buffers, ids):
                buffer.append(value)
        else:
            if row_id:
                # Widening pads the earlier rows; a narrower row pads itself.
                self.mixed = True
            while len(buffers) < arity:
                buffers.append(array("q", [PAD]) * row_id)
            for p in range(arity):
                buffers[p].append(ids[p])
            for p in range(arity, len(buffers)):
                buffers[p].append(PAD)
        self.arities.append(arity)
        self.gids.append(gid)
        self.n_rows = row_id + 1
        return row_id

    def extend_rows(self, id_rows, gids) -> int:
        """Append many ID rows at once; returns the first row id.

        The bulk half of :meth:`append`: one ``array.extend`` per lane
        instead of per-row Python-loop appends — the difference between a
        churn rebuild paying ~µs and ~0.1µs per fact.  Rows may mix arities.
        """
        first = self.n_rows
        n = len(id_rows)
        if not n:
            return first
        buffers = self.buffers
        arities = [len(ids) for ids in id_rows]
        width = max(arities)
        if first and width > len(buffers):
            self.mixed = True
        while len(buffers) < width:
            buffers.append(array("q", [PAD]) * first)
        self.arities.extend(arities)
        self.gids.extend(gids)
        if width == len(buffers) and arities.count(width) == n:
            # Fixed-arity fast path: every lane extends by a flat column.
            for p, buffer in enumerate(buffers):
                buffer.extend([ids[p] for ids in id_rows])
        else:
            self.mixed = True
            for p, buffer in enumerate(buffers):
                buffer.extend(
                    [ids[p] if p < len(ids) else PAD for ids in id_rows]
                )
        self.n_rows = first + n
        return first

    def kill(self, row_id: int) -> None:
        """Tombstone ``row_id``.

        Only the arity flips to :data:`TOMB` — position values stay in place.
        """
        self.arities[row_id] = TOMB
        self.mixed = True

    def __repr__(self) -> str:
        return f"ColumnBuffer({self.n_rows} rows, {len(self.buffers)} positions)"
