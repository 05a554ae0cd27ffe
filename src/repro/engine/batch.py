"""The join step of a compiled plan and its column-at-a-time execution.

:meth:`JoinPlan.rows <repro.engine.plan.JoinPlan.rows>` is the one matcher:
every engine fires from it, and the head-satisfaction and constraint checks
(:meth:`~repro.engine.plan.JoinPlan.exists`) read it too.  It runs a plan
**step by step over a whole batch**: each :class:`Step` consumes a list of
partial slot tuples and produces the list extended through one body atom.
Slot tuples carry **term IDs** (:mod:`repro.engine.interning`): probes,
probe-key grouping, and intra-atom equality checks are all flat int
operations over the index's packed column buffers
(:attr:`~repro.engine.index.PredicateIndex.cols`, one
:class:`~repro.engine.colbuf.ColumnBuffer` per predicate) — no term-object
hashing anywhere in the loop.  The extension loop (:meth:`Step._extensions`)
gathers straight from lane slices while a lane is clean (no tombstone, no
padded row) and checks every row otherwise.

* **Bulk probes** — the batch is grouped by the tuple of probed slot values;
  one :meth:`~repro.engine.index.PredicateIndex.probe_ids` call (a capped
  postings slice, or a posting-list intersection when several positions are
  bound) serves every row with the same key, and the verified *extensions*
  (the terms bound by the step) are computed once per key and reused.
* **Per-step dedup for repeated variables** — a repeated variable inside one
  atom compiles to a fact-internal equality (``terms[i] == terms[j]``)
  checked once per candidate fact per group, not once per (row, fact) pair;
  a variable repeated across atoms becomes part of the probe key, so its
  equality is enforced by the grouped probe itself.
* **Snapshot isolation** — the per-predicate row caps of the source
  (``Instance`` → live row counts captured at step start,
  ``InstanceSnapshot`` → the frozen limits) bound every probe, so a run
  over a snapshot never sees rows appended after it was taken.

**Order guarantee**: extensions are emitted row-major with candidate row ids
ascending — the order a depth-first backtracker over the same steps would
produce.  The differential suites pin it against exactly that backtracker
(``depth_first_rows`` in ``tests/engine_reference.py``), which
keeps engine results, invented-null sequences and the gated stats counters
tied to one specified match order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Tuple

from repro.engine.stats import STATS

#: A (partial) match: one term ID per bound slot, in slot order.
SlotRow = Tuple[int, ...]


class Step:
    """One join step: how a body atom extends a batch of partial slot rows.

    :func:`repro.engine.plan.compile_body` numbers slots in first-binding
    order (prebound variables first, then step by step), so the slots a
    step binds are appended to the row and a partial row is always a prefix
    of the full slot tuple.  Every term position of the atom lands in one
    field, by *when* it can be evaluated under grouping:

    * ``const_pairs`` — ``(position, constant ID)``: part of the probe key;
    * ``slot_probes`` — ``(position, slot)`` for a variable bound before
      this atom: part of the probe key, read from each row;
    * ``bind_positions`` — the positions whose values extend the row (the
      first occurrence of each fresh variable, in position order);
    * ``intra_pairs`` — ``(position, binding position)`` for a fresh
      variable repeated inside the atom: fact-internal, verified once per
      candidate.
    """

    __slots__ = (
        "atom",
        "predicate",
        "arity",
        "const_pairs",
        "slot_probes",
        "bind_positions",
        "intra_pairs",
    )

    def __init__(
        self,
        atom,
        const_pairs: Tuple[Tuple[int, int], ...],
        slot_probes: Tuple[Tuple[int, int], ...],
        bind_positions: Tuple[int, ...],
        intra_pairs: Tuple[Tuple[int, int], ...],
    ) -> None:
        self.atom = atom
        self.predicate: str = atom.predicate
        self.arity: int = atom.arity
        self.const_pairs = const_pairs
        self.slot_probes = slot_probes
        self.bind_positions = bind_positions
        self.intra_pairs = intra_pairs

    # -- execution -----------------------------------------------------------

    def apply(self, index, limits, rows_in: List[SlotRow]) -> List[SlotRow]:
        """Extend every partial row in ``rows_in`` through this atom.

        The predicate has a live row in ``index``: :meth:`JoinPlan.rows
        <repro.engine.plan.JoinPlan.rows>` runs no step otherwise.
        """
        predicate = self.predicate
        rows = index.cols[predicate]
        cap = len(rows) if limits is None else min(len(rows), limits.get(predicate, 0))
        if cap <= 0:
            return []
        out: List[SlotRow] = []
        append = out.append
        extend = out.extend
        slot_probes = self.slot_probes
        if not slot_probes:
            # Every row shares one probe key: compute the extensions once and
            # take the cross product.
            exts = self._extensions(
                rows, index.probe_ids(predicate, self.const_pairs, cap, rows)
            )
            STATS.batch_probe_groups += 1
            if exts:
                for row in rows_in:
                    extend([row + ext for ext in exts])
            return out
        const_pairs = self.const_pairs
        probe_ids = index.probe_ids
        cache: Dict[object, List[SlotRow]] = {}
        cache_get = cache.get
        if len(slot_probes) == 1:
            position, slot = slot_probes[0]
            for row in rows_in:
                key = row[slot]
                exts = cache_get(key)
                if exts is None:
                    pairs = const_pairs + ((position, key),)
                    exts = self._extensions(rows, probe_ids(predicate, pairs, cap, rows))
                    cache[key] = exts
                if exts:
                    if len(exts) == 1:
                        append(row + exts[0])
                    else:
                        extend([row + ext for ext in exts])
        else:
            for row in rows_in:
                key = tuple(row[slot] for _, slot in slot_probes)
                exts = cache_get(key)
                if exts is None:
                    pairs = const_pairs + tuple(
                        (position, value)
                        for (position, _), value in zip(slot_probes, key)
                    )
                    exts = self._extensions(rows, probe_ids(predicate, pairs, cap, rows))
                    cache[key] = exts
                if exts:
                    if len(exts) == 1:
                        append(row + exts[0])
                    else:
                        extend([row + ext for ext in exts])
        STATS.batch_probe_groups += len(cache)
        return out

    def _extensions(self, cols, candidate_ids) -> List[SlotRow]:
        """The verified extension tuples for one probe key, ids ascending.

        For each candidate row id (ascending), keep the row iff it is live
        with the step's arity and every intra-atom repeated-variable pair
        agrees, then emit the tuple of its values at ``bind_positions``.
        This is the single hottest loop of the batch matcher.

        On a clean lane (:attr:`ColumnBuffer.mixed
        <repro.engine.colbuf.ColumnBuffer.mixed>` False) of a step without
        intra-atom pairs the arity test cannot reject a row, so the bound
        values are gathered by C loops instead: lane slices for a ``range``
        scan, one ``itemgetter`` per bound lane for a postings bucket.
        Everything else runs the checked loop.
        """
        arity = self.arity
        bind_positions = self.bind_positions
        intra_pairs = self.intra_pairs
        buffers = cols.buffers
        width = len(buffers)
        if arity > width or (arity != width and not cols.mixed):
            # No row has the step's arity: none is wider than the lanes, and
            # on a clean lane every row spans exactly the lane width.
            return []
        if not cols.mixed and not intra_pairs:
            if not bind_positions:
                return [()] * len(candidate_ids)
            if isinstance(candidate_ids, range):
                lo, hi = candidate_ids.start, candidate_ids.stop
                return list(zip(*[buffers[p][lo:hi] for p in bind_positions]))
            if len(candidate_ids) > 1:
                gather = itemgetter(*candidate_ids)
                return list(zip(*[gather(buffers[p]) for p in bind_positions]))
        arities = cols.arities
        exts: List[SlotRow] = []
        append = exts.append
        n_bind = len(bind_positions)
        if not intra_pairs and n_bind <= 2:
            # The dominant shapes (0-2 fresh variables, no repeated variable
            # inside the atom) get allocation-minimal loops over the flat
            # columns.
            if n_bind == 0:
                for row_id in candidate_ids:
                    if arities[row_id] == arity:
                        append(())
            elif n_bind == 1:
                column = buffers[bind_positions[0]]
                for row_id in candidate_ids:
                    if arities[row_id] == arity:
                        append((column[row_id],))
            else:
                first = buffers[bind_positions[0]]
                second = buffers[bind_positions[1]]
                for row_id in candidate_ids:
                    if arities[row_id] == arity:
                        append((first[row_id], second[row_id]))
            return exts
        for row_id in candidate_ids:
            if arities[row_id] != arity:
                continue
            for position, bound_position in intra_pairs:
                if buffers[position][row_id] != buffers[bound_position][row_id]:
                    break
            else:
                append(tuple(buffers[position][row_id] for position in bind_positions))
        return exts

