"""Column-at-a-time execution of compiled join plans: the matcher behind
:meth:`JoinPlan.rows <repro.engine.plan.JoinPlan.rows>`, which every engine
fires from.

The row-at-a-time executor (``JoinPlan._run``) walks the join depth-first,
re-probing the index once per outer binding: for every partial match it picks
a postings bucket, iterates candidate row ids, and verifies ops one fact at a
time.  On large relations that means the Python interpreter re-executes the
same probe machinery thousands of times with different-but-often-equal probe
keys.

This module executes the same plan **step by step over a whole batch**: each
:class:`_BatchStep` consumes a list of partial slot tuples and produces the
list extended through one body atom.  Since the dictionary-encoding refactor
(:mod:`repro.engine.interning`), slot tuples carry **term IDs**: probes,
probe-key grouping, and intra-atom equality checks are all flat int
operations over the index's packed column buffers
(:attr:`~repro.engine.index.PredicateIndex.cols`, one
:class:`~repro.engine.colbuf.ColumnBuffer` per predicate) — no term-object
hashing anywhere in the loop.  The extension loop
(:meth:`_BatchStep._extensions`) gathers straight from lane slices while a
lane is clean (no tombstone, no padded row) and checks every row otherwise.

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
  (``Instance`` → live row counts captured at run start,
  ``InstanceSnapshot`` → the frozen limits) bound every probe, so a batch
  run never sees rows appended after its caps were captured.

**Order guarantee**: extensions are emitted row-major with candidate row ids
ascending — exactly the depth-first order of the row-at-a-time executor.
Both executors therefore produce the *same matches in the same order*, which
keeps engine results, invented-null sequences, and the stats counters
bit-identical whichever one computes the rows (the differential suites swap
the depth-first matcher in as their oracle; ``tests/test_engine_batch_parity.py``
also checks both against ``engine/reference.py``).
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.engine.stats import STATS
from repro.obs.profile import PROFILER

#: A (partial) match: one term ID per bound slot, in slot order.
SlotRow = Tuple[int, ...]


class _BatchStep:
    """One join step, recompiled for batched execution.

    Derived from the row executor's ``_Step``: every verification op is
    reclassified by *when* it can be evaluated under grouping —

    * constant probes / bound-slot probes → the probe key (enforced by
      ``probe_ids``, shared per group),
    * ``BIND_SLOT`` ops → ``bind_positions`` (the extension tuple), and
    * within-atom repeated-variable checks → ``intra_pairs``
      (fact-internal, verified once per candidate).
    """

    __slots__ = (
        "predicate",
        "arity",
        "const_pairs",
        "slot_probes",
        "bind_positions",
        "intra_pairs",
    )

    def __init__(self, step) -> None:
        from repro.engine.plan import BIND_SLOT, CHECK_CONST, CHECK_SLOT, PROBE_CONST

        self.predicate: str = step.predicate
        self.arity: int = step.arity
        self.const_pairs: Tuple[Tuple[int, int], ...] = tuple(
            (position, payload)
            for position, kind, payload in step.probes
            if kind == PROBE_CONST
        )
        self.slot_probes: Tuple[Tuple[int, int], ...] = tuple(
            (position, payload)
            for position, kind, payload in step.probes
            if kind != PROBE_CONST
        )
        bind_positions: List[int] = []
        intra_pairs: List[Tuple[int, int]] = []
        bound_here: Dict[int, int] = {}  # slot -> position that binds it
        for code, position, payload in step.ops:
            if code == BIND_SLOT:
                bound_here[payload] = position
                bind_positions.append(position)
            elif code == CHECK_SLOT and payload in bound_here:
                # Repeated variable within this atom: the check compares two
                # positions of the same fact, so it is row-independent.
                intra_pairs.append((position, bound_here[payload]))
            elif code == CHECK_CONST or code == CHECK_SLOT:
                # Hoisted checks always carry a probe; the grouped probe key
                # enforces them, so nothing remains to verify per row.
                pass
        self.bind_positions = tuple(bind_positions)
        self.intra_pairs = tuple(intra_pairs)

    # -- execution -----------------------------------------------------------

    def apply(self, index, limits, rows_in: List[SlotRow]) -> List[SlotRow]:
        """Extend every partial row in ``rows_in`` through this atom."""
        predicate = self.predicate
        rows = index.cols.get(predicate)
        if not rows:
            return []
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


class BatchPlan:
    """The column-at-a-time executor for one compiled :class:`JoinPlan`.

    Built lazily on first batch execution and cached on the plan, so the
    recompilation cost is paid once per (cached) plan per process.
    """

    __slots__ = ("plan", "steps", "n_prebound")

    def __init__(self, plan) -> None:
        self.plan = plan
        self.steps = tuple(_BatchStep(step) for step in plan.steps)
        self.n_prebound = len(plan.prebound)
        # The batch representation relies on slots being assigned in
        # first-binding order (prebound first, then step by step), so a
        # partial row is always a prefix of the full slot tuple.
        from repro.engine.plan import BIND_SLOT

        prefix = self.n_prebound
        for plan_step in plan.steps:
            for code, _position, payload in plan_step.ops:
                if code == BIND_SLOT:
                    if payload != prefix:
                        raise AssertionError(
                            f"non-prefix slot assignment in {plan.atoms}: "
                            f"slot {payload} bound at prefix {prefix}"
                        )
                    prefix += 1

    def run(
        self,
        source,
        initial: Optional[Dict] = None,
        delta_source=None,
    ) -> List[SlotRow]:
        """All matches as full slot tuples, in depth-first order."""
        index, limits = source._plan_source()
        if delta_source is not None:
            delta_index, delta_limits = delta_source._plan_source()
        else:
            delta_index, delta_limits = index, limits
        base: List[Optional[int]] = [None] * self.n_prebound
        if initial:
            from repro.engine.plan import _seed_id

            slot_of = self.plan.slot_of
            n_prebound = self.n_prebound
            for variable, value in initial.items():
                slot = slot_of.get(variable)
                if slot is not None and slot < n_prebound:
                    base[slot] = _seed_id(value)
        rows_batch: List[SlotRow] = [tuple(base)]
        # Profiling costs one branch per step, never per row: the per-step
        # counters are batch sizes, the ``STATS.batch_probe_groups`` delta,
        # and one clock pair around ``apply`` — the numbers
        # :meth:`repro.engine.plan.CompiledRule.explain` and the harness
        # ``--profile`` artifact report.
        profile = PROFILER.plan_profile(self.plan) if PROFILER.enabled else None
        if profile is not None:
            run_start = time.perf_counter_ns()
        for depth, step in enumerate(self.steps):
            if depth == 0 and delta_source is not None:
                source_index, source_limits = delta_index, delta_limits
            else:
                source_index, source_limits = index, limits
            if profile is None:
                rows_batch = step.apply(source_index, source_limits, rows_batch)
            else:
                step_profile = profile.steps[depth]
                step_profile.rows_in += len(rows_batch)
                probes_before = STATS.batch_probe_groups
                step_start = time.perf_counter_ns()
                rows_batch = step.apply(source_index, source_limits, rows_batch)
                step_profile.time_ns += time.perf_counter_ns() - step_start
                step_profile.probes += STATS.batch_probe_groups - probes_before
                step_profile.rows_out += len(rows_batch)
            if not rows_batch:
                break
        if profile is not None:
            profile.executions += 1
            profile.rows_out += len(rows_batch)
            profile.time_ns += time.perf_counter_ns() - run_start
        return rows_batch
