"""Compile-once join plans for rule-body evaluation, executed on term IDs.

The seed matcher (`repro.engine.reference.reference_match_atoms`, formerly
``chase.match_atoms``) re-derived its entire strategy on every call: it
re-``sorted()`` the body atoms, re-applied the running substitution to build
a fresh pattern ``Atom`` per candidate, and delegated per-fact verification
to a generic unifier.  All of that is static for a fixed body, so this module
resolves it **once** at plan time:

* **Atom order** — a greedy selectivity order (most bound positions first,
  then most constants, then fewest fresh variables) computed over the
  statically known set of bound variables at each join step.
* **Positions** — every term position compiles to one of three ops:
  ``CHECK_CONST`` (the position must equal a constant — whose **dictionary
  ID** is resolved here, at plan time, so the runtime comparison is a plain
  int equality), ``CHECK_SLOT`` (the position must equal an already-bound
  variable slot — this is also how repeated variables are enforced), or
  ``BIND_SLOT`` (the position binds a fresh slot).  Verification of a
  candidate fact is a flat loop over these ops on the fact's **ID row**
  (:attr:`~repro.engine.index.PredicateIndex.cols`); no substitution dicts,
  no pattern atoms, no term-object dispatch.
* **Probes** — the positions usable for index lookup (constant IDs and bound
  slots) are precomputed; at run time the executor picks the shortest
  postings bucket among them.
* **Negation** — each negated atom (ground under any full body match, by
  rule safety) compiles to a membership template evaluated directly against
  the negation reference at the encoded-key level.
* **Pivots** — for semi-naive delta joins, :func:`compile_rule` prepares one
  plan per body atom with that atom forced first; the executor reads the
  first step's candidates from the delta and the rest from the full
  instance.  :meth:`JoinPlan.pivot_viable` is the cost-based pre-check: a
  pivot is skipped when a bound constant of the pivot atom has an empty
  delta postings bucket, **or** when every value the delta can bind into a
  slot probed by a later step is absent from the full instance's postings at
  that probed position (the per-round bound-value summaries of
  :meth:`~repro.engine.index.PredicateIndex.distinct_values`).

* **Matchers** — a plan has two, each with its own job: engines fire from
  the slot rows of the column-at-a-time batch matcher
  (:meth:`JoinPlan.rows`, :mod:`repro.engine.batch`), and the depth-first
  backtracker (:meth:`JoinPlan._run`, behind ``execute`` / ``exists`` /
  ``lazy_rows``) answers head-satisfaction checks, constraint checks and
  goal-directed re-derivation, which want one match at a time.  They produce the same
  matches in the same order.

Slot values are integers (term IDs) throughout execution; decoding back to
:class:`~repro.datalog.terms.Term` objects happens only when substitution
dicts leave the matcher (:meth:`JoinPlan.execute` — ad-hoc matching) or
when provenance records the body facts of a firing (:meth:`RowOps.body_facts_row`).  Head facts stay encoded keys.

Plans are cached in memory (bodies and rules are hashable), so constraint
checks and repeated engine runs over the same program compile nothing after
the first call.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable
from repro.engine import interning
from repro.engine.interning import TERMS
from repro.engine.stats import STATS
from repro.obs.profile import PROFILER

CHECK_CONST = 0
CHECK_SLOT = 1
BIND_SLOT = 2

# Probe kinds: position equals a constant ID / the value of a bound slot.
PROBE_CONST = 0
PROBE_SLOT = 1


def _seed_id(value):
    """Normalise a seed binding to a term ID (engine rows carry raw ints).

    A seed term the table has never interned is kept as the term object
    itself rather than interned: an absent term can never equal any stored
    ID (so joins on it correctly find nothing), a foreign prebound variable
    still round-trips through :meth:`JoinPlan.execute` unchanged, and
    ad-hoc query vocabulary does not grow the process-global table.
    """
    if type(value) is int:
        return value
    tid = TERMS.find_term(value)
    return value if tid is None else tid


class _Step:
    """One join step: candidate probes plus verification ops for a body atom."""

    __slots__ = ("atom", "predicate", "arity", "ops", "probes")

    def __init__(
        self,
        atom: Atom,
        ops: Tuple[Tuple[int, int, int], ...],
        probes: Tuple[Tuple[int, int, int], ...],
    ):
        self.atom = atom
        self.predicate = atom.predicate
        self.arity = atom.arity
        self.ops = ops
        self.probes = probes


class JoinPlan:
    """A compiled join over a fixed atom sequence.

    ``execute`` yields one substitution dict per homomorphism of the body
    into the instance, exactly as the legacy matcher did (term objects are
    decoded at that boundary); ``rows`` returns the raw ID rows every engine
    fires from, computed column-at-a-time; ``exists`` is the
    allocation-free boolean variant used for head-satisfaction and
    constraint checks.
    """

    __slots__ = (
        "atoms",
        "steps",
        "slot_of",
        "n_slots",
        "emit",
        "prebound",
        "batch_plan",
        "pivot_flow",
        "profile",
    )

    def __init__(
        self,
        atoms: Tuple[Atom, ...],
        steps: Tuple[_Step, ...],
        slot_of: Dict[Variable, int],
        prebound: FrozenSet[Variable],
    ):
        self.atoms = atoms
        self.steps = steps
        self.slot_of = slot_of
        self.n_slots = len(slot_of)
        # Slot ids are assigned in insertion order of ``slot_of``, so the
        # variable tuple is index-aligned with the runtime slots list and a
        # substitution dict is one C-level dict(zip(...)).
        self.emit = tuple(slot_of)
        self.prebound = prebound
        # Lazily-built column-at-a-time executor (repro.engine.batch).
        self.batch_plan = None
        # Lazily-built (step0 position, later predicate, later position)
        # triples for the slot-bound pivot-viability test.
        self.pivot_flow: Optional[Tuple[Tuple[int, str, int], ...]] = None
        # Per-step profiling accumulator, attached by repro.obs.profile on
        # the first execution with profiling enabled; None costs the
        # executors exactly one flag branch per run.
        self.profile = None

    # -- execution ----------------------------------------------------------

    def execute(
        self,
        source,
        initial: Optional[Dict[Variable, Term]] = None,
        delta_source=None,
    ) -> Iterator[Dict[Variable, Term]]:
        """All homomorphisms as variable→term dicts (including seeded bindings).

        ``source`` is anything exposing ``_plan_source()`` (an ``Instance``
        or an ``InstanceSnapshot``).  With ``delta_source``, the first step's
        candidates are read from it instead — the semi-naive pivot join.
        """
        emit = self.emit
        nulls = TERMS._nulls
        constants = TERMS._constants
        for slots in self._run(source, initial, delta_source):
            try:
                yield dict(
                    zip(emit, [(nulls if t & 1 else constants)[t >> 1] for t in slots])
                )
            except TypeError:
                # Non-int slots pass through undecoded: None for a prebound
                # variable never seeded nor bound (the legacy contract), or
                # the original term object for a seed the table never
                # interned (see :func:`_seed_id`).
                yield dict(
                    zip(
                        emit,
                        [
                            (nulls if t & 1 else constants)[t >> 1]
                            if type(t) is int
                            else t
                            for t in slots
                        ],
                    )
                )

    def rows(
        self,
        source,
        initial: Optional[Dict[Variable, Term]] = None,
        delta_source=None,
    ) -> List[Tuple[int, ...]]:
        """All homomorphisms as full slot-ID tuples, column-at-a-time.

        The engine-facing entry point every engine fires from.  Same
        multiset *and order* as :meth:`execute` (each tuple is index-aligned
        with :attr:`emit`, values are term IDs), but computed by the batch
        executor of :mod:`repro.engine.batch`: one probe per distinct probe
        key per step instead of one probe per outer binding.
        """
        batch = self.batch_plan
        if batch is None:
            from repro.engine.batch import BatchPlan

            batch = self.batch_plan = BatchPlan(self)
        return batch.run(source, initial, delta_source)

    def execute_batch(
        self,
        source,
        initial: Optional[Dict[Variable, Term]] = None,
        delta_source=None,
    ) -> List[Dict[Variable, Term]]:
        """Batched :meth:`execute`: the matches as a list of substitution dicts."""
        emit = self.emit
        term = TERMS.term
        return [
            dict(
                zip(emit, (term(tid) if type(tid) is int else tid for tid in row))
            )
            for row in self.rows(source, initial, delta_source)
        ]

    def _pivot_flow(self) -> Tuple[Tuple[int, str, int], ...]:
        """(step0 bind position, later predicate, later probed position) triples.

        For each later step that probes a slot **bound by step 0**, the
        triple records where in the pivot atom the value comes from and
        which postings bucket of the full instance it will be probed
        against.  If, for every distinct value the delta holds at that
        pivot position, the probed bucket is empty, the whole pivot join
        cannot produce a match — the slot-bound half of pivot skipping.
        """
        flow = self.pivot_flow
        if flow is None:
            steps = self.steps
            if not steps:
                flow = ()
            else:
                bound_at: Dict[int, int] = {}
                for code, position, payload in steps[0].ops:
                    if code == BIND_SLOT:
                        bound_at[payload] = position
                triples: List[Tuple[int, str, int]] = []
                for step in steps[1:]:
                    for position, kind, payload in step.probes:
                        if kind == PROBE_SLOT and payload in bound_at:
                            triples.append(
                                (bound_at[payload], step.predicate, position)
                            )
                flow = tuple(triples)
            self.pivot_flow = flow
        return flow

    def pivot_viable(self, index, full_index=None) -> bool:
        """False iff this pivot join provably has no match in the delta.

        Two cheap pre-checks, both evaluated identically in every execution
        mode:

        * a **constant** probe of the first step has an empty postings
          bucket in ``index`` (the delta) — the bound term never occurs in
          the delta; or
        * with ``full_index`` given, some later step probes a slot bound at
          step 0, and none of the delta's distinct values at that pivot
          position (:meth:`~repro.engine.index.PredicateIndex.distinct_values`,
          the per-round bound-value summary) has a postings bucket at the
          probed position of the full instance — every candidate binding
          dead-ends at that step.

        Both tests are conservative: postings buckets may contain tombstoned
        rows, which only ever yields "viable" for a pivot that finds nothing.
        """
        step = self.steps[0]
        predicate = step.predicate
        postings = index.postings
        for position, kind, payload in step.probes:
            if kind == PROBE_CONST and not postings.get((predicate, position, payload)):
                return False
        if full_index is not None:
            full_postings = full_index.postings
            for pivot_position, later_predicate, later_position in self._pivot_flow():
                values = index.distinct_values(predicate, pivot_position)
                if values is None:
                    continue
                for tid in values:
                    if full_postings.get((later_predicate, later_position, tid)):
                        break
                else:
                    return False
        return True

    def exists(
        self,
        source,
        initial: Optional[Dict[Variable, Term]] = None,
    ) -> bool:
        """True iff at least one homomorphism exists (no dict per result)."""
        for _ in self._run(source, initial, None):
            return True
        return False

    def lazy_rows(
        self,
        source,
        initial: Optional[Dict[Variable, Term]] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """The slot-ID rows of :meth:`rows`, one at a time, depth-first.

        For callers that stop at the first usable match (goal-directed
        re-derivation): the backtracker behind :meth:`exists`, not the
        batch matcher, so no match past the one consumed is computed.
        """
        return map(tuple, self._run(source, initial, None))

    def _run(self, source, initial, delta_source) -> Iterator[List[int]]:
        if PROFILER.enabled:
            yield from self._run_profiled(source, initial, delta_source)
            return
        index, limits = source._plan_source()
        slots: List[Optional[int]] = [None] * self.n_slots
        if initial:
            slot_of = self.slot_of
            for variable, value in initial.items():
                slot = slot_of.get(variable)
                if slot is not None:
                    slots[slot] = _seed_id(value)
        steps = self.steps
        n_steps = len(steps)
        if n_steps == 0:
            yield slots
            return
        if delta_source is not None:
            delta_index, delta_limits = delta_source._plan_source()
        else:
            delta_index, delta_limits = index, limits

        # Per-depth candidate state: the flat arity/position columns, the
        # postings bucket (or None for a full scan), the cursor, the
        # iteration bound, and the row-id cap capturing the prefix visible
        # to this lookup.
        ar_s: List = [None] * n_steps
        bufs_s: List = [None] * n_steps
        ids_s: List[Optional[Sequence[int]]] = [None] * n_steps
        pos_s = [0] * n_steps
        end_s = [0] * n_steps
        cap_s = [0] * n_steps

        def start(depth: int) -> None:
            """Position the candidate cursor for the join step at ``depth``."""
            step = steps[depth]
            idx = delta_index if depth == 0 and delta_source is not None else index
            lim = delta_limits if depth == 0 and delta_source is not None else limits
            cols = idx.cols.get(step.predicate)
            pos_s[depth] = 0
            if not cols:
                ar_s[depth] = None
                end_s[depth] = 0
                return
            best = None
            for position, kind, payload in step.probes:
                value = payload if kind == PROBE_CONST else slots[payload]
                bucket = idx.postings.get((step.predicate, position, value))
                if bucket is None:
                    ar_s[depth] = None
                    end_s[depth] = 0
                    return
                if best is None or len(bucket) < len(best):
                    best = bucket
            cap = len(cols) if lim is None else min(len(cols), lim.get(step.predicate, 0))
            ar_s[depth] = cols.arities
            bufs_s[depth] = cols.buffers
            ids_s[depth] = best
            cap_s[depth] = cap
            end_s[depth] = len(best) if best is not None else cap

        depth = 0
        start(0)
        last = n_steps - 1
        while depth >= 0:
            step = steps[depth]
            arities = ar_s[depth]
            buffers = bufs_s[depth]
            ids = ids_s[depth]
            k = pos_s[depth]
            end = end_s[depth]
            cap = cap_s[depth]
            ops = step.ops
            arity = step.arity
            advanced = False
            while k < end:
                if ids is None:
                    row_id = k
                else:
                    row_id = ids[k]
                    if row_id >= cap:
                        k = end
                        break
                k += 1
                if arities[row_id] != arity:
                    continue
                ok = True
                for code, position, payload in ops:
                    term = buffers[position][row_id]
                    if code == CHECK_CONST:
                        if term == payload:
                            continue
                        ok = False
                        break
                    if code == CHECK_SLOT:
                        if term == slots[payload]:
                            continue
                        ok = False
                        break
                    slots[payload] = term
                if ok:
                    advanced = True
                    break
            pos_s[depth] = k
            if not advanced:
                depth -= 1
                continue
            if depth == last:
                yield slots
            else:
                depth += 1
                start(depth)

    def _run_profiled(self, source, initial, delta_source) -> Iterator[List[int]]:
        """Profiled twin of :meth:`_run` — same matches, same order.

        Deliberately duplicated rather than parameterised: the backtracker
        answers head-satisfaction ``exists``, constraint checks and
        goal-directed re-derivation, so a per-candidate counter branch would
        cost every unprofiled run.  Measured: one backtracker with an
        ``if profile is not None`` branch at cursor start and advance made
        the ``serve-*`` view's push p50 slower in 9 of 9 alternating pairs
        (+2–7 %) and ``check_consistency`` slower in 8 of 9.  Change the
        join logic in BOTH methods — the parity suites fail on divergence.
        Per-step counters here are exact (candidates entering each depth,
        probe lookups, survivors); the plan-level time is generator wall
        time and therefore includes consumer time between yields (see
        ``docs/observability.md``).
        """
        profile = PROFILER.plan_profile(self)
        step_profiles = profile.steps
        run_start = time.perf_counter_ns()
        emitted = 0
        try:
            index, limits = source._plan_source()
            slots: List[Optional[int]] = [None] * self.n_slots
            if initial:
                slot_of = self.slot_of
                for variable, value in initial.items():
                    slot = slot_of.get(variable)
                    if slot is not None:
                        slots[slot] = _seed_id(value)
            steps = self.steps
            n_steps = len(steps)
            if n_steps == 0:
                emitted += 1
                yield slots
                return
            if delta_source is not None:
                delta_index, delta_limits = delta_source._plan_source()
            else:
                delta_index, delta_limits = index, limits

            ar_s: List = [None] * n_steps
            bufs_s: List = [None] * n_steps
            ids_s: List[Optional[Sequence[int]]] = [None] * n_steps
            pos_s = [0] * n_steps
            end_s = [0] * n_steps
            cap_s = [0] * n_steps

            def start(depth: int) -> None:
                """Position the candidate cursor (counting rows in / probes)."""
                step_profile = step_profiles[depth]
                step_profile.rows_in += 1
                step = steps[depth]
                idx = delta_index if depth == 0 and delta_source is not None else index
                lim = delta_limits if depth == 0 and delta_source is not None else limits
                cols = idx.cols.get(step.predicate)
                pos_s[depth] = 0
                if not cols:
                    ar_s[depth] = None
                    end_s[depth] = 0
                    return
                best = None
                for position, kind, payload in step.probes:
                    value = payload if kind == PROBE_CONST else slots[payload]
                    step_profile.probes += 1
                    bucket = idx.postings.get((step.predicate, position, value))
                    if bucket is None:
                        ar_s[depth] = None
                        end_s[depth] = 0
                        return
                    if best is None or len(bucket) < len(best):
                        best = bucket
                cap = (
                    len(cols)
                    if lim is None
                    else min(len(cols), lim.get(step.predicate, 0))
                )
                ar_s[depth] = cols.arities
                bufs_s[depth] = cols.buffers
                ids_s[depth] = best
                cap_s[depth] = cap
                end_s[depth] = len(best) if best is not None else cap

            depth = 0
            start(0)
            last = n_steps - 1
            while depth >= 0:
                step = steps[depth]
                arities = ar_s[depth]
                buffers = bufs_s[depth]
                ids = ids_s[depth]
                k = pos_s[depth]
                end = end_s[depth]
                cap = cap_s[depth]
                ops = step.ops
                arity = step.arity
                advanced = False
                while k < end:
                    if ids is None:
                        row_id = k
                    else:
                        row_id = ids[k]
                        if row_id >= cap:
                            k = end
                            break
                    k += 1
                    if arities[row_id] != arity:
                        continue
                    ok = True
                    for code, position, payload in ops:
                        term = buffers[position][row_id]
                        if code == CHECK_CONST:
                            if term == payload:
                                continue
                            ok = False
                            break
                        if code == CHECK_SLOT:
                            if term == slots[payload]:
                                continue
                            ok = False
                            break
                        slots[payload] = term
                    if ok:
                        advanced = True
                        break
                pos_s[depth] = k
                if not advanced:
                    depth -= 1
                    continue
                step_profiles[depth].rows_out += 1
                if depth == last:
                    emitted += 1
                    yield slots
                else:
                    depth += 1
                    start(depth)
        finally:
            profile.executions += 1
            profile.rows_out += emitted
            profile.time_ns += time.perf_counter_ns() - run_start

    # -- introspection -------------------------------------------------------

    def describe(self) -> List[str]:
        """The compiled step order as human-readable lines (EXPLAIN body).

        Constant IDs are decoded back to spellings, slot indices to the
        variable names that own them; each line shows what the step scans
        or probes and which variables it binds.
        """
        slot_names = {slot: variable.name for variable, slot in self.slot_of.items()}

        def term_text(tid) -> str:
            if type(tid) is not int:
                return repr(tid)
            try:
                return str(TERMS.term(tid))
            except (IndexError, KeyError):  # pragma: no cover - stale ID
                return f"<id {tid}>"

        lines: List[str] = []
        for i, step in enumerate(self.steps):
            probes = []
            for position, kind, payload in step.probes:
                value = (
                    term_text(payload)
                    if kind == PROBE_CONST
                    else f"?{slot_names.get(payload, payload)}"
                )
                probes.append(f"[{position}]={value}")
            binds = []
            checks = []
            for code, position, payload in step.ops:
                if code == BIND_SLOT:
                    binds.append(f"?{slot_names.get(payload, payload)}")
                elif code == CHECK_SLOT and not any(
                    kind == PROBE_SLOT and probe_payload == payload
                    for _, kind, probe_payload in step.probes
                ):
                    checks.append(f"[{position}]==?{slot_names.get(payload, payload)}")
            access = f"probe {{{', '.join(probes)}}}" if probes else "scan"
            line = f"step {i}: {step.atom}  {access}"
            if binds:
                line += f"  bind [{', '.join(binds)}]"
            if checks:
                line += f"  check [{', '.join(checks)}]"
            lines.append(line)
        return lines


def _reference_has_key(reference) -> Optional[Callable]:
    """The encoded-membership probe of ``reference``, or None.

    Instances and snapshots answer membership at the key level; anything
    else (a plain set in a test, say) falls back to decoded-Atom ``in``.
    """
    return getattr(reference, "has_key", None)


def _negation_hit(templates, row, has_key, reference) -> bool:
    """True iff some encoded negation template matches ``reference`` at ``row``.

    The single definition both the per-row check and the memoised batch
    pre-filter go through, so the two paths cannot drift: keys are built
    from the slot templates and answered via ``has_key`` when the reference
    speaks encoded keys, else by decoded-Atom membership.
    """
    for _, pid, template in templates:
        key = (pid, *(
            row[payload] if is_slot else payload
            for is_slot, payload in template
        ))
        if (
            has_key(key)
            if has_key is not None
            else TERMS.decode_atom(key) in reference
        ):
            return True
    return False


class RowOps:
    """Row-level firing helpers for one (rule, plan) pair.

    Matches reach the engines as slot-ID tuples (:meth:`JoinPlan.rows`); this
    object is the precompiled bridge from those rows to everything an engine
    does with a match — building encoded head-fact keys, body instantiations
    (provenance), frontier bindings, and negation membership probes —
    without ever materialising a substitution dict (or, on the
    firing fast path, an Atom).  Existential head variables map to
    *extended* slot ids ``n_slots + j`` (``j`` over the rule's sorted
    existentials): engines append the invented nulls' IDs to the row and
    feed the extended tuple to :meth:`head_keys_row`.
    """

    __slots__ = (
        "emit",
        "n_slots",
        "head_templates",
        "body_templates",
        "frontier_slots",
        "neg_templates",
    )

    def __init__(self, crule: "CompiledRule", plan: JoinPlan):
        slot_of = plan.slot_of
        rule = crule.rule
        n_slots = plan.n_slots
        existential_slot = {
            variable: n_slots + j
            for j, variable in enumerate(crule.sorted_existentials)
        }

        def template(atom: Atom):
            """Compile one atom into (predicate, pid, slot-or-ID parts)."""
            parts = []
            for term in atom.terms:
                if isinstance(term, Variable):
                    slot = slot_of.get(term)
                    if slot is None:
                        slot = existential_slot[term]
                    parts.append((True, slot))
                else:
                    parts.append((False, TERMS.intern_term(term)))
            return (atom.predicate, TERMS.intern_constant(atom.predicate), tuple(parts))

        self.emit = plan.emit
        self.n_slots = n_slots
        self.head_templates = tuple(template(atom) for atom in rule.head)
        self.body_templates = tuple(template(atom) for atom in rule.body_positive)
        self.frontier_slots = tuple(
            (variable, slot_of[variable]) for variable in crule.sorted_frontier
        )
        self.neg_templates = crule._negation_slots(plan)[1]

    def head_keys_row(self, extended_row) -> List[Tuple[int, ...]]:
        """The encoded head-fact keys instantiated from an (extended) slot row."""
        return [
            (pid, *(
                extended_row[payload] if is_slot else payload
                for is_slot, payload in template
            ))
            for _, pid, template in self.head_templates
        ]

    def body_facts_row(self, row) -> Tuple[Atom, ...]:
        """The positive body instantiated from a row (provenance records)."""
        decode_atom = TERMS.decode_atom
        return tuple(
            decode_atom(
                (pid, *(
                    row[payload] if is_slot else payload
                    for is_slot, payload in template
                ))
            )
            for _, pid, template in self.body_templates
        )

    def negation_blocked_row(self, row, reference) -> bool:
        """Unmemoised per-row negation check (for mutable references)."""
        return _negation_hit(
            self.neg_templates, row, _reference_has_key(reference), reference
        )


class CompiledRule:
    """Everything static about one rule, resolved at plan time.

    * ``plan`` — the full positive-body join.
    * ``pivot_plans[i]`` — the same join with body atom ``i`` first, for
      semi-naive rounds where atom ``i`` ranges over the delta.
    * ``head_plan`` — join over the head atoms with the frontier prebound,
      used by the restricted chase to test whether a trigger's head is
      already satisfiable (the existential case); ``None`` for rules without
      existential variables, where the check is plain membership.
    """

    __slots__ = (
        "rule",
        "plan",
        "pivot_plans",
        "head_plan",
        "sorted_frontier",
        "sorted_existentials",
        "_neg_slot_cache",
        "_row_ops_cache",
    )

    def __init__(self, rule: Rule):
        self.rule = rule
        self.sorted_frontier = tuple(sorted(rule.frontier))
        self.sorted_existentials = tuple(sorted(rule.existential_variables))
        self.plan = compile_body(rule.body_positive, ())
        self.pivot_plans = tuple(
            compile_pivot(rule.body_positive, pivot)
            for pivot in range(len(rule.body_positive))
        )
        self.head_plan = (
            compile_body(rule.head, rule.frontier)
            if rule.existential_variables
            else None
        )
        # Per-plan slot templates for batched negation and row-level firing
        # (plan id -> compiled forms); pivot plans assign different slot
        # numberings, hence the keying.
        self._neg_slot_cache: Dict[int, Tuple] = {}
        self._row_ops_cache: Dict[int, RowOps] = {}

    # -- matching -----------------------------------------------------------

    def row_ops(self, plan: JoinPlan) -> RowOps:
        """The (cached) row-level firing helpers for ``plan``'s slot layout."""
        ops = self._row_ops_cache.get(id(plan))
        if ops is None:
            ops = self._row_ops_cache[id(plan)] = RowOps(self, plan)
        return ops

    def trigger_row_batches(
        self, instance, delta=None, negation_reference=None
    ) -> List[Tuple[JoinPlan, List[Tuple[int, ...]]]]:
        """Body matches as (plan, slot-ID-row list) pairs.

        The engine-facing matching entry point: one batch for the full join,
        or one per viable pivot when ``delta`` is given — the semi-naive
        matches where at least one body atom maps into ``delta``.  One pivot
        plan runs per body atom whose predicate occurs in the delta (minus
        the :meth:`JoinPlan.pivot_viable` skips); a match reachable through
        several pivots appears once per pivot and is deduplicated by the
        caller's ``Instance.add_key``.  The list is computed **eagerly** —
        every pivot is matched against the same instance state before the
        caller fires a single trigger; a lazy variant would let earlier
        pivots' head facts leak into later pivots' matches.

        When a *frozen* ``negation_reference`` is supplied (an
        :class:`~repro.engine.index.InstanceSnapshot`, or an instance that is
        not mutated while triggers are processed), negated atoms are
        pre-filtered in bulk; pre-filtering is only equivalent to a
        per-trigger check under that frozenness assumption.  Rows arrive in
        depth-first order (:meth:`JoinPlan.rows`); feed them to
        :meth:`row_ops` helpers to fire heads without building substitution
        dicts.
        """
        batches: List[Tuple[JoinPlan, List[Tuple[int, ...]]]] = []
        if delta is None:
            plan = self.plan
            rows = plan.rows(instance)
            if self.rule.body_negative and negation_reference is not None:
                rows = self._filter_negation_rows(rows, plan, negation_reference)
            if rows:
                batches.append((plan, rows))
            return batches
        delta_index = delta._plan_source()[0]
        full_index = instance._plan_source()[0]
        delta_live = delta_index.live
        for pivot, atom in enumerate(self.rule.body_positive):
            if not delta_live.get(atom.predicate):
                continue
            plan = self.pivot_plans[pivot]
            if not plan.pivot_viable(delta_index, full_index):
                STATS.pivots_skipped += 1
                continue
            rows = plan.rows(instance, None, delta_source=delta)
            if self.rule.body_negative and negation_reference is not None:
                rows = self._filter_negation_rows(rows, plan, negation_reference)
            if rows:
                batches.append((plan, rows))
        return batches

    def _negation_slots(self, plan: JoinPlan) -> Tuple:
        """(referenced slots, per-probe key templates) for ``plan``'s layout.

        Template payloads are term IDs for constants and slot indices for
        variables, so instantiating a probe under a slot-ID row yields the
        encoded membership key directly.
        """
        cached = self._neg_slot_cache.get(id(plan))
        if cached is None:
            slot_of = plan.slot_of
            # Rule safety binds every variable of a negated atom in any full
            # positive-body match, so each probe instantiates to a fact key.
            templates = tuple(
                (
                    atom.predicate,
                    TERMS.intern_constant(atom.predicate),
                    tuple(
                        (True, slot_of[term])
                        if isinstance(term, Variable)
                        else (False, TERMS.intern_term(term))
                        for term in atom.terms
                    ),
                )
                for atom in self.rule.body_negative
            )
            slots = tuple(
                sorted(
                    {
                        payload
                        for _, _, template in templates
                        for is_slot, payload in template
                        if is_slot
                    }
                )
            )
            cached = (slots, templates)
            self._neg_slot_cache[id(plan)] = cached
        return cached

    def _filter_negation_rows(self, rows, plan: JoinPlan, reference):
        """Drop slot rows whose negated atoms hold in ``reference``.

        The membership probes are batched: rows agreeing on every slot the
        negated atoms read share one memoised verdict, so the encoded keys
        are built once per distinct key instead of once per match — and no
        Atom is ever constructed when the reference answers at the key
        level.
        """
        if not rows:
            return rows
        neg_slots, templates = self._negation_slots(plan)
        has_key = _reference_has_key(reference)
        memo: Dict[Tuple, bool] = {}
        memo_get = memo.get
        kept = []
        append = kept.append
        for row in rows:
            key = tuple(row[slot] for slot in neg_slots)
            blocked = memo_get(key)
            if blocked is None:
                blocked = memo[key] = _negation_hit(templates, row, has_key, reference)
            if not blocked:
                append(row)
        if PROFILER.enabled:
            profile = PROFILER.plan_profile(plan)
            profile.neg_in += len(rows)
            profile.neg_blocked += len(rows) - len(kept)
        return kept

    # -- introspection -------------------------------------------------------

    def explain(self) -> str:
        """EXPLAIN text: the compiled plans, plus profile counters if any.

        Always renders the full-body plan's step order
        (:meth:`JoinPlan.describe`) and the negated atoms; when profiling
        has run (:data:`repro.obs.profile.PROFILER` enabled during some
        execution), each executed plan additionally reports its
        accumulated executions, per-step candidate/probe/survivor counts,
        and negation pre-filter hits.  Pivot plans appear only once they
        have executed — an un-run pivot carries no information.
        """
        lines = [f"rule: {self.rule}"]
        lines.append("plan:")
        for line in self.plan.describe():
            lines.append(f"  {line}")
        if self.rule.body_negative:
            lines.append(
                "negation: "
                + ", ".join(f"not {atom}" for atom in self.rule.body_negative)
            )
        lines.extend(_profile_lines(self.plan.profile, indent="  "))
        for pivot, plan in enumerate(self.pivot_plans):
            profile = plan.profile
            if profile is None or not profile.executions:
                continue
            lines.append(
                f"pivot {pivot} ({self.rule.body_positive[pivot]} from delta):"
            )
            for line in plan.describe():
                lines.append(f"  {line}")
            lines.extend(_profile_lines(profile, indent="  "))
        return "\n".join(lines)


def _profile_lines(profile, indent: str) -> List[str]:
    """Render one plan's accumulated profile as EXPLAIN lines (or nothing)."""
    if profile is None or not profile.executions:
        return []
    lines = [
        f"{indent}profile: executions={profile.executions} "
        f"rows_out={profile.rows_out} time_us={profile.time_ns // 1000}"
    ]
    for i, step in enumerate(profile.steps):
        lines.append(
            f"{indent}  step {i}: rows_in={step.rows_in} probes={step.probes} "
            f"rows_out={step.rows_out} time_us={step.time_ns // 1000}"
        )
    if profile.neg_in:
        lines.append(
            f"{indent}  negation: rows_in={profile.neg_in} "
            f"blocked={profile.neg_blocked}"
        )
    return lines


# -- compilation ---------------------------------------------------------------


def _selectivity_order(
    atoms: Sequence[Atom], prebound: FrozenSet[Variable], first: Optional[int]
) -> List[int]:
    """Greedy join order: most bound positions, then most constants, then
    fewest fresh variables; ties keep the original order.  ``first`` pins a
    pivot atom to the front."""
    order: List[int] = []
    bound = set(prebound)
    remaining = list(range(len(atoms)))
    if first is not None:
        order.append(first)
        remaining.remove(first)
        bound.update(atoms[first].variables)
    while remaining:
        best_index = None
        best_score = None
        for i in remaining:
            atom = atoms[i]
            n_bound = 0
            n_const = 0
            fresh = set()
            for term in atom.terms:
                if isinstance(term, Variable):
                    if term in bound:
                        n_bound += 1
                    else:
                        fresh.add(term)
                else:
                    n_bound += 1
                    n_const += 1
            score = (n_bound, n_const, -len(fresh), -i)
            if best_score is None or score > best_score:
                best_score = score
                best_index = i
        order.append(best_index)
        remaining.remove(best_index)
        bound.update(atoms[best_index].variables)
    return order


def _build_ordered(
    atoms: Tuple[Atom, ...], order: Sequence[int], prebound: FrozenSet[Variable]
) -> JoinPlan:
    """Build the plan for a fixed atom order (the post-selectivity half).

    Constant payloads are interned to term IDs **here** — at plan-build
    time — which is what makes every runtime comparison an int equality.
    """
    slot_of: Dict[Variable, int] = {}
    for variable in sorted(prebound):
        slot_of[variable] = len(slot_of)
    bound_slots = set(slot_of.values())
    steps: List[_Step] = []
    for i in order:
        atom = atoms[i]
        probes: List[Tuple[int, int, int]] = []
        hoisted: List[Tuple[int, int, int]] = []
        trailing: List[Tuple[int, int, int]] = []
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Variable):
                tid = TERMS.intern_term(term)
                hoisted.append((CHECK_CONST, position, tid))
                probes.append((position, PROBE_CONST, tid))
                continue
            slot = slot_of.get(term)
            if slot is None:
                slot = slot_of[term] = len(slot_of)
            if slot in bound_slots:
                # Bound before this atom: probe-able and hoistable.  Bound
                # within this atom (repeated variable): the check must stay
                # after its BIND_SLOT, and the slot value is not yet known
                # at probe time.
                if any(op[0] == BIND_SLOT and op[2] == slot for op in trailing):
                    trailing.append((CHECK_SLOT, position, slot))
                else:
                    hoisted.append((CHECK_SLOT, position, slot))
                    probes.append((position, PROBE_SLOT, slot))
            else:
                bound_slots.add(slot)
                trailing.append((BIND_SLOT, position, slot))
        steps.append(_Step(atom, tuple(hoisted + trailing), tuple(probes)))
    return JoinPlan(atoms, tuple(steps), slot_of, prebound)


def _compile_ordered(
    atoms: Sequence[Atom], first: Optional[int], prebound: FrozenSet[Variable]
) -> JoinPlan:
    atoms = tuple(atoms)
    return _build_ordered(atoms, _selectivity_order(atoms, prebound, first), prebound)


_BODY_CACHE: Dict[Tuple[Tuple[Atom, ...], FrozenSet[Variable]], JoinPlan] = {}
_PIVOT_CACHE: Dict[Tuple[Tuple[Atom, ...], int], JoinPlan] = {}
_RULE_CACHE: Dict[Rule, CompiledRule] = {}
_CACHE_LIMIT = 4096


@interning.register_epoch_hook
def _drop_plan_caches() -> None:
    """Epoch hook: start every term-table epoch with empty plan caches.

    Compiled plans embed constant IDs only, so they would technically
    survive a null-space reset — but the epoch contract is "nothing compiled
    against the old materialization is consulted again," and an empty cache
    is the cheapest way to make that auditable.
    """
    _BODY_CACHE.clear()
    _PIVOT_CACHE.clear()
    _RULE_CACHE.clear()


def compile_body(
    atoms: Iterable[Atom], prebound: Iterable[Variable] = ()
) -> JoinPlan:
    """Compile (and cache) a join plan for an atom sequence.

    ``prebound`` names the variables that will arrive already bound in the
    seed substitution; they receive dedicated slots so the executor treats
    them as bound from step one.
    """
    atoms = tuple(atoms)
    prebound_set = frozenset(prebound)
    key = (atoms, prebound_set)
    plan = _BODY_CACHE.get(key)
    if plan is None:
        if len(_BODY_CACHE) >= _CACHE_LIMIT:
            _BODY_CACHE.clear()
        plan = _compile_ordered(atoms, None, prebound_set)
        _BODY_CACHE[key] = plan
    return plan


def compile_pivot(atoms: Iterable[Atom], pivot: int) -> JoinPlan:
    """Compile (and cache) a join plan with atom ``pivot`` forced first.

    Executed with ``delta_source``, the pivot atom's candidates come from the
    delta and the remaining atoms join against the full instance — the
    semi-naive step.
    """
    atoms = tuple(atoms)
    key = (atoms, pivot)
    plan = _PIVOT_CACHE.get(key)
    if plan is None:
        if len(_PIVOT_CACHE) >= _CACHE_LIMIT:
            _PIVOT_CACHE.clear()
        plan = _compile_ordered(atoms, pivot, frozenset())
        _PIVOT_CACHE[key] = plan
    return plan


def compile_rule(rule: Rule) -> CompiledRule:
    """Compile (and cache) the full per-rule plan bundle."""
    compiled = _RULE_CACHE.get(rule)
    if compiled is None:
        if len(_RULE_CACHE) >= _CACHE_LIMIT:
            _RULE_CACHE.clear()
        compiled = _RULE_CACHE[rule] = CompiledRule(rule)
    return compiled
