"""Compile-once join plans for rule-body evaluation, executed on term IDs.

The seed matcher (``reference_match_atoms`` in ``tests/engine_reference.py``,
formerly ``chase.match_atoms``) re-derived its entire strategy on every call: it
re-``sorted()`` the body atoms, re-applied the running substitution to build
a fresh pattern ``Atom`` per candidate, and delegated per-fact verification
to a generic unifier.  All of that is static for a fixed body, so this module
resolves it **once** at plan time:

* **Atom order** — a greedy selectivity order (connected atoms first —
  those sharing a variable with what is bound — then most bound positions,
  then most constants, then fewest fresh variables) computed over the
  statically known set of bound variables at each join step.
* **Positions** — every term position of a body atom lands in one field of
  its :class:`~repro.engine.batch.Step`: a constant probe (whose
  **dictionary ID** is resolved here, at plan time, so the runtime
  comparison is a plain int equality), a probe on an already-bound slot, a
  fresh slot binding, or a fact-internal equality for a variable repeated
  inside the atom.  Slots are numbered in first-binding order, so a partial
  match is always a prefix of the full slot tuple; no substitution dicts,
  no pattern atoms, no term-object dispatch.
* **Negation** — each negated atom (ground under any full body match, by
  rule safety) compiles to a key template; one routine,
  :meth:`CompiledRule._filter_negation_rows`, filters a batch of slot rows
  against a frozen negation reference (an ``Instance`` or snapshot) by
  encoded-key membership, memoised per distinct key.  Every firing path —
  rounds, and DeltaSession's goal-directed restore — reads it.
* **Pivots** — for semi-naive delta joins, :func:`compile_rule` prepares one
  plan per body atom with that atom forced first; the executor reads the
  first step's candidates from the delta and the rest from the full
  instance.  :meth:`JoinPlan.pivot_viable` is the cost-based pre-check: a
  pivot is skipped when a bound constant of the pivot atom has an empty
  delta postings bucket, **or** when every value the delta can bind into a
  slot probed by a later step is absent from the full instance's postings at
  that probed position (the per-round bound-value summaries of
  :meth:`~repro.engine.index.PredicateIndex.distinct_values`).

* **One matcher** — :meth:`JoinPlan.rows` runs the steps column-at-a-time
  (:mod:`repro.engine.batch`).  Engines fire from its slot rows; the
  restricted chase's head check and the constraint check
  (:meth:`JoinPlan.exists`), goal-directed re-derivation and ad-hoc
  matching (:meth:`JoinPlan.execute`) read the same rows.

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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.rules import Rule
from repro.datalog.terms import Term, Variable
from repro.engine import interning
from repro.engine.batch import Step
from repro.engine.interning import TERMS
from repro.engine.stats import STATS
from repro.obs.profile import PROFILER

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


class JoinPlan:
    """A compiled join over a fixed atom sequence.

    ``rows`` returns the raw ID rows every engine fires from, computed
    column-at-a-time; ``execute`` decodes them into one substitution dict
    per homomorphism of the body into the instance; ``exists`` is the
    boolean used for head-satisfaction and constraint checks.
    """

    __slots__ = (
        "atoms",
        "steps",
        "slot_of",
        "n_slots",
        "emit",
        "prebound",
        "pivot_flow",
        "profile",
    )

    def __init__(
        self,
        atoms: Tuple[Atom, ...],
        steps: Tuple[Step, ...],
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
        # Lazily-built (step0 position, later predicate, later position)
        # triples for the slot-bound pivot-viability test.
        self.pivot_flow: Optional[Tuple[Tuple[int, str, int], ...]] = None
        # Per-step profiling accumulator, attached by repro.obs.profile on
        # the first execution with profiling enabled; None costs the
        # matcher exactly one flag branch per run.
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
        for slots in self.rows(source, initial, delta_source):
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
        """All homomorphisms as full slot-ID tuples, in depth-first order.

        The one matcher: each tuple is index-aligned with :attr:`emit` and
        carries term IDs.  Each step extends the whole batch of partial
        rows at once (:meth:`Step.apply <repro.engine.batch.Step.apply>`):
        one probe per distinct probe key per step instead of one probe per
        outer binding.
        """
        index, limits = source._plan_source()
        if delta_source is not None:
            delta_index, delta_limits = delta_source._plan_source()
        else:
            delta_index, delta_limits = index, limits
        n_prebound = len(self.prebound)
        base: List[Optional[int]] = [None] * n_prebound
        if initial:
            slot_of = self.slot_of
            for variable, value in initial.items():
                slot = slot_of.get(variable)
                if slot is not None and slot < n_prebound:
                    base[slot] = _seed_id(value)
        batch: List[Tuple[int, ...]] = [tuple(base)]
        # Profiling costs one branch per step, never per row: the per-step
        # counters are batch sizes, the ``STATS.batch_probe_groups`` delta,
        # and one clock pair around ``apply`` — the numbers
        # :meth:`CompiledRule.explain` and the harness ``--profile``
        # artifact report.
        profile = PROFILER.plan_profile(self) if PROFILER.enabled else None
        if profile is not None:
            run_start = time.perf_counter_ns()
        for depth, step in enumerate(self.steps):
            if depth == 0 and delta_source is not None:
                step_index, step_limits = delta_index, delta_limits
            else:
                step_index, step_limits = index, limits
            if profile is None:
                batch = step.apply(step_index, step_limits, batch)
            else:
                step_profile = profile.steps[depth]
                step_profile.rows_in += len(batch)
                probes_before = STATS.batch_probe_groups
                step_start = time.perf_counter_ns()
                batch = step.apply(step_index, step_limits, batch)
                step_profile.time_ns += time.perf_counter_ns() - step_start
                step_profile.probes += STATS.batch_probe_groups - probes_before
                step_profile.rows_out += len(batch)
            if not batch:
                break
        if profile is not None:
            profile.executions += 1
            profile.rows_out += len(batch)
            profile.time_ns += time.perf_counter_ns() - run_start
        return batch

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
                # Step 0 binds the slots right after the prebound ones.
                first = len(self.prebound)
                bound_at = {
                    first + k: position
                    for k, position in enumerate(steps[0].bind_positions)
                }
                flow = tuple(
                    (bound_at[slot], step.predicate, position)
                    for step in steps[1:]
                    for position, slot in step.slot_probes
                    if slot in bound_at
                )
            self.pivot_flow = flow
        return flow

    def pivot_viable(self, index, full_index=None) -> bool:
        """False iff this pivot join provably has no match in the delta.

        Two cheap pre-checks:

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
        for position, tid in step.const_pairs:
            if not postings.get((predicate, position, tid)):
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
        return bool(self.rows(source, initial))

    # -- introspection -------------------------------------------------------

    def describe(self) -> List[str]:
        """The compiled step order as human-readable lines (EXPLAIN body).

        Constant IDs are decoded back to spellings, slot indices to the
        variable names that own them; each line shows what the step scans
        or probes and which variables it binds.  A step after the first that
        probes no bound slot is tagged ``cross``: it joins its candidates
        with every row so far (a cross product).
        """
        def term_text(tid) -> str:
            if type(tid) is not int:
                return repr(tid)
            try:
                return str(TERMS.term(tid))
            except (IndexError, KeyError):  # pragma: no cover - stale ID
                return f"<id {tid}>"

        lines: List[str] = []
        for i, step in enumerate(self.steps):
            terms = step.atom.terms
            probed = [(position, term_text(tid)) for position, tid in step.const_pairs]
            probed += [(position, f"?{terms[position].name}") for position, _ in step.slot_probes]
            probes = [f"[{position}]={value}" for position, value in sorted(probed)]
            binds = [f"?{terms[position].name}" for position in step.bind_positions]
            checks = [
                f"[{position}]==?{terms[position].name}"
                for position, _ in step.intra_pairs
            ]
            access = f"probe {{{', '.join(probes)}}}" if probes else "scan"
            line = f"step {i}: {step.atom}  {access}"
            if binds:
                line += f"  bind [{', '.join(binds)}]"
            if checks:
                line += f"  check [{', '.join(checks)}]"
            if i and not step.slot_probes:
                line += "  cross"
            lines.append(line)
        return lines


class RowOps:
    """Row-level firing helpers for one (rule, plan) pair.

    Matches reach the engines as slot-ID tuples (:meth:`JoinPlan.rows`); this
    object is the precompiled bridge from those rows to everything an engine
    does with a match — building encoded head-fact keys, body instantiations
    (provenance) and frontier bindings — without ever materialising a
    substitution dict (or, on the firing fast path, an Atom).  Existential
    head variables map to *extended* slot ids ``n_slots + j`` (``j`` over
    the rule's sorted existentials): engines append the invented nulls' IDs
    to the row and feed the extended tuple to :meth:`head_keys_row`.
    """

    __slots__ = (
        "emit",
        "n_slots",
        "head_templates",
        "body_templates",
        "frontier_slots",
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

        ``reference`` is a frozen :class:`~repro.datalog.database.Instance`
        or :class:`~repro.engine.index.InstanceSnapshot`, answering
        membership of encoded keys.  The probes are batched: rows agreeing
        on every slot the negated atoms read share one memoised verdict, so
        the keys are built once per distinct key instead of once per match,
        and no Atom is ever constructed.
        """
        if not rows:
            return rows
        neg_slots, templates = self._negation_slots(plan)
        has_key = reference.has_key
        memo: Dict[Tuple, bool] = {}
        memo_get = memo.get
        kept = []
        append = kept.append
        for row in rows:
            key = tuple(row[slot] for slot in neg_slots)
            blocked = memo_get(key)
            if blocked is None:
                blocked = False
                for _, pid, template in templates:
                    if has_key((pid, *(
                        row[payload] if is_slot else payload
                        for is_slot, payload in template
                    ))):
                        blocked = True
                        break
                memo[key] = blocked
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
    """Greedy join order: connected first (an atom shares a *variable*, not
    a constant, with the bound set, or nothing is bound yet), then most
    bound positions, then most constants, then fewest fresh variables; ties
    keep the original order.  So no step is a cross product while a
    connected atom remains.  ``first`` pins a pivot atom to the front."""
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
            connected = not bound
            fresh = set()
            for term in atom.terms:
                if isinstance(term, Variable):
                    if term in bound:
                        n_bound += 1
                        connected = True
                    else:
                        fresh.add(term)
                else:
                    n_bound += 1
                    n_const += 1
            score = (connected, n_bound, n_const, -len(fresh), -i)
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
    A variable gets its slot where it is first bound, so slots are numbered
    in first-binding order (prebound variables first).
    """
    slot_of: Dict[Variable, int] = {}
    for variable in sorted(prebound):
        slot_of[variable] = len(slot_of)
    steps: List[Step] = []
    for i in order:
        atom = atoms[i]
        const_pairs: List[Tuple[int, int]] = []
        slot_probes: List[Tuple[int, int]] = []
        bind_positions: List[int] = []
        intra_pairs: List[Tuple[int, int]] = []
        bound_here: Dict[Variable, int] = {}  # fresh variable -> its binding position
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Variable):
                const_pairs.append((position, TERMS.intern_term(term)))
            elif term in bound_here:
                intra_pairs.append((position, bound_here[term]))
            elif term in slot_of:
                slot_probes.append((position, slot_of[term]))
            else:
                slot_of[term] = len(slot_of)
                bound_here[term] = position
                bind_positions.append(position)
        steps.append(
            Step(
                atom,
                tuple(const_pairs),
                tuple(slot_probes),
                tuple(bind_positions),
                tuple(intra_pairs),
            )
        )
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
