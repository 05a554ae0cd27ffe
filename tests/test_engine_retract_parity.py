"""Retraction parity: DRed deletion vs a cold recompute, byte for byte.

:meth:`~repro.engine.incremental.DeltaSession.retract` promises that after
any interleaving of pushes and retractions, the materialisation equals one
cold evaluation of the *surviving* EDB — the same differential contract
``tests/test_engine_incremental_parity.py`` pins for pushes, extended to
deletion.  The suite covers:

* **Fuzzed interleavings**: random stratified Datalog¬ programs under random
  push/retract schedules (retractions sample the currently-live EDB),
  compared ``sorted_atoms()``-equal to the cold run, also with compaction
  forced on every retraction (the negation and chase-session cases below
  too).  Matcher parity (the batch matcher vs the
  depth-first oracle behind ``JoinPlan.rows``) also compares the gated
  counters, so both take byte-identical work accounting through the
  deletion path.
* **Negation**: a retraction that shrinks a negation reference re-runs the
  strata above it — facts whose negative support *returns* must reappear.
* **Chase sessions**: content-addressed nulls make deletion parity
  byte-exact too — labels agree with the cold run, and the null garbage
  collector drops exactly the invented nulls no surviving fact references.
* **The canary**: with the re-derivation phase surgically disabled, the
  differential oracle must *fail* — proving the oracle can actually catch a
  skipped restoration, so green runs above mean something.
"""

import random

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant
from repro.engine import index as engine_index
from repro.engine.incremental import DeltaSession, cold_equivalent
from repro.engine.interning import TERMS
from repro.engine.stats import STATS
from test_engine_batch_parity import random_datalog_program, random_instance
from test_engine_kernels_fuzz import make_step
from test_engine_incremental_parity import (
    ANCESTOR_CHASE_PROGRAM,
    TC_NEGATION_PROGRAM,
    TC_PROGRAM,
    edge,
    person,
    run_both_modes,
)


def interleaved_schedule(rng, facts, n_ops):
    """A random ``(op, batch)`` schedule: pushes deliver fresh facts,
    retractions sample the EDB that is live at that point of the schedule."""
    pending = list(facts)
    rng.shuffle(pending)
    live = []
    ops = []
    for _ in range(n_ops):
        if pending and (not live or rng.random() < 0.6):
            batch = [pending.pop() for _ in range(min(len(pending), rng.randint(1, 8)))]
            live.extend(batch)
            ops.append(("push", batch))
        elif live:
            batch = rng.sample(live, rng.randint(1, min(len(live), 5)))
            for fact in batch:
                live.remove(fact)
            ops.append(("retract", batch))
    if pending:  # deliver the tail so schedules differ only in interleaving
        live.extend(pending)
        ops.append(("push", list(pending)))
    return ops


def replay(program, ops, **kwargs):
    """Build a session, apply the schedule, return it (caller closes)."""
    session = DeltaSession(program, [], **kwargs)
    for op, batch in ops:
        getattr(session, op)(batch)
    return session


def assert_cold_parity(session):
    cold = cold_equivalent(session)
    assert session.instance.sorted_atoms() == cold.sorted_atoms()


class TestInterleavedParity:
    @staticmethod
    def fuzz_case(seed):
        """(program, push/retract schedule) of fuzz seed ``seed``."""
        rng = random.Random(4000 + seed)
        instance, constants = random_instance(rng, n_constants=5, n_facts=60)
        program = random_datalog_program(rng, constants)
        ops = interleaved_schedule(rng, instance, rng.randint(4, 9))
        assert any(op == "retract" for op, _ in ops)
        return program, ops

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_stratified_programs(self, seed):
        session = replay(*self.fuzz_case(seed))
        assert_cold_parity(session)
        session.close()

    def test_fuzz_seeds_under_forced_compaction(self, monkeypatch):
        # Every lane with a tombstone compacts at the end of every
        # retraction; the results must still equal the cold recompute.
        monkeypatch.setattr(engine_index, "COMPACT_RATIO", 0.05)
        monkeypatch.setattr(engine_index, "_COMPACT_MIN_ROWS", 1)
        STATS.reset()
        for seed in range(8):
            session = replay(*self.fuzz_case(seed))
            assert_cold_parity(session)
            session.close()
        assert STATS.compactions >= 1

    def test_retract_then_reinsert_roundtrips(self):
        edges = [edge(f"n{i}", f"n{i + 1}") for i in range(10)]
        session = DeltaSession(TC_PROGRAM, edges)
        before = session.instance.sorted_atoms()
        session.retract(edges[3:6])
        assert_cold_parity(session)
        session.push(edges[3:6])
        assert session.instance.sorted_atoms() == before
        session.close()

    def test_retract_everything_empties_the_materialisation(self):
        edges = [edge(f"n{i}", f"n{i + 1}") for i in range(6)]
        session = DeltaSession(TC_PROGRAM, edges)
        result = session.retract(edges)
        assert result.removed_edb == len(edges)
        assert len(session) == 0
        assert_cold_parity(session)
        session.close()

    def test_retract_of_absent_facts_is_a_noop(self):
        session = DeltaSession(TC_PROGRAM, [edge("a", "b")])
        size = len(session)
        result = session.retract([edge("x", "y")])
        assert result.removed_edb == 0 and result.overdeleted == 0
        assert len(session) == size
        session.close()

    def test_shared_support_survives_partial_retraction(self):
        # connected(a, c) holds through b *and* through the direct edge; the
        # chain's deletion must not take the surviving derivation with it.
        session = DeltaSession(
            TC_PROGRAM, [edge("a", "b"), edge("b", "c"), edge("a", "c")]
        )
        result = session.retract([edge("b", "c")])
        assert result.rederived >= 1
        assert (Constant("a"), Constant("c")) in session.query("connected")
        assert_cold_parity(session)
        session.close()


class TestNegation:
    def test_retraction_restores_negatively_supported_facts(self):
        session = DeltaSession(
            TC_NEGATION_PROGRAM, [edge("a", "b"), edge("b", "a")]
        )
        assert session.query("oneway") == frozenset()
        result = session.retract([edge("b", "a")])
        # The negation reference shrank: the stratum above re-runs, and the
        # fact it used to block comes back.
        assert result.rebuilt_from is not None
        assert session.query("oneway") == {(Constant("a"), Constant("b"))}
        assert_cold_parity(session)
        session.close()

    @pytest.mark.parametrize("seed", range(4))
    def test_negation_fuzz_over_interleavings(self, seed):
        rng = random.Random(5000 + seed)
        instance, constants = random_instance(rng, n_constants=4, n_facts=50)
        program = random_datalog_program(rng, constants)
        for _ in range(2):
            ops = interleaved_schedule(rng, instance, rng.randint(5, 8))
            session = replay(program, ops)
            assert_cold_parity(session)
            session.close()


class TestChaseRetraction:
    def test_null_gc_drops_exactly_the_orphans(self):
        people = [person(f"p{i}") for i in range(4)]
        session = DeltaSession(ANCESTOR_CHASE_PROGRAM, people)
        orphaned_before = TERMS.orphaned_nulls
        nulls_before = len(session.instance.nulls())
        result = session.retract([person("p0")])
        assert result.nulls_collected == 1
        assert len(session.instance.nulls()) == nulls_before - 1
        assert TERMS.orphaned_nulls == orphaned_before + 1
        assert_cold_parity(session)
        session.close()

    def test_reinsertion_reinvents_the_same_null_labels(self):
        # Content-addressed digests: retracting a person and pushing it back
        # re-fires the same trigger and lands on the same label, so the
        # instance round-trips byte-identically.
        people = [person(f"p{i}") for i in range(5)]
        session = DeltaSession(ANCESTOR_CHASE_PROGRAM, people)
        before = session.instance.sorted_atoms()
        session.retract([person("p2")])
        session.push([person("p2")])
        assert session.instance.sorted_atoms() == before
        session.close()

    def test_interleaved_chase_schedule_matches_cold(self):
        people = [person(f"p{i}") for i in range(8)]
        session = DeltaSession(ANCESTOR_CHASE_PROGRAM, people[:5])
        session.retract(people[1:3])
        session.push(people[5:])
        session.retract([people[6]])
        assert_cold_parity(session)
        session.close()


class TestModeParity:
    def test_batch_vs_depth_first_interleaved(self):
        rng = random.Random(77)
        edges = [
            edge(f"u{rng.randrange(12)}", f"u{rng.randrange(12)}")
            for _ in range(40)
        ]
        ops = interleaved_schedule(random.Random(78), edges, 8)
        assert any(op == "retract" for op, _ in ops)

        def stream():
            session = replay(TC_NEGATION_PROGRAM, ops)
            atoms = list(session.instance)
            session.close()
            return atoms

        outcome = run_both_modes(stream)
        assert outcome["row"][0] == outcome["batch"][0]
        # Gated counters too: the deletion path (over-delete, re-derive,
        # null GC) does identical accounted work in every executor.
        assert outcome["row"][1] == outcome["batch"][1]

    def test_batch_vs_depth_first_chase_retraction(self):
        people = [person(f"p{i}") for i in range(9)]

        def stream():
            session = DeltaSession(ANCESTOR_CHASE_PROGRAM, people[:6])
            session.retract(people[2:4])
            session.push(people[6:])
            session.retract([people[0]])
            atoms = list(session.instance)
            session.close()
            return atoms

        outcome = run_both_modes(stream)
        assert outcome["row"][0] == outcome["batch"][0]
        assert outcome["row"][1] == outcome["batch"][1]


class TestPackedColumnTombstones:
    """Retraction must be visible through the flat column buffers.

    The packed representation never deletes rows — :meth:`ColumnBuffer.kill`
    flips the arity lane to the tombstone marker and leaves the position
    lanes intact — so every consumer of the buffers (scans, probe
    verification, the batch extension loop) has to treat
    ``arities[row] != arity`` as the single liveness test, or, in the batch
    gather, trust it only while the lane is clean.  This regression
    pins that contract against :meth:`DeltaSession.retract`.  A single-rule
    program keeps the over-deleted closure small, so retraction takes the
    in-place DRed path (tombstones) rather than the degenerate instance
    rebuild — the path under test.
    """

    SINGLE_RULE = "triple(?X, knows, ?Y) -> knows(?X, ?Y)."

    def test_retract_flips_arity_lane_only(self):
        from repro.engine.colbuf import TOMB

        edges = [edge(f"n{i}", f"n{i + 1}") for i in range(8)]
        session = DeltaSession(self.SINGLE_RULE, edges)
        index = session.instance._index
        cols = index.cols["triple"]
        n_rows = len(cols)
        victims = edges[2:5]
        victim_keys = {TERMS.atom_key(a)[1:] for a in victims}
        session.retract(victims)
        # The in-place path keeps the instance (and its buffers) identical.
        assert session.instance._index is index
        # Rows are never compacted: the buffer keeps its length and the
        # killed rows keep their term IDs under a tombstoned arity lane.
        assert len(cols) == n_rows
        dead = [r for r in range(n_rows) if cols.arities[r] == TOMB]
        assert len(dead) == len(victims)
        assert {
            tuple(cols.buffers[p][r] for p in range(3)) for r in dead
        } == victim_keys
        assert_cold_parity(session)
        session.close()

    def test_scans_and_kernels_skip_tombstones_in_both_modes(self):
        # The two modes are the two packed paths of the batch extension loop
        # and of the distinct-value summary: the checked loop on the
        # tombstoned lane, and the clean-lane gather once compaction has
        # packed the survivors into a fresh lane.
        edges = [edge(f"n{i}", f"n{i + 1}") for i in range(60)]
        session = DeltaSession(self.SINGLE_RULE, edges)
        index = session.instance._index
        session.retract(edges[10:30])
        assert session.instance._index is index  # in-place, not rebuilt
        survivors = {TERMS.atom_key(a)[1:] for a in edges[:10] + edges[30:]}
        step = make_step(3, (0, 1, 2), ())
        results = []
        for compacted in (False, True):
            if compacted:
                index.compact("triple")
            cols = index.cols["triple"]
            assert cols.mixed != compacted
            assert set(index.scan_ids("triple", 3, ())) == survivors
            # The bulk extension over every row id must surface exactly
            # the live rows on either path.
            results.append(step._extensions(cols, range(len(cols))))
            values = index.distinct_values("triple", 0)
            if values is not None:
                assert values == {ids[0] for ids in survivors}
        assert results[0] == results[1]
        assert set(results[0]) == survivors
        assert_cold_parity(session)
        session.close()

    def test_interleaved_retract_parity_survives_packed_reuse(self):
        # Push/retract churn over the same spellings: re-added facts land in
        # fresh rows (append-only ordinals) while old tombstones linger, and
        # the differential oracle must still hold byte for byte.
        edges = [edge(f"n{i}", f"n{i + 1}") for i in range(12)]
        session = DeltaSession(self.SINGLE_RULE, edges)
        for _ in range(3):
            session.retract(edges[3:9])
            assert_cold_parity(session)
            session.push(edges[3:9])
            assert_cold_parity(session)
        index = session.instance._index
        cols = index.cols["triple"]
        assert len(cols) > len(edges)  # tombstoned rows were never reclaimed
        assert sum(1 for r in range(len(cols)) if cols.arities[r] == 3) == len(
            edges
        )
        session.close()


class TestTombstoneCompaction:
    """Compaction is invisible: same atoms, same gated counters, fewer rows.

    :meth:`PredicateIndex.compact` rewrites a lane's physical rows (live rows
    only, original order, fresh row ids) when the tombstone fraction crosses
    ``COMPACT_RATIO`` at the end of a retraction.  The churn below retracts
    and re-pushes chain segments in small bites so tombstones accumulate
    without ever tripping the degenerate-rebuild guard; the forced-low leg
    must then be byte-identical — atoms *and* gated counters — to the
    disabled leg (ratio 2.0 can never trip), while holding strictly fewer
    physical rows and a tombstone fraction bounded by the knob.
    """

    RATIO = 0.3

    @staticmethod
    def _churn():
        edges = [edge(f"k{i}", f"k{i + 1}") for i in range(60)]
        session = DeltaSession(TC_PROGRAM, edges)
        for k in range(56, 30, -2):
            session.retract(edges[k : k + 2])
            session.push(edges[k : k + 2])
        return session

    def _run(self, ratio, monkeypatch):
        monkeypatch.setattr(engine_index, "COMPACT_RATIO", ratio)
        STATS.reset()
        session = self._churn()
        atoms = session.instance.sorted_atoms()
        gated = STATS.gated()
        counts = dict(session.compaction_counts)
        index = session.instance._index
        lanes = {
            predicate: (index.row_count(predicate), index.live.get(predicate, 0))
            for predicate in index.cols
        }
        assert_cold_parity(session)
        session.close()
        return atoms, gated, counts, lanes

    def test_byte_parity_with_compaction_disabled(self, monkeypatch):
        atoms_on, gated_on, counts_on, lanes_on = self._run(self.RATIO, monkeypatch)
        atoms_off, gated_off, counts_off, lanes_off = self._run(2.0, monkeypatch)
        assert sum(counts_on.values()) >= 1  # the forced leg really compacted
        assert not counts_off
        assert atoms_on == atoms_off
        assert gated_on == gated_off
        for predicate in counts_on:
            total_on, live_on = lanes_on[predicate]
            total_off, live_off = lanes_off[predicate]
            # Same live facts through strictly fewer physical rows, and the
            # dead remainder bounded by the knob: pushes after the last
            # compacting retraction only ever add live rows, so the fraction
            # the final retraction left behind can only have shrunk.
            assert live_on == live_off
            assert total_on < total_off
            assert (total_on - live_on) / total_on <= self.RATIO

    def test_batch_vs_depth_first_under_forced_compaction(self, monkeypatch):
        monkeypatch.setattr(engine_index, "COMPACT_RATIO", self.RATIO)

        def stream():
            session = self._churn()
            atoms = list(session.instance)
            assert sum(session.compaction_counts.values()) >= 1
            session.close()
            return atoms

        outcome = run_both_modes(stream)
        assert outcome["row"][0] == outcome["batch"][0]
        # The gated counters too: compaction renumbers rows mid-session,
        # which must not change the work any executor accounts for.
        assert outcome["row"][1] == outcome["batch"][1]

    def test_negation_and_chase_retractions_under_forced_compaction(
        self, monkeypatch
    ):
        # Lanes renumber under the stratum rebuilds negation triggers and
        # under the chase's null collector; every parity above must hold.
        monkeypatch.setattr(engine_index, "COMPACT_RATIO", 0.05)
        monkeypatch.setattr(engine_index, "_COMPACT_MIN_ROWS", 1)
        STATS.reset()
        negation, chase = TestNegation(), TestChaseRetraction()
        negation.test_retraction_restores_negatively_supported_facts()
        for seed in range(4):
            negation.test_negation_fuzz_over_interleavings(seed)
        chase.test_null_gc_drops_exactly_the_orphans()
        chase.test_reinsertion_reinvents_the_same_null_labels()
        chase.test_interleaved_chase_schedule_matches_cold()
        assert STATS.compactions >= 1


class TestCanary:
    def test_oracle_catches_a_skipped_rederivation(self, monkeypatch):
        # Plant the bug DRed exists to prevent — delete the over-deleted
        # closure but never restore survivors — and require the differential
        # oracle to *fail*.  If this test ever passes with the restoration
        # disabled, the parity assertions above have lost their teeth.
        session = DeltaSession(
            TC_PROGRAM, [edge("a", "b"), edge("b", "c"), edge("a", "c")]
        )
        monkeypatch.setattr(
            DeltaSession, "_rederive_stratum", lambda self, stratum, marked: 0
        )
        session.retract([edge("b", "c")])
        cold = cold_equivalent(session)
        assert session.instance.sorted_atoms() != cold.sorted_atoms()
        # connected(a, c) still has the direct edge as support; the crippled
        # session lost it, which is exactly what the oracle must notice.
        assert (Constant("a"), Constant("c")) not in session.query("connected")
        session.close()
