"""Incremental determinism: DeltaSession vs cold evaluation, byte for byte.

The streaming subsystem (:mod:`repro.engine.incremental`) promises that a
:class:`~repro.engine.incremental.DeltaSession` fed a database in arbitrary
batches materialises the *same* result as one cold evaluation of the
accumulated database.  This suite pins the contract differentially, at the
strength each fragment supports:

* **Existential-free programs** (semi-naive path, with stratified negation):
  the session's facts are **byte-identical** — ``sorted_atoms()`` equality —
  to the cold run, on a fuzz corpus of random stratified Datalog¬ programs
  under random batch schedules.  Negation
  exercises both incremental regimes: monotone strata are continued from the
  delta, strata whose negation references grew are re-run (facts must be
  *withdrawn* when new EDB kills their support).
* **Existential programs** (restricted chase path): with the session's
  content-addressed nulls, runs that fire the same triggers
  agree byte-identically, null labels included; where the restricted chase
  is genuinely order-dependent (a cold run satisfies a head early and skips
  the trigger the incremental run already fired), both results are universal
  models, so the **ground fact set and every query answer** still agree —
  asserted on a workload built to hit exactly that case.
* **Matchers and replay**: one push schedule produces atom-for-atom
  identical instances and identical gated counters with the batch matcher
  and with the depth-first oracle behind ``JoinPlan.rows``, and
  replaying a schedule is counter-for-counter deterministic.  (Counters are *not* compared against
  the cold run: a continuation finds matches through pivot plans across
  rounds where the cold run finds them in its full-plan first round, so trigger counts
  legitimately differ while results may not — see ``docs/architecture.md``.)
"""

import random

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine
from repro.datalog.parser import parse_program
from repro.datalog.semantics import INCONSISTENT, StratifiedSemantics
from repro.datalog.terms import Constant, Null
from repro.engine.incremental import DeltaSession, cold_equivalent
from repro.engine.stats import STATS
from test_engine_batch_parity import matcher, random_datalog_program, random_instance

TC_PROGRAM = """
    triple(?X, knows, ?Y) -> knows(?X, ?Y).
    knows(?X, ?Y) -> connected(?X, ?Y).
    connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
"""

TC_NEGATION_PROGRAM = TC_PROGRAM + """
    knows(?X, ?Y), not connected(?Y, ?X) -> oneway(?X, ?Y).
"""

ANCESTOR_CHASE_PROGRAM = """
    person(?X) -> exists ?Y . parent(?X, ?Y).
    parent(?X, ?Y) -> ancestor(?X, ?Y).
    ancestor(?X, ?Y), parent(?Y, ?Z) -> ancestor(?X, ?Z).
"""


def person(name):
    return Atom("person", (Constant(name),))


def edge(a, b):
    return Atom("triple", (Constant(a), Constant("knows"), Constant(b)))


def run_session(program, initial, batches, **kwargs):
    """Build a session, push every batch, return it (caller closes)."""
    session = DeltaSession(program, initial, **kwargs)
    for batch in batches:
        session.push(batch)
    return session


def split_schedule(rng, facts, n_batches):
    """Randomly split ``facts`` into an initial load plus ``n_batches``."""
    facts = list(facts)
    rng.shuffle(facts)
    cuts = sorted(rng.randint(0, len(facts)) for _ in range(n_batches))
    pieces = []
    previous = 0
    for cut in cuts + [len(facts)]:
        pieces.append(facts[previous:cut])
        previous = cut
    return pieces[0], pieces[1:]


# ---------------------------------------------------------------------------
# Existential-free parity: byte-identical to the cold run
# ---------------------------------------------------------------------------


class TestSemiNaiveParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_stratified_programs(self, seed):
        rng = random.Random(1000 + seed)
        instance, constants = random_instance(rng, n_constants=5, n_facts=60)
        program = random_datalog_program(rng, constants)
        initial, batches = split_schedule(rng, instance, rng.randint(1, 4))
        session = run_session(program, initial, batches)
        cold = cold_equivalent(session)
        assert session.instance.sorted_atoms() == cold.sorted_atoms()
        session.close()

    def test_single_fact_trickle_matches_cold(self):
        edges = [edge(f"n{i}", f"n{i + 1}") for i in range(12)]
        session = run_session(TC_PROGRAM, edges[:4], [[e] for e in edges[4:]])
        cold = cold_equivalent(session)
        assert session.instance.sorted_atoms() == cold.sorted_atoms()
        # Single-stratum program: every push is a pure continuation.
        result = session.push([edge("z0", "z1")])
        assert result.rebuilt_from is None
        session.close()

    def test_negation_withdraws_facts_on_rerun(self):
        session = DeltaSession(TC_NEGATION_PROGRAM, [edge("a", "b")])
        assert session.query("oneway") == {(Constant("a"), Constant("b"))}
        result = session.push([edge("b", "a")])
        assert result.rebuilt_from is not None
        assert session.query("oneway") == frozenset()
        assert (
            session.instance.sorted_atoms()
            == cold_equivalent(session).sorted_atoms()
        )
        session.close()

    @pytest.mark.parametrize("seed", range(4))
    def test_negation_fuzz_over_batch_schedules(self, seed):
        # The same program and facts under different schedules must all
        # converge to the cold result, whatever mix of continuations and
        # stratum re-runs each schedule takes.
        rng = random.Random(2000 + seed)
        instance, constants = random_instance(rng, n_constants=4, n_facts=50)
        program = random_datalog_program(rng, constants)
        cold = cold_equivalent(program, list(instance))
        for _ in range(3):
            initial, batches = split_schedule(rng, instance, rng.randint(2, 5))
            session = run_session(program, initial, batches)
            assert session.instance.sorted_atoms() == cold.sorted_atoms()
            session.close()

    def test_multi_stratum_negation_chain(self):
        program = """
            triple(?X, knows, ?Y) -> knows(?X, ?Y).
            knows(?X, ?Y), not blocked(?X) -> active(?X, ?Y).
            active(?X, ?Y), not trusted(?Y) -> flagged(?X, ?Y).
            knows(?X, ?X) -> blocked(?X).
            knows(?X, trust) -> trusted(?X).
        """
        facts = [edge("a", "b"), edge("b", "c"), edge("c", "trust")]
        session = DeltaSession(program, facts[:1])
        for fact in facts[1:]:
            session.push([fact])
        assert (
            session.instance.sorted_atoms()
            == cold_equivalent(session).sorted_atoms()
        )
        # A self-loop blocks `a`: stratum 1 and above must be re-run.
        result = session.push([edge("a", "a")])
        assert result.rebuilt_from is not None
        assert (
            session.instance.sorted_atoms()
            == cold_equivalent(session).sorted_atoms()
        )
        session.close()

    def test_push_affecting_only_top_stratum_never_rebuilds(self):
        program = """
            triple(?X, knows, ?Y) -> knows(?X, ?Y).
            audit(?X), not knows(?X, ?X) -> clean(?X).
        """
        session = DeltaSession(program, [edge("a", "b")])
        # `audit` only feeds the top stratum; nothing above it can need a
        # re-run, so this must be a pure continuation.
        result = session.push([Atom("audit", (Constant("a"),))])
        assert result.rebuilt_from is None
        assert session.query("clean") == {(Constant("a"),)}
        assert (
            session.instance.sorted_atoms()
            == cold_equivalent(session).sorted_atoms()
        )
        session.close()

    def test_duplicate_and_derived_pushes_are_noops(self):
        session = DeltaSession(TC_PROGRAM, [edge("a", "b"), edge("b", "c")])
        size = len(session)
        derived = Atom("connected", (Constant("a"), Constant("c")))
        assert derived in session
        result = session.push([edge("a", "b"), derived])
        assert result.new_edb == 0 and result.derived == 0
        assert len(session) == size
        assert (
            session.instance.sorted_atoms()
            == cold_equivalent(session).sorted_atoms()
        )
        session.close()


# ---------------------------------------------------------------------------
# Chase parity: stable nulls, universal-model agreement
# ---------------------------------------------------------------------------


class TestChaseParity:
    def test_existential_chain_byte_identical(self):
        people = [person(f"p{i}") for i in range(10)]
        session = run_session(
            ANCESTOR_CHASE_PROGRAM, people[:3], [[p] for p in people[3:]]
        )
        cold = cold_equivalent(session)
        # Content-addressed nulls: labels agree between the incremental and
        # the cold run, so plain sorted-atom equality covers the nulls too.
        assert session.instance.sorted_atoms() == cold.sorted_atoms()
        assert len(session.instance.nulls()) == len(people)
        session.close()

    def test_deterministic_null_labels_are_schedule_independent(self):
        people = [person(f"p{i}") for i in range(6)]
        one_shot = DeltaSession(ANCESTOR_CHASE_PROGRAM, people)
        trickled = run_session(
            ANCESTOR_CHASE_PROGRAM, people[:1], [[p] for p in people[1:]]
        )
        assert one_shot.instance.sorted_atoms() == trickled.instance.sorted_atoms()
        one_shot.close()
        trickled.close()

    def test_presatisfied_heads_agree_on_ground_part_and_answers(self):
        # A cold run sees parent(p0, q) up front and skips the existential
        # for p0; the incremental run invented a null for p0 before the
        # parent edge arrived.  The instances legitimately differ on null
        # atoms — but both are universal models, so ground facts and query
        # answers must agree exactly.
        program = ANCESTOR_CHASE_PROGRAM + """
            parent(?X, ?Y) -> haschild(?X).
        """
        session = DeltaSession(program, [person("p0"), person("p1")])
        session.push([Atom("parent", (Constant("p0"), Constant("q")))])
        cold = cold_equivalent(session)
        assert (
            session.instance.ground_part().sorted_atoms()
            == cold.ground_part().sorted_atoms()
        )
        for predicate in ("haschild", "ancestor", "parent", "person"):
            cold_answers = frozenset(
                tuple(a.terms)
                for a in cold.with_predicate(predicate)
                if a.is_ground
            )
            assert session.query(predicate) == cold_answers
        session.close()

    def test_stratified_chase_with_negation_rerun(self):
        program = """
            person(?X) -> exists ?Y . parent(?X, ?Y).
            parent(?X, ?Y) -> haschild(?X).
            person(?X), not adopted(?X) -> biological(?X).
            flag(?X, adopted) -> adopted(?X).
        """
        session = DeltaSession(program, [person("p0"), person("p1")])
        assert session.query("biological") == {
            (Constant("p0"),),
            (Constant("p1"),),
        }
        result = session.push([Atom("flag", (Constant("p0"), Constant("adopted")))])
        assert result.rebuilt_from is not None
        assert session.query("biological") == {(Constant("p1"),)}
        cold = cold_equivalent(session)
        # The rebuild re-invents content-addressed nulls, so even the null
        # atoms come back byte-identical to the cold run here.
        assert session.instance.sorted_atoms() == cold.sorted_atoms()
        session.close()

    def test_step_budget_is_per_push_and_totals_accumulate(self):
        engine = ChaseEngine(max_steps=4, on_limit="stop")
        session = DeltaSession(
            ANCESTOR_CHASE_PROGRAM, [person("p0")], chase_engine=engine
        )
        after_initial = session._chase_state.steps
        # One oversized push is capped at the per-push budget (4 of its 7
        # wanted triggers) — and the truncation is *reported*, not silent:
        # the materialisation is an under-approximation from here on.
        result = session.push([person(f"p{i}") for i in range(1, 8)])
        assert session._chase_state.steps == after_initial + 4
        assert not result.completed
        assert "max_steps" in result.limit_reason
        # ...but the budget never starves later pushes: a long-lived stream
        # gets a fresh allowance per batch (under a cumulative budget this
        # push would fire nothing), and the lifetime total keeps
        # accumulating on the shared state.
        after_capped = session._chase_state.steps
        before = len(session.facts("parent"))
        session.push([person("q0")])
        assert len(session.facts("parent")) > before
        assert session._chase_state.steps > after_capped
        session.close()

    def test_null_depth_counts_from_the_database_across_strata(self):
        # The second stratum's trigger reads a depth-1 null, so its null
        # would have depth 2: every evaluation must skip it, not only the
        # session (a fresh depth map per stratum used to let it through).
        program = """
            p(?X) -> exists ?Y . r(?X, ?Y).
            r(?X, ?Y), not q(?X) -> exists ?Z . s(?Y, ?Z).
        """
        database = [Atom("p", (Constant("a"),))]
        engine = ChaseEngine(max_null_depth=1, on_limit="stop")
        semantics = StratifiedSemantics(parse_program(program), engine)
        materialised = semantics.materialise(database)
        session = DeltaSession(program, database, chase_engine=engine)
        cold = cold_equivalent(session)
        assert (
            materialised.sorted_atoms()
            == session.instance.sorted_atoms()
            == cold.sorted_atoms()
        )
        assert not session.facts("s")
        assert session.limit_reason == "max_null_depth=1 exceeded"
        session.close()

    def test_bounded_session_retracts_and_matches_cold_after_every_step(self):
        # Two strata with existentials under a depth bound.  Retracting
        # parent(a, b) deletes the witness that satisfied person(a)'s
        # trigger, so DRed's repair invents a new null for it, whose
        # consequences in the upper stratum must appear as well.
        program = """
            person(?X) -> exists ?Y . parent(?X, ?Y).
            parent(?X, ?Y) -> exists ?Z . parent(?Y, ?Z).
            parent(?X, ?Y), not person(?Y) -> exists ?W . tag(?Y, ?W).
        """

        def parent(a, b):
            return Atom("parent", (Constant(a), Constant(b)))

        session = DeltaSession(
            program,
            [person("a"), parent("a", "b")],
            chase_engine=ChaseEngine(max_null_depth=2, on_limit="stop"),
        )
        steps = [
            ("push", [person("c")]),
            ("retract", [parent("a", "b")]),
            ("push", [parent("e", "f")]),
            ("retract", [person("c")]),
        ]
        assert session.instance.sorted_atoms() == cold_equivalent(session).sorted_atoms()
        for operation, facts in steps:
            result = getattr(session, operation)(facts)
            assert not result.completed and "max_null_depth" in result.limit_reason
            cold = cold_equivalent(session)
            assert session.instance.sorted_atoms() == cold.sorted_atoms(), operation
        session.close()

    def test_retract_repair_respects_the_depth_bound(self):
        # After a(k, c) goes, the only trigger left for b(k, _) reads the
        # depth-1 null of a(k, w): its null would have depth 2, so the repair
        # must skip it, as a cold chase of the surviving EDB does.
        program = """
            s(?X) -> exists ?W . t(?X, ?W).
            t(?X, ?W) -> a(?X, ?W).
            a(?X, ?Y) -> exists ?Z . b(?X, ?Z).
        """
        a_kc = Atom("a", (Constant("k"), Constant("c")))
        session = DeltaSession(
            program,
            [a_kc, Atom("s", (Constant("k"),))],
            chase_engine=ChaseEngine(max_null_depth=1, on_limit="stop"),
        )
        assert len(session.facts("b")) == 1
        session.retract([a_kc])
        assert not session.facts("b")
        assert session.instance.sorted_atoms() == cold_equivalent(session).sorted_atoms()
        session.close()

    def test_delta_session_factory_on_stratified_semantics(self):
        program = parse_program(ANCESTOR_CHASE_PROGRAM)
        semantics = StratifiedSemantics(program, ChaseEngine())
        session = semantics.delta_session([person("p0")])
        session.push([person("p1")])
        cold = semantics.materialise([person("p0"), person("p1")])
        assert session.instance.sorted_atoms() == cold.sorted_atoms()
        session.close()


# ---------------------------------------------------------------------------
# Modes, replay determinism, constraints, input forms
# ---------------------------------------------------------------------------


def run_both_modes(fn):
    """fn() per matcher; {mode: (result, counters)}."""
    results = {}
    for mode in ("row", "batch"):
        with matcher(mode):
            STATS.reset()
            results[mode] = (fn(), STATS.gated())
    return results


class TestModesAndDeterminism:
    def test_batch_vs_depth_first_seminaive_stream(self):
        edges = [edge(f"n{i % 7}", f"n{(i * 3 + 1) % 7}") for i in range(20)]

        def stream():
            session = run_session(
                TC_NEGATION_PROGRAM, edges[:6], [edges[6:12], edges[12:]]
            )
            atoms = list(session.instance)
            session.close()
            return atoms

        outcome = run_both_modes(stream)
        assert outcome["row"][0] == outcome["batch"][0]
        assert outcome["row"][1] == outcome["batch"][1]

    def test_batch_vs_depth_first_chase_stream(self):
        people = [person(f"p{i}") for i in range(9)]

        def stream():
            session = run_session(
                ANCESTOR_CHASE_PROGRAM, people[:3], [people[3:6], people[6:]]
            )
            atoms = list(session.instance)
            session.close()
            return atoms

        outcome = run_both_modes(stream)
        # Atom-for-atom equality covers insertion order and null labels.
        assert outcome["row"][0] == outcome["batch"][0]
        assert outcome["row"][1] == outcome["batch"][1]

    def test_replay_is_counter_deterministic(self):
        edges = [edge(f"n{i}", f"n{i + 1}") for i in range(15)]

        def stream():
            STATS.reset()
            session = run_session(TC_NEGATION_PROGRAM, edges[:5], [[e] for e in edges[5:]])
            gated = STATS.gated()
            atoms = session.instance.sorted_atoms()
            session.close()
            return atoms, gated

        first_atoms, first_counters = stream()
        second_atoms, second_counters = stream()
        assert first_atoms == second_atoms
        assert first_counters == second_counters

    def test_constraint_violation_surfaces_after_push(self):
        program = parse_program(
            """
            triple(?X, knows, ?Y) -> knows(?X, ?Y).
            knows(?X, ?X) -> false.
            """
        )
        session = DeltaSession(program, [edge("a", "b")])
        assert session.result() is not INCONSISTENT
        result = session.push([edge("c", "c")])
        assert not result.consistent
        assert session.result() is INCONSISTENT
        session.close()

    def test_input_forms_and_validation(self):
        from repro.rdf.graph import Triple

        session = DeltaSession(TC_PROGRAM, [("a", "knows", "b")])
        session.push([Triple("b", "knows", "c"), edge("c", "d")])
        assert len(session.facts("knows")) == 3
        with pytest.raises(ValueError, match="ground"):
            session.push([Atom("knows", (Constant("x"), Null("_:b")))])
        with pytest.raises(TypeError, match="streamed facts"):
            session.push(["not-a-fact"])
        closed = session
        closed.close()
        with pytest.raises(RuntimeError, match="closed"):
            closed.push([edge("x", "y")])


# ---------------------------------------------------------------------------
# Null collection after a retract
# ---------------------------------------------------------------------------


class UnreadableMarks(dict):
    """The marked facts of a retract, as a mapping whose iteration raises."""

    def __iter__(self):
        raise AssertionError("_collect_nulls iterated the marked facts")


class TestNullCollection:
    def spy_on_collect_nulls(self, monkeypatch):
        """Hand ``_collect_nulls`` unreadable marks; return the sizes it got."""
        original = DeltaSession._collect_nulls
        sizes = []

        def spy(self, marked, rebuilt):
            sizes.append(len(marked))
            return original(self, UnreadableMarks(marked), rebuilt)

        monkeypatch.setattr(DeltaSession, "_collect_nulls", spy)
        return sizes

    def test_existential_free_retract_never_reads_the_marks(self, monkeypatch):
        sizes = self.spy_on_collect_nulls(monkeypatch)
        session = DeltaSession(TC_PROGRAM, [edge(f"n{i}", f"n{i + 1}") for i in range(6)])
        result = session.retract([edge("n2", "n3")])
        assert sizes and sizes[0] > 0  # the retract did mark facts
        assert result.nulls_collected == 0
        assert session.instance.sorted_atoms() == cold_equivalent(session).sorted_atoms()
        session.close()

    def test_existential_retract_still_reads_the_marks(self, monkeypatch):
        self.spy_on_collect_nulls(monkeypatch)
        session = DeltaSession(ANCESTOR_CHASE_PROGRAM, [person("ann"), person("bob")])
        with pytest.raises(AssertionError, match="iterated the marked facts"):
            session.retract([person("ann")])
        session.close()
