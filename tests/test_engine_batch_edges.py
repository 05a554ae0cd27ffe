"""Edge-case properties of the column-at-a-time executor.

Targets the classic vectorised-executor failure modes one by one:

* self-joins and repeated variables (within one atom and across atoms),
* negation probes over empty and singleton buckets,
* snapshot isolation — a batch lookup must not see rows appended to the
  instance after the ``snapshot()`` was taken, and
* degenerate shapes: empty bodies, unmatched predicates, prebound seeds.
"""

import random

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import Instance
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.terms import Constant, Variable
from repro.engine.plan import compile_body, compile_rule
from repro.engine.reference import reference_match_atoms
from test_engine_batch_parity import matcher

V = Variable
C = Constant


def canonical(substitutions):
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in s.items())) for s in substitutions
    )


def assert_parity(atoms, instance, initial=None):
    atoms = tuple(atoms)
    prebound = frozenset(initial) if initial else frozenset()
    plan = compile_body(atoms, prebound)
    row_matches = list(plan.execute(instance, initial))
    batch_matches = plan.execute_batch(instance, initial)
    assert batch_matches == row_matches
    assert canonical(batch_matches) == canonical(
        reference_match_atoms(atoms, instance, initial)
    )
    return batch_matches


class TestRepeatedVariables:
    def setup_method(self):
        self.instance = Instance(
            [
                Atom("e", (C("a"), C("a"))),
                Atom("e", (C("a"), C("b"))),
                Atom("e", (C("b"), C("a"))),
                Atom("e", (C("b"), C("c"))),
                Atom("t", (C("a"), C("a"), C("a"))),
                Atom("t", (C("a"), C("b"), C("a"))),
                Atom("t", (C("b"), C("b"), C("c"))),
            ]
        )

    def test_self_loop_within_atom(self):
        matches = assert_parity([Atom("e", (V("X"), V("X")))], self.instance)
        assert len(matches) == 1  # only e(a, a)

    def test_triple_repeat_within_atom(self):
        matches = assert_parity([Atom("t", (V("X"), V("X"), V("X")))], self.instance)
        assert len(matches) == 1  # only t(a, a, a)

    def test_first_and_third_repeat(self):
        matches = assert_parity([Atom("t", (V("X"), V("Y"), V("X")))], self.instance)
        assert len(matches) == 2  # t(a,a,a), t(a,b,a)

    def test_self_join_across_atoms(self):
        assert_parity(
            [Atom("e", (V("X"), V("Y"))), Atom("e", (V("Y"), V("X")))], self.instance
        )

    def test_same_atom_twice(self):
        # Both atoms map to the same facts; each pair of supporting facts is
        # one homomorphism, so multiplicities must survive batching.
        matches = assert_parity(
            [Atom("e", (V("X"), V("Y"))), Atom("e", (V("X"), V("Y")))], self.instance
        )
        singles = assert_parity([Atom("e", (V("X"), V("Y")))], self.instance)
        assert len(matches) == len(singles)

    def test_diamond_self_join(self):
        assert_parity(
            [
                Atom("e", (V("X"), V("Y"))),
                Atom("e", (V("X"), V("Z"))),
                Atom("e", (V("Y"), V("W"))),
                Atom("e", (V("Z"), V("W"))),
            ],
            self.instance,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_repeated_variable_patterns(self, seed):
        rng = random.Random(seed)
        constants = [C(f"c{i}") for i in range(4)]
        facts = [
            Atom("t", tuple(rng.choice(constants) for _ in range(3)))
            for _ in range(60)
        ]
        instance = Instance(facts)
        variables = [V("X"), V("Y")]
        for _ in range(8):
            body = tuple(
                Atom("t", tuple(rng.choice(variables) for _ in range(3)))
                for _ in range(rng.randint(1, 2))
            )
            assert_parity(body, instance)


class TestNegationBuckets:
    def evaluate_both(self, program_text, database):
        program = parse_program(program_text)
        results = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                results[mode] = list(SemiNaiveEvaluator(program).evaluate(database))
        assert results["row"] == results["batch"]
        return set(results["batch"])

    def test_negation_over_empty_bucket(self):
        # ``q`` has no facts at all: every p(X) passes the negation.
        result = self.evaluate_both(
            "p(?X), not q(?X) -> r(?X).",
            [Atom("p", (C("a"),)), Atom("p", (C("b"),))],
        )
        assert Atom("r", (C("a"),)) in result
        assert Atom("r", (C("b"),)) in result

    def test_negation_over_singleton_bucket(self):
        result = self.evaluate_both(
            "p(?X), not q(?X) -> r(?X).",
            [Atom("p", (C("a"),)), Atom("p", (C("b"),)), Atom("q", (C("a"),))],
        )
        assert Atom("r", (C("a"),)) not in result
        assert Atom("r", (C("b"),)) in result

    def test_negation_on_binary_with_shared_key(self):
        # Rows agreeing on the negation key must share the memoised verdict
        # without leaking it to rows with a different key.
        result = self.evaluate_both(
            "e(?X, ?Y), not blocked(?X) -> ok(?X, ?Y).",
            [
                Atom("e", (C("a"), C("b"))),
                Atom("e", (C("a"), C("c"))),
                Atom("e", (C("d"), C("b"))),
                Atom("blocked", (C("a"),)),
            ],
        )
        assert Atom("ok", (C("d"), C("b"))) in result
        assert not any(
            atom.predicate == "ok" and atom.terms[0] == C("a") for atom in result
        )

    def test_derived_negation_stays_stratified(self):
        result = self.evaluate_both(
            """
            e(?X, ?Y) -> reach(?X, ?Y).
            reach(?X, ?Y), e(?Y, ?Z) -> reach(?X, ?Z).
            e(?X, ?Y), not reach(?Y, ?X) -> oneway(?X, ?Y).
            """,
            [
                Atom("e", (C("a"), C("b"))),
                Atom("e", (C("b"), C("a"))),
                Atom("e", (C("b"), C("c"))),
            ],
        )
        assert Atom("oneway", (C("b"), C("c"))) in result
        assert Atom("oneway", (C("a"), C("b"))) not in result


class TestSnapshotIsolation:
    def test_batch_lookup_does_not_see_later_rows(self):
        instance = Instance(
            [Atom("e", (C("a"), C("b"))), Atom("e", (C("b"), C("c")))]
        )
        snapshot = instance.snapshot()
        plan = compile_body((Atom("e", (V("X"), V("Y"))),))
        before = plan.execute_batch(snapshot)
        assert len(before) == 2
        instance.add(Atom("e", (C("c"), C("d"))))
        instance.add(Atom("e", (C("a"), C("z"))))
        after = plan.execute_batch(snapshot)
        assert after == before  # frozen prefix: appended rows invisible
        live = plan.execute_batch(instance)
        assert len(live) == 4

    def test_batch_probe_respects_snapshot_caps_per_bucket(self):
        instance = Instance([Atom("e", (C("a"), C("b")))])
        snapshot = instance.snapshot()
        # Appending to the *same* postings bucket (same bound term 'a') after
        # the snapshot must not extend the snapshot's candidate set.
        instance.add(Atom("e", (C("a"), C("c"))))
        plan = compile_body((Atom("e", (C("a"), V("Y"))),))
        matches = plan.execute_batch(snapshot)
        assert [m[V("Y")] for m in matches] == [C("b")]

    def test_negation_probe_against_snapshot_is_frozen(self):
        instance = Instance([Atom("p", (C("a"),)), Atom("p", (C("b"),))])
        snapshot = instance.snapshot()
        instance.add(Atom("q", (C("a"),)))  # appended after the freeze
        crule = compile_rule(parse_program("p(?X), not q(?X) -> r(?X).").rules[0])
        batches = crule.trigger_row_batches(instance, None, snapshot)
        matched = [row for _, rows in batches for row in rows]
        # q(a) is invisible through the snapshot, so nothing is blocked.
        assert len(matched) == 2

    def test_stratum_reference_sees_lower_strata_not_later_appends(self):
        # ``q`` sits in a stratum strictly below ``r``'s rule, so the frozen
        # reference taken before r's stratum *does* contain the derived q(a)
        # and r(a) must not fire — in either mode.  (The frozen-prefix
        # direction — appends after the snapshot stay invisible — is pinned
        # by the other tests in this class.)
        program = parse_program(
            """
            p(?X) -> q(?X).
            p(?X), not q(?X) -> r(?X).
            """
        )
        database = [Atom("p", (C("a"),))]
        results = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                results[mode] = list(SemiNaiveEvaluator(program).evaluate(database))
        assert results["row"] == results["batch"]
        assert Atom("q", (C("a"),)) in set(results["batch"])
        assert Atom("r", (C("a"),)) not in set(results["batch"])


class TestDegenerateShapes:
    def test_unmatched_predicate(self):
        instance = Instance([Atom("e", (C("a"), C("b")))])
        plan = compile_body((Atom("missing", (V("X"),)),))
        assert plan.execute_batch(instance) == []

    def test_unmatched_constant_bucket(self):
        instance = Instance([Atom("e", (C("a"), C("b")))])
        plan = compile_body((Atom("e", (C("z"), V("Y"))),))
        assert plan.execute_batch(instance) == []

    def test_empty_body_with_prebound_seed(self):
        instance = Instance([Atom("e", (C("a"), C("b")))])
        body = (Atom("e", (V("X"), V("Y"))),)
        assert_parity(body, instance, initial={V("X"): C("a")})
        assert_parity(body, instance, initial={V("X"): C("z")})

    def test_all_constant_atom(self):
        instance = Instance([Atom("e", (C("a"), C("b")))])
        hit = assert_parity((Atom("e", (C("a"), C("b"))),), instance)
        miss = assert_parity((Atom("e", (C("b"), C("a"))),), instance)
        assert len(hit) == 1 and len(miss) == 0

    def test_tombstoned_rows_are_skipped(self):
        instance = Instance(
            [Atom("e", (C("a"), C("b"))), Atom("e", (C("a"), C("c")))]
        )
        instance.discard(Atom("e", (C("a"), C("b"))))
        body = (Atom("e", (V("X"), V("Y"))),)
        matches = assert_parity(body, instance)
        assert [m[V("Y")] for m in matches] == [C("c")]
