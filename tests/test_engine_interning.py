"""The dictionary-encoding contract: TermTable round-trips and ID-native parity.

Two layers of guarantee:

* **Round-trips** — property-based fuzz over collision-heavy spellings
  (shared prefixes, separator characters, null labels that look like
  constant values): encode→decode is the identity, IDs are dense and
  kind-tagged, and re-interning is idempotent.
* **Cross-mode parity** — an end-to-end run over a program exercising
  constants, invented nulls, and negation is byte-identical (sorted facts,
  null labels, gated counters) across the ``row`` and ``batch``
  executors after the ID-native refactor, and instance round-trips
  (encode → key → decode) reproduce the original atoms object-for-object.
"""

import random
import string

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import Database, Instance
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.semantics import StratifiedSemantics
from repro.datalog.terms import Constant, Null, Variable
from repro.engine.interning import TERMS, TermTable, is_null_id
from repro.engine.stats import STATS
from test_engine_batch_parity import matcher


def _nasty_spellings(rng, n):
    """Collision-prone strings: shared prefixes, separators, lookalikes."""
    alphabet = ["a", "ab", "a:b", "_:z1", "c3:", ":", "", '"q"', "\n", "0"]
    out = []
    for i in range(n):
        base = rng.choice(alphabet)
        out.append(base + rng.choice(["", str(i % 7), base, "|" + base]))
    # The empty string is not a valid spelling everywhere; keep it non-empty.
    return [s or "x" for s in out]


class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(5))
    def test_encode_decode_identity_and_tagging(self, seed):
        rng = random.Random(seed)
        table = TermTable()
        spellings = _nasty_spellings(rng, 200)
        ids = []
        for i, spelling in enumerate(spellings):
            if i % 3 == 0:
                tid = table.intern_null(spelling)
                assert is_null_id(tid)
                assert table.term(tid).label == spelling
            else:
                tid = table.intern_constant(spelling)
                assert not is_null_id(tid)
                assert table.term(tid).value == spelling
            ids.append(tid)
        # Idempotence: re-interning returns the same IDs.
        for i, spelling in enumerate(spellings):
            if i % 3 == 0:
                assert table.intern_null(spelling) == ids[i]
            else:
                assert table.intern_constant(spelling) == ids[i]
        # Distinct (kind, spelling) pairs never share an ID.
        seen = {}
        for i, (spelling, tid) in enumerate(zip(spellings, ids)):
            kind = "n" if i % 3 == 0 else "c"
            assert seen.setdefault((kind, spelling), tid) == tid
        by_key = {}
        for (kind, spelling), tid in seen.items():
            assert by_key.setdefault(tid, (kind, spelling)) == (kind, spelling)

    def test_constant_and_null_spaces_are_disjoint(self):
        table = TermTable()
        c = table.intern_constant("_:z1")  # a constant that *spells* like a null
        n = table.intern_null("_:z1")
        assert c != n
        assert isinstance(table.term(c), Constant)
        assert isinstance(table.term(n), Null)

    def test_intern_term_memoises_and_rejects_variables(self):
        # Only the canonical global table writes the per-object memo.
        term = Constant("hello-memo-check")
        tid = TERMS.intern_term(term)
        assert term._tid == tid
        assert TERMS.intern_term(term) == tid
        with pytest.raises(TypeError):
            TERMS.intern_term(Variable("X"))

    def test_secondary_tables_never_touch_the_shared_memo(self):
        # A non-canonical table must not cache ITS ids on term objects — that
        # would silently corrupt lookups against the global encoding.
        table = TermTable()
        table.intern_constant("padding")  # skew the secondary id space
        term = Constant("isolated-spelling")
        tid = table.intern_term(term)
        assert term._tid is None
        assert table.intern_term(term) == tid
        with pytest.raises(TypeError):
            table.intern_term(Variable("X"))

    def test_find_term_never_interns(self):
        table = TermTable()
        before = len(table)
        assert table.find_term(Constant("never-seen")) is None
        assert len(table) == before

    @pytest.mark.parametrize("seed", range(3))
    def test_atom_key_round_trip(self, seed):
        rng = random.Random(100 + seed)
        spellings = _nasty_spellings(rng, 40)
        atoms = []
        for _ in range(60):
            arity = rng.randint(0, 3)
            terms = tuple(
                Null("_:" + rng.choice(spellings))
                if rng.random() < 0.3
                else Constant(rng.choice(spellings))
                for _ in range(arity)
            )
            atoms.append(Atom(rng.choice(["p", "q", "r:"]), terms))
        for atom in atoms:
            key = TERMS.atom_key(atom)
            assert TERMS.decode_atom(key) == atom
            # The memoised key is stable.
            assert TERMS.atom_key(atom) is key


class TestInstanceEncoding:
    def test_instance_round_trip_and_key_membership(self):
        rng = random.Random(11)
        atoms = [
            Atom("p", (Constant(f"c{rng.randint(0, 9)}"), Constant(f"c{rng.randint(0, 9)}")))
            for _ in range(50)
        ] + [Atom("q", (Null(f"_:n{i}"),)) for i in range(5)]
        instance = Instance(atoms)
        assert set(instance) == set(atoms)
        for atom in set(atoms):
            assert instance.has_key(TERMS.atom_key(atom))
        assert not instance.has_key(TERMS.atom_key(Atom("p", (Constant("zz"), Constant("zz")))))
        assert instance.null_ids() == frozenset(
            TERMS.intern_term(Null(f"_:n{i}")) for i in range(5)
        )

    def test_add_key_reports_only_new_facts(self):
        instance = Instance()
        key = TERMS.atom_key(Atom("p", (Constant("a"),)))
        assert instance.add_key(key) is True
        assert instance.add_key(key) is False
        assert len(instance) == 1
        assert list(instance) == [Atom("p", (Constant("a"),))]

    def test_snapshot_has_key_respects_the_cut(self):
        instance = Instance([Atom("p", (Constant("a"),))])
        frozen = instance.snapshot()
        instance.add(Atom("p", (Constant("b"),)))
        assert frozen.has_key(TERMS.atom_key(Atom("p", (Constant("a"),))))
        assert not frozen.has_key(TERMS.atom_key(Atom("p", (Constant("b"),))))

    def test_snapshot_lookups_stay_frozen_after_appends(self):
        a, b = Atom("p", (Constant("a"),)), Atom("p", (Constant("b"),))
        instance = Instance([a, Atom("q", (Constant("a"),))])
        frozen = instance.snapshot()
        instance.add(b)
        instance.add(Atom("r", (Null("_:late"),)))
        assert list(frozen) == [a, Atom("q", (Constant("a"),))]
        assert a in frozen and b not in frozen
        assert frozen.with_predicate("p") == {a}
        assert frozen.with_predicate("r") == frozenset()
        assert frozen.predicates == {"p", "q"}
        assert len(frozen) == 2
        assert instance.with_predicate("p") == {a, b}

    def test_membership_over_unseen_vocabulary_interns_nothing(self):
        instance = Instance([Atom("p", (Constant("a"),))])
        frozen = instance.snapshot()
        before = TERMS.counts()
        for atom in (
            Atom("p", (Constant("never-interned-c"),)),
            Atom("p", (Null("_:never-interned-n"),)),
            Atom("never-interned-p", (Constant("a"),)),
            Atom("p", (Variable("X"),)),
        ):
            assert atom not in instance
            assert atom not in frozen
            assert not instance.discard(atom)
        assert TERMS.counts() == before

    def test_every_database_load_path_rejects_nulls(self):
        null_fact = Atom("p", (Null("_:in-db"),))
        with_null = Instance([Atom("p", (Constant("a"),)), null_fact])
        loads = [
            lambda: Database([null_fact]),
            lambda: Database().bulk_load([null_fact]),
            lambda: Database(with_null),
            lambda: Database().bulk_load(with_null),
            lambda: Database().add(null_fact),
            lambda: Database().add_key(TERMS.atom_key(null_fact)),
            lambda: Database().load_keys([TERMS.atom_key(null_fact)]),
        ]
        for load in loads:
            with pytest.raises(ValueError, match="ground atoms over constants"):
                load()
        database = Database(Instance([Atom("p", (Constant("a"),))]))
        assert isinstance(database.copy(), Database) and len(database.copy()) == 1


class TestNoDecodeOnFiringPaths:
    """No engine firing path rebuilds an Atom: facts stay encoded keys."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        original = TermTable.decode_atom

        def spy(self, key):
            calls.append(key)
            return original(self, key)

        monkeypatch.setattr(TermTable, "decode_atom", spy)
        return calls

    def test_seminaive_closure_fixpoint(self, decodes):
        instance = SemiNaiveEvaluator(parse_program(PROGRAM)).evaluate(
            _edge_database(0)
        )
        assert len(instance) > 60
        assert decodes == []

    def test_warded_materialise_without_provenance(self, decodes):
        from repro.core.warded_engine import WardedEngine

        program = parse_program(
            """
            person(?X) -> exists ?Y . parent(?X, ?Y).
            parent(?X, ?Y) -> hasParent(?X).
            hasParent(?X), person(?Y), not hasParent(?Y) -> other(?X, ?Y).
            """
        )
        database = [Atom("person", (Constant(f"w{i}"),)) for i in range(4)]
        result = WardedEngine(program).materialise(database, with_provenance=False)
        assert len(result.null_types) == 4
        assert len(result.instance) == 12  # person, parent, hasParent; no other
        assert decodes == []

    def test_chase_resume(self, decodes):
        from repro.datalog.chase import ChaseEngine

        program = parse_program(EXISTENTIAL)
        engine = ChaseEngine(max_null_depth=2, on_limit="stop")
        instance = engine.chase(
            [Atom("person", (Constant("r0"),))], program
        ).instance
        delta = Instance([Atom("person", (Constant("r1"),))])
        instance.add(Atom("person", (Constant("r1"),)))
        result = engine.resume(instance, program, delta)
        assert result.steps > 0
        assert decodes == []

    def test_delta_session_push_that_rebuilds(self, decodes):
        from repro.engine.incremental import DeltaSession

        edges = _edge_database(1, n=20)
        session = DeltaSession(parse_program(PROGRAM), edges[:10])
        result = session.push(edges[10:])
        assert result.rebuilt_from is not None
        assert decodes == []


PROGRAM = """
triple(?X, knows, ?Y) -> knows(?X, ?Y).
knows(?X, ?Y) -> connected(?X, ?Y).
connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
knows(?X, ?Y), not connected(?Y, ?X) -> oneway(?X, ?Y).
"""

EXISTENTIAL = """
person(?X) -> exists ?Y . parent(?X, ?Y), person(?Y).
parent(?X, ?Y) -> ancestor(?X, ?Y).
ancestor(?X, ?Y), parent(?Y, ?Z) -> ancestor(?X, ?Z).
"""


def _edge_database(seed, n=60, nodes=14):
    rng = random.Random(seed)
    knows = Constant("knows")
    return [
        Atom(
            "triple",
            (Constant(f"v{rng.randint(0, nodes)}"), knows, Constant(f"v{rng.randint(0, nodes)}")),
        )
        for _ in range(n)
    ]


class TestCrossModeParity:
    """Byte-identical results and gated counters across both executors."""

    @pytest.mark.parametrize("seed", range(3))
    def test_seminaive_batch_vs_depth_first(self, seed):
        database = _edge_database(seed)
        outcomes = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                STATS.reset()
                result = list(SemiNaiveEvaluator(parse_program(PROGRAM)).evaluate(database))
                outcomes[mode] = (result, STATS.gated())
        assert outcomes["row"] == outcomes["batch"]

    def test_chase_null_labels_batch_vs_depth_first(self):
        program = parse_program(EXISTENTIAL)
        database = [Atom("person", (Constant(f"p{i}"),)) for i in range(8)]
        outcomes = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                STATS.reset()
                from repro.datalog.chase import ChaseEngine

                result = ChaseEngine(max_null_depth=2, on_limit="stop").chase(
                    database, program
                )
                # sorted_atoms() stringifies every term — the full decode
                # boundary — so label-for-label equality is pinned here.
                outcomes[mode] = (
                    result.instance.sorted_atoms(),
                    STATS.gated(),
                )
        assert outcomes["row"] == outcomes["batch"]

    def test_stratified_semantics_is_unchanged_by_encoding(self):
        # An end-to-end object-level check through the decode boundary:
        # semantics results equal a straightforward reference set.
        program = parse_program("p(?X), not q(?X) -> r(?X).")
        database = [
            Atom("p", (Constant("a"),)),
            Atom("p", (Constant("b"),)),
            Atom("q", (Constant("a"),)),
        ]
        result = StratifiedSemantics(program).materialise(database)
        assert Atom("r", (Constant("b"),)) in result
        assert Atom("r", (Constant("a"),)) not in result
