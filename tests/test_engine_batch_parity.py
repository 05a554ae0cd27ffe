"""Differential fuzzing: the matcher vs the depth-first oracle vs the reference.

The column-at-a-time matcher (``JoinPlan.rows``, :mod:`repro.engine.batch`)
promises *exact* parity with a depth-first walk of the same compiled steps
(:func:`engine_reference.depth_first_rows`) — same matches, same order
— and both are locked to the seed's interpretive matcher
(:func:`engine_reference.reference_match_atoms`).  This suite
generates random programs over random RDF graphs, chain ontologies, and
k-clique instances (all with fixed seeds, so CI runs are reproducible) and
asserts:

* **match level** — ``JoinPlan.rows`` equals ``depth_first_rows`` row for
  row *in order*, and the decoded rows (``plan_matches``) equal
  ``reference_match_atoms`` as multisets (the reference orders atoms
  differently, so only the multiset is specified there);
* **engine level** — all three engines produce atom-for-atom identical
  instances with the production matcher and with the depth-first oracle
  behind ``JoinPlan.rows`` (:func:`matcher`; for engines that invent nulls,
  the global null counter is pinned so labels align), and the semi-naive
  results also equal a naive fixpoint oracle built purely on the reference
  matcher.
"""

import random
from contextlib import contextmanager

import pytest

from repro.core.warded_engine import WardedEngine
from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine
from repro.datalog.database import Instance
from repro.datalog.parser import parse_program
from repro.datalog.rules import Rule
from repro.datalog.program import Program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.stratification import partition_by_stratum, stratify
from repro.datalog.terms import Constant, Variable
from repro.engine.interning import TERMS
from repro.engine.plan import JoinPlan, compile_body, compile_pivot
from repro.reductions.clique import clique_database, clique_program
from repro.workloads.graphs import random_rdf_graph, random_undirected_graph
from repro.workloads.ontologies import chain_ontology_graph

from engine_reference import (
    depth_first_rows,
    plan_matches,
    reference_match_atoms,
    reference_satisfies_some,
)

V = Variable


@contextmanager
def matcher(mode):
    """Run the block with ``mode``'s matcher behind ``JoinPlan.rows``.

    ``"batch"`` is production; ``"row"`` swaps in
    :func:`~engine_reference.depth_first_rows`, the oracle every
    differential suite compares against.  ``exists`` reads ``rows``, so
    head and constraint checks switch with it.
    """
    if mode == "batch":
        yield
        return
    production = JoinPlan.rows
    JoinPlan.rows = depth_first_rows
    try:
        yield
    finally:
        JoinPlan.rows = production


def canonical(substitutions):
    """Order-insensitive, hashable form of a substitution iterator."""
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in s.items())) for s in substitutions
    )


def assert_three_way_parity(atoms, instance, initial=None):
    """rows == depth-first oracle (ordered), both == reference (multiset)."""
    atoms = tuple(atoms)
    prebound = frozenset(initial) if initial else frozenset()
    plan = compile_body(atoms, prebound)
    seeds = {variable: TERMS.find_term(term) for variable, term in (initial or {}).items()}
    # Exact order, not just content.
    assert plan.rows(instance, seeds) == depth_first_rows(plan, instance, seeds)
    matches = plan_matches(plan, instance, initial)
    assert canonical(matches) == canonical(
        reference_match_atoms(atoms, instance, initial)
    )
    return matches


def naive_stratified_fixpoint(program, database):
    """Oracle evaluator: naive iteration with the reference matcher only."""
    stratification = stratify(program.ex())
    strata = partition_by_stratum(program.ex(), stratification)
    instance = Instance(database)
    for rules in strata:
        if not rules:
            continue
        reference = Instance(instance)
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for sub in list(reference_match_atoms(rule.body_positive, instance)):
                    if rule.body_negative and reference_satisfies_some(
                        rule.body_negative, reference, sub
                    ):
                        continue
                    for head_atom in rule.head:
                        if instance.add(head_atom.apply(sub)):
                            changed = True
    return instance


# ---------------------------------------------------------------------------
# Random generators (fixed seeds only)
# ---------------------------------------------------------------------------

VARS = [V(name) for name in "XYZWU"]


def random_instance(rng, n_constants, n_facts):
    """A random instance over unary/binary/ternary predicates."""
    constants = [Constant(f"c{i}") for i in range(n_constants)]
    predicates = [("u", 1), ("e", 2), ("f", 2), ("t", 3)]
    facts = []
    for _ in range(n_facts):
        predicate, arity = rng.choice(predicates)
        facts.append(Atom(predicate, tuple(rng.choice(constants) for _ in range(arity))))
    return Instance(facts), constants


def random_body(rng, constants, n_atoms):
    """A random positive body; variables overlap to force joins/self-joins."""
    predicates = [("u", 1), ("e", 2), ("f", 2), ("t", 3)]
    body = []
    for _ in range(n_atoms):
        predicate, arity = rng.choice(predicates)
        terms = []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.6:
                terms.append(rng.choice(VARS[: 1 + n_atoms]))
            else:
                terms.append(rng.choice(constants))
        body.append(Atom(predicate, tuple(terms)))
    return tuple(body)


def random_datalog_program(rng, constants):
    """A safe, stratified two-layer Datalog¬ program (no existentials).

    Layer 1 derives ``d1``/``d2`` positively from the EDB; layer 2 may
    negate layer-1 and EDB predicates, which keeps the program stratified by
    construction.
    """
    rules = []
    edb = [("u", 1), ("e", 2), ("f", 2), ("t", 3)]
    layer1 = [("d1", 1), ("d2", 2)]
    layer2 = [("o1", 1), ("o2", 2)]

    def make_rule(head_choices, body_choices, negatable):
        head_pred, head_arity = rng.choice(head_choices)
        body = []
        for _ in range(rng.randint(1, 3)):
            predicate, arity = rng.choice(body_choices)
            body.append(
                Atom(
                    predicate,
                    tuple(
                        rng.choice(VARS[:4])
                        if rng.random() < 0.75
                        else rng.choice(constants)
                        for _ in range(arity)
                    ),
                )
            )
        body_vars = sorted(
            {t for atom in body for t in atom.terms if isinstance(t, Variable)},
            key=lambda v: v.name,
        )
        if not body_vars:
            return None
        head_terms = tuple(
            rng.choice(body_vars) for _ in range(head_arity)
        )
        negative = []
        if negatable and rng.random() < 0.5:
            predicate, arity = rng.choice(negatable)
            negative.append(
                Atom(predicate, tuple(rng.choice(body_vars) for _ in range(arity)))
            )
        return Rule(
            body_positive=body,
            body_negative=negative,
            head=[Atom(head_pred, head_terms)],
        )

    for _ in range(rng.randint(2, 4)):
        rule = make_rule(layer1, edb, negatable=None)
        if rule is not None:
            rules.append(rule)
    for _ in range(rng.randint(2, 4)):
        rule = make_rule(layer2, edb + layer1, negatable=edb + layer1)
        if rule is not None:
            rules.append(rule)
    return Program(rules)


# ---------------------------------------------------------------------------
# Match-level parity
# ---------------------------------------------------------------------------


class TestMatchLevelFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_bodies_on_random_instances(self, seed):
        rng = random.Random(seed)
        instance, constants = random_instance(rng, n_constants=6, n_facts=80)
        for n_atoms in (1, 2, 3):
            for _ in range(4):
                body = random_body(rng, constants, n_atoms)
                assert_three_way_parity(body, instance)

    def test_rows_seam_equals_batch_matcher_in_both_modes(self):
        """``JoinPlan.rows`` — what every engine fires from — returns the
        depth-first oracle's rows, in order."""
        for seed in range(8):
            rng = random.Random(seed)
            instance, constants = random_instance(rng, n_constants=6, n_facts=80)
            delta = Instance(list(instance)[:20])
            for n_atoms in (1, 2, 3):
                for _ in range(4):
                    body = random_body(rng, constants, n_atoms)
                    full, pivot = compile_body(body), compile_pivot(body, 0)
                    expected = full.rows(instance)
                    expected_delta = pivot.rows(instance, None, delta)
                    for mode in ("row", "batch"):
                        with matcher(mode):
                            assert full.rows(instance) == expected
                            assert pivot.rows(instance, None, delta) == expected_delta

    @pytest.mark.parametrize("seed", range(4))
    def test_bodies_over_empty_predicates(self, seed):
        """The zero-row guard in ``rows`` against the unguarded oracle: one
        body predicate absent, fully tombstoned (``live == 0`` over a
        non-empty lane), or empty in the delta only (pivot step 0)."""
        rng = random.Random(seed)
        instance, constants = random_instance(rng, n_constants=6, n_facts=80)
        tombstoned = Instance(instance)
        for atom in tombstoned.with_predicate("f"):
            tombstoned.discard(atom)
        assert tombstoned._index.cols["f"] and not tombstoned._index.live["f"]
        # No "f" in the delta; "g" only in the delta, absent from the source.
        delta = Instance(
            [atom for atom in list(instance)[:30] if atom.predicate != "f"]
            + [Atom("g", (rng.choice(constants), rng.choice(constants))) for _ in range(6)]
        )
        for n_atoms in (0, 1, 2):
            for _ in range(4):
                body = list(random_body(rng, constants, n_atoms))
                empty = Atom(rng.choice(("g", "f")), (rng.choice(VARS[:3]), rng.choice(VARS[:3])))
                body.insert(rng.randint(0, n_atoms), empty)
                body = tuple(body)
                for source in (instance, tombstoned):
                    assert_three_way_parity(body, source)
                for pivot, atom in enumerate(body):
                    plan = compile_pivot(body, pivot)
                    rows = plan.rows(instance, None, delta)
                    assert rows == depth_first_rows(plan, instance, None, delta)
                    if atom.predicate == "f" or (atom.predicate != "g" and empty.predicate == "g"):
                        assert rows == []

    @pytest.mark.parametrize("seed", range(4))
    def test_snapshot_pinned_while_a_predicate_is_empty(self, seed):
        """Rows appended to a predicate after the pin raise its live count,
        so the guard lets the plan run and the snapshot's limits cap it."""
        rng = random.Random(seed)
        instance, constants = random_instance(rng, n_constants=6, n_facts=80)
        late = [atom for atom in list(instance) if atom.predicate == "f"]
        instance = Instance(atom for atom in list(instance) if atom.predicate != "f")
        frozen = instance.snapshot()
        for atom in late:
            instance.add(atom)
        for n_atoms in (1, 2, 3):
            for _ in range(4):
                plan = compile_body(random_body(rng, constants, n_atoms))
                rows = plan.rows(frozen)
                assert rows == depth_first_rows(plan, frozen)
                if any(step.predicate == "f" for step in plan.steps):
                    assert rows == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rdf_graph_patterns(self, seed):
        graph = random_rdf_graph(n_triples=150, n_nodes=25, seed=seed)
        instance = graph.to_database()
        knows, works = Constant("knows"), Constant("worksFor")
        bodies = [
            (Atom("triple", (V("X"), knows, V("Y"))),),
            (
                Atom("triple", (V("X"), knows, V("Y"))),
                Atom("triple", (V("Y"), knows, V("Z"))),
                Atom("triple", (V("Z"), works, V("W"))),
            ),
            (Atom("triple", (V("X"), V("P"), V("X"))),),
            (
                Atom("triple", (V("X"), V("P"), V("Y"))),
                Atom("triple", (V("Y"), V("P"), V("X"))),
            ),
        ]
        for body in bodies:
            assert_three_way_parity(body, instance)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_chain_ontology_joins(self, n):
        instance = chain_ontology_graph(n).to_database()
        sub_class = Constant("rdfs:subClassOf")
        body = (
            Atom("triple", (V("A"), sub_class, V("B"))),
            Atom("triple", (V("B"), sub_class, V("C"))),
            Atom("triple", (V("C"), sub_class, V("D"))),
        )
        assert_three_way_parity(body, instance)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3)])
    def test_clique_reduction_bodies(self, n, k):
        edges = random_undirected_graph(n, 0.7, seed=n * 7 + k)
        instance = clique_database(edges, k)
        for rule in clique_program().rules:
            assert_three_way_parity(rule.body_positive, instance)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_with_seed_bindings(self, seed):
        rng = random.Random(seed)
        instance, constants = random_instance(rng, n_constants=5, n_facts=60)
        body = (
            Atom("e", (V("X"), V("Y"))),
            Atom("f", (V("Y"), V("Z"))),
        )
        for sub in list(reference_match_atoms(body, instance))[:5]:
            initial = {V("X"): sub[V("X")]}
            assert_three_way_parity(body, instance, initial)


# ---------------------------------------------------------------------------
# Engine-level parity
# ---------------------------------------------------------------------------


def run_both_modes(fn):
    """fn() per matcher; returns {mode: result}."""
    results = {}
    for mode in ("row", "batch"):
        with matcher(mode):
            results[mode] = fn()
    return results


class TestEngineLevelFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_seminaive_fuzzed_programs(self, seed):
        rng = random.Random(100 + seed)
        instance, constants = random_instance(rng, n_constants=5, n_facts=50)
        program = random_datalog_program(rng, constants)
        database = list(instance)
        outcome = run_both_modes(
            lambda: list(SemiNaiveEvaluator(program).evaluate(database))
        )
        # Atom-for-atom, including insertion order.
        assert outcome["row"] == outcome["batch"]
        oracle = naive_stratified_fixpoint(program, database)
        assert set(outcome["batch"]) == oracle.to_set()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seminaive_on_rdf_workload(self, seed):
        graph = random_rdf_graph(n_triples=120, n_nodes=18, seed=seed)
        program = parse_program(
            """
            triple(?X, knows, ?Y) -> knows(?X, ?Y).
            knows(?X, ?Y) -> connected(?X, ?Y).
            connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
            knows(?X, ?Y), not connected(?Y, ?X) -> oneway(?X, ?Y).
            """
        )
        database = graph.to_database()
        outcome = run_both_modes(
            lambda: list(SemiNaiveEvaluator(program).evaluate(database))
        )
        assert outcome["row"] == outcome["batch"]
        oracle = naive_stratified_fixpoint(program, database)
        assert set(outcome["batch"]) == oracle.to_set()

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3)])
    def test_clique_end_to_end(self, n, k):
        from repro.reductions.clique import contains_clique, contains_clique_bruteforce

        edges = random_undirected_graph(n, 0.6, seed=n * 10 + k)
        expected = contains_clique_bruteforce(edges, k)
        outcome = run_both_modes(lambda: contains_clique(edges, k))
        assert outcome["row"] == outcome["batch"] == expected

    def test_chase_with_existentials_atom_for_atom(self):
        program = parse_program(
            """
            person(?X) -> exists ?Y . parent(?X, ?Y), person(?Y).
            parent(?X, ?Y) -> ancestor(?X, ?Y).
            ancestor(?X, ?Y), parent(?Y, ?Z) -> ancestor(?X, ?Z).
            """
        )
        database = [
            Atom("person", (Constant("alice"),)),
            Atom("person", (Constant("bob"),)),
            Atom("parent", (Constant("alice"), Constant("bob"))),
        ]
        outcome = run_both_modes(
            lambda: list(
                ChaseEngine(max_null_depth=3, on_limit="stop")
                .chase(database, program)
                .instance
            )
        )
        assert outcome["row"] == outcome["batch"]

    def test_chase_negation_parity_against_reference_instance(self):
        program = parse_program("p(?X), not q(?X) -> r(?X).")
        database = [Atom("p", (Constant("a"),)), Atom("p", (Constant("b"),))]
        reference = Instance(database + [Atom("q", (Constant("a"),))])
        outcome = run_both_modes(
            lambda: list(
                ChaseEngine()
                .chase(database, program, negation_reference=reference)
                .instance
            )
        )
        assert outcome["row"] == outcome["batch"]
        assert Atom("r", (Constant("b"),)) in set(outcome["batch"])
        assert Atom("r", (Constant("a"),)) not in set(outcome["batch"])

    @pytest.mark.parametrize("seed", [0, 2])
    def test_warded_materialisation_atom_for_atom(self, seed):
        graph = random_rdf_graph(n_triples=80, n_nodes=15, seed=seed)
        program = parse_program(
            """
            triple(?X, knows, ?Y) -> knows(?X, ?Y).
            knows(?X, ?Y) -> exists ?Z . contact(?Y, ?Z).
            contact(?X, ?Z), knows(?W, ?X) -> reachable(?W, ?X).
            knows(?X, ?Y), not reachable(?X, ?Y) -> pending(?X, ?Y).
            """
        )
        database = graph.to_database()

        def materialise():
            result = WardedEngine(program).materialise(database)
            return list(result.instance), sorted(result.provenance, key=str)

        outcome = run_both_modes(materialise)
        assert outcome["row"][0] == outcome["batch"][0]
        assert outcome["row"][1] == outcome["batch"][1]
