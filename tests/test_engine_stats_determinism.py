"""Counter determinism across runs and modes, and the pivot-skip regression.

The bench-smoke gate compares the :mod:`repro.engine.stats` counters against
a committed baseline recorded on a different machine, which is only sound if
the counters are (a) identical across repeated runs of the same scenario and
(b) identical between the row-at-a-time and batch executors.  This module
pins both properties, plus the cost-based pivot selection: semi-naive delta
rounds must skip pivots whose delta postings bucket is empty for a *bound*
term of the pivot atom, and count each skip in ``STATS.pivots_skipped``.
"""

import pytest

from repro.core.warded_engine import WardedEngine
from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.terms import Constant
from repro.engine.stats import STATS
from repro.workloads.graphs import random_rdf_graph
from test_engine_batch_parity import matcher

C = Constant

TC_PROGRAM = """
    triple(?X, knows, ?Y) -> knows(?X, ?Y).
    knows(?X, ?Y) -> connected(?X, ?Y).
    connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
    knows(?X, ?Y), not connected(?Y, ?X) -> oneway(?X, ?Y).
"""

WARDED_PROGRAM = """
    triple(?X, knows, ?Y) -> knows(?X, ?Y).
    knows(?X, ?Y) -> exists ?Z . contact(?Y, ?Z).
    contact(?X, ?Z), knows(?W, ?X) -> reachable(?W, ?X).
"""


def counters_for(fn):
    """Gated (mode-independent) counters after a fresh run of ``fn``."""
    STATS.reset()
    fn()
    return STATS.gated()


def scenario_seminaive():
    database = random_rdf_graph(n_triples=100, n_nodes=16, seed=11).to_database()
    SemiNaiveEvaluator(parse_program(TC_PROGRAM)).evaluate(database)


def scenario_warded():
    database = random_rdf_graph(n_triples=60, n_nodes=12, seed=5).to_database()
    WardedEngine(parse_program(WARDED_PROGRAM)).materialise(database)


def scenario_chase():
    program = parse_program(
        "person(?X) -> exists ?Y . parent(?X, ?Y), person(?Y)."
    )
    database = [
        Atom("person", (C("alice"),)),
        Atom("parent", (C("alice"), C("bob"))),
        Atom("person", (C("bob"),)),
    ]
    ChaseEngine(max_null_depth=3, on_limit="stop").chase(database, program)


SCENARIOS = [scenario_seminaive, scenario_warded, scenario_chase]


class TestCounterDeterminism:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_repeated_runs_identical_within_mode(self, scenario, mode):
        with matcher(mode):
            first = counters_for(scenario)
            second = counters_for(scenario)
            third = counters_for(scenario)
        assert first == second == third
        assert first["facts_added"] > 0

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
    def test_modes_agree_on_gated_counters(self, scenario):
        with matcher("row"):
            row = counters_for(scenario)
        with matcher("batch"):
            batch = counters_for(scenario)
        assert row == batch

    def test_batch_instrumentation_only_moves_in_batch_mode(self):
        with matcher("row"):
            STATS.reset()
            scenario_seminaive()
            assert STATS.batch_probe_groups == 0
        with matcher("batch"):
            STATS.reset()
            scenario_seminaive()
            assert STATS.batch_probe_groups > 0


class TestPivotSkipping:
    """Regression for the cost-based pivot selection (ROADMAP item).

    The program derives ``p`` facts whose second term is never ``flag``, so
    in every delta round the pivot plan for ``p(?X, flag)`` finds ``p`` in
    the delta but an empty ``(p, 1, flag)`` postings bucket — it must be
    skipped (and counted) rather than executed.
    """

    PROGRAM = """
        e(?X, ?Y) -> p(?X, ?Y).
        p(?X, ?Y), e(?Y, ?Z) -> p(?X, ?Z).
        p(?X, flag), p(?X, ?Y) -> out(?X, ?Y).
    """

    def database(self):
        chain = [C(f"n{i}") for i in range(6)]
        return [
            Atom("e", (chain[i], chain[i + 1])) for i in range(len(chain) - 1)
        ]

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_empty_bound_term_bucket_skips_pivot(self, mode):
        program = parse_program(self.PROGRAM)
        with matcher(mode):
            STATS.reset()
            result = SemiNaiveEvaluator(program).evaluate(self.database())
        assert STATS.pivots_skipped > 0
        assert not any(atom.predicate == "out" for atom in result)

    def test_skip_counts_identical_across_modes(self):
        program = parse_program(self.PROGRAM)
        counts = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                STATS.reset()
                SemiNaiveEvaluator(program).evaluate(self.database())
                counts[mode] = STATS.pivots_skipped
        assert counts["row"] == counts["batch"] > 0

    def test_skipping_never_loses_matches(self):
        # Same program, but now one chain edge does end in ``flag``: the
        # pivot becomes viable in the rounds that derive those p-facts and
        # the skip must not suppress any derivation.
        program = parse_program(self.PROGRAM)
        database = self.database() + [Atom("e", (C("n5"), C("flag")))]
        results = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                STATS.reset()
                results[mode] = SemiNaiveEvaluator(program).evaluate(database)
        assert list(results["row"]) == list(results["batch"])
        derived = set(results["batch"])
        # n0..n5 all reach flag, so every prefix node emits out-facts.
        assert Atom("out", (C("n0"), C("flag"))) in derived
        assert any(
            atom == Atom("out", (C("n0"), C("n1"))) for atom in derived
        )


class TestSlotBoundPivotSkipping:
    """Regression for the slot-bound half of pivot viability (ROADMAP item).

    ``d(?X), r(?X, ?Z) -> out(?Z)`` has a pivot on ``d`` with **no constant
    probes** — the empty-bucket test of :class:`TestPivotSkipping` cannot
    fire.  But the second step probes ``r[0]`` with the slot bound at
    ``d[0]``, so the per-round bound-value summary of the delta's ``d``
    column decides viability: when no derived ``d`` value ever occurs in
    ``r[0]``, the pivot join provably has no match and must be skipped (and
    counted) in every mode.
    """

    PROGRAM = """
        e(?X, ?Y) -> d(?Y).
        d(?X), r(?X, ?Z) -> out(?Z).
    """

    def database(self, overlap=False):
        facts = [Atom("e", (C("a"), C(f"y{i}"))) for i in range(5)] + [
            Atom("r", (C(f"z{i}"), C("w"))) for i in range(5)
        ]
        if overlap:
            facts.append(Atom("r", (C("y3"), C("hit"))))
        return facts

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_dead_end_slot_probe_skips_pivot(self, mode):
        program = parse_program(self.PROGRAM)
        with matcher(mode):
            STATS.reset()
            result = SemiNaiveEvaluator(program).evaluate(self.database())
        assert STATS.pivots_skipped > 0
        assert not any(atom.predicate == "out" for atom in result)

    def test_skip_counts_identical_across_modes(self):
        program = parse_program(self.PROGRAM)
        counts = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                STATS.reset()
                SemiNaiveEvaluator(program).evaluate(self.database())
                counts[mode] = STATS.pivots_skipped
        assert counts["row"] == counts["batch"] > 0

    def test_overlapping_value_keeps_the_pivot_and_the_match(self):
        # One derived d-value does occur in r[0]: the summary test must keep
        # the pivot viable and the derivation must appear in every mode.
        program = parse_program(self.PROGRAM)
        results = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                STATS.reset()
                results[mode] = SemiNaiveEvaluator(program).evaluate(
                    self.database(overlap=True)
                )
        assert list(results["row"]) == list(results["batch"])
        assert Atom("out", (C("hit"),)) in set(results["batch"])

    def test_wide_summaries_do_not_skip(self):
        # More distinct delta values than the summary cap: the viability test
        # must conservatively keep the pivot (and stay mode-identical).
        from repro.engine.index import _SUMMARY_CAP

        n = _SUMMARY_CAP + 20
        program = parse_program(self.PROGRAM)
        database = [Atom("e", (C("a"), C(f"y{i}"))) for i in range(n)] + [
            Atom("r", (C("y0"), C("hit")))
        ]
        results = {}
        for mode in ("row", "batch"):
            with matcher(mode):
                STATS.reset()
                results[mode] = SemiNaiveEvaluator(program).evaluate(database)
        assert list(results["row"]) == list(results["batch"])
        assert Atom("out", (C("hit"),)) in set(results["batch"])
