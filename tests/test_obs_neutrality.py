"""Observability neutrality: tracing/profiling on must change nothing.

The tracer and the plan profiler are instrumentation only.  This suite runs
the same scenarios with them off and on — tracing under the matcher and
under the depth-first oracle, profiling under the matcher it instruments —
and asserts the *byte-identical* contract: the same
atoms (including invented-null labels), in the same order, with the same
gated engine counters.  It also sanity-checks that the instrumented sites
actually record events when tracing is on (a neutrality suite over dead
instrumentation would prove nothing).
"""

import pytest

from repro.core.warded_engine import WardedEngine
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.terms import Constant
from repro.engine.incremental import DeltaSession
from repro.engine.stats import STATS
from repro.obs.profile import PROFILER
from repro.obs.trace import TRACER
from repro.workloads.graphs import random_rdf_graph
from test_engine_batch_parity import matcher

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

CHURN_PROGRAM = """
    edge(?X, ?Y) -> path(?X, ?Y).
    path(?X, ?Y), edge(?Y, ?Z) -> path(?X, ?Z).
    path(?X, ?Y) -> exists ?W . witness(?Y, ?W).
"""


@pytest.fixture(autouse=True)
def obs_off_after():
    yield
    TRACER.disable()
    TRACER.clear()
    PROFILER.disable()
    PROFILER.reset()


def scenario_seminaive():
    database = random_rdf_graph(n_triples=100, n_nodes=16, seed=11).to_database()
    return SemiNaiveEvaluator(parse_program(TC_PROGRAM)).evaluate(database)


def scenario_warded():
    database = random_rdf_graph(n_triples=60, n_nodes=12, seed=5).to_database()
    return WardedEngine(parse_program(WARDED_PROGRAM)).materialise(database).instance


def edge(a, b):
    return Atom("edge", (Constant(a), Constant(b)))


def scenario_churn():
    """DeltaSession push/retract churn: covers the DRed spans and null GC."""
    session = DeltaSession(
        parse_program(CHURN_PROGRAM),
        [edge(f"n{i}", f"n{i + 1}") for i in range(5)],
    )
    session.push([edge("n5", "n6")])
    # Retract the chain's last edge: its downward closure (paths into n6 and
    # their witnesses) stays well under the degeneration threshold, so the
    # full mark/tombstone/rederive/null-GC pipeline runs.
    session.retract([edge("n5", "n6")])
    session.push([edge("n5", "n6")])
    instance = list(session.instance)
    session.close()
    return instance


SCENARIOS = [scenario_seminaive, scenario_warded, scenario_churn]


def fingerprint(scenario):
    """Atoms (order + null labels) and gated counters for one fresh run."""
    STATS.reset()
    atoms = [str(atom) for atom in scenario()]
    return atoms, STATS.gated()


class TestTracingNeutrality:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_byte_parity_tracing_on_vs_off(self, scenario, mode):
        with matcher(mode):
            baseline = fingerprint(scenario)
            TRACER.enable()
            traced = fingerprint(scenario)
            TRACER.disable()
            again = fingerprint(scenario)
        assert traced == baseline
        assert again == baseline
        assert baseline[1]["facts_added"] > 0

    def test_engine_sites_record_events(self):
        TRACER.enable()
        fingerprint(scenario_seminaive)
        seminaive_names = {event["name"] for event in TRACER.events()}
        TRACER.enable()  # restart clean for the warded scenario
        fingerprint(scenario_warded)
        warded_names = {event["name"] for event in TRACER.events()}
        TRACER.enable()  # restart clean for the churn scenario
        fingerprint(scenario_churn)
        churn_names = {event["name"] for event in TRACER.events()}
        TRACER.disable()
        assert {"seminaive.stratum", "seminaive.rule"} <= seminaive_names
        assert {"seminaive.stratum", "seminaive.rule"} <= warded_names
        assert {
            "delta.push",
            "push.stratum",
            "delta.retract",
            "retract.overdelete",
            "retract.tombstone",
            "retract.rederive",
            "retract.null_gc",
            "chase.resume",
        } <= churn_names

    def test_chase_records_runs_and_rounds(self):
        from repro.datalog.chase import ChaseEngine

        program = parse_program(
            "person(?X) -> exists ?Y . parent(?X, ?Y), person(?Y)."
        )
        database = [Atom("person", (Constant("alice"),))]
        TRACER.enable()
        ChaseEngine(max_null_depth=3, on_limit="stop").chase(
            database, program
        )
        events = TRACER.events()
        TRACER.disable()
        (run,) = [event for event in events if event["name"] == "chase.run"]
        rounds = [event for event in events if event["name"] == "chase.round"]
        assert len(rounds) == run["attrs"]["rounds"] > 1
        assert [event["attrs"]["round"] for event in rounds] == list(
            range(1, len(rounds) + 1)
        )
        assert sum(event["attrs"]["steps"] for event in rounds) == run["attrs"]["steps"]


class TestOneSemiNaiveEngine:
    def test_warded_engine_equals_seminaive_on_existential_free_programs(self):
        """Without existential rules the warded engine is the semi-naive evaluator.

        Same atoms in the same insertion order, and the same gated counters.
        """
        database = random_rdf_graph(n_triples=100, n_nodes=16, seed=11).to_database()
        program = parse_program(TC_PROGRAM)

        def warded():
            return WardedEngine(program).materialise(
                database, with_provenance=False
            ).instance

        def seminaive():
            return SemiNaiveEvaluator(program).evaluate(database)

        assert fingerprint(warded) == fingerprint(seminaive)


class TestProfilingNeutrality:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
    @pytest.mark.parametrize("mode", ["batch"])
    def test_byte_parity_profiling_on_vs_off(self, scenario, mode):
        with matcher(mode):
            baseline = fingerprint(scenario)
            PROFILER.enable()
            PROFILER.reset()
            profiled = fingerprint(scenario)
            assert PROFILER.snapshot(), "profiled run must collect plans"
            PROFILER.disable()
            again = fingerprint(scenario)
        assert profiled == baseline
        assert again == baseline

    def test_byte_parity_tracing_and_profiling_together(self):
        baseline = fingerprint(scenario_churn)
        TRACER.enable()
        PROFILER.enable()
        PROFILER.reset()
        observed = fingerprint(scenario_churn)
        TRACER.disable()
        PROFILER.disable()
        assert observed == baseline
