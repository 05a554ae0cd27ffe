"""Plan profiling and EXPLAIN tests (repro.obs.profile + CompiledRule.explain).

Profiles accumulate per-step candidate/probe/survivor counts on every plan
the matcher runs — rule bodies, head checks and constraint checks alike;
EXPLAIN renders the compiled step order always and the
counters once a profiled execution happened.  Byte-parity of results with
profiling on lives in ``tests/test_obs_neutrality.py``.
"""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine, violates
from repro.datalog.database import Instance
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.datalog.terms import Constant
from repro.engine.plan import compile_rule
from repro.obs.profile import PROFILER, PlanProfile
from test_engine_batch_parity import matcher

C = Constant

PROGRAM = """
    e(?X, ?Y) -> p(?X, ?Y).
    p(?X, ?Y), e(?Y, ?Z) -> p(?X, ?Z).
    p(?X, ?Y), not e(?X, ?Y) -> far(?X, ?Y).
"""


def chain(n=6):
    return [Atom("e", (C(f"n{i}"), C(f"n{i + 1}"))) for i in range(n)]


@pytest.fixture(autouse=True)
def profiler_off_after():
    yield
    PROFILER.disable()
    PROFILER.reset()


def run(mode):
    with matcher(mode):
        return SemiNaiveEvaluator(parse_program(PROGRAM)).evaluate(chain())


class TestProfiler:
    def test_disabled_by_default_and_attaches_nothing(self):
        assert PROFILER.enabled is False
        PROFILER.reset()
        run("batch")
        assert PROFILER.snapshot() == []

    @pytest.mark.parametrize("mode", ["batch"])
    def test_profiles_accumulate_per_step_counters(self, mode):
        PROFILER.enable()
        PROFILER.reset()
        result = run(mode)
        plans = PROFILER.snapshot()
        assert plans, "profiled run must register executed plans"
        assert any(atom.predicate == "p" for atom in result)
        transitive = next(
            p for p in plans if "p(?X, ?Y) AND e(?Y, ?Z)" in p["label"]
        )
        assert transitive["executions"] > 0
        assert len(transitive["steps"]) == 2
        first, second = transitive["steps"]
        assert first["rows_in"] > 0
        assert second["probes"] > 0
        # Survivors of the last step are the plan's emitted rows.
        assert transitive["rows_out"] <= first["rows_out"] * max(
            1, second["rows_out"]
        )

    def test_constraint_and_head_checks_register_step_profiles(self):
        """``violates`` and the restricted chase's head check match through
        ``JoinPlan.rows`` like rule firing does, so each registers a plan
        profile with per-step counters."""
        program = parse_program(
            """
            person(?X) -> exists ?Y . parent(?X, ?Y).
            parent(?X, ?Y), person(?Y) -> false.
            """
        )
        database = [
            Atom("person", (C("ann"),)),
            Atom("person", (C("bob"),)),
            Atom("parent", (C("ann"), C("bob"))),
        ]
        PROFILER.enable()
        PROFILER.reset()
        instance = ChaseEngine().chase(database, program).instance
        assert violates(program.constraints, instance)
        plans = PROFILER.snapshot()

        def profile_of(label):
            (plan,) = [p for p in plans if p["label"] == label]
            return plan

        # The head check of the existential rule: one step, run once per
        # person, satisfied for ann (parent(ann, bob)) and not for bob.
        head = profile_of("parent(?X, ?Y)")
        (step,) = head["steps"]
        assert head["executions"] == step["rows_in"] == 2
        assert step["rows_out"] == head["rows_out"] == 1
        # The two-atom constraint body: parent(ann, bob), person(bob).
        constraint = profile_of("parent(?X, ?Y) AND person(?Y)")
        assert constraint["executions"] == 1
        assert [s["rows_in"] for s in constraint["steps"]] == [1, 2]
        assert [s["rows_out"] for s in constraint["steps"]] == [2, 1]
        assert constraint["rows_out"] == 1

    def test_a_constraint_over_an_empty_predicate_stays_profiled(self):
        """The zero-row guard runs no step of a plan whose last predicate
        is empty, yet the plan still counts one execution with zero rows."""
        program = parse_program("parent(?X, ?Y), person(?Y), banned(?Y) -> false.")
        instance = Instance(
            [Atom("person", (C("bob"),)), Atom("parent", (C("ann"), C("bob")))]
        )
        PROFILER.enable()
        PROFILER.reset()
        assert not violates(program.constraints, instance)
        (constraint,) = [
            p
            for p in PROFILER.snapshot()
            if p["label"] == "parent(?X, ?Y) AND person(?Y) AND banned(?Y)"
        ]
        assert constraint["executions"] == 1
        assert constraint["rows_out"] == 0
        assert [s["rows_in"] for s in constraint["steps"]] == [0, 0, 0]

    def test_negation_counters_accumulate_in_batch_mode(self):
        PROFILER.enable()
        PROFILER.reset()
        run("batch")
        negated = [
            p for p in PROFILER.snapshot() if p["negation"]["rows_in"] > 0
        ]
        assert negated, "the negation pre-filter must report its input rows"
        assert all(
            p["negation"]["blocked"] <= p["negation"]["rows_in"]
            for p in negated
        )

    def test_reset_zeroes_in_place(self):
        PROFILER.enable()
        PROFILER.reset()
        run("batch")
        assert PROFILER.snapshot()
        PROFILER.reset()
        assert PROFILER.snapshot() == []
        # Plans re-accumulate on the next run through the same cached plans.
        run("batch")
        assert PROFILER.snapshot()

    def test_snapshot_orders_hottest_first_and_caps(self):
        PROFILER.enable()
        PROFILER.reset()
        run("batch")
        plans = PROFILER.snapshot()
        times = [p["time_us"] for p in plans]
        assert times == sorted(times, reverse=True)
        assert len(PROFILER.snapshot(top=1)) == 1

    def test_plan_profile_registered_once_per_plan(self):
        class FakePlan:
            def __init__(self):
                self.profile = None
                self.atoms = ()
                self.steps = ()

        plan = FakePlan()
        first = PROFILER.plan_profile(plan, label="fake")
        second = PROFILER.plan_profile(plan)
        assert first is second
        assert isinstance(first, PlanProfile)
        assert first.label == "fake"


class TestExplain:
    def test_explain_renders_steps_without_profiling(self):
        rule = parse_program("p(?X, ?Y), e(?Y, ?Z) -> q(?X, ?Z).").rules[0]
        text = compile_rule(rule).explain()
        assert text.startswith("rule: ")
        assert "plan:" in text
        assert "step 0:" in text
        assert "profile:" not in text

    def test_explain_includes_profile_after_profiled_run(self):
        PROFILER.enable()
        PROFILER.reset()
        evaluator = SemiNaiveEvaluator(parse_program(PROGRAM))
        evaluator.evaluate(chain())
        texts = [
            crule.explain()
            for stratum in evaluator.compiled_strata
            for crule in stratum
        ]
        profiled = [text for text in texts if "profile: executions=" in text]
        assert profiled, "EXPLAIN must surface accumulated counters"
        assert any("rows_in=" in text for text in profiled)

    def test_explain_renders_negation_atoms(self):
        rule = parse_program(
            "p(?X, ?Y), not e(?X, ?Y) -> far(?X, ?Y)."
        ).rules[0]
        assert "negation: not e(?X, ?Y)" in compile_rule(rule).explain()
