"""Unit tests for the compiled join-plan core (:mod:`repro.engine`)."""

import pytest

from repro.core.triqlite import TriQLiteQuery
from repro.datalog.atoms import Atom
from repro.datalog.chase import ChaseEngine, violates
from repro.datalog.database import Database, Instance
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant, Null, Variable
from repro.engine.incremental import DeltaSession
from repro.engine.interning import TERMS
from repro.engine.plan import compile_body, compile_pivot, compile_rule
from repro.engine.stats import STATS
from repro.obs.profile import PROFILER
from repro.owl.entailment_rules import owl2ql_core_program
from repro.service.view import MaterializedView
from repro.sparql.parser import parse_sparql
from repro.translation.entailment_regime import translate_under_entailment
from repro.workloads.ontologies import lubm_style_graph
from test_engine_incremental_parity import TC_NEGATION_PROGRAM, TC_PROGRAM
from test_translation_entailment_regime import LUBM_MIX6_QUERIES

from engine_reference import plan_matches

a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def subs(plan, instance, initial=None):
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in s.items()))
        for s in plan_matches(plan, instance, initial)
    )


def row_of(plan, binding):
    """The slot-ID row of ``plan`` that binds each variable to its term."""
    row = [None] * plan.n_slots
    for variable, term in binding.items():
        row[plan.slot_of[variable]] = TERMS.intern_term(term)
    return tuple(row)


class TestJoinPlan:
    def test_single_atom_scan(self):
        instance = Instance([Atom("p", (a, b)), Atom("p", (b, c))])
        plan = compile_body((Atom("p", (X, Y)),))
        assert subs(plan, instance) == [
            (("X", "a"), ("Y", "b")),
            (("X", "b"), ("Y", "c")),
        ]

    def test_constant_probe(self):
        instance = Instance([Atom("p", (a, b)), Atom("p", (b, c))])
        plan = compile_body((Atom("p", (a, Y)),))
        assert subs(plan, instance) == [(("Y", "b"),)]

    def test_join_two_atoms(self):
        instance = Instance(
            [Atom("e", (a, b)), Atom("e", (b, c)), Atom("e", (c, d))]
        )
        plan = compile_body((Atom("e", (X, Y)), Atom("e", (Y, Z))))
        assert subs(plan, instance) == [
            (("X", "a"), ("Y", "b"), ("Z", "c")),
            (("X", "b"), ("Y", "c"), ("Z", "d")),
        ]

    def test_repeated_variable_within_atom(self):
        instance = Instance([Atom("p", (a, a)), Atom("p", (a, b))])
        plan = compile_body((Atom("p", (X, X)),))
        assert subs(plan, instance) == [(("X", "a"),)]

    def test_repeated_variable_across_atoms(self):
        instance = Instance([Atom("p", (a,)), Atom("q", (a,)), Atom("q", (b,))])
        plan = compile_body((Atom("p", (X,)), Atom("q", (X,))))
        assert subs(plan, instance) == [(("X", "a"),)]

    def test_initial_bindings_respected_and_emitted(self):
        instance = Instance([Atom("p", (a, b)), Atom("p", (b, c))])
        plan = compile_body((Atom("p", (X, Y)),), prebound=(X,))
        assert subs(plan, instance, {X: b}) == [(("X", "b"), ("Y", "c"))]

    def test_initial_binding_of_foreign_variable_is_kept(self):
        instance = Instance([Atom("p", (a,))])
        plan = compile_body((Atom("p", (X,)),), prebound=(Z,))
        assert subs(plan, instance, {Z: d}) == [(("X", "a"), ("Z", "d"))]

    def test_empty_body_yields_one_empty_substitution(self):
        plan = compile_body(())
        assert subs(plan, Instance()) == [()]

    def test_no_match_on_missing_predicate(self):
        plan = compile_body((Atom("missing", (X,)),))
        assert subs(plan, Instance([Atom("p", (a,))])) == []

    def test_arity_mismatch_is_skipped(self):
        instance = Instance([Atom("p", (a,)), Atom("p", (a, b))])
        plan = compile_body((Atom("p", (X, Y)),))
        assert subs(plan, instance) == [(("X", "a"), ("Y", "b"))]

    def test_additions_during_iteration_are_invisible(self):
        instance = Instance([Atom("p", (a,))])
        plan = compile_body((Atom("p", (X,)),))
        seen = []
        for (tid,) in plan.rows(instance):
            instance.add(Atom("p", (Constant(f"x{len(seen)}"),)))
            seen.append(TERMS.term(tid))
        assert seen == [a]

    def test_exists(self):
        instance = Instance([Atom("p", (a, b))])
        assert compile_body((Atom("p", (X, Y)),)).exists(instance)
        assert not compile_body((Atom("p", (b, Y)),)).exists(instance)

    def test_plan_cache_returns_same_object(self):
        body = (Atom("p", (X, Y)), Atom("q", (Y,)))
        assert compile_body(body) is compile_body(body)
        assert compile_body(body) is not compile_body(body, prebound=(X,))


class TestCompiledRule:
    def test_negation_probe_blocks(self):
        program = parse_program("p(?X), not q(?X) -> r(?X).")
        crule = compile_rule(program.rules[0])
        reference = Instance([Atom("q", (a,))])
        row_a, row_b = row_of(crule.plan, {X: a}), row_of(crule.plan, {X: b})
        kept = crule._filter_negation_rows([row_a, row_b], crule.plan, reference)
        assert kept == [row_b]

    def test_negation_probe_against_snapshot(self):
        program = parse_program("p(?X), not q(?X) -> r(?X).")
        crule = compile_rule(program.rules[0])
        instance = Instance([Atom("q", (a,))])
        frozen = instance.snapshot()
        instance.add(Atom("q", (b,)))
        row_a, row_b = row_of(crule.plan, {X: a}), row_of(crule.plan, {X: b})
        kept = crule._filter_negation_rows([row_a, row_b], crule.plan, frozen)
        assert kept == [row_b]

    def test_delta_substitutions_require_delta_overlap(self):
        program = parse_program("e(?X, ?Y), e(?Y, ?Z) -> t(?X, ?Z).")
        crule = compile_rule(program.rules[0])
        instance = Instance([Atom("e", (a, b)), Atom("e", (b, c))])
        empty_delta = Instance([Atom("other", (a,))])
        assert crule.trigger_row_batches(instance, empty_delta) == []
        delta = Instance([Atom("e", (b, c))])
        found = {
            tuple(sorted((v.name, str(TERMS.term(row[slot]))) for v, slot in plan.slot_of.items()))
            for plan, rows in crule.trigger_row_batches(instance, delta)
            for row in rows
        }
        # Both pivots hit the delta fact e(b, c).
        assert (("X", "a"), ("Y", "b"), ("Z", "c")) in found

    def test_head_facts_ground_and_existential(self):
        program = parse_program("p(?X) -> exists ?Y . q(?X, ?Y).")
        crule = compile_rule(program.rules[0])
        ops = crule.row_ops(crule.plan)
        null = Null("_:w0")
        extended = row_of(crule.plan, {X: a}) + (TERMS.intern_term(null),)
        facts = [TERMS.decode_atom(key) for key in ops.head_keys_row(extended)]
        assert facts == [Atom("q", (a, null))]

    def test_head_satisfied_existential(self):
        program = parse_program("p(?X) -> exists ?Y . q(?X, ?Y).")
        crule = compile_rule(program.rules[0])
        ops = crule.row_ops(crule.plan)
        instance = Instance([Atom("p", (a,)), Atom("q", (a, Null("_:w0")))])
        satisfied = ChaseEngine._head_satisfied_row
        assert satisfied(crule, ops, row_of(crule.plan, {X: a}), instance)
        assert not satisfied(crule, ops, row_of(crule.plan, {X: b}), instance)


class TestInstanceSnapshot:
    def test_snapshot_is_frozen_against_additions(self):
        instance = Instance([Atom("p", (a,))])
        frozen = instance.snapshot()
        instance.add(Atom("p", (b,)))
        assert Atom("p", (a,)) in frozen
        assert Atom("p", (b,)) not in frozen
        assert frozen.has_key(TERMS.atom_key(Atom("p", (a,))))
        assert not frozen.has_key(TERMS.atom_key(Atom("p", (b,))))
        assert list(frozen.matching_ids("p", 1)) == [(TERMS.intern_term(a),)]
        assert list(frozen.matching_ids("p", 1, [(0, TERMS.intern_term(b))])) == []


class TestBulkLoadAndStats:
    def test_bulk_load_counts_new_facts(self):
        instance = Instance()
        added = instance.bulk_load([Atom("p", (a,)), Atom("p", (a,)), Atom("p", (b,))])
        assert added == 2
        assert len(instance) == 2

    def test_bulk_load_rejects_variables(self):
        with pytest.raises(ValueError):
            Instance().bulk_load([Atom("p", (X,))])

    def test_database_bulk_load_rejects_nulls(self):
        with pytest.raises(ValueError, match="ground atoms"):
            Database().bulk_load([Atom("p", (Null("_:z"),))])

    def test_stats_count_added_facts(self):
        STATS.reset()
        Instance([Atom("p", (a,)), Atom("p", (b,))])
        assert STATS.facts_added == 2

    def test_discard_hides_fact_from_matching(self):
        instance = Instance([Atom("p", (a,)), Atom("p", (b,))])
        assert instance.discard(Atom("p", (a,)))
        assert list(instance.matching_ids("p", 1)) == [(TERMS.intern_term(b),)]
        assert plan_matches(compile_body((Atom("p", (X,)),)), instance) == [{X: b}]


# ---------------------------------------------------------------------------
# Join order: no cross product while a connected atom remains
# ---------------------------------------------------------------------------

W = Variable("W")


def avoidable_cross_steps(plan):
    """Indices of steps sharing no variable with the variables bound before
    them while a later step's atom shares one.  Constants are no connection;
    while nothing is bound, every atom is connected."""
    atoms = [step.atom for step in plan.steps]
    bound = set(plan.prebound)
    avoidable = []
    for i, atom in enumerate(atoms):
        if not bound & atom.variables and any(
            bound & later.variables for later in atoms[i + 1 :]
        ):
            avoidable.append(i)
        bound |= atom.variables
    return avoidable


def ledger_programs():
    """The programs the layer ledger runs: the six ``lubm-mix6``
    translations, the OWL 2 QL core, and the reachability and social
    programs."""
    programs = [
        translate_under_entailment(parse_sparql(query)).program
        for query in LUBM_MIX6_QUERIES
    ]
    programs.append(owl2ql_core_program())
    programs.extend(parse_program(text) for text in (TC_PROGRAM, TC_NEGATION_PROGRAM))
    return programs


def compiled_plans(program):
    """Every plan the engines compile for ``program``: cold and per pivot,
    the head check, the goal-directed restore (frontier prebound) and the
    constraint checks."""
    for rule in program.rules:
        crule = compile_rule(rule)
        yield str(rule), "cold", crule.plan
        for pivot, plan in enumerate(crule.pivot_plans):
            yield str(rule), f"pivot {pivot}", plan
        if crule.head_plan is not None:
            yield str(rule), "head", crule.head_plan
        yield str(rule), "restore", compile_body(rule.body_positive, rule.frontier)
    for constraint in program.constraints:
        yield str(constraint), "constraint", compile_body(constraint.body)


def trap_plans():
    """``(plan, joined, disjoint)`` for bodies where an atom ``disjoint``
    from the bound variables outscores the atom ``joined`` on bound
    positions only through its constants: a pivot, a prebound and a cold
    plan.  The first is the trap a score counting constants as a
    connection falls into: after ``C(?Y)`` both ``t`` atoms have two bound
    positions, and ``t(?X, a, b)`` wins on its extra constant."""
    c_y = Atom("C", (Y,))
    typed = Atom("t", (X, a, b))  # constants only, disjoint from ?Y
    joined = Atom("t", (X, c, Y))
    yield compile_pivot((c_y, typed, joined), 0), joined, typed
    yield compile_body((typed, joined), prebound=(Y,)), joined, typed
    # Cold: s(?X, a, b) binds ?X first; then t(?Z, c, b) outscores r(?X, ?W).
    cold_joined, cold_disjoint = Atom("r", (X, W)), Atom("t", (Z, c, b))
    body = (Atom("s", (X, a, b)), cold_disjoint, cold_joined)
    yield compile_body(body), cold_joined, cold_disjoint


def assert_planner_never_picks_a_disconnected_atom():
    """The planner invariant, over the traps and every ledger plan."""
    for plan, joined, disjoint in trap_plans():
        atoms = [step.atom for step in plan.steps]
        assert avoidable_cross_steps(plan) == [], plan.describe()
        assert atoms.index(joined) < atoms.index(disjoint), plan.describe()
    for program in ledger_programs():
        for rule, kind, plan in compiled_plans(program):
            assert avoidable_cross_steps(plan) == [], (rule, kind, plan.describe())


class TestConnectedOrder:
    def test_planner_never_picks_a_disconnected_atom(self):
        assert_planner_never_picks_a_disconnected_atom()

    def test_cross_tag_marks_only_a_disconnected_body(self):
        disconnected = compile_body((Atom("p", (X,)), Atom("q", (Y,))))
        assert avoidable_cross_steps(disconnected) == []  # nothing to join
        assert disconnected.describe() == [
            "step 0: p(?X)  scan  bind [?X]",
            "step 1: q(?Y)  scan  bind [?Y]  cross",
        ]
        joined = compile_body((Atom("p", (X,)), Atom("q", (X, Y)))).describe()
        assert not any(line.endswith("cross") for line in joined)

    def test_student_join_pivot_plan_through_explain(self):
        graph = lubm_style_graph(
            seed=0,
            n_universities=1,
            departments_per_university=1,
            faculty_per_department=4,
            students_per_department=6,
            courses_per_department=2,
        )
        student_join = LUBM_MIX6_QUERIES[2]
        translation = translate_under_entailment(parse_sparql(student_join))
        (rule,) = [
            rule
            for rule in translation.program.rules
            if rule.head[0].predicate == "query_0_X_Y"
        ]
        PROFILER.enable()
        try:
            query = TriQLiteQuery(
                translation.program, translation.answer_predicate, translation.arity
            )
            query.evaluate(graph.to_database())
            explain = compile_rule(rule).explain().splitlines()
        finally:
            PROFILER.disable()
            PROFILER.reset()
        start = explain.index("pivot 3 (C(?Y) from delta):")
        assert explain[start + 1 : start + 5] == [
            "  step 0: C(?Y)  scan  bind [?Y]",
            "  step 1: triple1(?X, takesCourse, ?Y)  probe {[1]=takesCourse, [2]=?Y}  bind [?X]",
            "  step 2: triple1(?X, rdf:type, Student)  probe {[0]=?X, [1]=rdf:type, [2]=Student}",
            "  step 3: C(?X)  probe {[0]=?X}",
        ]
        assert not any(line.endswith("cross") for line in explain)


# ---------------------------------------------------------------------------
# The zero-row guard: a plan over an empty predicate runs no step
# ---------------------------------------------------------------------------

SMALL_LUBM = dict(
    departments_per_university=1,
    faculty_per_department=2,
    students_per_department=4,
    courses_per_department=2,
)
STUDENT_AND_COURSE = [
    ("ldg0", "rdf:type", "GraduateStudent"),
    ("ldg0", "rdf:type", "GraduateCourse"),
]


def disjoint_lubm_graph():
    """The LUBM graph plus ``(Student, owl:disjointWith, Course)``."""
    graph = lubm_style_graph(**SMALL_LUBM)
    graph.add(("Student", "owl:disjointWith", "Course"))
    return graph


class TestZeroRowGuard:
    def test_the_guard_does_not_hide_a_violation_in_a_session(self):
        session = DeltaSession(owl2ql_core_program(), disjoint_lubm_graph())
        assert session.check_consistency()
        assert not session.push(STUDENT_AND_COURSE).consistent
        assert session.retract(STUDENT_AND_COURSE).consistent

    def test_the_guard_does_not_hide_a_violation_in_a_view(self):
        view = MaterializedView(disjoint_lubm_graph())
        assert view.consistent
        view.push(STUDENT_AND_COURSE)
        assert not view.consistent
        view.retract(STUDENT_AND_COURSE)
        assert view.consistent

    def test_constraints_over_empty_predicates_probe_nothing(self):
        """On the plain LUBM graph ``disj`` and ``disj_property`` are empty,
        so neither constraint plan runs a step."""
        program = owl2ql_core_program()
        session = DeltaSession(program, lubm_style_graph(**SMALL_LUBM))
        probes = STATS.batch_probe_groups
        assert not violates(program.constraints, session.instance)
        assert STATS.batch_probe_groups == probes

    def test_an_empty_body_still_yields_its_seed_row(self):
        assert compile_body(()).rows(Instance()) == [()]
