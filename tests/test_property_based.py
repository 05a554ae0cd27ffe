"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datalog.atoms import Atom, unify_with_fact
from repro.datalog.database import Instance
from repro.datalog.terms import Constant, Variable
from repro.engine.interning import TERMS
from repro.sparql.ast import (
    AndCondition,
    Bound,
    EqualsConstant,
    EqualsVariable,
    Not,
    OrCondition,
)
from repro.sparql.evaluator import (
    decode_id_mappings,
    join_ids,
    left_outer_join_ids,
    minus_ids,
    satisfies,
    satisfies_ids,
)
from repro.sparql.mappings import (
    Mapping,
    compatible,
    join,
    left_outer_join,
    minus,
    union,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

constant_names = st.sampled_from(["a", "b", "c", "d", "e", "f"])
variable_names = st.sampled_from(["X", "Y", "Z", "W"])
predicate_names = st.sampled_from(["p", "q", "r"])

constants = constant_names.map(Constant)
variables = variable_names.map(Variable)


@st.composite
def mappings(draw):
    names = draw(st.sets(variable_names, max_size=4))
    return Mapping({Variable(n): Constant(draw(constant_names)) for n in names})


@st.composite
def ground_atoms(draw):
    predicate = draw(predicate_names)
    arity = draw(st.integers(min_value=0, max_value=3))
    return Atom(predicate, tuple(draw(constants) for _ in range(arity)))


@st.composite
def pattern_atoms(draw):
    predicate = draw(predicate_names)
    arity = draw(st.integers(min_value=1, max_value=3))
    terms = tuple(
        draw(st.one_of(constants, variables)) for _ in range(arity)
    )
    return Atom(predicate, terms)


mapping_sets = st.sets(mappings(), max_size=5)

#: Built-in conditions (Section 3.1); ``never_bound_g`` is a constant no
#: mapping holds.
conditions = st.recursive(
    st.one_of(
        variables.map(Bound),
        st.builds(
            EqualsConstant,
            variables,
            st.sampled_from(["a", "b", "c", "never_bound_g"]).map(Constant),
        ),
        st.builds(EqualsVariable, variables, variables),
    ),
    lambda inner: st.one_of(
        inner.map(Not),
        st.builds(OrCondition, inner, inner),
        st.builds(AndCondition, inner, inner),
    ),
    max_leaves=6,
)


# ---------------------------------------------------------------------------
# SPARQL algebra invariants (Section 3.1)
# ---------------------------------------------------------------------------


class TestMappingAlgebraProperties:
    @given(mappings(), mappings())
    def test_compatibility_is_symmetric(self, first, second):
        assert compatible(first, second) == compatible(second, first)

    @given(mappings())
    def test_empty_mapping_compatible_with_all(self, mapping):
        assert compatible(Mapping({}), mapping)

    @given(mappings(), mappings())
    def test_join_of_compatible_mappings_extends_both(self, first, second):
        if compatible(first, second):
            merged = first.merge(second)
            assert merged.domain == first.domain | second.domain
            for variable in first.domain:
                assert merged[variable] == first[variable]

    @given(mapping_sets, mapping_sets)
    def test_join_commutative(self, left, right):
        assert join(left, right) == join(right, left)

    @given(mapping_sets, mapping_sets)
    def test_union_commutative_and_idempotent(self, left, right):
        assert union(left, right) == union(right, left)
        assert union(left, left) == left

    @given(mapping_sets, mapping_sets)
    def test_left_outer_join_identity(self, left, right):
        """The paper's definition: Omega1 ⟕ Omega2 = (⋈) ∪ (∖)."""
        assert left_outer_join(left, right) == union(join(left, right), minus(left, right))

    @given(mapping_sets, mapping_sets)
    def test_minus_is_subset_of_left(self, left, right):
        assert minus(left, right) <= left

    @given(mapping_sets)
    def test_join_with_empty_mapping_set_is_empty(self, left):
        assert join(left, set()) == set()

    @given(mapping_sets)
    def test_join_with_unit_is_identity(self, left):
        assert join(left, {Mapping({})}) == left

    @given(mappings(), st.sets(variable_names, max_size=3))
    def test_restriction_shrinks_domain(self, mapping, names):
        restricted = mapping.restrict([Variable(n) for n in names])
        assert restricted.domain <= mapping.domain
        for variable in restricted.domain:
            assert restricted[variable] == mapping[variable]


def encode(mapping_set):
    """The ID mappings of boxed mappings, as the evaluator's BGP case builds them."""
    return {
        frozenset((variable, TERMS.intern_term(value)) for variable, value in mu.items())
        for mu in mapping_set
    }


class TestIdAlgebraEqualsPaperAlgebra:
    """The production algebra on interned IDs (``sparql/evaluator.py``) equals
    the paper-literal algebra on boxed mappings (``sparql/mappings.py``)."""

    @given(mapping_sets)
    def test_encoding_round_trips(self, mapping_set):
        assert decode_id_mappings(encode(mapping_set)) == mapping_set

    @given(mapping_sets, mapping_sets)
    def test_join(self, left, right):
        assert decode_id_mappings(join_ids(encode(left), encode(right))) == join(left, right)

    @given(mapping_sets, mapping_sets)
    def test_minus(self, left, right):
        assert decode_id_mappings(minus_ids(encode(left), encode(right))) == minus(left, right)

    @given(mapping_sets, mapping_sets)
    def test_left_outer_join(self, left, right):
        assert decode_id_mappings(
            left_outer_join_ids(encode(left), encode(right))
        ) == left_outer_join(left, right)

    @given(mappings(), conditions)
    def test_satisfies(self, mapping, condition):
        (id_mapping,) = encode({mapping})
        assert satisfies_ids(dict(id_mapping), condition) == satisfies(mapping, condition)


# ---------------------------------------------------------------------------
# Atom / instance invariants
# ---------------------------------------------------------------------------


class TestAtomProperties:
    @given(pattern_atoms(), ground_atoms())
    def test_unification_soundness(self, pattern, fact):
        substitution = unify_with_fact(pattern, fact)
        if substitution is not None:
            assert pattern.apply(substitution) == fact

    @given(ground_atoms())
    def test_ground_atom_unifies_with_itself(self, atom):
        assert unify_with_fact(atom, atom) == {}

    @given(st.lists(ground_atoms(), max_size=15))
    def test_instance_deduplicates(self, atoms):
        instance = Instance(atoms)
        assert len(instance) == len(set(atoms))
        for atom in atoms:
            assert atom in instance

    @given(st.lists(ground_atoms(), max_size=15), pattern_atoms())
    def test_matching_returns_exactly_the_unifiable_facts(self, atoms, pattern):
        instance = Instance(atoms)
        matched = {
            fact
            for fact in instance.matching(pattern)
            if unify_with_fact(pattern, fact) is not None
        }
        expected = {
            fact
            for fact in set(atoms)
            if fact.predicate == pattern.predicate
            and fact.arity == pattern.arity
            and unify_with_fact(pattern, fact) is not None
        }
        assert matched == expected


# ---------------------------------------------------------------------------
# Engine invariants on random Datalog facts
# ---------------------------------------------------------------------------


class TestEngineProperties:
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.sets(st.tuples(constant_names, constant_names), max_size=12))
    def test_transitive_closure_is_transitive_and_contains_edges(self, edges):
        from repro.core.warded_engine import WardedEngine
        from repro.datalog.parser import parse_program

        program = parse_program(
            "e(?X, ?Y) -> t(?X, ?Y). t(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z)."
        )
        instance = Instance(
            Atom("e", (Constant(s), Constant(o))) for s, o in edges
        )
        result = WardedEngine(program).ground_semantics(instance)
        closure = {(a.terms[0], a.terms[1]) for a in result.with_predicate("t")}
        for source, target in edges:
            assert (Constant(source), Constant(target)) in closure
        for x, y in closure:
            for y2, z in closure:
                if y == y2:
                    assert (x, z) in closure

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(st.sets(st.tuples(constant_names, constant_names), max_size=10))
    def test_warded_engine_matches_seminaive_on_random_edge_sets(self, edges):
        from repro.core.warded_engine import WardedEngine
        from repro.datalog.parser import parse_program
        from repro.datalog.seminaive import SemiNaiveEvaluator

        program = parse_program(
            """
            e(?X, ?Y) -> t(?X, ?Y).
            t(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).
            e(?X, ?Y), not t(?Y, ?X) -> oneway(?X, ?Y).
            """
        )
        instance = Instance(Atom("e", (Constant(s), Constant(o))) for s, o in edges)
        warded = WardedEngine(program).ground_semantics(instance)
        seminaive = SemiNaiveEvaluator(program).evaluate(instance)
        assert warded.to_set() == seminaive.to_set()
