"""Unit tests for the term model (constants, nulls, variables)."""

import pytest

from repro.datalog.terms import (
    Constant,
    Null,
    Variable,
    is_constant,
    is_null,
    is_variable,
    term_from_token,
)


class TestConstant:
    def test_equality_by_value(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_hashable(self):
        assert len({Constant("a"), Constant("a"), Constant("b")}) == 2

    def test_not_equal_to_other_term_kinds(self):
        assert Constant("a") != Null("a")
        assert Constant("a") != Variable("a")

    def test_str(self):
        assert str(Constant("rdf:type")) == "rdf:type"

    def test_is_ground(self):
        assert Constant("a").is_ground

    def test_requires_string(self):
        with pytest.raises(TypeError):
            Constant(42)

    def test_ordering(self):
        assert Constant("a") < Constant("b")


class TestNull:
    def test_equality_by_label(self):
        assert Null("_:b1") == Null("_:b1")
        assert Null("_:b1") != Null("_:b2")

    def test_not_ground(self):
        assert not Null("_:b").is_ground

    def test_requires_string(self):
        with pytest.raises(TypeError):
            Null(1)


class TestVariable:
    def test_question_mark_normalisation(self):
        assert Variable("?X") == Variable("X")

    def test_str_has_question_mark(self):
        assert str(Variable("X")) == "?X"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("?")

    def test_not_ground(self):
        assert not Variable("X").is_ground

    def test_hash_consistent_with_eq(self):
        assert len({Variable("?X"), Variable("X")}) == 1


class TestTermFromToken:
    def test_variable(self):
        assert term_from_token("?X") == Variable("X")

    def test_blank_node(self):
        assert term_from_token("_:b") == Null("_:b")

    def test_quoted_string(self):
        assert term_from_token('"Jeffrey Ullman"') == Constant("Jeffrey Ullman")

    def test_angle_bracket_uri(self):
        assert term_from_token("<http://example.org/x>") == Constant("http://example.org/x")

    def test_bare_identifier(self):
        assert term_from_token("owl:sameAs") == Constant("owl:sameAs")


class TestKindPredicates:
    def test_is_constant(self):
        assert is_constant(Constant("a")) and not is_constant(Null("_:b"))

    def test_is_null(self):
        assert is_null(Null("_:b")) and not is_null(Variable("X"))

    def test_is_variable(self):
        assert is_variable(Variable("X")) and not is_variable(Constant("a"))
