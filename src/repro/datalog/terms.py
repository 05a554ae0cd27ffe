"""Terms of the Datalog substrate: constants (URIs), labelled nulls, variables.

The paper assumes three pairwise disjoint, countably infinite sets:

* ``U`` — URIs / constants,
* ``B`` — blank nodes / labelled nulls,
* ``V`` — variables (written with a leading ``?``).

The same sets are shared by the RDF data model and the relational model, which
is what lets the translation ``tau_db(G)`` (Section 5.1) simply reuse RDF URIs
as Datalog constants.
"""

from __future__ import annotations

from typing import Union


class Constant:
    """An element of ``U``: a URI or any other constant value.

    Constants compare by value and are hashable, so they can populate sets,
    dictionary keys, and database tuples directly.  ``_tid`` memoises the
    term's dense integer ID in the engine's dictionary-encoding layer
    (:mod:`repro.engine.interning`); it is identity-local cache state, never
    part of the value, and never pickled (a foreign process has its own
    table).
    """

    __slots__ = ("value", "_tid")

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"constant value must be a string, got {type(value).__name__}")
        self.value = value
        self._tid = None

    def __getstate__(self):
        """Pickle the value only — interned IDs do not cross processes."""
        return self.value

    def __setstate__(self, state):
        """Restore from the pickled value with a cold ID cache."""
        self.value = state
        self._tid = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return hash((Constant, self.value))

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: "Constant") -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return self.value < other.value

    @property
    def is_ground(self) -> bool:
        """Always True: constants are ground by definition."""
        return True


class Null:
    """An element of ``B``: a labelled null (blank node).

    Nulls are the values invented by existential quantifiers during the chase.
    They compare by label.  The engines name the nulls they invent by their
    trigger (:func:`~repro.datalog.chase.null_labels`).
    """

    __slots__ = ("label", "_tid")

    def __init__(self, label: str):
        if not isinstance(label, str):
            raise TypeError(f"null label must be a string, got {type(label).__name__}")
        self.label = label
        self._tid = None

    def __getstate__(self):
        """Pickle the label only — interned IDs do not cross processes."""
        return self.label

    def __setstate__(self, state):
        """Restore from the pickled label with a cold ID cache."""
        self.label = state
        self._tid = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and self.label == other.label

    def __hash__(self) -> int:
        return hash((Null, self.label))

    def __repr__(self) -> str:
        return f"Null({self.label!r})"

    def __str__(self) -> str:
        return self.label

    def __lt__(self, other: "Null") -> bool:
        if not isinstance(other, Null):
            return NotImplemented
        return self.label < other.label

    @property
    def is_ground(self) -> bool:
        """Always False: a null is a placeholder, not a ground value."""
        return False


class Variable:
    """An element of ``V``: a query variable, written ``?Name`` in the paper."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str):
            raise TypeError(f"variable name must be a string, got {type(name).__name__}")
        # Normalise: store without the leading '?' so Variable("?X") == Variable("X").
        self.name = name[1:] if name.startswith("?") else name
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash((Variable, self.name))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name

    @property
    def is_ground(self) -> bool:
        """Always False: variables are never ground."""
        return False


Term = Union[Constant, Null, Variable]


def term_from_token(token: str) -> Term:
    """Build a term from its textual form.

    ``?X`` becomes a :class:`Variable`, ``_:b1`` becomes a :class:`Null`, and
    anything else becomes a :class:`Constant`.  Quoted strings keep their
    quotes stripped.
    """
    if token.startswith("?"):
        return Variable(token)
    if token.startswith("_:"):
        return Null(token)
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        return Constant(token[1:-1])
    if len(token) >= 2 and token[0] == "<" and token[-1] == ">":
        return Constant(token[1:-1])
    return Constant(token)


def is_constant(term: Term) -> bool:
    """True iff ``term`` belongs to ``U``."""
    return isinstance(term, Constant)


def is_null(term: Term) -> bool:
    """True iff ``term`` belongs to ``B``."""
    return isinstance(term, Null)


def is_variable(term: Term) -> bool:
    """True iff ``term`` belongs to ``V``."""
    return isinstance(term, Variable)
