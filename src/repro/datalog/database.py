"""Databases and instances.

An *instance* is a (possibly infinite, here always finite) set of atoms over
constants and labelled nulls; a *database* is a finite instance mentioning
constants only (Section 3.2).  ``Instance`` stores each fact once, in
dictionary-encoded form: its key ``(pid, tid1, ..., tidn)`` in an
insertion-ordered map to the fact's insertion ordinal, plus one ID row in
the engine core's :class:`~repro.engine.index.PredicateIndex` (append-only
per-predicate lanes with hash postings of row ids).  Homomorphism matching
during the chase and semi-naive evaluation iterates candidate buckets under
a captured length instead of copying them, and freezing the lower strata for
stratified negation (:meth:`Instance.snapshot`) is O(#predicates) instead of
a full re-index.  Engines read facts as ID rows (the join plans,
:meth:`Instance.matching_ids`) or as membership answers
(:meth:`Instance.has_key`, ``in``) and decode nothing;
:class:`~repro.datalog.atoms.Atom` objects exist only in the result API —
iteration, :meth:`Instance.with_predicate` and :meth:`Instance.sorted_atoms`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Null, Term
from repro.engine.index import InstanceSnapshot, PredicateIndex
from repro.engine.interning import TERMS
from repro.engine.stats import STATS


class Instance:
    """A mutable, indexed set of variable-free atoms (facts)."""

    __slots__ = ("_keys", "_index", "_counter")

    def __init__(self, atoms: Iterable[Atom] = ()):
        # encoded fact key (pid, tid1, ..., tidn) -> global insertion
        # ordinal; dict order is insertion order, which is what makes
        # snapshots a prefix.
        self._keys: Dict[Tuple[int, ...], int] = {}
        self._index = PredicateIndex()
        self._counter = 0
        if atoms is not None:
            self.bulk_load(atoms)

    # -- mutation -----------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        """Add a fact; returns True if it was new."""
        return self.add_key(self._encode(atom))

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Add many facts; returns the number of genuinely new ones."""
        add = self.add
        return sum(1 for atom in atoms if add(atom))

    def add_key(self, key: Tuple[int, ...]) -> bool:
        """Add an encoded fact ``(pid, tid1, ..., tidn)``; True if it was new.

        Every engine lands its head facts here: a duplicate costs one
        int-tuple lookup, and a new fact becomes one key entry plus one lane
        row — nothing is decoded.
        """
        keys = self._keys
        if key in keys:
            return False
        gid = self._counter
        keys[key] = gid
        self._counter = gid + 1
        self._index.append(TERMS.term(key[0]).value, key[1:], gid)
        STATS.facts_added += 1
        return True

    def bulk_load(self, atoms: Iterable[Atom]) -> int:
        """Load many facts at once; returns the number added.

        Encodes, then lands the keys through :meth:`load_keys`; an instance
        argument is copied key for key, without decoding.
        """
        if isinstance(atoms, Instance):
            return self.load_keys(atoms._keys)
        return self.load_keys(map(self._encode, atoms))

    def load_keys(self, keys: Iterable[Tuple[int, ...]]) -> int:
        """Land many encoded facts in iteration order; returns the number added.

        The one bulk loader (``Instance(...)``, copies, rebuilds, delta
        windows).  Ordinals are assigned in iteration order, so duplicates
        and errors behave exactly as per-fact :meth:`add_key` calls would;
        each predicate's rows then land through the lane-wise bulk index
        path, which keeps row ids ordered within each predicate.  Facts read
        before an error are kept.
        """
        own = self._keys
        first = counter = self._counter
        groups: Dict[int, Tuple[List[Tuple[int, ...]], List[int]]] = {}
        try:
            for key in keys:
                if key in own:
                    continue
                own[key] = counter
                group = groups.get(key[0])
                if group is None:
                    group = groups[key[0]] = ([], [])
                group[0].append(key[1:])
                group[1].append(counter)
                counter += 1
        finally:
            for pid, (id_rows, gids) in groups.items():
                self._index.add_bulk(TERMS.term(pid).value, id_rows, gids)
            self._counter = counter
            STATS.facts_added += counter - first
        return counter - first

    def _encode(self, atom: Atom) -> Tuple[int, ...]:
        """The fact key of ``atom``; ValueError for a non-fact atom."""
        try:
            return TERMS.atom_key(atom)
        except TypeError:
            raise ValueError(self._invalid_message(atom)) from None

    @staticmethod
    def _invalid_message(atom: Atom) -> str:
        return f"cannot add non-fact atom {atom} to an instance"

    def discard(self, atom: Atom) -> bool:
        """Remove a fact if present; returns True if it was there.

        Ordinals of surviving facts are never renumbered and ``_counter``
        never rewinds, so re-added facts get strictly fresh ordinals.
        """
        key = TERMS.find_key(atom)
        if key not in self._keys:
            return False
        self._index.tombstone(atom.predicate, key[1:], self._keys.pop(key))
        return True

    # -- dictionary-encoded fast paths ---------------------------------------

    def has_key(self, key: Tuple[int, ...]) -> bool:
        """Membership of an encoded fact key ``(pid, tid1, ..., tidn)``.

        The engines\' negation probes and restricted-chase head checks go
        through this — one int-tuple dict lookup, no Atom construction.
        """
        return key in self._keys

    def null_ids(self) -> "frozenset[int]":
        """The term IDs of every labelled null occurring in the instance."""
        return frozenset(
            tid for key in self._keys for tid in key[1:] if tid & 1
        )

    def _term_ids(self) -> Set[int]:
        """The term IDs of every constant and null occurring in the instance."""
        return {tid for key in self._keys for tid in key[1:]}

    # -- set protocol -----------------------------------------------------------

    def __contains__(self, atom: Atom) -> bool:
        return TERMS.find_key(atom) in self._keys

    def __iter__(self) -> Iterator[Atom]:
        return map(TERMS.decode_atom, self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            return self._keys.keys() == other._keys.keys()
        if isinstance(other, (set, frozenset)):
            return self.to_set() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._keys)} atoms)"

    def copy(self) -> "Instance":
        """An independent instance with the same facts (fresh index)."""
        return type(self)(self)

    def to_set(self) -> FrozenSet[Atom]:
        """The facts as a frozen set."""
        return frozenset(self)

    def snapshot(self) -> InstanceSnapshot:
        """A frozen view of the current facts (additions stay invisible).

        The stratified engines use this as the negation reference for the
        lower strata; unlike :meth:`copy` it shares the index and captures
        only per-predicate row counts.
        """
        return InstanceSnapshot(
            self._keys, self._index, self._counter, self._index.row_limits()
        )

    # -- lookup -------------------------------------------------------------------

    def with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        """All facts over ``predicate``."""
        return frozenset(self._index.atoms(predicate))

    def matching_ids(
        self,
        predicate: str,
        arity: int,
        pairs: Iterable[Tuple[int, int]] = (),
    ) -> Iterator[Tuple[int, ...]]:
        """ID rows of ``predicate`` matching every ``(position, tid)`` pair.

        Yields the flat term-ID tuples without touching an Atom, so callers
        (the ID-native SPARQL evaluator, the query service) decode only at
        their own result boundary.  The rows are those present at call
        time: facts added while the iterator is consumed are not seen by it.
        """
        pairs = pairs if isinstance(pairs, (tuple, list)) else tuple(pairs)
        return self._index.scan_ids(predicate, arity, pairs)

    def _plan_source(self) -> Tuple[PredicateIndex, Optional[Dict[str, int]]]:
        """(index, row limits) pair the join-plan executor runs against."""
        return self._index, None

    # -- domain inspection -----------------------------------------------------------

    @property
    def predicates(self) -> FrozenSet[str]:
        """Predicates with at least one live fact."""
        return frozenset(
            predicate for predicate, count in self._index.live.items() if count
        )

    def domain(self) -> FrozenSet[Term]:
        """``dom(I)``: all constants and nulls occurring in the instance."""
        return frozenset(TERMS.decode(self._term_ids()))

    def constants(self) -> FrozenSet[Constant]:
        """All constants occurring in the instance."""
        return frozenset(TERMS.decode(t for t in self._term_ids() if not t & 1))

    def nulls(self) -> FrozenSet[Null]:
        """All labelled nulls occurring in the instance."""
        return frozenset(TERMS.decode(self.null_ids()))

    def ground_part(self) -> "Instance":
        """``I↓``: the atoms mentioning constants only (Section 6.3)."""
        ground = Instance()
        ground.load_keys(
            key for key in self._keys if not any(tid & 1 for tid in key[1:])
        )
        return ground

    def arity_of(self, predicate: str) -> Optional[int]:
        """The arity of ``predicate``'s facts, or None if absent."""
        cols = self._index.cols.get(predicate)
        if cols:
            for arity in cols.arities:
                if arity >= 0:
                    return arity
        return None

    def sorted_atoms(self) -> List[Atom]:
        """Deterministically ordered list of facts (useful in tests and reports)."""
        return sorted(self, key=lambda a: (a.predicate, tuple(map(str, a.terms))))


class Database(Instance):
    """A finite instance mentioning constants only."""

    __slots__ = ()

    def add_key(self, key: Tuple[int, ...]) -> bool:
        """Encoded add, still enforcing constants-only (one bit test per term)."""
        return super().add_key(self._ground(key))

    def load_keys(self, keys: Iterable[Tuple[int, ...]]) -> int:
        """Bulk encoded load, still enforcing constants-only."""
        return super().load_keys(map(self._ground, keys))

    def _ground(self, key: Tuple[int, ...]) -> Tuple[int, ...]:
        if any(tid & 1 for tid in key[1:]):
            raise ValueError(self._invalid_message(TERMS.decode_atom(key)))
        return key

    @staticmethod
    def _invalid_message(atom: Atom) -> str:
        return f"databases may only contain ground atoms over constants; got {atom}"
