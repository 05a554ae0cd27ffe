"""Databases and instances.

An *instance* is a (possibly infinite, here always finite) set of atoms over
constants and labelled nulls; a *database* is a finite instance mentioning
constants only (Section 3.2).  ``Instance`` is backed by the engine core's
:class:`~repro.engine.index.PredicateIndex`: facts live in append-only
per-predicate rows with hash postings of row ids, so homomorphism matching
during the chase and semi-naive evaluation iterates candidate buckets under a
captured length instead of copying them, and freezing the lower strata for
stratified negation (:meth:`Instance.snapshot`) is O(#predicates) instead of
a full re-index.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Null, Term, Variable
from repro.engine.index import InstanceSnapshot, PredicateIndex
from repro.engine.interning import TERMS
from repro.engine.stats import STATS


class Instance:
    """A mutable, indexed set of variable-free atoms (facts)."""

    __slots__ = ("_ordinals", "_keys", "_index", "_counter")

    def __init__(self, atoms: Iterable[Atom] = ()):
        # atom -> global insertion ordinal; dict order is insertion order,
        # which is what makes snapshots a prefix.
        self._ordinals: Dict[Atom, int] = {}
        # encoded fact key (pid, tid1, ..., tidn) -> ordinal: the
        # dictionary-encoded membership map the executors probe (negation
        # templates, head dedup) without building an Atom.
        self._keys: Dict[Tuple[int, ...], int] = {}
        self._index = PredicateIndex()
        self._counter = 0
        if atoms is not None:
            self.bulk_load(atoms)

    # -- mutation -----------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        """Add a fact; returns True if it was new."""
        # Membership goes through the Atom map (cached hash) so duplicate
        # adds — the common case inside a fixpoint — pay no encoding.
        if atom in self._ordinals:
            return False
        for t in atom.terms:
            if isinstance(t, Variable):
                raise ValueError(f"cannot add non-fact atom {atom} to an instance")
        gid = self._counter
        self._ordinals[atom] = gid
        self._keys[TERMS.atom_key(atom)] = gid
        self._counter = gid + 1
        self._index.add(atom, gid)
        STATS.facts_added += 1
        return True

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Add many facts; returns the number of genuinely new ones."""
        add = self.add
        return sum(1 for atom in atoms if add(atom))

    def add_fact(self, atom: Atom) -> bool:
        """Add a trusted fact (no variable check); returns True if new.

        Engine-internal fast path for derived head facts, whose terms are by
        construction ground values or invented nulls.
        """
        if atom in self._ordinals:
            return False
        gid = self._counter
        self._ordinals[atom] = gid
        self._keys[TERMS.atom_key(atom)] = gid
        self._counter = gid + 1
        self._index.add(atom, gid)
        STATS.facts_added += 1
        return True

    def bulk_load(self, atoms: Iterable[Atom]) -> int:
        """Fast path for loading many facts at once; returns the number added.

        Functionally identical to :meth:`add_all` but inlined: one local
        binding of the hot structures, one validity check per fact, no
        per-fact method dispatch.  Used by ``Database`` construction, the
        RDF-graph relational views, and the benchmark harness so that setup
        time stays out of measured sections.
        """
        ordinals = self._ordinals
        keys = self._keys
        index = self._index
        atom_key = TERMS.atom_key
        counter = self._counter
        added = 0
        # Group per predicate and land each group through the lane-wise bulk
        # index path: ordinals/keys are assigned in iteration order here (so
        # duplicates and the validity error behave exactly as per-fact
        # adds), while row ids only need to stay ordered *within* each
        # predicate — which per-group appends preserve.
        groups: Dict[str, list] = {}
        try:
            for atom in atoms:
                if atom in ordinals:
                    continue
                if not self._loadable(atom):
                    raise ValueError(self._invalid_message(atom))
                key = atom_key(atom)
                ordinals[atom] = counter
                keys[key] = counter
                group = groups.get(atom.predicate)
                if group is None:
                    group = groups[atom.predicate] = []
                group.append((atom, key[1:], counter))
                counter += 1
                added += 1
        finally:
            for predicate, group in groups.items():
                index.add_bulk(
                    predicate,
                    [g[0] for g in group],
                    [g[1] for g in group],
                    [g[2] for g in group],
                )
            self._counter = counter
            STATS.facts_added += added
        return added

    @staticmethod
    def _loadable(atom: Atom) -> bool:
        """The validity check ``bulk_load`` applies (facts only)."""
        return not any(isinstance(t, Variable) for t in atom.terms)

    @staticmethod
    def _invalid_message(atom: Atom) -> str:
        return f"cannot add non-fact atom {atom} to an instance"

    def discard(self, atom: Atom) -> bool:
        """Remove a fact if present; returns True if it was there.

        Ordinals of surviving facts are never renumbered and ``_counter``
        never rewinds, so re-added facts get strictly fresh ordinals.
        """
        if atom not in self._ordinals:
            return False
        del self._ordinals[atom]
        del self._keys[TERMS.atom_key(atom)]
        self._index.tombstone(atom)
        return True

    # -- dictionary-encoded fast paths ---------------------------------------

    def has_key(self, key: Tuple[int, ...]) -> bool:
        """Membership of an encoded fact key ``(pid, tid1, ..., tidn)``.

        The executors\' negation probes and restricted-chase head checks go
        through this — one int-tuple dict lookup, no Atom construction.
        """
        return key in self._keys

    def add_key(self, key: Tuple[int, ...]) -> Optional[Atom]:
        """Add an encoded fact; returns its (decoded) Atom if new, else None.

        This is how the batch firing paths land head facts: the
        duplicate check costs one int-tuple lookup, and the Atom is only
        materialised for genuinely new facts (it is needed for the decoded
        row view and the ordinal map — the result boundary).
        """
        if key in self._keys:
            return None
        atom = TERMS.decode_atom(key)
        gid = self._counter
        self._ordinals[atom] = gid
        self._keys[key] = gid
        self._counter = gid + 1
        self._index.add(atom, gid)
        STATS.facts_added += 1
        return atom

    def null_ids(self) -> "frozenset[int]":
        """The term IDs of every labelled null occurring in the instance."""
        return frozenset(
            tid for key in self._keys for tid in key[1:] if tid & 1
        )

    # -- set protocol -----------------------------------------------------------

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._ordinals

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._ordinals)

    def __len__(self) -> int:
        return len(self._ordinals)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            return self._ordinals.keys() == other._ordinals.keys()
        if isinstance(other, (set, frozenset)):
            return self._ordinals.keys() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._ordinals)} atoms)"

    def copy(self) -> "Instance":
        """An independent instance with the same facts (fresh index)."""
        return type(self)(self._ordinals)

    def to_set(self) -> FrozenSet[Atom]:
        """The facts as a frozen set."""
        return frozenset(self._ordinals)

    def snapshot(self) -> InstanceSnapshot:
        """A frozen view of the current facts (additions stay invisible).

        The stratified engines use this as the negation reference for the
        lower strata; unlike :meth:`copy` it shares the index and captures
        only per-predicate row counts.
        """
        return InstanceSnapshot(
            self._ordinals,
            self._keys,
            self._index,
            self._counter,
            self._index.row_limits(),
            len(self._ordinals),
        )

    # -- lookup -------------------------------------------------------------------

    def with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        """All facts over ``predicate``."""
        rows = self._index.rows.get(predicate)
        if not rows:
            return frozenset()
        return frozenset(fact for fact in rows if fact is not None)

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        """All facts that the (possibly non-ground) ``pattern`` can map to.

        Constants and nulls in the pattern must match exactly; variables match
        anything (repeated variables are checked by the caller's unifier).
        The most selective available index is used.  Facts added while the
        returned iterator is consumed are not seen by it — the chase and the
        semi-naive rounds rely on this snapshot-per-call behaviour.
        """
        return self._index.scan(pattern)

    def matching_ids(
        self,
        predicate: str,
        arity: int,
        pairs: Iterable[Tuple[int, int]] = (),
    ) -> Iterator[Tuple[int, ...]]:
        """ID rows of ``predicate`` matching every ``(position, tid)`` pair.

        The ID-level sibling of :meth:`matching`: yields the flat term-ID
        tuples without touching an Atom, so callers (the ID-native SPARQL
        evaluator, the query service) decode only at their own result
        boundary.  Same snapshot-per-call capture as :meth:`matching`.
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
        return frozenset(t for atom in self._ordinals for t in atom.terms)

    def constants(self) -> FrozenSet[Constant]:
        """All constants occurring in the instance."""
        return frozenset(
            t for atom in self._ordinals for t in atom.terms if isinstance(t, Constant)
        )

    def nulls(self) -> FrozenSet[Null]:
        """All labelled nulls occurring in the instance."""
        return frozenset(
            t for atom in self._ordinals for t in atom.terms if isinstance(t, Null)
        )

    def ground_part(self) -> "Instance":
        """``I↓``: the atoms mentioning constants only (Section 6.3)."""
        return Instance(a for a in self._ordinals if a.is_ground)

    def arity_of(self, predicate: str) -> Optional[int]:
        """The arity of ``predicate``'s facts, or None if absent."""
        rows = self._index.rows.get(predicate)
        if rows:
            for fact in rows:
                if fact is not None:
                    return fact.arity
        return None

    def sorted_atoms(self) -> List[Atom]:
        """Deterministically ordered list of facts (useful in tests and reports)."""
        return sorted(self._ordinals, key=lambda a: (a.predicate, tuple(map(str, a.terms))))


class Database(Instance):
    """A finite instance mentioning constants only."""

    __slots__ = ()

    def add(self, atom: Atom) -> bool:
        """Add a ground fact over constants; rejects nulls and variables."""
        if not atom.is_ground:
            raise ValueError(
                f"databases may only contain ground atoms over constants; got {atom}"
            )
        return super().add(atom)

    @staticmethod
    def _loadable(atom: Atom) -> bool:
        return atom.is_ground

    @staticmethod
    def _invalid_message(atom: Atom) -> str:
        return f"databases may only contain ground atoms over constants; got {atom}"

    def add_fact(self, atom: Atom) -> bool:
        """Trusted-path add, still enforcing the constants-only invariant."""
        # The trusted fast path must not bypass the constants-only invariant.
        if not atom.is_ground:
            raise ValueError(self._invalid_message(atom))
        return super().add_fact(atom)

    def add_key(self, key: Tuple[int, ...]) -> Optional[Atom]:
        """Encoded add, still enforcing constants-only (one bit test per term)."""
        if any(tid & 1 for tid in key[1:]):
            raise ValueError(
                "databases may only contain ground atoms over constants; "
                f"got {TERMS.decode_atom(key)}"
            )
        return super().add_key(key)

    def copy(self) -> "Database":
        """An independent database with the same facts."""
        return Database(self._ordinals)
