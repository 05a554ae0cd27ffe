"""Dictionary-encoded term storage: the :class:`TermTable` interning layer.

Matching on boxed :class:`~repro.datalog.terms.Constant` /
:class:`~repro.datalog.terms.Null` objects pays Python-level ``__hash__`` /
``__eq__`` dispatch on every probe.  This module is the classic
Datalog-engine answer: **dictionary-encode** every ground term into a dense
``int`` ID once, and run the whole storage and execution stack — postings
probes, batch columns, incremental delta windows — on those IDs.

* :data:`TERMS` is the process-global table.  IDs are dense and append-only:
  a constant interned as the *k*-th distinct constant gets ID ``k << 1``, a
  null interned as the *k*-th distinct null gets ``k << 1 | 1``.  The low
  bit therefore answers "is this a labelled null?" without touching the
  table — the chase's null-depth bookkeeping and ``ground_part`` checks
  become single bit tests.
* Decoding (``term(tid)``) returns the **canonical** term object held by the
  table, so repeated decodes share objects and re-encoding a decoded term is
  a cached attribute read (terms memoise their ID in a ``_tid`` slot).
* Predicate names are interned through the same constant space
  (:func:`TermTable.intern_constant`), which makes a whole fact a flat
  ``(pid, tid1, ..., tidn)`` int tuple — the one stored form of a fact in
  :class:`~repro.datalog.database.Instance`.

Decoding back to terms happens only at result boundaries (``Instance``
iteration and lookups, provenance records, SPARQL answers); the chase,
semi-naive, and warded engines run ID-native in between.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Null, Term


def is_null_id(tid: int) -> bool:
    """True iff ``tid`` encodes a labelled null (the tag bit is set)."""
    return bool(tid & 1)


#: Callbacks invoked by :meth:`TermTable.begin_epoch` *before* the null space
#: is dropped.  The engine layers register the invalidation work they own:
#: :mod:`repro.engine.plan` drops its compiled-plan caches (plans embed
#: constant IDs only and would survive, but a clean slate is cheap and makes
#: the contract trivially auditable).
_EPOCH_HOOKS: List[Callable[[], None]] = []


def register_epoch_hook(hook: Callable[[], None]) -> Callable[[], None]:
    """Register a callback to run at every :meth:`TermTable.begin_epoch`.

    Returns the hook so it can be used as a decorator.  Duplicate
    registrations are ignored (module reloads under pytest would otherwise
    stack them).
    """
    if hook not in _EPOCH_HOOKS:
        _EPOCH_HOOKS.append(hook)
    return hook


class TermTable:
    """Append-only dictionary encoding of ground terms to dense int IDs.

    Constants and nulls live in disjoint ID spaces distinguished by the low
    bit (constants even, nulls odd); both spaces are dense and append-only.
    Constant vocabularies are small and repeat across runs, so the
    constant space never shrinks.  Invented-null labels are unique per
    invention (~200 bytes each; the whole benchmark suite invents ~25k), so a
    long-lived process that materializes forever accrues a slow monotone
    cost.  :meth:`begin_epoch` is the reclamation valve: it drops the **null
    space only** and bumps :meth:`epoch`.  Compiled plans embed constant IDs
    exclusively (rule bodies contain variables and constants, never nulls),
    so constants surviving the reset is exactly what keeps the rest of the
    process coherent; everything null-bearing — encoded instances, snapshots,
    delta sessions, decoded atoms carrying ``_key`` memos — belongs to the
    discarded materialization and must be dropped by the caller *before* the
    reset (the service layer enforces this by fencing reads).  Hooks
    registered via :func:`register_epoch_hook` run first and take care of the
    engine-internal invalidation (plan caches).
    """

    __slots__ = (
        "_constants",
        "_constant_ids",
        "_nulls",
        "_null_ids",
        "_memoise",
        "_epoch",
        "_orphaned_nulls",
    )

    def __init__(self, _memoise: bool = False) -> None:
        # Index k holds the canonical term of ID (k << 1) / (k << 1 | 1).
        self._constants: List[Constant] = []
        self._constant_ids: Dict[str, int] = {}
        self._nulls: List[Null] = []
        self._null_ids: Dict[str, int] = {}
        self._epoch = 0
        self._orphaned_nulls = 0
        # Only the process-global :data:`TERMS` may write the ``_tid`` /
        # ``_key`` caches on term and atom objects: a secondary table (tests,
        # ad-hoc tooling) caching ITS ids onto shared
        # objects would silently corrupt every lookup against the global
        # encoding.  Secondary tables always go through their dicts.
        self._memoise = _memoise

    # -- interning ----------------------------------------------------------

    def intern_constant(self, value: str) -> int:
        """The ID of the constant ``value``, interning it if new."""
        tid = self._constant_ids.get(value)
        if tid is None:
            tid = len(self._constants) << 1
            self._constant_ids[value] = tid
            term = Constant(value)
            if self._memoise:
                term._tid = tid
            self._constants.append(term)
        return tid

    def intern_null(self, label: str) -> int:
        """The ID of the null labelled ``label``, interning it if new."""
        tid = self._null_ids.get(label)
        if tid is None:
            tid = (len(self._nulls) << 1) | 1
            self._null_ids[label] = tid
            term = Null(label)
            if self._memoise:
                term._tid = tid
            self._nulls.append(term)
        return tid

    def intern_term(self, term: Term) -> int:
        """The ID of a ground term (memoised on the term object by :data:`TERMS`)."""
        if self._memoise:
            try:
                tid = term._tid
            except AttributeError:  # Variables carry no ID slot
                raise TypeError(f"cannot intern non-ground term {term!r}") from None
            if tid is not None:
                return tid
        if type(term) is Constant:
            tid = self.intern_constant(term.value)
        elif type(term) is Null:
            tid = self.intern_null(term.label)
        else:
            raise TypeError(f"cannot intern non-ground term {term!r}")
        if self._memoise:
            term._tid = tid
        return tid

    def find_term(self, term: Term) -> "int | None":
        """The ID of ``term`` if already interned, else None (never interns).

        The membership/scan paths use this so probing for facts over unseen
        vocabulary does not grow the table.
        """
        if self._memoise:
            try:
                tid = term._tid
            except AttributeError:  # Variables carry no ID slot
                return None
            if tid is not None:
                return tid
        if type(term) is Constant:
            tid = self._constant_ids.get(term.value)
        elif type(term) is Null:
            tid = self._null_ids.get(term.label)
        else:
            return None
        if tid is not None and self._memoise:
            term._tid = tid
        return tid

    def find_null(self, label: str) -> "int | None":
        """The ID of the null labelled ``label`` if interned, else None.

        The retraction over-delete phase uses this to reconstruct
        content-addressed null labels *without* interning: an absent label
        proves the corresponding chase trigger never fired, so there is
        nothing to over-delete for it.
        """
        return self._null_ids.get(label)

    def retire_nulls(self, count: int) -> None:
        """Record ``count`` invented nulls orphaned by retraction.

        The dictionary stays append-only within an epoch (``_tid`` memos on
        canonical objects must never dangle), so retirement only *counts*
        the garbage; the physical reclaim point remains
        :meth:`begin_epoch`, which drops the whole null space.
        """
        self._orphaned_nulls += count

    @property
    def orphaned_nulls(self) -> int:
        """Nulls known dead since the last epoch reset (reclaimable space)."""
        return self._orphaned_nulls

    # -- decoding -----------------------------------------------------------

    def term(self, tid: int) -> Term:
        """The canonical term object for ``tid``."""
        return (self._nulls if tid & 1 else self._constants)[tid >> 1]

    def decode(self, ids: Iterable[int]) -> Tuple[Term, ...]:
        """Decode a tuple of IDs into canonical term objects."""
        nulls = self._nulls
        constants = self._constants
        return tuple(
            (nulls if tid & 1 else constants)[tid >> 1] for tid in ids
        )

    def decode_atom(self, key: Sequence[int]) -> Atom:
        """Rebuild the :class:`Atom` of an encoded fact key ``(pid, *tids)``.

        Instances store keys, not atoms, so this runs only where a fact
        leaves the store: instance iteration and lookups, provenance
        records, DRed's marked set, error messages.  No engine firing path
        calls it.  The returned atom carries the key in its ``_key`` cache,
        so adding it back to an instance re-encodes nothing.
        """
        atom = Atom(self._constants[key[0] >> 1].value, self.decode(key[1:]))
        if self._memoise:
            atom._key = tuple(key)
        return atom

    def atom_key(self, atom: Atom) -> Tuple[int, ...]:
        """The encoded fact key ``(pid, tid1, ..., tidn)`` of ``atom``.

        Memoised on the atom; raises :class:`TypeError` for non-fact atoms
        (variables cannot be interned).
        """
        if not self._memoise:
            intern = self.intern_term
            return (
                self.intern_constant(atom.predicate),
                *(intern(term) for term in atom.terms),
            )
        key = atom._key
        if key is None:
            intern = self.intern_term
            key = atom._key = (
                self.intern_constant(atom.predicate),
                *(intern(term) for term in atom.terms),
            )
        return key

    def find_key(self, atom: Atom) -> "Tuple[int, ...] | None":
        """The encoded key of ``atom`` if all its terms are interned, else None.

        Never interns: membership tests and deletions go through this, so
        probing for a fact over unseen vocabulary (or a non-fact atom) does
        not grow the table.
        """
        if self._memoise and atom._key is not None:
            return atom._key
        pid = self._constant_ids.get(atom.predicate)
        if pid is None:
            return None
        key = [pid]
        for term in atom.terms:
            tid = self.find_term(term)
            if tid is None:
                return None
            key.append(tid)
        key = tuple(key)
        if self._memoise:
            atom._key = key
        return key

    def counts(self) -> Tuple[int, int]:
        """(#constants, #nulls) currently interned."""
        return len(self._constants), len(self._nulls)

    # -- epoch lifecycle ----------------------------------------------------

    def epoch(self) -> int:
        """The current epoch ordinal (0 at process start, +1 per reset).

        Snapshot holders record the epoch they were built under; a holder
        whose recorded epoch no longer matches must not decode through this
        table (its null IDs may have been reassigned).
        """
        return self._epoch

    def begin_epoch(self) -> int:
        """Reclaim the invented-null dictionary space and start a new epoch.

        Drops every null entry (constants are kept — compiled plans and rule
        ``_key`` memos embed constant IDs only and stay valid), clears the
        ``_tid`` memo on each canonical null object so a stale null that
        leaks back in cannot resurrect a reassigned ID, runs the registered
        epoch hooks (plan caches), and returns the new epoch
        ordinal.  The caller owns discarding every null-bearing structure
        built in the previous epoch first.
        """
        for hook in _EPOCH_HOOKS:
            hook()
        if self._memoise:
            for null in self._nulls:
                null._tid = None
        self._nulls.clear()
        self._null_ids.clear()
        self._orphaned_nulls = 0
        self._epoch += 1
        return self._epoch

    def __len__(self) -> int:
        """Total interned entries (both kinds)."""
        return len(self._constants) + len(self._nulls)

    def __repr__(self) -> str:
        return (
            f"TermTable({len(self._constants)} constants, "
            f"{len(self._nulls)} nulls, epoch {self._epoch})"
        )


#: The process-global table every engine layer encodes through — the only
#: table allowed to memoise IDs on term/atom objects.
TERMS = TermTable(_memoise=True)
