"""Batch kernels over flat column buffers: numpy fast path, pure fallback.

The column-at-a-time executor spends almost all of its time in two loops:
extracting the *extension tuples* of one probe group (gather the bound
positions of every candidate row that survives the arity and intra-atom
checks) and materialising the per-round *distinct-value summaries* behind
pivot skipping.  Both are flat passes over the int64 columns of
:class:`~repro.engine.colbuf.ColumnBuffer`, which makes them exactly the
shape ``numpy`` vectorises well — *when* numpy exists and the pass is long
enough to amortise the array round-trip.

This module is the single dispatch point:

* :func:`extensions` / :func:`distinct_values` pick the numpy kernel when it
  is available **and** the candidate count crosses a small threshold, else
  run the pure-Python loop.  Both paths produce byte-identical results —
  same values (int64 round-trips through ``tolist()`` as exact Python ints),
  same order (masking preserves the ascending candidate order), same
  tombstone/arity filtering — which
  ``tests/test_engine_kernels_fuzz.py`` pins differentially.
* The numpy kernels run exactly when numpy imports; otherwise the pure
  path runs (the main CI matrix installs no numpy).  The differential tests
  reach the pure path with numpy installed by patching ``_np`` to None.

Nothing here may influence *what* is computed — only how fast.  Every
caller treats these as drop-in replacements for the loops they had inline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less platforms
    _np = None

#: Candidate counts below this run the pure loop even with numpy on: the
#: candidate list reaches numpy through an O(n) ``np.asarray`` copy
#: (postings buckets are plain lists), so the crossover sits far higher
#: than the lane views' — measured break-even is ~200-700 candidates with
#: a ~1.2x ceiling above it.
_MIN_BULK = 256

#: Row counts below this run :func:`distinct_values` in pure Python.  The
#: scan reads whole lanes through zero-copy ``np.frombuffer`` views (no
#: per-call conversion), so its numpy path pays off much earlier than the
#: candidate-gather kernels'.
_MIN_BULK_SCAN = 48


def _candidate_array(candidate_ids):
    """``candidate_ids`` as an int64 numpy array (zero-copy when flat)."""
    if isinstance(candidate_ids, range):
        return _np.arange(
            candidate_ids.start, candidate_ids.stop, dtype=_np.int64
        )
    if isinstance(candidate_ids, (bytearray, memoryview)):  # pragma: no cover
        return _np.frombuffer(candidate_ids, dtype=_np.int64)
    try:
        # array('q') postings buckets expose the buffer protocol: zero-copy.
        return _np.frombuffer(candidate_ids, dtype=_np.int64)
    except (TypeError, ValueError, BufferError):
        return _np.asarray(candidate_ids, dtype=_np.int64)


def _np_view(column, n_rows: int):
    """A transient int64 view of one column region, clipped to ``n_rows``."""
    view = _np.frombuffer(column, dtype=_np.int64)
    return view[:n_rows] if len(view) != n_rows else view


def extensions(
    colbuf,
    candidate_ids,
    arity: int,
    bind_positions: Tuple[int, ...],
    intra_pairs: Tuple[Tuple[int, int], ...],
) -> List[Tuple[int, ...]]:
    """The verified extension tuples for one probe group, ids ascending.

    For each candidate row id (ascending), keep the row iff it is live with
    the step's arity and every intra-atom repeated-variable pair agrees,
    then emit the tuple of its values at ``bind_positions``.  This is the
    single hottest loop of the batch matcher; semantics are pinned against the
    tuple-era implementation by the parity and fuzz suites.
    """
    if len(candidate_ids) >= _MIN_BULK and _np is not None:
        return _extensions_np(colbuf, candidate_ids, arity, bind_positions, intra_pairs)
    arities = colbuf.arities
    buffers = colbuf.buffers
    exts: List[Tuple[int, ...]] = []
    append = exts.append
    n_bind = len(bind_positions)
    if not intra_pairs and n_bind <= 2:
        # The dominant shapes (0-2 fresh variables, no repeated variable
        # inside the atom) get allocation-minimal loops over the flat
        # columns.
        if n_bind == 0:
            for row_id in candidate_ids:
                if arities[row_id] == arity:
                    append(())
        elif n_bind == 1:
            column = buffers[bind_positions[0]]
            for row_id in candidate_ids:
                if arities[row_id] == arity:
                    append((column[row_id],))
        else:
            first = buffers[bind_positions[0]]
            second = buffers[bind_positions[1]]
            for row_id in candidate_ids:
                if arities[row_id] == arity:
                    append((first[row_id], second[row_id]))
        return exts
    for row_id in candidate_ids:
        if arities[row_id] != arity:
            continue
        for position, bound_position in intra_pairs:
            if buffers[position][row_id] != buffers[bound_position][row_id]:
                break
        else:
            append(tuple(buffers[position][row_id] for position in bind_positions))
    return exts


def _extensions_np(
    colbuf, candidate_ids, arity, bind_positions, intra_pairs
) -> List[Tuple[int, ...]]:
    n_rows = colbuf.n_rows
    ids = _candidate_array(candidate_ids)
    arities = _np_view(colbuf.arities, n_rows)
    mask = arities[ids] == arity
    if intra_pairs:
        buffers = colbuf.buffers
        for position, bound_position in intra_pairs:
            left = _np_view(buffers[position], n_rows)
            right = _np_view(buffers[bound_position], n_rows)
            mask &= left[ids] == right[ids]
    keep = ids[mask]
    n_keep = len(keep)
    if n_keep == 0:
        return []
    n_bind = len(bind_positions)
    if n_bind == 0:
        return [()] * n_keep
    buffers = colbuf.buffers
    if n_bind == 1:
        column = _np_view(buffers[bind_positions[0]], n_rows)
        return [(value,) for value in column[keep].tolist()]
    gathered = [
        _np_view(buffers[position], n_rows)[keep].tolist()
        for position in bind_positions
    ]
    return list(zip(*gathered))


def distinct_values(colbuf, position: int, cap: int) -> Optional[frozenset]:
    """The distinct live values at ``position``, or None past the budget.

    Mirrors the tuple-era semantics exactly: tombstoned rows and rows whose
    arity does not reach ``position`` are skipped; exceeding ``cap`` distinct
    values yields None (no usable summary).  The numpy path may count all
    distinct values before comparing against the budget — the *verdict* is
    identical, which is all the (gated) ``pivots_skipped`` counter sees.
    """
    n_rows = colbuf.n_rows
    if position >= len(colbuf.buffers):
        return frozenset()
    if n_rows >= _MIN_BULK_SCAN and _np is not None:
        arities = _np_view(colbuf.arities, n_rows)
        column = _np_view(colbuf.buffers[position], n_rows)
        values = _np.unique(column[arities > position])
        if len(values) > cap:
            return None
        return frozenset(values.tolist())
    arities = colbuf.arities
    column = colbuf.buffers[position]
    values = set()
    add = values.add
    for row_id in range(n_rows):
        if arities[row_id] > position:
            add(column[row_id])
            if len(values) > cap:
                return None
    return frozenset(values)
