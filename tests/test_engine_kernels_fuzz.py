"""Differential fuzzing of the flat-buffer kernels.

:mod:`repro.engine.kernels` has three representations of the same candidate
extension over one predicate's rows: the reference semantics over plain ID
tuples, the pure-Python loops over the packed :class:`ColumnBuffer` lanes,
and the numpy bulk path that dispatches above :data:`kernels._MIN_BULK`.
All three must agree *exactly* — same surviving rows, same order, same bound
values — for every mix of tombstones, mixed arities (padded lanes), intra-row
equality constraints, and candidate shapes (postings-bucket lists vs full
``range`` scans, below and above the numpy dispatch threshold).

Two layers are pinned here, with fixed seeds so CI runs are reproducible:

* **kernel level** — :func:`kernels.extensions` and
  :func:`kernels.distinct_values` on randomly grown-and-killed buffers,
  numpy on vs off vs an independently computed tuple-space reference;
* **engine level** — a random stratified program evaluated with the
  batch matcher and with the depth-first oracle behind ``JoinPlan.rows``,
  each with the numpy kernels on and patched away: atoms, invented-null
  labels, and the gated counters must be byte-identical across the full 2×2
  matrix.  Without numpy installed only the pure column runs.
"""

import itertools
import random

import pytest

from repro.datalog.terms import Null
from repro.engine import kernels
from repro.engine.colbuf import ColumnBuffer
from repro.engine.stats import STATS
from test_engine_batch_parity import matcher, random_datalog_program, random_instance
from test_engine_incremental_parity import ANCESTOR_CHASE_PROGRAM, person

#: Kernel dispatch legs to compare: pure always, numpy when it imports.
NUMPY_FLAGS = (False, True) if kernels._np is not None else (False,)


@pytest.fixture(autouse=True)
def low_dispatch_threshold(monkeypatch):
    """Pin ``_MIN_BULK`` low so the fuzzed buffers (≤ 250 rows) actually
    reach the numpy kernels through the public dispatcher — the production
    threshold sits above the sizes these differential tests can afford."""
    monkeypatch.setattr(kernels, "_MIN_BULK", 8)


# ---------------------------------------------------------------------------
# Kernel level: packed buffers vs the tuple-space reference
# ---------------------------------------------------------------------------


def random_buffer(rng, n_rows, max_arity=4, universe=40):
    """A packed buffer plus its tuple-space shadow (None = tombstone).

    Rows mix arities (so the padded lanes carry PAD values the kernels must
    never surface) and ~15% are killed after insertion, leaving their
    position lanes intact under a tombstoned arity — exactly the state
    retraction produces.
    """
    cols = ColumnBuffer()
    rows = []
    for _ in range(n_rows):
        arity = rng.randint(1, max_arity)
        ids = tuple(rng.randrange(2, universe) for _ in range(arity))
        row_id = cols.append(ids, gid=len(rows))
        if rng.random() < 0.15:
            cols.kill(row_id)
            rows.append(None)
        else:
            rows.append(ids)
    return cols, rows


def reference_extensions(rows, candidate_ids, arity, bind_positions, intra_pairs):
    """The specified semantics, computed in tuple space only."""
    out = []
    for row_id in candidate_ids:
        ids = rows[row_id]
        if ids is None or len(ids) != arity:
            continue
        if any(ids[p] != ids[q] for p, q in intra_pairs):
            continue
        out.append(tuple(ids[p] for p in bind_positions))
    return out


def candidate_shapes(rng, n_rows):
    """Full scans and sorted postings-style buckets, small and bulk-sized."""
    shapes = [range(n_rows)]
    if n_rows:
        small = sorted(rng.sample(range(n_rows), min(n_rows, 5)))
        bulk = sorted(
            rng.sample(range(n_rows), min(n_rows, kernels._MIN_BULK + 10))
        )
        shapes += [small, bulk]
    return shapes


@pytest.mark.parametrize("seed", range(10))
def test_extensions_three_way_differential(seed, monkeypatch):
    rng = random.Random(7000 + seed)
    cols, rows = random_buffer(rng, rng.randint(0, 200))
    for arity in (1, 2, 3, 4):
        positions = list(range(arity))
        bind_options = [
            tuple(positions),
            tuple(rng.sample(positions, rng.randint(1, arity))),
        ]
        intra_options = [()]
        if arity >= 2:
            pair = tuple(rng.sample(positions, 2))
            intra_options.append((pair,))
        for candidate_ids in candidate_shapes(rng, len(cols)):
            for bind_positions in bind_options:
                for intra_pairs in intra_options:
                    expected = reference_extensions(
                        rows, candidate_ids, arity, bind_positions, intra_pairs
                    )
                    got = {}
                    for flag in NUMPY_FLAGS:
                        with monkeypatch.context() as patch:
                            if not flag:
                                patch.setattr(kernels, "_np", None)
                            got[flag] = kernels.extensions(
                                cols, candidate_ids, arity, bind_positions, intra_pairs
                            )
                    for flag, result in got.items():
                        assert [tuple(r) for r in result] == expected, (
                            f"numpy={flag} arity={arity} bind={bind_positions} "
                            f"intra={intra_pairs}"
                        )


@pytest.mark.parametrize("seed", range(6))
def test_distinct_values_differential(seed, monkeypatch):
    rng = random.Random(8000 + seed)
    cols, rows = random_buffer(rng, rng.randint(0, 250))
    for position in range(4):
        expected = {
            ids[position]
            for ids in rows
            if ids is not None and len(ids) > position
        }
        results = {}
        for flag in NUMPY_FLAGS:
            with monkeypatch.context() as patch:
                if not flag:
                    patch.setattr(kernels, "_np", None)
                results[flag] = kernels.distinct_values(cols, position, len(cols))
        for flag, values in results.items():
            assert values is not None
            assert set(values) == expected, f"numpy={flag} position={position}"


# ---------------------------------------------------------------------------
# Engine level: numpy on/off × row/batch, byte-identical
# ---------------------------------------------------------------------------


def run_mode_matrix(fn, monkeypatch):
    """fn() under every (numpy, mode) pair; returns {(numpy, mode): ...}."""
    results = {}
    for flag in NUMPY_FLAGS:
        with monkeypatch.context() as patch:
            if not flag:
                patch.setattr(kernels, "_np", None)
            for mode in ("row", "batch"):
                with matcher(mode):
                    Null._counter = itertools.count()
                    STATS.reset()
                    results[(flag, mode)] = (fn(), STATS.gated())
    return results


@pytest.mark.parametrize("seed", range(4))
def test_mode_matrix_parity_random_programs(seed, monkeypatch):
    rng = random.Random(9000 + seed)
    instance, constants = random_instance(rng, n_constants=5, n_facts=70)
    program = random_datalog_program(rng, constants)

    def evaluate():
        from repro.engine.incremental import DeltaSession

        session = DeltaSession(program, instance)
        atoms = session.instance.sorted_atoms()
        session.close()
        return atoms

    outcomes = run_mode_matrix(evaluate, monkeypatch)
    baseline = next(iter(outcomes.values()))
    for key, outcome in outcomes.items():
        assert outcome[0] == baseline[0], f"atoms diverged under {key}"
        assert outcome[1] == baseline[1], f"gated counters diverged under {key}"


def test_mode_matrix_parity_chase_null_labels(monkeypatch):
    # Invented-null spellings (content-addressed labels) are part of the
    # byte-identity contract, not just the atom sets.
    people = [person(f"p{i}") for i in range(6)]

    def evaluate():
        from repro.engine.incremental import DeltaSession

        session = DeltaSession(ANCESTOR_CHASE_PROGRAM, people)
        atoms = [str(a) for a in session.instance.sorted_atoms()]
        labels = sorted(n.label for n in session.instance.nulls())
        session.close()
        return atoms, labels

    outcomes = run_mode_matrix(evaluate, monkeypatch)
    baseline = next(iter(outcomes.values()))
    for key, outcome in outcomes.items():
        assert outcome == baseline, f"diverged under {key}"
