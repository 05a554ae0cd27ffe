"""Differential fuzzing of the batch matcher's two lane loops.

The extension loop (:meth:`_BatchStep._extensions`) and the distinct-value
summary (:meth:`PredicateIndex.distinct_values`) each read one predicate's
packed :class:`ColumnBuffer` lanes along two paths: a gather by C loops
while the lane is clean (``mixed`` False: no tombstone, no padded row) and a
checked per-row loop otherwise.  Both must agree *exactly* with the
reference semantics computed over plain ID tuples — same surviving rows,
same order, same bound values — for every lane shape (a random mix of
tombstones and arities; a clean fixed-arity lane, then the same lane after
one kill, after one narrower row and after compaction), intra-row equality
constraints, and candidate shape (postings-bucket lists of every size vs
full and capped ``range`` scans).

Two layers are pinned here, with fixed seeds so CI runs are reproducible:

* **lane level** — both packed paths against the tuple-space reference,
  plus one unit test per ``mixed`` transition;
* **engine level** — a random stratified program evaluated with the batch
  matcher and with the depth-first oracle behind ``JoinPlan.rows``: atoms,
  invented-null labels, and the gated counters must be byte-identical.
"""

import random

import pytest

from repro.engine.batch import _BatchStep
from repro.engine.colbuf import ColumnBuffer
from repro.engine.index import PredicateIndex
from repro.engine.stats import STATS
from test_engine_batch_parity import matcher, random_datalog_program, random_instance
from test_engine_incremental_parity import ANCESTOR_CHASE_PROGRAM, person


# ---------------------------------------------------------------------------
# Lane level: packed lanes vs the tuple-space reference
# ---------------------------------------------------------------------------


def random_buffer(rng, n_rows, max_arity=4, universe=40):
    """A packed buffer plus its tuple-space shadow (None = tombstone).

    Rows mix arities (so the padded lanes carry PAD values the loops must
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


def fixed_arity_index(rows):
    """A :class:`PredicateIndex` holding ``rows`` under predicate ``p``,
    appended one by one through the inlined fixed-width hot path."""
    index = PredicateIndex()
    for gid, ids in enumerate(rows):
        index.append("p", ids, gid)
    return index


def lane_shapes(rng, n_rows, universe=40):
    """``(label, mixed, lane, shadow)`` for the fixed-arity lane shapes.

    One clean lane, then the same rows after one kill, after compacting that
    kill away, and after appending one narrower row.  ``mixed`` is the flag
    each shape must carry, so the fuzz also proves which path it reached.
    """
    arity = rng.randint(1, 4)
    rows = [
        tuple(rng.randrange(2, universe) for _ in range(arity)) for _ in range(n_rows)
    ]
    shapes = [("clean", False, fixed_arity_index(rows).cols["p"], list(rows))]
    if rows:
        victim = rng.randrange(n_rows)
        index = fixed_arity_index(rows)
        index.tombstone("p", rows[victim], victim)
        killed = rows[:victim] + [None] + rows[victim + 1 :]
        shapes.append(("one kill", True, index.cols["p"], killed))
        index.compact("p")
        survivors = [ids for ids in killed if ids is not None]
        shapes.append(("compacted", False, index.cols["p"], survivors))
        index = fixed_arity_index(rows)
        narrow = rows[0][: arity - 1]
        index.append("p", narrow, n_rows)
        shapes.append(("one narrower row", True, index.cols["p"], rows + [narrow]))
    return shapes


def all_shapes(rng, n_rows):
    """The random mixed buffer, then every fixed-arity lane shape."""
    cols, rows = random_buffer(rng, n_rows)
    return [("random", cols.mixed, cols, rows)] + lane_shapes(rng, n_rows)


def make_step(arity, bind_positions, intra_pairs):
    """A bare :class:`_BatchStep` carrying only what ``_extensions`` reads."""
    step = _BatchStep.__new__(_BatchStep)
    step.arity = arity
    step.bind_positions = bind_positions
    step.intra_pairs = intra_pairs
    return step


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
    """Full and capped scans, and sorted postings-style buckets of every
    size the gather distinguishes (empty, one id, several)."""
    shapes = [range(n_rows), range(n_rows // 2), ()]
    if n_rows:
        one = [rng.randrange(n_rows)]
        small = sorted(rng.sample(range(n_rows), min(n_rows, 5)))
        bulk = sorted(rng.sample(range(n_rows), min(n_rows, 100)))
        shapes += [one, small, bulk]
    return shapes


@pytest.mark.parametrize("seed", range(10))
def test_extensions_three_way_differential(seed):
    # The three ways: the tuple-space reference, the clean-lane gather, and
    # the checked loop; every lane shape routes to one of the packed two.
    rng = random.Random(7000 + seed)
    for label, mixed, cols, rows in all_shapes(rng, rng.randint(0, 200)):
        assert cols.mixed == mixed, label
        for arity in (1, 2, 3, 4):
            positions = list(range(arity))
            bind_options = [
                (),
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
                        step = make_step(arity, bind_positions, intra_pairs)
                        got = step._extensions(cols, candidate_ids)
                        assert [tuple(r) for r in got] == expected, (
                            f"{label} arity={arity} bind={bind_positions} "
                            f"intra={intra_pairs} candidates={candidate_ids!r}"
                        )


@pytest.mark.parametrize("seed", range(6))
def test_distinct_values_differential(seed):
    rng = random.Random(8000 + seed)
    for label, mixed, cols, rows in all_shapes(rng, rng.randint(0, 250)):
        assert cols.mixed == mixed, label
        index = PredicateIndex()
        index.cols["p"] = cols
        for position in range(5):
            expected = {
                ids[position]
                for ids in rows
                if ids is not None and len(ids) > position
            }
            values = index.distinct_values("p", position)
            assert values is not None
            assert set(values) == expected, f"{label} position={position}"


def test_distinct_values_budget_verdict_is_the_same_on_both_paths():
    # 300 distinct values against a budget of max(128, 300 // 4) = 128.
    rows = [(value, 7) for value in range(2, 302)]
    verdicts = {}
    for label, kill in (("clean", False), ("one kill", True)):
        index = fixed_arity_index(rows)
        if kill:
            index.tombstone("p", rows[0], 0)
        assert index.cols["p"].mixed == kill
        verdicts[label] = (
            index.distinct_values("p", 0),
            index.distinct_values("p", 1),
        )
    assert verdicts["clean"] == verdicts["one kill"] == (None, frozenset({7}))


class TestMixedFlag:
    """One test per transition of the derived ``ColumnBuffer.mixed`` flag."""

    def test_fixed_arity_appends_stay_clean(self):
        cols = ColumnBuffer()
        for gid in range(4):
            cols.append((gid, gid + 1), gid)
        assert not cols.mixed

    def test_index_append_hot_path_stays_clean(self):
        assert not fixed_arity_index([(1, 2, 3), (4, 5, 6)]).cols["p"].mixed

    def test_kill_sets_it(self):
        cols = ColumnBuffer()
        cols.append((1, 2), 0)
        cols.append((3, 4), 1)
        cols.kill(1)
        assert cols.mixed

    def test_narrower_row_after_row_zero_sets_it(self):
        cols = ColumnBuffer()
        cols.append((1, 2), 0)
        cols.append((3,), 1)
        assert cols.mixed

    def test_widening_after_row_zero_sets_it(self):
        cols = ColumnBuffer()
        cols.append((1,), 0)
        cols.append((2, 3), 1)
        assert cols.mixed

    def test_first_row_sizes_the_lanes_cleanly(self):
        cols = ColumnBuffer()
        cols.append((1, 2, 3), 0)
        assert not cols.mixed and cols.n_positions == 3

    def test_extend_rows_fixed_arity_stays_clean(self):
        cols = ColumnBuffer()
        cols.extend_rows([(1, 2), (3, 4)], [0, 1])
        cols.extend_rows([(5, 6)], [2])
        cols.extend_rows([], [])
        assert not cols.mixed

    def test_extend_rows_mixed_arities_sets_it(self):
        cols = ColumnBuffer()
        cols.extend_rows([(1, 2), (3,)], [0, 1])
        assert cols.mixed

    def test_extend_rows_narrower_rows_set_it(self):
        cols = ColumnBuffer()
        cols.extend_rows([(1, 2)], [0])
        cols.extend_rows([(3,)], [1])
        assert cols.mixed

    def test_extend_rows_widening_a_non_empty_lane_sets_it(self):
        cols = ColumnBuffer()
        cols.extend_rows([(1,)], [0])
        cols.extend_rows([(2, 3)], [1])
        assert cols.mixed

    def test_compaction_comes_back_clean(self):
        rows = [(i, i + 1) for i in range(6)]
        index = fixed_arity_index(rows)
        index.tombstone("p", rows[2], 2)
        assert index.cols["p"].mixed
        assert index.compact("p") == 1
        assert not index.cols["p"].mixed

    def test_compacting_a_padded_lane_stays_mixed(self):
        index = fixed_arity_index([(1, 2), (3, 4)])
        index.append("p", (5,), 2)
        index.tombstone("p", (1, 2), 0)
        index.compact("p")
        assert index.cols["p"].mixed


# ---------------------------------------------------------------------------
# Engine level: row/batch, byte-identical
# ---------------------------------------------------------------------------


def run_mode_matrix(fn):
    """fn() under both matchers; returns {mode: (result, gated counters)}."""
    results = {}
    for mode in ("row", "batch"):
        with matcher(mode):
            STATS.reset()
            results[mode] = (fn(), STATS.gated())
    return results


@pytest.mark.parametrize("seed", range(4))
def test_mode_matrix_parity_random_programs(seed):
    rng = random.Random(9000 + seed)
    instance, constants = random_instance(rng, n_constants=5, n_facts=70)
    program = random_datalog_program(rng, constants)

    def evaluate():
        from repro.engine.incremental import DeltaSession

        session = DeltaSession(program, instance)
        atoms = session.instance.sorted_atoms()
        session.close()
        return atoms

    outcomes = run_mode_matrix(evaluate)
    assert outcomes["row"][0] == outcomes["batch"][0], "atoms diverged"
    assert outcomes["row"][1] == outcomes["batch"][1], "gated counters diverged"


def test_mode_matrix_parity_chase_null_labels():
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

    outcomes = run_mode_matrix(evaluate)
    assert outcomes["row"] == outcomes["batch"]
