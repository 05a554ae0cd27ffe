"""The materialized view: publication, epoch lifecycle, snapshot isolation.

The concurrent classes are the differential check ISSUE'd for this
subsystem: readers pinned to a published snapshot must see byte-identical
answers no matter how the single writer interleaves with them, and every
pinned state must equal a cold recompute of the corresponding push prefix.
"""

import sys
import threading

import pytest

from repro.datalog.semantics import INCONSISTENT
from repro.engine.incremental import DeltaSession
from repro.service import MaterializedView, StaleSnapshotError
from repro.service import view as view_module
from repro.sparql.parser import parse_sparql
from repro.translation.entailment_regime import evaluate_under_entailment
from repro.workloads.ontologies import university_graph

PERSON = parse_sparql("SELECT ?X WHERE { ?X rdf:type Person }")
WORKS = parse_sparql("SELECT ?X WHERE { ?X worksFor _:B }")


def small_graph():
    return university_graph(n_departments=1, students_per_department=3)


DOOMED = [("doomed", "rdf:type", "Student")]


def query_inside_retraction(view, monkeypatch):
    """Query a snapshot pinned before a retraction from inside its null-GC
    phase (rows already tombstoned); the answers, or the raised error."""
    pinned = view.current
    seen = []
    collect = DeltaSession._collect_nulls

    def query_then_collect(session, marked, rebuilt):
        try:
            seen.append(pinned.query(PERSON))
        except StaleSnapshotError as error:
            seen.append(error)
        return collect(session, marked, rebuilt)

    monkeypatch.setattr(DeltaSession, "_collect_nulls", query_then_collect)
    view.retract(DOOMED)
    assert len(seen) == 1
    return seen[0]


class TestPublication:
    def test_initial_snapshot_matches_oracle(self):
        graph = small_graph()
        with MaterializedView(graph) as view:
            for mode in ("U", "All"):
                assert view.query(PERSON, mode) == evaluate_under_entailment(
                    PERSON, graph, mode
                )

    def test_push_advances_watermark_and_answers(self):
        with MaterializedView(small_graph()) as view:
            before = view.query(PERSON)
            w0 = view.watermark
            result = view.push([("fresh_student", "rdf:type", "Student")])
            assert result.new_edb == 1
            assert view.watermark > w0
            after = view.query(PERSON)
            assert len(after) == len(before) + 1

    def test_pinned_snapshot_ignores_later_pushes(self):
        with MaterializedView(small_graph()) as view:
            with view.read() as snapshot:
                before = snapshot.query(PERSON)
                view.push([("late_student", "rdf:type", "Student")])
                # The pinned snapshot still answers from its frozen prefix.
                assert snapshot.query(PERSON) == before
            assert len(view.query(PERSON)) == len(before) + 1

    def test_inconsistent_push_reports_top(self):
        with MaterializedView(small_graph()) as view:
            assert view.consistent
            result = view.push(
                [
                    ("clash", "rdf:type", "Course"),
                    ("clash", "rdf:type", "Person"),
                    ("Course", "owl:disjointWith", "Person"),
                ]
            )
            assert not result.consistent
            assert not view.consistent
            assert view.query(PERSON) is INCONSISTENT

    def test_writes_publish_their_own_verdict(self, monkeypatch):
        # Pushes and retractions publish the verdict their result carries;
        # a full re-check runs only at construction and rematerialization.
        graph = small_graph()
        graph.add(("Course", "owl:disjointWith", "Person"))
        graph.add(("clash", "rdf:type", "Course"))
        violating = [("clash", "rdf:type", "Person")]
        with MaterializedView(graph) as view:
            session = view._session
            full_checks = []
            check = DeltaSession.check_consistency

            def counted(self):
                full_checks.append(self)
                return check(self)

            monkeypatch.setattr(DeltaSession, "check_consistency", counted)
            assert view.consistent
            for op, expected in (
                (view.push, False),
                (view.retract, True),
                (view.push, False),
                (view.retract, True),
            ):
                assert op(violating).consistent is expected
                assert full_checks == []
                assert view.consistent is expected
                assert view.consistent == session.check_consistency()
                full_checks.clear()


@pytest.mark.parametrize(
    "raw, parsed_before_6_0",
    [
        ("", view_module.DEFAULT_SLOW_QUERY_MS),
        ("0", 0.0),
        ("250.5", 250.5),
        ("inf", float("inf")),
        ("abc", None),
        ("nan", None),
        ("-1", None),
        ("-inf", None),
    ],
)
def test_slow_query_threshold_env_is_validated(monkeypatch, raw, parsed_before_6_0):
    # Until 6.0.0 the view read REPRO_SLOW_QUERY_MS (the second column is
    # what it parsed to; None raised ValueError). The view now reads no
    # environment variable: every value, valid or not, leaves the default
    # threshold, which is set per view on the attribute.
    monkeypatch.setenv("REPRO_SLOW_QUERY_MS", raw)
    with MaterializedView() as view:
        assert view.slow_query_ms == view_module.DEFAULT_SLOW_QUERY_MS == 100.0


class TestEpochLifecycle:
    def test_rematerialize_preserves_answers_and_reclaims_nulls(self):
        from repro.engine.interning import TERMS

        with MaterializedView(small_graph()) as view:
            view.push([("s1", "rdf:type", "Student")])
            answers = {mode: view.query(WORKS, mode) for mode in ("U", "All")}
            nulls_before = TERMS.counts()[1]
            assert nulls_before > 0
            epoch_before = view.epoch
            new_epoch = view.rematerialize()
            assert new_epoch == epoch_before + 1
            assert view.epoch == new_epoch
            for mode in ("U", "All"):
                assert view.query(WORKS, mode) == answers[mode]

    def test_stale_snapshot_raises_after_rematerialize(self):
        with MaterializedView(small_graph()) as view:
            stale = view.current
            view.rematerialize()
            with pytest.raises(StaleSnapshotError):
                stale.query_ids(PERSON)

    def test_surfaces_answer_during_the_rebuild(self, monkeypatch):
        # /healthz, /stats and /metrics read these while POST /rematerialize
        # rebuilds; none may find the session or the snapshot missing.
        with MaterializedView(small_graph()) as view:
            seen = []

            def session_spy(*args, **kwargs):
                seen.append(
                    (
                        view.stats()["facts"],
                        view.maintenance()["readers_pinned"],
                        "repro_view_facts " in view.metrics_text(),
                        view.current.watermark,
                    )
                )
                return DeltaSession(*args, **kwargs)

            facts, watermark = len(view), view.watermark
            monkeypatch.setattr(view_module, "DeltaSession", session_spy)
            view.rematerialize()
            assert seen == [(facts, 0, True, watermark)]
            assert view.query(PERSON)

    def test_push_after_rematerialize_continues(self):
        with MaterializedView(small_graph()) as view:
            base = len(view.query(PERSON))
            view.rematerialize()
            view.push([("post_epoch", "rdf:type", "Student")])
            assert len(view.query(PERSON)) == base + 1


class TestRetraction:
    def test_retract_removes_answers_and_publishes(self):
        with MaterializedView(small_graph()) as view:
            view.push([("doomed", "rdf:type", "Student")])
            before = view.query(PERSON)
            result = view.retract([("doomed", "rdf:type", "Student")])
            assert result.removed_edb == 1
            assert result.overdeleted >= 1
            assert len(view.query(PERSON)) == len(before) - 1

    def test_pinned_snapshot_raises_after_retraction(self):
        # Regression: the engine tombstones rows in place, and a frozen
        # prefix view shares the live storage — a snapshot pinned before a
        # retraction used to keep answering, silently missing the deleted
        # rows.  It must fail as loudly as one pinned across an epoch reset.
        with MaterializedView(small_graph()) as view:
            view.push([("doomed", "rdf:type", "Student")])
            stale = view.current
            view.retract([("doomed", "rdf:type", "Student")])
            with pytest.raises(StaleSnapshotError):
                stale.query_ids(PERSON)

    def test_snapshot_queried_during_a_retraction_raises(self, monkeypatch):
        # Regression: the pinned retraction count only moved on the
        # retraction's last line, so a read overlapping the tombstoning
        # phase answered 200 from half-deleted rows.
        with MaterializedView(small_graph()) as view:
            view.push(DOOMED)
            outcome = query_inside_retraction(view, monkeypatch)
            assert isinstance(outcome, StaleSnapshotError)

    def test_retraction_overlapping_an_evaluation_raises(self, monkeypatch):
        # The pre-check passes, a whole retraction runs while the query
        # evaluates, and the re-check after evaluating must catch it.
        with MaterializedView(small_graph()) as view:
            view.push(DOOMED)
            evaluate = view_module.evaluate_view_ids

            def evaluate_across_a_retraction(*args):
                monkeypatch.setattr(view_module, "evaluate_view_ids", evaluate)
                view.retract(DOOMED)
                return evaluate(*args)

            monkeypatch.setattr(
                view_module, "evaluate_view_ids", evaluate_across_a_retraction
            )
            with view.read() as snapshot:
                with pytest.raises(StaleSnapshotError):
                    snapshot.query(PERSON)

    def test_canary_late_entry_bump_misses_the_overlap(self, monkeypatch):
        # With the entry bump moved after the session's retraction, the
        # overlapping read above is answered again: the test has teeth.
        def retract_with_late_entry_bump(self, facts):
            with self._write_lock:
                try:
                    result = self._session.retract(facts)
                    self._retract_seq += 1
                finally:
                    self._retract_seq += 1
                self._published = self._publish()
            return result

        monkeypatch.setattr(
            MaterializedView, "retract", retract_with_late_entry_bump
        )
        with MaterializedView(small_graph()) as view:
            view.push(DOOMED)
            outcome = query_inside_retraction(view, monkeypatch)
            assert not isinstance(outcome, StaleSnapshotError)

    def test_rejected_retraction_leaves_reads_working(self):
        # A retraction the session rejects still advances the sequence; the
        # view must republish, or every later read raises StaleSnapshotError.
        with MaterializedView(small_graph()) as view:
            view.push(DOOMED)
            before = view.query(PERSON)
            with pytest.raises(ValueError):
                view.retract([("_:b", "rdf:type", "Student")])
            assert view.query(PERSON) == before
            assert view.stats()["retractions"] == 0

    def test_snapshot_published_after_retraction_is_valid(self):
        with MaterializedView(small_graph()) as view:
            view.push([("doomed", "rdf:type", "Student")])
            view.retract([("doomed", "rdf:type", "Student")])
            fresh = view.current
            assert fresh.query_ids(PERSON) == fresh.query_ids(PERSON)
            # And later pushes do not invalidate it (append-only isolation).
            view.push([("late", "rdf:type", "Student")])
            fresh.query_ids(PERSON)

    def test_retract_matches_cold_view_of_surviving_edb(self):
        graph = small_graph()
        batches = [
            [(f"s{i}", "rdf:type", "Student"), (f"s{i}", "worksFor", f"d{i % 2}")]
            for i in range(4)
        ]
        with MaterializedView(graph) as view:
            for batch in batches:
                view.push(batch)
            view.retract(batches[1])
            with MaterializedView(graph) as cold:
                for i, batch in enumerate(batches):
                    if i != 1:
                        cold.push(batch)
                for mode in ("U", "All"):
                    assert view.query(PERSON, mode) == cold.query(PERSON, mode)
            assert view.stats()["retractions"] == 1


class TestConcurrentSnapshotIsolation:
    """The differential read/write check: pinned reads are immovable."""

    BATCHES = [
        [(f"student_{i}", "rdf:type", "Student"), (f"student_{i}", "takesCourse", f"course_{i % 3}")]
        for i in range(12)
    ]

    def test_readers_see_only_published_prefixes(self):
        graph = small_graph()
        view = MaterializedView(graph)
        # watermark -> number of batches applied when it was published
        published = {view.watermark: 0}
        publish_lock = threading.Lock()
        errors = []
        observations = []
        done = threading.Event()

        def writer():
            try:
                for count, batch in enumerate(self.BATCHES, start=1):
                    view.push(batch)
                    with publish_lock:
                        published[view.watermark] = count
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set() or len(observations) < 4:
                    with view.read() as snapshot:
                        first = snapshot.query_ids(PERSON)
                        second = snapshot.query_ids(PERSON)
                        # Within one pinned snapshot the answer set cannot
                        # move, whatever the writer does meanwhile.
                        assert first == second
                        observations.append((snapshot.watermark, len(first)))
                    if len(observations) > 400:
                        break
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        view.close()
        assert not errors, errors

        # Every observed watermark is one the writer actually published, and
        # the answer cardinality at that watermark equals a cold recompute of
        # the corresponding push prefix.
        seen_watermarks = {watermark for watermark, _ in observations}
        assert seen_watermarks <= set(published)
        cold_sizes = {}
        for watermark, size in observations:
            count = published[watermark]
            if count not in cold_sizes:
                cold = MaterializedView(graph)
                for batch in self.BATCHES[:count]:
                    cold.push(batch)
                cold_sizes[count] = len(cold.query(PERSON))
                cold.close()
            assert size == cold_sizes[count], (watermark, count)

    def test_concurrent_reads_during_pushes_match_final_oracle(self):
        graph = small_graph()
        view = MaterializedView(graph)
        for batch in self.BATCHES:
            view.push(batch)
        final = view.query(PERSON)
        cold = MaterializedView(graph)
        for batch in self.BATCHES:
            cold.push(batch)
        assert cold.query(PERSON) == final
        view.close()
        cold.close()

    VISITS = [
        [(f"visitor_{i}", "rdf:type", "Student"), (f"visitor_{i}", "worksFor", f"dept_{i % 2}")]
        for i in range(10)
    ]

    def test_retract_under_readers_sees_base_or_the_batch_in_flight(self):
        """Readers racing a push/retract writer get a cold answer or a stale error.

        The writer pushes each batch and retracts it again.  Every read
        equals the cold answer of the base graph or of the base plus a batch
        that was in flight while the read ran, or raises
        :class:`StaleSnapshotError`; any other exception fails the test.
        """
        graph = small_graph()
        reads = [(query, mode) for query in (PERSON, WORKS) for mode in ("U", "All")]

        def answers(view):
            return [view.query(query, mode) for query, mode in reads]

        with MaterializedView(graph) as cold:
            base = answers(cold)
        in_flight = []
        for batch in self.VISITS:
            with MaterializedView(graph) as cold:
                cold.push(batch)
                in_flight.append(answers(cold))

        view = MaterializedView(graph)
        started = [-1]  # index of the last batch the writer began to push
        done = threading.Event()
        errors, stale, checked = [], [], []

        def writer():
            try:
                for index, batch in enumerate(self.VISITS):
                    started[0] = index
                    view.push(batch)
                    view.retract(batch)
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append(exc)
            finally:
                done.set()

        def reader(offset):
            try:
                turn = offset
                while not done.is_set():
                    slot = turn % len(reads)
                    turn += 1
                    first = started[0]
                    try:
                        got = view.query(*reads[slot])
                    except StaleSnapshotError:
                        stale.append(slot)
                        continue
                    last = started[0]
                    allowed = [base[slot]] + [
                        in_flight[index][slot] for index in range(max(first, 0), last + 1)
                    ]
                    assert got in allowed, (slot, first, last)
                    checked.append(slot)
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(offset,)) for offset in (0, 1)
        ]
        # Switch threads every microsecond so reads land inside the
        # retraction's tombstoning phase, not only between writes.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert checked

        with MaterializedView(graph) as cold:
            assert answers(view) == answers(cold) == base
            assert (
                view._session.instance.ground_part().to_set()
                == cold._session.instance.ground_part().to_set()
            )
        view.close()
