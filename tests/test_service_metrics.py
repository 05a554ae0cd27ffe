"""Service observability: /metrics e2e, /stats read at request time, readers.

Four concerns:

* the reader path — concurrent queries never reach an engine counter site
  (the matcher entry points raise off the main thread here, and ``STATS``
  stays put) and lose no ``queries_served`` increments (serialized in
  :meth:`MaterializedView.record_query`);
* one counter store — ``stats()`` and ``metrics_text()`` read the view,
  :meth:`MaterializedView.maintenance` and ``STATS`` when asked, with no
  scrape needed first;
* the maintenance surface — tombstone ratios, term-table size, pinned
  readers — in ``stats()`` and the Prometheus gauges;
* the exposition itself, its pinned family list, and the endpoint fetched
  over a real socket from a live :class:`QueryService`.
"""

import json
import re
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine import index as engine_index
from repro.engine.plan import CompiledRule, JoinPlan
from repro.engine.stats import STATS
from repro.service.view import MaterializedView
from repro.workloads.ontologies import university_graph

from test_service_http import ServiceClient

QUERY = "SELECT ?X WHERE { ?X rdf:type Student }"
READER_QUERIES = (
    QUERY,
    "SELECT ?X WHERE { ?X worksFor _:B }",
    "SELECT ?X ?Y WHERE { ?X rdf:type Student OPTIONAL { ?X takesCourse ?Y } }",
)


@pytest.fixture
def view():
    materialized = MaterializedView(
        university_graph(n_departments=1, students_per_department=4)
    )
    yield materialized
    materialized.close()


@pytest.fixture
def matchers_raise_off_main_thread(monkeypatch):
    """Make every engine matcher entry point raise on any thread but main.

    Those are the only roads to a counter site, so a reader that reaches
    one fails loudly instead of racing the writer's ``STATS``.
    """
    main = threading.main_thread()
    for owner, name in (
        (JoinPlan, "rows"),
        (CompiledRule, "trigger_row_batches"),
    ):
        original = getattr(owner, name)

        def guarded(*args, _original=original, _name=f"{owner.__name__}.{name}", **kwargs):
            if threading.current_thread() is not main:
                raise AssertionError(f"{_name} ran on a reader thread")
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, guarded)


class TestReadersReachNoCounterSite:
    def test_concurrent_view_and_http_reads(self, matchers_raise_off_main_thread):
        graph = university_graph(n_departments=1, students_per_department=4)
        client = ServiceClient(graph)
        view = MaterializedView(graph)
        stats_before = STATS.snapshot()
        errors = []

        def read_view():
            try:
                for text in READER_QUERIES:
                    for mode in ("U", "All"):
                        assert view.query(text, mode)
                view.stats()
                view.metrics_text()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read_http():
            try:
                for text in READER_QUERIES:
                    for mode in ("U", "All"):
                        answer = client.query(text, mode)
                        assert answer["cardinality"] > 0
                client.get("/stats")
                with urllib.request.urlopen(client.base + "/metrics", timeout=60):
                    pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [threading.Thread(target=read_view) for _ in range(2)]
            threads += [threading.Thread(target=read_http) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            client.close()
            view.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert STATS.snapshot() == stats_before

    def test_canary_engine_work_off_the_main_thread_is_caught(
        self, view, matchers_raise_off_main_thread
    ):
        errors = []

        def match_on_a_reader():
            try:
                view.push([("canary", "rdf:type", "Student")])
            except AssertionError as exc:
                errors.append(exc)

        thread = threading.Thread(target=match_on_a_reader)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert errors, "the guard must catch engine matching off the main thread"


def scrape(text):
    """The sample lines of an exposition as ``{series: value}``."""
    return {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line and not line.startswith("#")
    }


#: Every family ``/metrics`` emits after a query, a push and a retract:
#: name -> (``# TYPE`` kind, label names; ``le`` is the histogram bucket's).
EXPOSITION_FAMILIES = {
    **{
        f"repro_engine_{name}_total": ("counter", ())
        for name in (
            "batch_probe_groups", "compactions", "facts_added", "nulls_collected",
            "nulls_invented", "pivots_skipped", "rederived", "retractions",
            "triggers_fired",
        )
    },
    "repro_predicate_live_rows": ("gauge", ("predicate",)),
    "repro_predicate_tombstone_ratio": ("gauge", ("predicate",)),
    "repro_queries_total": ("counter", ("mode",)),
    "repro_query_seconds": ("histogram", ("mode",)),
    "repro_snapshot_readers_pinned": ("gauge", ()),
    "repro_term_table_constants": ("gauge", ()),
    "repro_term_table_nulls": ("gauge", ()),
    "repro_term_table_orphaned_nulls": ("gauge", ()),
    "repro_view_consistent": ("gauge", ()),
    "repro_view_epoch": ("gauge", ()),
    "repro_view_facts": ("gauge", ()),
    "repro_view_watermark": ("gauge", ()),
    "repro_write_seconds": ("histogram", ("op",)),
    "repro_writes_total": ("counter", ("op",)),
}


class TestOneCounterStore:
    """``/stats`` and ``/metrics`` read their numbers when asked."""

    def test_stats_reads_the_view_and_stats_without_a_scrape(self, view):
        view.push([("extra", "rdf:type", "Student")])
        document = view.stats()
        assert document["facts"] == len(view)
        assert document["engine"] == STATS.snapshot()
        assert document["maintenance"]["term_table"]["epoch"] == view.epoch
        assert "term_table" not in document
        assert not any(
            name.startswith(("repro_view_", "repro_engine_"))
            for name in document["metrics"]
        )

    def test_metrics_text_reports_the_same_numbers(self, view):
        view.push([("extra", "rdf:type", "Student")])
        series = scrape(view.metrics_text())
        document = view.stats()
        assert series["repro_view_facts"] == document["facts"] == len(view)
        assert series["repro_view_watermark"] == document["watermark"]
        for name, value in document["engine"].items():
            assert series[f"repro_engine_{name}_total"] == value
        view.push([("another", "rdf:type", "Student")])
        assert scrape(view.metrics_text())["repro_view_facts"] == len(view)

    def test_exposition_keeps_every_family(self, view):
        view.query(QUERY)
        fact = ("extra", "rdf:type", "Student")
        view.push([fact])
        view.retract([fact])
        text = view.metrics_text()
        kinds = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
        labels = {}
        for series in scrape(text):
            name, _, rest = series.partition("{")
            if name not in kinds:
                name = re.sub(r"_(bucket|sum|count)$", "", name)
            names = tuple(
                label for label in re.findall(r'(\w+)="', rest) if label != "le"
            )
            labels.setdefault(name, set()).add(names)
        assert {
            name: (kind, *labels[name]) for name, kind in kinds.items()
        } == {name: (kind, names) for name, (kind, names) in EXPOSITION_FAMILIES.items()}


class TestQueryAccountingRace:
    def test_hammering_readers_lose_no_counts_and_leave_stats_alone(self, view):
        """Regression: racing readers must not lose ``queries_served`` counts.

        Before the fix, ``queries_served += 1`` ran unserialized on every
        reader thread (a lost-update race).  Shrinking the switch interval
        makes the preemption window easy to hit.  Reads never touch
        ``STATS``.
        """
        n_threads, per_thread = 8, 40
        view.slow_query_ms = float("inf")
        served_before = view.queries_served
        stats_before = STATS.snapshot()
        start_barrier = threading.Barrier(n_threads)
        errors = []

        def hammer():
            try:
                start_barrier.wait(timeout=30)
                for _ in range(per_thread):
                    view.query(QUERY)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)

        assert not errors
        assert view.queries_served - served_before == n_threads * per_thread
        assert STATS.snapshot() == stats_before


class TestSlowQueryLog:
    def test_slow_queries_logged_with_attribution(self, view):
        view.slow_query_ms = 0.0
        view.query(QUERY)
        entries = view.stats()["slow_queries"]
        assert entries, "a 0ms threshold must log every query"
        entry = entries[-1]
        assert entry["mode"] == "U"
        assert entry["ms"] >= 0
        assert entry["watermark"] == view.watermark
        assert entry["epoch"] == view.epoch
        assert "Student" in entry["query"]

    def test_fast_queries_stay_out_of_the_log(self, view):
        view.slow_query_ms = float("inf")
        before = len(view.stats()["slow_queries"])
        view.query(QUERY)
        assert len(view.stats()["slow_queries"]) == before

    def test_log_is_bounded(self, view):
        view.slow_query_ms = 0.0
        for _ in range(40):
            view.query(QUERY)
        assert len(view.stats()["slow_queries"]) <= 32


class TestMaintenanceSurface:
    def test_stats_carries_maintenance_and_metrics(self, view):
        view.query(QUERY)
        document = view.stats()
        health = document["maintenance"]
        assert health["readers_pinned"] == 0
        assert health["term_table"]["epoch"] == view.epoch
        triple = health["predicates"]["triple"]
        assert triple["live"] > 0
        assert triple["tombstone_ratio"] == 0.0
        assert "repro_queries_total" in document["metrics"]
        json.dumps(document)

    def test_retraction_raises_tombstone_ratio(self, view):
        retractable = ("student_0_0", "rdf:type", "Student")
        view.push([retractable])
        view.retract([retractable])
        health = view.maintenance()
        assert any(
            entry["tombstone_ratio"] > 0
            for entry in health["predicates"].values()
        )

    def test_readers_pinned_counts_active_reads(self, view):
        with view.read():
            assert view.maintenance()["readers_pinned"] == 1
        assert view.maintenance()["readers_pinned"] == 0

    def test_compactions_surface_per_predicate(self, view, monkeypatch):
        health = view.maintenance()
        assert all(
            entry["compactions"] == 0 for entry in health["predicates"].values()
        )
        # Force the ratio low enough that churning a batch of fresh triples
        # in and out trips compaction, then check the per-predicate counts
        # both surface and reconcile with the lane going clean again.  The
        # retraction goes in small bites: evicting the whole batch at once
        # trips the degeneration guard instead (cold rebuild, fresh lanes,
        # nothing to compact).
        churn = [(f"tmp_{i}", "rdf:type", "Student") for i in range(600)]
        monkeypatch.setattr(engine_index, "COMPACT_RATIO", 0.05)
        view.push(churn)
        for k in range(0, len(churn), 40):
            view.retract(churn[k : k + 40])
        health = view.maintenance()
        compacted = {
            predicate: entry
            for predicate, entry in health["predicates"].items()
            if entry["compactions"] > 0
        }
        assert compacted, "forced-low ratio never compacted a lane"
        for entry in compacted.values():
            assert entry["tombstone_ratio"] <= 0.05


class TestMetricsText:
    def test_exposition_contains_view_and_engine_series(self, view):
        view.slow_query_ms = float("inf")
        view.query(QUERY)
        text = view.metrics_text()
        assert "# TYPE repro_query_seconds histogram" in text
        assert '# TYPE repro_queries_total counter' in text
        assert 'repro_queries_total{mode="U"}' in text
        assert "repro_view_facts " in text
        assert "repro_view_consistent 1" in text
        assert "repro_snapshot_readers_pinned 0" in text
        assert "repro_term_table_constants " in text
        assert 'repro_predicate_live_rows{predicate="triple"}' in text
        assert "repro_engine_triggers_fired_total " in text

    def test_write_metrics_accumulate(self, view):
        text_before = view.metrics_text()
        view.push([("extra", "rdf:type", "Student")])
        text = view.metrics_text()
        assert 'repro_writes_total{op="push"}' in text
        assert 'repro_write_seconds_count{op="push"}' in text
        assert text_before != text


class TestMetricsEndpoint:
    @pytest.fixture(scope="class")
    def client(self):
        service_client = ServiceClient(
            university_graph(n_departments=1, students_per_department=3)
        )
        yield service_client
        service_client.close()

    def test_metrics_served_as_prometheus_text(self, client):
        client.query(QUERY)
        with urllib.request.urlopen(client.base + "/metrics", timeout=60) as response:
            content_type = response.headers.get("Content-Type", "")
            body = response.read().decode()
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_query_seconds histogram" in body
        assert 'repro_queries_total{mode="U"}' in body
        for line in body.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_metrics_rejects_post(self, client):
        request = urllib.request.Request(
            client.base + "/metrics", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        excinfo.value.close()
        assert excinfo.value.code == 405

    def test_http_queries_count_into_stats_and_metrics(self, client):
        before = client.get("/stats")["queries_served"]
        client.query(QUERY)
        client.query(QUERY)
        after = client.get("/stats")
        assert after["queries_served"] == before + 2
        assert "repro_queries_total" in after["metrics"]
