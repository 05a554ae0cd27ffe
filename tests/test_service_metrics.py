"""Service observability: /metrics e2e, stats fold-in, and the STATS race.

Three concerns:

* the reader-path regression — concurrent queries must neither corrupt the
  process-global engine counter blob (reader threads bind a thread-local
  scratch blob) nor lose ``queries_served`` increments (serialized in
  :meth:`MaterializedView.record_query`);
* the maintenance surface — tombstone ratios, term-table size, pinned
  readers — in ``stats()`` and the Prometheus gauges;
* the exposition itself, fetched over a real socket from a live
  :class:`QueryService`.
"""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine import index as engine_index
from repro.engine.stats import STATS, active_stats, local_stats
from repro.service.view import MaterializedView
from repro.workloads.ontologies import university_graph

from test_service_http import ServiceClient

QUERY = "SELECT ?X WHERE { ?X rdf:type Student }"


@pytest.fixture
def view():
    materialized = MaterializedView(
        university_graph(n_departments=1, students_per_department=4)
    )
    yield materialized
    materialized.close()


class TestLocalStats:
    def test_active_stats_defaults_to_global(self):
        assert active_stats() is STATS

    def test_local_stats_binds_and_restores(self):
        with local_stats() as scratch:
            assert active_stats() is scratch
            with local_stats() as nested:
                assert active_stats() is nested
            assert active_stats() is scratch
        assert active_stats() is STATS

    def test_read_scope_shields_global_blob(self, view):
        before = STATS.snapshot()
        with view.read():
            active_stats().pivots_skipped += 100
        assert STATS.snapshot() == before


class TestQueryAccountingRace:
    def test_hammering_readers_lose_no_counts_and_leave_stats_alone(self, view):
        """Regression: racing readers must not corrupt counters.

        Before the fix, ``queries_served += 1`` ran unserialized on every
        reader thread (a lost-update race) and reader-side engine work hit
        the process-global STATS blob.  Shrinking the switch interval makes
        the preemption window easy to hit.
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
        assert excinfo.value.code == 405

    def test_http_queries_count_into_stats_and_metrics(self, client):
        before = client.get("/stats")["queries_served"]
        client.query(QUERY)
        client.query(QUERY)
        after = client.get("/stats")
        assert after["queries_served"] == before + 2
        assert "repro_queries_total" in after["metrics"]
