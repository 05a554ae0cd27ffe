"""Unit tests for the metrics registry and Prometheus text exposition.

Counter/histogram semantics, label children, idempotent registration,
deterministic rendering (family and label ordering, histogram bucket lines,
scrape-time families), and the JSON ``collect()`` view folded into
``/stats``.  Thread safety of the increment paths is exercised by the
hammer test in ``tests/test_service_metrics.py``.
"""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Family, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_default_child(self, registry):
        counter = registry.counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(4)
        assert counter.labels().value == 5

    def test_negative_inc_rejected(self, registry):
        counter = registry.counter("jobs_total", "Jobs.")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_children_are_independent(self, registry):
        counter = registry.counter("queries_total", "Queries.", ("mode",))
        counter.labels("U").inc()
        counter.labels("U").inc()
        counter.labels("All").inc()
        assert counter.labels("U").value == 2
        assert counter.labels("All").value == 1

    def test_label_arity_mismatch_raises(self, registry):
        counter = registry.counter("queries_total", "Queries.", ("mode",))
        with pytest.raises(ValueError):
            counter.labels("U", "extra")


class TestHistogram:
    def test_observe_fills_cumulative_buckets(self, registry):
        histogram = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.01, 0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        child = histogram.labels()
        assert child.counts == [0, 1, 2]
        assert child.count == 3
        assert child.total == pytest.approx(5.55)

    def test_bucket_determinism(self, registry):
        # The same observation sequence lands in identical buckets on every
        # run: bucket bounds are fixed at creation and sorted.
        observations = [0.0004, 0.003, 0.003, 0.09, 2.0]
        snapshots = []
        for name in ("first", "second"):
            histogram = registry.histogram(f"h_{name}", "H.")
            for value in observations:
                histogram.observe(value)
            snapshots.append(histogram.labels().snapshot())
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["count"] == len(observations)

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        first = registry.counter("x_total", "X.")
        second = registry.counter("x_total", "different help ignored")
        assert first is second

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x_total", "X.")
        with pytest.raises(ValueError):
            registry.histogram("x_total", "X.")

    def test_label_mismatch_raises(self, registry):
        registry.counter("x_total", "X.", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "X.", ("b",))

    def test_reset_zeroes_but_keeps_instruments_usable(self, registry):
        counter = registry.counter("x_total", "X.")
        counter.inc()
        registry.reset()
        assert "x_total" not in registry.render()
        counter.inc()
        assert counter.labels().value == 1
        assert "x_total 1" in registry.render()


class TestRender:
    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""
        registry.counter("unused_total", "Never incremented.")
        assert registry.render() == ""

    def test_counter_and_gauge_lines(self, registry):
        registry.counter("b_total", "B.").inc(2)
        gauge = Family("a_value", "A.", "gauge", (), [((), 1.5)])
        text = registry.render([gauge])
        assert text.endswith("\n")
        assert "# HELP a_value A.\n# TYPE a_value gauge\na_value 1.5\n" in text
        assert "# HELP b_total B.\n# TYPE b_total counter\nb_total 2\n" in text
        # Deterministic ordering: instruments and scraped families sorted
        # by name together.
        assert text.index("a_value") < text.index("b_total")
        # A scraped family is read at render time, never stored.
        assert "a_value" not in registry.render()

    def test_scraped_family_keeps_its_labels_and_order(self, registry):
        family = Family(
            "rows", "Rows.", "gauge", ("predicate",), [(("b",), 2), (("a",), 1)]
        )
        assert registry.render([family]) == (
            '# HELP rows Rows.\n# TYPE rows gauge\nrows{predicate="b"} 2\n'
            'rows{predicate="a"} 1\n'
        )
        assert registry.render([family._replace(samples=[])]) == ""

    def test_labeled_samples_sorted_and_escaped(self, registry):
        counter = registry.counter("q_total", "Q.", ("mode",))
        counter.labels("b").inc()
        counter.labels('a"\n\\').inc()
        text = registry.render()
        escaped = 'q_total{mode="a\\"\\n\\\\"} 1'
        assert escaped in text
        assert text.index(escaped) < text.index('q_total{mode="b"} 1')

    def test_histogram_exposition_shape(self, registry):
        histogram = registry.histogram(
            "lat_seconds", "Latency.", ("mode",), buckets=(0.1, 1.0)
        )
        histogram.labels("U").observe(0.05)
        histogram.labels("U").observe(0.5)
        text = registry.render()
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{mode="U",le="0.1"} 1' in text
        assert 'lat_seconds_bucket{mode="U",le="1"} 2' in text
        assert 'lat_seconds_bucket{mode="U",le="+Inf"} 2' in text
        assert 'lat_seconds_sum{mode="U"} 0.55' in text
        assert 'lat_seconds_count{mode="U"} 2' in text

    def test_unlabeled_histogram_bucket_lines(self, registry):
        histogram = registry.histogram("h_seconds", "H.", buckets=(1.0,))
        histogram.observe(0.5)
        text = registry.render()
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.5" in text

    def test_integer_values_render_integral(self, registry):
        gauge = Family("g_value", "G.", "gauge", (), [((), 3.0)])
        assert "g_value 3\n" in registry.render([gauge])


class TestCollect:
    def test_collect_shape(self, registry):
        registry.counter("c_total", "C.", ("k",)).labels("v").inc(2)
        registry.histogram("h_seconds", "H.", buckets=(1.0,)).observe(0.5)
        document = registry.collect()
        assert document["c_total"]["type"] == "counter"
        assert document["c_total"]["values"] == {'{k="v"}': 2}
        histogram = document["h_seconds"]["values"][""]
        assert histogram["count"] == 1
        assert histogram["buckets"] == {"1": 1}

    def test_collect_is_json_able(self, registry):
        import json

        registry.counter("c_total", "C.").inc()
        json.dumps(registry.collect())
