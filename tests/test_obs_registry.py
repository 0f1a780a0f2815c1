"""Unit tests for repro.obs: sketch, registry, runtime, spans, export."""

import json
import math
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import runtime
from repro.obs.registry import MetricsRegistry, render_key
from repro.obs.sketch import QuantileSketch


@pytest.fixture(autouse=True)
def _no_ambient_registry():
    # Tests must not leak an installed registry into each other.
    runtime.install(None)
    yield
    runtime.install(None)


class TestQuantileSketch:
    def test_exact_fields(self):
        sketch = QuantileSketch().update([0.5, 1.0, 2.0])
        assert sketch.count == 3
        assert sketch.total == pytest.approx(3.5)
        assert sketch.min == 0.5
        assert sketch.max == 2.0
        assert sketch.mean == pytest.approx(3.5 / 3)

    def test_quantiles_clamped_to_observed_range(self):
        sketch = QuantileSketch().update([1.0] * 100)
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 1.0

    def test_quantile_relative_error_bound(self):
        values = [0.001 * (i + 1) for i in range(5000)]
        sketch = QuantileSketch().update(values)
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = values[int(q * (len(values) - 1))]
            assert sketch.quantile(q) == pytest.approx(
                exact, rel=sketch.growth - 1.0 + 1e-9
            )

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-5, max_value=1e9), min_size=1, max_size=300
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_error_bound_property(self, values, q):
        """Documented bound: for positive values above ``min_value``,
        ``quantile(q)`` is within relative ``growth - 1`` of the
        order statistic at rank ``floor(q * (n - 1))``."""
        sketch = QuantileSketch().update(values)
        exact = sorted(values)[math.floor(q * (len(values) - 1))]
        assert sketch.quantile(q) == pytest.approx(
            exact, rel=sketch.growth - 1.0 + 1e-9
        )

    def test_nonpositive_values_counted_not_crashed(self):
        sketch = QuantileSketch().update([-1.0, 0.0, 1.0])
        assert sketch.count == 3
        assert sketch.nonpositive == 2
        assert sketch.min == -1.0
        assert sketch.quantile(0.0) == -1.0

    def test_merge_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bucket grids"):
            QuantileSketch().merge(QuantileSketch(growth=2.0))

    def test_empty_sketch_queries(self):
        empty = QuantileSketch()
        assert empty.summary() == {"count": 0}
        with pytest.raises(ValueError):
            empty.quantile(0.5)

    def test_dict_roundtrip(self):
        sketch = QuantileSketch().update([0.01, 0.5, 3.0, 3.0])
        clone = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict()))
        )
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(0.5) == sketch.quantile(0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(growth=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(min_value=0.0)


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.inc("a.count", 4)
        registry.set_gauge("a.depth", 7.0)
        registry.max_gauge("a.peak", 3.0)
        registry.max_gauge("a.peak", 2.0)
        registry.observe("a.seconds", 0.25)
        snap = registry.snapshot()
        assert snap["counters"]["a.count"] == 5
        assert snap["gauges"]["a.depth"] == 7.0
        assert snap["gauges"]["a.peak"] == 3.0
        assert snap["histograms"]["a.seconds"]["count"] == 1

    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("hits", 1, shard="a")
        registry.inc("hits", 2, shard="b")
        snap = registry.snapshot()["counters"]
        assert snap['hits{shard="a"}'] == 1
        assert snap['hits{shard="b"}'] == 2

    def test_label_named_like_parameter_is_fine(self):
        # Positional-only mutator params: a label literally called
        # "name" or "value" must not collide with the signature.
        registry = MetricsRegistry()
        registry.inc("spans", 1, name="seal", value="x")
        assert registry.snapshot()["counters"][
            'spans{name="seal",value="x"}'
        ] == 1

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="is a counter"):
            registry.observe("x", 1.0)

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().inc("x", -1)

    def test_span_buffer_bounded_with_counted_overflow(self):
        registry = MetricsRegistry(max_spans=2)
        for i in range(5):
            registry.record_span({"name": f"s{i}"})
        assert len(registry.spans) == 2
        assert registry.snapshot()["counters"]["obs.spans_dropped"] == 3

    def test_merge_does_not_alias_source_metrics(self):
        source = MetricsRegistry()
        source.inc("x", 5)
        source.observe("h", 1.0)
        merged = MetricsRegistry().merge(source)
        merged.inc("x", 1)
        merged.observe("h", 2.0)
        assert source.snapshot()["counters"]["x"] == 5
        assert source.snapshot()["histograms"]["h"]["count"] == 1

    def test_deterministic_snapshot_drops_timing_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("engine.shards_mapped")
        registry.observe("engine.shard_seconds", 0.5)
        registry.observe("engine.shard_records", 100)
        registry.set_gauge("ingest.queue_depth", 3)
        snap = registry.deterministic_snapshot()
        assert "engine.shards_mapped" in snap["counters"]
        assert "engine.shard_records" in snap["histograms"]
        assert "engine.shard_seconds" not in snap["histograms"]
        assert "gauges" not in snap

    def test_pickle_roundtrip_rebuilds_lock(self):
        registry = MetricsRegistry()
        registry.inc("x")
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        clone.inc("x")  # the fresh lock works
        assert clone.snapshot()["counters"]["x"] == 2

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.inc("hits")
                registry.observe("lat", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 8000
        assert snap["histograms"]["lat"]["count"] == 8000


class TestRuntime:
    def test_disabled_helpers_are_no_ops(self):
        assert runtime.active() is None
        runtime.inc("x")
        runtime.observe("x.seconds", 1.0)
        runtime.set_gauge("g", 1.0)
        runtime.record_span({"name": "s"})
        # Nothing was recorded anywhere — there is nowhere to record.

    def test_installed_scopes_the_registry(self):
        registry = MetricsRegistry()
        with obs.installed(registry):
            assert runtime.active() is registry
            runtime.inc("x")
        assert runtime.active() is None
        assert registry.snapshot()["counters"]["x"] == 1

    def test_installed_none_is_plain_passthrough(self):
        with obs.installed(None):
            assert runtime.active() is None

    def test_shard_scope_overrides_per_thread(self):
        ambient = MetricsRegistry()
        shard = MetricsRegistry()
        seen = {}

        def worker():
            with runtime.shard_scope(shard):
                runtime.inc("worker.x")
                seen["inside"] = runtime.active()

        with obs.installed(ambient):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            # The override was thread-local: this thread still sees
            # the ambient registry.
            assert runtime.active() is ambient
        assert seen["inside"] is shard
        assert shard.snapshot()["counters"]["worker.x"] == 1
        assert "worker.x" not in ambient.snapshot()["counters"]


class TestSpans:
    def test_span_records_timing_and_tags(self):
        registry = MetricsRegistry()
        with obs.installed(registry):
            with obs.span("stage", shard=3):
                pass
        (record,) = registry.spans
        assert record["name"] == "stage"
        assert record["status"] == "ok"
        assert record["tags"] == {"shard": "3"}
        assert record["seconds"] >= 0.0
        snap = registry.snapshot()
        assert snap["counters"]['obs.spans{name="stage"}'] == 1

    def test_span_error_status_and_propagation(self):
        registry = MetricsRegistry()
        with obs.installed(registry):
            with pytest.raises(RuntimeError):
                with obs.span("stage"):
                    raise RuntimeError("boom")
        (record,) = registry.spans
        assert record["status"] == "error:RuntimeError"

    def test_span_without_registry_is_silent(self):
        with obs.span("stage"):
            pass  # must not raise, must not record


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("engine.shards_mapped", 8)
        registry.inc("obs.spans", 3, name="seal")
        registry.set_gauge("ingest.queue_depth", 12)
        for value in (0.01, 0.02, 0.04):
            registry.observe("engine.shard_seconds", value)
        return registry

    def test_prometheus_text_shape(self):
        text = obs.to_prometheus_text(self._registry())
        assert "# TYPE engine_shards_mapped counter" in text
        assert "engine_shards_mapped 8" in text
        assert 'obs_spans{name="seal"} 3' in text
        assert "# TYPE ingest_queue_depth gauge" in text
        assert "# TYPE engine_shard_seconds summary" in text
        assert "engine_shard_seconds_count 3" in text
        assert 'engine_shard_seconds{quantile="0.5"}' in text

    def test_write_metrics_json_and_prom(self, tmp_path):
        registry = self._registry()
        json_path = tmp_path / "out" / "metrics.json"
        prom_path = tmp_path / "out" / "metrics.prom"
        obs.write_metrics(registry, json_path)
        obs.write_metrics(registry, prom_path)
        snap = json.loads(json_path.read_text())
        assert snap["counters"]["engine.shards_mapped"] == 8
        assert "# TYPE" in prom_path.read_text()

    def test_write_spans_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        with obs.installed(registry):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        path = tmp_path / "spans.jsonl"
        obs.write_spans_jsonl(registry, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]


class TestRenderKey:
    def test_plain_and_labeled(self):
        assert render_key(("x", ())) == "x"
        assert (
            render_key(("x", (("a", "1"), ("b", "2"))))
            == 'x{a="1",b="2"}'
        )
