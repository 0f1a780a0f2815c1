"""Integration tests for repro.core.pipeline."""

import pytest

from repro.core.pipeline import run_characterization, run_pattern_analysis
from repro.periodicity.detector import DetectorConfig


@pytest.fixture(scope="module")
def characterization(request):
    short_dataset = request.getfixturevalue("short_dataset")
    categories = {d.name: d.category.value for d in short_dataset.domains}
    return run_characterization(short_dataset.logs, categories)


class TestCharacterizationReport:
    def test_summary_covers_all_logs(self, characterization, short_dataset):
        assert characterization.summary.total_logs == len(short_dataset.logs)

    def test_traffic_source_json_only(self, characterization, short_dataset):
        json_count = sum(1 for r in short_dataset.logs if r.is_json)
        assert characterization.traffic_source.total_requests == json_count

    def test_size_comparison_available(self, characterization):
        comparison = characterization.size_comparison
        assert comparison is not None
        assert comparison.smaller_at_p75 > comparison.smaller_at_p50

    def test_render_mentions_every_artifact(self, characterization):
        text = characterization.render("short-term")
        for marker in ("Table 2", "Figure 3", "Figure 4", "headline"):
            assert marker in text

    def test_render_includes_device_rows(self, characterization):
        text = characterization.render()
        for device in ("mobile", "desktop", "embedded", "unknown"):
            assert device in text


class TestPatternReport:
    @pytest.fixture(scope="class")
    def patterns(self, request):
        long_dataset = request.getfixturevalue("long_dataset")
        # Few permutations: keep the integration test fast; accuracy
        # of thresholds is covered by detector unit tests.
        return run_pattern_analysis(
            long_dataset.logs,
            detector_config=DetectorConfig(permutations=25),
        )

    def test_periodicity_detected(self, patterns):
        assert patterns.periodicity.periodic_request_fraction > 0.0

    def test_ngram_cells_present(self, patterns):
        assert (1, 1, False) in patterns.ngram
        assert (1, 10, True) in patterns.ngram

    def test_render_mentions_artifacts(self, patterns):
        text = patterns.render()
        assert "§5.1" in text
        assert "Table 3" in text

    def test_clustered_accuracy_reported(self, patterns):
        result = patterns.ngram[(1, 10, True)]
        assert 0.5 < result.accuracy <= 1.0


class TestBenchmarkCallingConvention:
    """The calls the benchmark harness makes, pinned here so a refactor
    that breaks them fails tier-1 instead of the benchmark run.  The
    harness itself is not imported."""

    ENGINE = dict(
        logs_dir="parts/", workers=2, backend="auto", num_shards=8, with_stats=True
    )

    def test_engine_pipelines_take_the_harness_keywords(self):
        import inspect

        from repro.core import pipeline

        for function, extra in (
            (pipeline.run_characterization_parallel, {}),
            (pipeline.run_periodicity_parallel, {"detector_config": DetectorConfig()}),
            (pipeline.run_ngram_parallel, {"ns": (1,), "ks": (1, 5, 10)}),
        ):
            inspect.signature(function).bind(**self.ENGINE, **extra)

    def test_serial_pipelines_take_the_harness_arguments(self):
        import inspect

        inspect.signature(run_characterization).bind([])
        inspect.signature(run_pattern_analysis).bind(
            [], detector_config=DetectorConfig(), ngram_ns=(1,), ngram_ks=(1, 5, 10)
        )

    def test_stream_config_and_service_take_the_harness_arguments(self):
        import inspect

        from repro.stream import StreamConfig, StreamService

        config = StreamConfig(
            window_s=300.0,
            watermark_lag_s=60.0,
            detector_config=DetectorConfig(permutations=5),
            detect_periods=True,
            predict_urls=True,
            ingest_workers=1,
            checkpoint_dir=None,
        )
        inspect.signature(StreamService).bind(config, on_snapshot=print)

    def test_obs_runtime_entry_points(self):
        import inspect

        from repro.obs import runtime

        inspect.signature(runtime.active).bind()
        inspect.signature(runtime.installed).bind(None)
