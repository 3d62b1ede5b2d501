"""Unit tests for the online analysis pipeline and case-study builders (repro.pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MrDMDConfig
from repro.core.baseline import ZScoreCategory
from repro.pipeline import (
    OnlineAnalysisPipeline,
    PipelineConfig,
    build_case_study_1,
    build_case_study_2,
    build_node_down_scenario,
)


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.baseline_range == (46.0, 57.0)
        assert config.zscore_near == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(power_quantile=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(baseline_range=(10.0, 5.0))
        with pytest.raises(ValueError):
            PipelineConfig(zscore_near=2.0, zscore_extreme=1.0)


@pytest.fixture(scope="module")
def pipeline_and_stream(small_stream):
    config = PipelineConfig(mrdmd=MrDMDConfig(max_levels=4), baseline_range=(46.0, 57.0))
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, config)
    pipeline.ingest(small_stream.values[:, :300])
    pipeline.ingest(small_stream.values[:, 300:])
    return pipeline, small_stream


class TestOnlinePipeline:
    def test_ingest_snapshots(self, small_stream):
        pipeline = OnlineAnalysisPipeline.from_stream(
            small_stream, PipelineConfig(mrdmd=MrDMDConfig(max_levels=3))
        )
        first = pipeline.ingest(small_stream.values[:, :300])
        assert first.update is None
        assert first.n_snapshots == 300
        second = pipeline.ingest(small_stream.values[:, 300:])
        assert second.update is not None
        assert second.n_snapshots == small_stream.n_timesteps
        assert second.reconstruction_error is not None

    def test_spectrum_and_reconstruction(self, pipeline_and_stream):
        pipeline, stream = pipeline_and_stream
        spectrum = pipeline.spectrum(label="test")
        assert spectrum.n_modes > 0
        recon = pipeline.reconstruction()
        assert recon.shape == stream.values.shape
        report = pipeline.reconstruction_report(stream.values)
        assert report.frobenius > 0
        assert report.relative < 0.2

    def test_zscores_detect_injected_hot_nodes(self, pipeline_and_stream):
        pipeline, stream = pipeline_and_stream
        node_scores = pipeline.node_zscores()
        hot = set(int(n) for n in node_scores.hot_nodes())
        assert {5, 6}.issubset(hot)

    def test_rack_values_dictionary(self, pipeline_and_stream):
        pipeline, _ = pipeline_and_stream
        values = pipeline.rack_values()
        assert isinstance(values, dict)
        assert len(values) == 64
        assert all(np.isfinite(v) for v in values.values())

    def test_alignment_report(self, pipeline_and_stream, small_hwlog, small_joblog):
        pipeline, _ = pipeline_and_stream
        report = pipeline.alignment_report(hwlog=small_hwlog, joblog=small_joblog)
        assert report.hardware is not None
        assert report.jobs is not None
        assert report.node_scores.node_indices.size == 64

    def test_node_zscores_requires_mapping(self, small_stream):
        pipeline = OnlineAnalysisPipeline(
            dt=small_stream.dt, config=PipelineConfig(mrdmd=MrDMDConfig(max_levels=3))
        )
        pipeline.ingest(small_stream.values[:, :300])
        with pytest.raises(RuntimeError):
            pipeline.node_zscores()

    def test_time_range_scoring(self, pipeline_and_stream):
        pipeline, stream = pipeline_and_stream
        early = pipeline.node_zscores(time_range=(0, 150))
        late = pipeline.node_zscores(time_range=(450, stream.n_timesteps))
        # Node 5 becomes hot only after step 200.
        idx = int(np.where(early.node_indices == 5)[0][0])
        assert late.zscores[idx] > early.zscores[idx]

    def test_power_quantile_filtering(self, small_stream):
        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), power_quantile=0.5
        )
        pipeline = OnlineAnalysisPipeline.from_stream(small_stream, config)
        pipeline.ingest(small_stream.values[:, :300])
        full = OnlineAnalysisPipeline.from_stream(
            small_stream, PipelineConfig(mrdmd=MrDMDConfig(max_levels=3))
        )
        full.ingest(small_stream.values[:, :300])
        assert pipeline.spectrum().n_modes <= full.spectrum().n_modes

    def test_power_quantile_threshold_is_cached_per_revision(self, small_stream):
        import numpy as _np
        from repro.core.spectrum import MrDMDSpectrum

        config = PipelineConfig(mrdmd=MrDMDConfig(max_levels=3), power_quantile=0.5)
        pipeline = OnlineAnalysisPipeline.from_stream(small_stream, config)
        pipeline.ingest(small_stream.values[:, :300])

        expected = float(
            _np.quantile(MrDMDSpectrum(pipeline.model.tree).power, 0.5)
        )
        assert pipeline._min_power_threshold() == expected
        revision = pipeline.model.tree.revision
        # Repeated calls hit the cache: same tree/revision recorded, same value.
        ref, rev, quantile, value = pipeline._min_power_cache
        assert ref() is pipeline.model.tree
        assert (rev, quantile, value) == (revision, 0.5, expected)
        assert pipeline._min_power_threshold() == expected
        assert pipeline.model.tree.revision == revision

        # An update edits the tree, bumping the revision and the threshold.
        pipeline.ingest(small_stream.values[:, 300:450])
        assert pipeline.model.tree.revision > revision
        refreshed = float(
            _np.quantile(MrDMDSpectrum(pipeline.model.tree).power, 0.5)
        )
        assert pipeline._min_power_threshold() == refreshed
        assert pipeline._min_power_cache[1] == pipeline.model.tree.revision

    def test_threshold_cache_survives_refresh_swapping_trees(self, small_stream):
        # refresh() installs a brand-new tree whose revision counter
        # restarts; the cache must miss even when the counters collide.
        import numpy as _np
        from repro.core.spectrum import MrDMDSpectrum

        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), power_quantile=0.5, retain_data="all"
        )
        pipeline = OnlineAnalysisPipeline.from_stream(small_stream, config)
        pipeline.ingest(small_stream.values[:, :300])
        pipeline.ingest(small_stream.values[:, 300:450])
        pipeline._min_power_threshold()  # populate the cache

        pipeline.model.refresh()
        expected = float(
            _np.quantile(MrDMDSpectrum(pipeline.model.tree).power, 0.5)
        )
        assert pipeline._min_power_threshold() == expected

    def test_cached_spectrum_matches_uncached_semantics(self, small_stream):
        from repro.core.spectrum import MrDMDSpectrum

        config = PipelineConfig(mrdmd=MrDMDConfig(max_levels=3), power_quantile=0.5)
        pipeline = OnlineAnalysisPipeline.from_stream(small_stream, config)
        pipeline.ingest(small_stream.values[:, :300])
        pipeline.ingest(small_stream.values[:, 300:450])

        cached = pipeline.spectrum()
        reference = MrDMDSpectrum(pipeline.model.tree).high_power_modes(0.5)
        assert cached.n_modes == reference.n_modes
        assert np.array_equal(cached.power, reference.power)
        assert np.array_equal(cached.frequencies, reference.frequencies)


class TestWindowedProductsAndBaseline:
    def _fresh_pipeline(self, stream, **config_overrides):
        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=4),
            baseline_range=(46.0, 57.0),
            **config_overrides,
        )
        pipeline = OnlineAnalysisPipeline.from_stream(stream, config)
        pipeline.ingest(stream.values[:, :300])
        pipeline.ingest(stream.values[:, 300:])
        return pipeline

    def test_windowed_reconstruction_matches_slice(self, small_stream):
        pipeline = self._fresh_pipeline(small_stream)
        full = pipeline.reconstruction()
        for lo, hi in [(0, 50), (250, 350), (500, 600)]:
            windowed = pipeline.reconstruction(time_range=(lo, hi))
            assert windowed.shape == (full.shape[0], hi - lo)
            assert np.allclose(windowed, full[:, lo:hi], rtol=1e-12, atol=1e-12)

    def test_windowed_zscores_match_full_reconstruction_scoring(self, small_stream):
        pipeline = self._fresh_pipeline(small_stream)
        baseline = pipeline.fit_baseline()
        windowed = pipeline.zscores(time_range=(450, 600))
        reference = baseline.score(
            pipeline.reconstruction(), reducer="mean", time_range=(450, 600)
        )
        assert np.allclose(windowed.zscores, reference.zscores, rtol=1e-12, atol=1e-12)

    def test_empty_time_range_rejected(self, small_stream):
        pipeline = self._fresh_pipeline(small_stream)
        with pytest.raises(ValueError, match="selects no columns"):
            pipeline.zscores(time_range=(600, 600))

    # -- baseline staleness (regression: the baseline used to be fitted
    # once, lazily, and never refreshed as more data streamed in) -------- #
    def test_stale_baseline_is_refit_by_default(self, small_stream):
        pipeline = self._fresh_pipeline(small_stream)
        pipeline.zscores()  # lazy first fit
        first = pipeline._baseline
        assert not pipeline.baseline_is_stale()
        pipeline.ingest(small_stream.values[:, 300:400])
        assert pipeline.baseline_is_stale()
        pipeline.zscores()
        assert pipeline._baseline is not first, "stale baseline must be refit"
        assert not pipeline.baseline_is_stale()

    def test_pinned_baseline_survives_updates(self, small_stream):
        pipeline = self._fresh_pipeline(small_stream)
        pinned = pipeline.fit_baseline(small_stream.values[:, :300])
        pipeline.ingest(small_stream.values[:, 300:400])
        pipeline.zscores()
        assert pipeline._baseline is pinned, "explicit-data baselines never auto-refit"

    def test_refit_replays_the_original_spec(self, small_stream):
        pipeline = self._fresh_pipeline(small_stream)
        pipeline.fit_baseline(value_range=(40.0, 80.0), time_range=(0, 250))
        pipeline.ingest(small_stream.values[:, 300:400])
        pipeline.zscores()
        assert pipeline._baseline_spec.value_range == (40.0, 80.0)
        assert pipeline._baseline_spec.time_range == (0, 250)

    # -- pickling (regression: memoised weakref caches used to make a
    # queried pipeline unpicklable, breaking process fan-out) ------------ #
    def test_pipeline_picklable_after_queries(self, small_stream):
        import pickle

        pipeline = self._fresh_pipeline(small_stream)
        reference = pipeline.node_zscores(time_range=(450, 600))
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone._min_power_cache is None
        assert clone._fold.recon is None, "the read half is rebuilt, not shipped"
        scores = clone.node_zscores(time_range=(450, 600))
        assert np.array_equal(scores.zscores, reference.zscores)
        assert not clone.baseline_is_stale(), "freshness survives the copy"

    def test_pickled_copy_preserves_staleness_verdict(self, small_stream):
        import pickle

        pipeline = self._fresh_pipeline(small_stream)
        pipeline.zscores()
        pipeline.ingest(small_stream.values[:, 300:360])
        assert pipeline.baseline_is_stale()
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone.baseline_is_stale(), "stale baselines must stay stale"

    def test_state_dict_preserves_baseline_provenance(self, small_stream):
        pipeline = self._fresh_pipeline(small_stream)
        pipeline.zscores()
        restored = OnlineAnalysisPipeline.from_state_dict(pipeline.state_dict())
        assert not restored.baseline_is_stale()
        assert restored._baseline_spec.value_range == (46.0, 57.0)
        assert np.array_equal(
            restored.zscores(time_range=(450, 600)).zscores,
            pipeline.zscores(time_range=(450, 600)).zscores,
        )


class TestCaseStudyBuilders:
    def test_case_study_1_structure(self):
        scenario = build_case_study_1(scale=0.05, n_timesteps=600, initial_steps=300)
        assert scenario.stream.values.shape[1] == 600
        assert scenario.initial_block().shape[1] == 300
        assert scenario.streaming_block().shape[1] == 300
        assert scenario.selected_nodes.size > 0
        assert scenario.hot_nodes.size >= 2
        assert set(scenario.hot_nodes).issubset(set(scenario.selected_nodes))
        assert len(scenario.projects) == 2
        assert scenario.baseline_range == (46.0, 57.0)

    def test_case_study_1_hot_nodes_are_hotter(self):
        scenario = build_case_study_1(scale=0.05, n_timesteps=600, initial_steps=300)
        values = scenario.stream.values
        node_idx = scenario.stream.node_indices
        hot_rows = np.isin(node_idx, scenario.hot_nodes)
        late = slice(450, 600)
        assert values[hot_rows, late].mean() > values[~hot_rows, late].mean() + 5.0

    def test_case_study_1_validation(self):
        with pytest.raises(ValueError):
            build_case_study_1(scale=0.0)
        with pytest.raises(ValueError):
            build_case_study_1(initial_steps=100, n_timesteps=100)

    def test_case_study_2_structure(self):
        scenario = build_case_study_2(scale=0.03, n_timesteps=480)
        assert scenario.stream.values.shape[1] == 480
        assert len(scenario.window_baselines) == 2
        assert scenario.initial_steps == 240
        assert scenario.selected_nodes.size == scenario.machine.n_nodes

    def test_case_study_2_first_window_hotter(self):
        scenario = build_case_study_2(scale=0.03, n_timesteps=480)
        half = scenario.initial_steps
        values = scenario.stream.values
        assert values[:, :half].mean() > values[:, half:].mean()

    def test_node_down_scenario(self):
        machine, hwlog = build_node_down_scenario(scale=0.2, n_timesteps=3000)
        hours = hwlog.downtime_hours(machine.n_nodes, machine.dt_seconds)
        assert hours.shape == (machine.n_nodes,)
        assert hours.sum() > 0
        with pytest.raises(ValueError):
            build_node_down_scenario(scale=0.0)
