"""Integration tests: end-to-end flows across subsystems.

These tests exercise the same paths as the examples and benchmarks, at a
scale small enough for CI: telemetry generation -> streaming I-mrDMD ->
spectrum/baseline analysis -> rack view / alignment, plus the Table I and
Q1/Q2 claims in miniature.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.align import map_zscores_to_nodes
from repro.core import (
    BaselineModel,
    BaselineSpec,
    IncrementalMrDMD,
    MrDMDConfig,
    MrDMDSpectrum,
    compute_mrdmd,
)
from repro.core.reconstruction import evaluate_reconstruction
from repro.hwlog import HardwareEventType
from repro.pipeline import (
    OnlineAnalysisPipeline,
    PipelineConfig,
    build_case_study_1,
    build_case_study_2,
)
from repro.telemetry import StreamingReplay, TelemetryGenerator, theta_machine
from repro.viz import RackLayout, RackView, SpectrumPlot, TimeSeriesView


class TestStreamingEndToEnd:
    def test_replay_through_incremental_model(self):
        machine = theta_machine(racks_per_row=1, n_rows=1, node_limit=32)
        stream = TelemetryGenerator(machine, seed=2).generate(800, sensors=["cpu_temp"])
        replay = StreamingReplay(stream, initial_size=400, chunk_size=200)
        model = IncrementalMrDMD(dt=stream.dt, max_levels=4, retain_data="all")
        model.fit(replay.initial())
        for chunk in replay.chunks():
            model.partial_fit(chunk)
        assert model.n_snapshots == 800
        report = evaluate_reconstruction(model.tree, stream.values)
        assert report.relative < 0.15
        assert report.noise_reduction > 0.0

    def test_incremental_matches_batch_modes_roughly_q2(self):
        machine = theta_machine(racks_per_row=1, n_rows=1, node_limit=24)
        stream = TelemetryGenerator(machine, seed=4).generate(600, sensors=["cpu_temp"])
        config = MrDMDConfig(max_levels=4)
        incremental = IncrementalMrDMD(dt=stream.dt, config=config, retain_data="all")
        incremental.fit(stream.values[:, :300])
        incremental.partial_fit(stream.values[:, 300:])
        batch = compute_mrdmd(stream.values, stream.dt, config)
        err_inc = np.linalg.norm(stream.values - incremental.reconstruct())
        err_batch = np.linalg.norm(stream.values - batch.reconstruct(600))
        # Q2: online accuracy is close to batch accuracy.
        assert err_inc <= 1.5 * err_batch + 1e-9

    def test_table1_shape_partial_fit_flat_initial_fit_growing(self):
        """Miniature Table I: initial-fit time grows with T, partial-fit stays flat-ish.

        Wall-clock comparisons are noisy on shared CI machines, so the sizes
        are far apart (8x), each measurement is the best of three runs, and
        the growth assertion carries a generous tolerance.
        """
        machine = theta_machine(racks_per_row=1, n_rows=1, node_limit=64)
        generator = TelemetryGenerator(machine, seed=6)
        config = MrDMDConfig(max_levels=5)
        initial_times, partial_times = [], []
        for total in (1000, 8000):
            data = generator.generate_matrix(64, total + 500)
            best_initial, best_partial = np.inf, np.inf
            for _ in range(3):
                model = IncrementalMrDMD(dt=machine.dt_seconds, config=config)
                t0 = time.perf_counter()
                model.fit(data[:, :total])
                best_initial = min(best_initial, time.perf_counter() - t0)
                t0 = time.perf_counter()
                model.partial_fit(data[:, total:])
                best_partial = min(best_partial, time.perf_counter() - t0)
            initial_times.append(best_initial)
            partial_times.append(best_partial)
        assert initial_times[1] > 1.2 * initial_times[0]
        # Partial fit does not blow up with history length (generous factor
        # to keep CI timing noise from flaking the test).
        assert partial_times[1] < initial_times[1]


class TestCaseStudy1EndToEnd:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_case_study_1(scale=0.05, n_timesteps=800, initial_steps=400)

    @pytest.fixture(scope="class")
    def pipeline(self, scenario):
        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=5),
            baseline_range=scenario.baseline_range,
            frequency_range=(0.0, 60.0),
        )
        pipe = OnlineAnalysisPipeline.from_stream(scenario.stream, config)
        pipe.ingest(scenario.initial_block())
        pipe.ingest(scenario.streaming_block())
        return pipe

    def test_hot_node_recall(self, scenario, pipeline):
        detected = set(int(n) for n in pipeline.node_zscores().hot_nodes())
        injected = set(int(n) for n in scenario.hot_nodes)
        recall = len(detected & injected) / len(injected)
        assert recall >= 0.8

    def test_reconstruction_denoises(self, scenario, pipeline):
        report = pipeline.reconstruction_report(scenario.stream.values)
        assert report.noise_reduction > 0.2
        assert report.relative < 0.1

    def test_rack_view_renders_with_memory_error_outlines(self, scenario, pipeline, tmp_path):
        node_scores = pipeline.node_zscores()
        memory_nodes = scenario.hwlog.nodes_with(HardwareEventType.CORRECTABLE_MEMORY_ERROR)
        layout = RackLayout.from_machine(scenario.machine)
        view = RackView(layout, title="integration")
        path = view.save_svg(
            str(tmp_path / "case1.svg"),
            node_scores.as_dict(),
            outlined_nodes=[int(n) for n in memory_nodes],
        )
        content = (tmp_path / "case1.svg").read_text()
        assert content.count("<rect") >= scenario.machine.n_nodes

    def test_fig3_and_fig5_artifacts(self, scenario, pipeline, tmp_path):
        recon = pipeline.reconstruction()
        TimeSeriesView().save_svg(
            str(tmp_path / "fig3.svg"),
            {"actual": scenario.stream.values[0], "reconstructed": recon[0]},
        )
        SpectrumPlot().save_svg(str(tmp_path / "fig5.svg"), pipeline.spectrum(label="case 1"))
        assert (tmp_path / "fig3.svg").exists()
        assert (tmp_path / "fig5.svg").exists()

    def test_alignment_report_references_both_logs(self, scenario, pipeline):
        report = pipeline.alignment_report(hwlog=scenario.hwlog, joblog=scenario.joblog)
        assert report.hardware is not None and report.jobs is not None
        text = report.render()
        assert "hardware correlation" in text


class TestCaseStudy2EndToEnd:
    def test_hot_then_cool_windows(self):
        scenario = build_case_study_2(scale=0.03, n_timesteps=640)
        stream = scenario.stream
        half = scenario.initial_steps
        config = PipelineConfig(mrdmd=MrDMDConfig(max_levels=5),
                                baseline_range=scenario.window_baselines[0])
        pipeline = OnlineAnalysisPipeline.from_stream(stream, config)
        pipeline.ingest(stream.values[:, :half])
        pipeline.ingest(stream.values[:, half:])
        recon = pipeline.reconstruction()

        hot_window = recon[:, :half]
        cool_window = recon[:, half:]
        assert hot_window.mean() > cool_window.mean()

        # Score each window against its own baseline band (paper's protocol).
        frac_out = []
        for window, band in zip((hot_window, cool_window), scenario.window_baselines):
            model = BaselineModel.from_data(window, BaselineSpec(value_range=band))
            scores = model.score(window)
            node_scores = map_zscores_to_nodes(scores, stream.node_indices)
            frac_out.append(float(np.mean(node_scores.zscores > 2.0)))
        # The paper's Fig. 6(a) shows the hot window significantly above its
        # baselines while the cool window sits much closer to its own band.
        assert frac_out[0] > frac_out[1]
        assert frac_out[1] < 0.9

    def test_spectrum_labels_for_overlay(self):
        scenario = build_case_study_2(scale=0.03, n_timesteps=480)
        stream = scenario.stream
        half = scenario.initial_steps
        hot_tree = compute_mrdmd(stream.values[:, :half], stream.dt, MrDMDConfig(max_levels=4))
        cool_tree = compute_mrdmd(stream.values[:, half:], stream.dt, MrDMDConfig(max_levels=4))
        hot_spec = MrDMDSpectrum(hot_tree, label="hot")
        cool_spec = MrDMDSpectrum(cool_tree, label="cool")
        svg = SpectrumPlot().render_svg([hot_spec, cool_spec], title="Fig 7")
        assert "hot" in svg and "cool" in svg
