"""Case study 2 (Sec. V-B): whole machine, hot vs cool windows, spectrum overlay.

Reproduces the analysis flow behind Figs. 6 and 7:

* all nodes of the machine over 16 hours (two 8-hour windows);
* initial fit on the first window, streaming updates in 1,000-step chunks
  over the second (the paper: 21.12 s initial, ~20.45 s updates, 7 levels,
  Frobenius error 3423.85 at full scale);
* per-window baselines: 45-60 degC for the hot first window, 30-45 degC for
  the cooler second one, matching the paper's choice of scoring each window
  relative to the machine state at that time;
* two rack views (Fig. 6(a)/(b)) with persistent hardware-error nodes
  outlined, and an overlaid hot-vs-cool spectrum (Fig. 7).

Run with ``python examples/case_study_2.py [scale]`` (default scale 0.05).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.core import BaselineModel, BaselineSpec, MrDMDConfig, MrDMDSpectrum
from repro.align import map_zscores_to_nodes
from repro.hwlog import HardwareEventType
from repro.pipeline import OnlineAnalysisPipeline, PipelineConfig, build_case_study_2
from repro.viz import RackLayout, RackView, SpectrumPlot

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def main(scale: float = 0.05) -> None:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    scenario = build_case_study_2(scale=scale, n_timesteps=1_920)
    stream = scenario.stream
    half = scenario.initial_steps
    print(f"case study 2 @ scale {scale}: {scenario.machine.n_nodes} nodes, "
          f"{stream.n_timesteps} snapshots ({stream.n_timesteps * stream.dt / 3600:.1f} h)")

    config = PipelineConfig(
        mrdmd=MrDMDConfig(max_levels=7),
        baseline_range=scenario.window_baselines[0],
        retain_data="all",
    )
    pipeline = OnlineAnalysisPipeline.from_stream(stream, config)

    t0 = time.perf_counter()
    pipeline.ingest(scenario.initial_block())
    initial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    chunk = 480
    remaining = scenario.streaming_block()
    for lo in range(0, remaining.shape[1], chunk):
        pipeline.ingest(remaining[:, lo : lo + chunk])
    update_seconds = time.perf_counter() - t0
    error = pipeline.model.reconstruction_error()
    print(f"initial fit {initial_seconds:.2f}s, streaming updates {update_seconds:.2f}s, "
          f"Frobenius error {error:.2f} (paper at full scale: 21.12s / ~20.45s / 3423.85)")

    # Per-window scoring with per-window baselines (Fig. 6a/b).
    reconstruction = pipeline.reconstruction()
    layout = RackLayout.from_machine(scenario.machine)
    node_names = scenario.machine.node_names()
    persistent_error_nodes = _persistent_error_nodes(scenario)
    spectra = []
    for idx, (window, baseline_range) in enumerate(
        zip([(0, half), (half, stream.n_timesteps)], scenario.window_baselines)
    ):
        window_data = reconstruction[:, window[0] : window[1]]
        model = BaselineModel.from_data(window_data, BaselineSpec(value_range=baseline_range))
        scores = model.score(window_data)
        node_scores = map_zscores_to_nodes(scores, stream.node_indices)
        label = "hot window (first 8 h)" if idx == 0 else "cool window (second 8 h)"
        view = RackView(layout, title=f"Case study 2: {label}, baseline {baseline_range} degC")
        path = os.path.join(OUTPUT_DIR, f"case2_fig6{'ab'[idx]}_rack_zscores.svg")
        view.save_svg(
            path,
            node_scores.as_dict(),
            secondary_outlined_nodes=[int(n) for n in persistent_error_nodes],
            node_names=node_names,
        )
        frac_hot = float(np.mean(np.abs(node_scores.zscores) > 2.0))
        print(f"window {idx + 1}: wrote {path}; fraction of nodes |z|>2: {frac_hot:.2f}")

        # Per-window spectrum from a dedicated batch decomposition of the window.
        window_pipeline = OnlineAnalysisPipeline(
            stream.dt,
            PipelineConfig(mrdmd=MrDMDConfig(max_levels=6), baseline_range=baseline_range),
            node_of_row=stream.node_indices,
        )
        window_pipeline.ingest(stream.values[:, window[0] : window[1]])
        spectra.append(window_pipeline.spectrum(label=label))

    fig7_path = os.path.join(OUTPUT_DIR, "case2_fig7_spectrum_overlay.svg")
    SpectrumPlot().save_svg(fig7_path, spectra, title="Case study 2: hot vs cool spectra")
    hot_centroid = spectra[0].centroid_frequency()
    cool_centroid = spectra[1].centroid_frequency()
    print(f"wrote {fig7_path}; power-weighted centroid frequency hot={hot_centroid:.3e} Hz "
          f"vs cool={cool_centroid:.3e} Hz")

    report = pipeline.alignment_report(hwlog=scenario.hwlog, joblog=scenario.joblog)
    print(report.render())


def _persistent_error_nodes(scenario) -> np.ndarray:
    """Nodes reporting hardware errors in both 8-hour windows (Fig. 6 outlines)."""
    half = scenario.initial_steps
    first = {e.node for e in scenario.hwlog.events_in_window(0, half)}
    second = {e.node for e in scenario.hwlog.events_in_window(half, scenario.n_timesteps)}
    return np.asarray(sorted(first & second), dtype=int)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
