"""Figs. 2, 4 & 6: rack-layout views (node-down hours, case-study z-scores).

Paper content:

* Fig. 2 — the generalizable rack layout showing per-node down-hours on
  Polaris (drop-down/hover interactivity in D3; static SVG here);
* Fig. 4 — case study 1's z-scores on the Theta layout, with correctable-
  memory-error nodes outlined; the finding is that the thermally elevated
  nodes are *not* the ones reporting memory errors;
* Fig. 6 — case study 2's z-scores for the hot and cool 8-hour windows, with
  persistently erroring nodes outlined.

The benchmarks time the z-score mapping + SVG generation and assert the
figure-level findings (hot nodes flagged, error overlay disjoint from the
hot set in case 1, hot window redder than cool window in case 2).  Every
SVG is also checked byte for byte against the per-cell oracle renderer
(``tests/reference_viz.py``), on the figure's own inputs plus a variant
with missing (NaN) and secondary-outlined nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import map_zscores_to_nodes
from repro.core import BaselineModel, BaselineSpec, MrDMDConfig
from repro.hwlog import HardwareEventType
from repro.pipeline import (
    OnlineAnalysisPipeline,
    PipelineConfig,
    build_case_study_1,
    build_case_study_2,
    build_node_down_scenario,
)
from repro.viz import RackLayout, RackView

from conftest import scaled
from reference_viz import reference_render_svg, reference_values_array


def assert_matches_oracle(view, values, svg, **kwargs):
    """``svg`` is the oracle's rendering of ``values``; so is a variant
    with every fifth node missing and the first nodes secondary-outlined."""
    assert svg == reference_render_svg(view, values, **kwargs)
    dense = reference_values_array(view, values)
    dense[::5] = np.nan
    variant = dict(kwargs, secondary_outlined_nodes=list(range(0, 40, 3)))
    assert view.render_svg(dense, **variant) == reference_render_svg(
        view, dense, **variant
    )


def test_fig2_node_down_rack_view(benchmark):
    """Fig. 2: render per-node down-hours on the Polaris layout."""
    machine, hwlog = build_node_down_scenario(scale=scaled(0.3, 1.0),
                                              n_timesteps=scaled(5_000, 500_000))
    layout = RackLayout.from_machine(machine)
    view = RackView(layout, title="Polaris node down hours")
    hours = hwlog.downtime_hours(machine.n_nodes, machine.dt_seconds)

    values = {i: float(h) for i, h in enumerate(hours)}
    svg = benchmark.pedantic(
        lambda: view.render_svg(values), rounds=3, iterations=1, warmup_rounds=0,
    )
    assert svg.count("<rect") >= machine.n_nodes
    assert_matches_oracle(view, values, svg)
    benchmark.extra_info["n_nodes"] = machine.n_nodes
    benchmark.extra_info["total_down_hours"] = round(float(hours.sum()), 1)


@pytest.fixture(scope="module")
def case1_view_inputs():
    scenario = build_case_study_1(scale=scaled(0.05, 1.0),
                                  n_timesteps=scaled(1_000, 2_000),
                                  initial_steps=scaled(500, 1_000))
    config = PipelineConfig(mrdmd=MrDMDConfig(max_levels=6),
                            baseline_range=scenario.baseline_range,
                            frequency_range=(0.0, 60.0))
    pipeline = OnlineAnalysisPipeline.from_stream(scenario.stream, config)
    pipeline.ingest(scenario.initial_block())
    pipeline.ingest(scenario.streaming_block())
    return scenario, pipeline


def test_fig4_case1_rack_view(benchmark, case1_view_inputs):
    """Fig. 4: z-score rack view with memory-error outlines (case study 1)."""
    scenario, pipeline = case1_view_inputs
    layout = RackLayout.from_machine(scenario.machine)
    view = RackView(layout, title="Case study 1")
    memory_nodes = scenario.hwlog.nodes_with(HardwareEventType.CORRECTABLE_MEMORY_ERROR)

    def run():
        node_scores = pipeline.node_zscores()
        svg = view.render_svg(
            node_scores.as_dict(),
            outlined_nodes=[int(n) for n in memory_nodes],
        )
        return node_scores, svg

    node_scores, svg = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    detected_hot = set(int(n) for n in node_scores.hot_nodes())
    injected_hot = set(int(n) for n in scenario.hot_nodes)
    # Paper finding: hot nodes are detected, and they are largely disjoint
    # from the memory-error nodes.
    assert len(detected_hot & injected_hot) / len(injected_hot) >= 0.8
    overlap = len(detected_hot & set(int(n) for n in memory_nodes))
    assert overlap <= 0.5 * max(len(detected_hot), 1)
    assert svg.count("<rect") >= scenario.machine.n_nodes
    assert_matches_oracle(
        view, node_scores.as_dict(), svg, outlined_nodes=[int(n) for n in memory_nodes]
    )
    benchmark.extra_info["hot_nodes_detected"] = len(detected_hot)
    benchmark.extra_info["memory_error_nodes"] = int(memory_nodes.size)
    benchmark.extra_info["overlap"] = overlap


def test_fig6_case2_window_rack_views(benchmark):
    """Fig. 6: per-window z-score rack views (hot vs cool 8-hour windows)."""
    scenario = build_case_study_2(scale=scaled(0.03, 1.0), n_timesteps=scaled(640, 3_840))
    stream = scenario.stream
    half = scenario.initial_steps
    config = PipelineConfig(mrdmd=MrDMDConfig(max_levels=scaled(5, 7)),
                            baseline_range=scenario.window_baselines[0])
    pipeline = OnlineAnalysisPipeline.from_stream(stream, config)
    pipeline.ingest(stream.values[:, :half])
    pipeline.ingest(stream.values[:, half:])
    recon = pipeline.reconstruction()
    layout = RackLayout.from_machine(scenario.machine)
    view = RackView(layout, title="Case study 2")

    def run():
        fractions = []
        svgs = []
        values = []
        for window, band in zip(((0, half), (half, stream.n_timesteps)),
                                scenario.window_baselines):
            data = recon[:, window[0]:window[1]]
            model = BaselineModel.from_data(data, BaselineSpec(value_range=band))
            node_scores = map_zscores_to_nodes(model.score(data), stream.node_indices)
            values.append(node_scores.as_dict())
            svgs.append(view.render_svg(values[-1]))
            fractions.append(float(np.mean(node_scores.zscores > 2.0)))
        return fractions, svgs, values

    fractions, svgs, values = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    # The hot window shows far more above-baseline nodes than the cool one.
    assert fractions[0] > fractions[1]
    assert all(svg.count("<rect") >= scenario.machine.n_nodes for svg in svgs)
    for window_values, svg in zip(values, svgs):
        assert_matches_oracle(view, window_values, svg)
    benchmark.extra_info["fraction_hot_window_above_2"] = round(fractions[0], 3)
    benchmark.extra_info["fraction_cool_window_above_2"] = round(fractions[1], 3)
