"""Unit tests for multi-log alignment (repro.align)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align import (
    Timeline,
    bin_events,
    build_alignment_report,
    correlate_with_hardware,
    correlate_with_jobs,
    event_presence_matrix,
    job_activity_matrix,
    map_zscores_to_nodes,
    reduce_by_node,
)
from repro.core.baseline import BaselineModel, BaselineSpec, ZScoreCategory
from repro.hwlog import HardwareEvent, HardwareEventType, HardwareLog
from repro.joblog import JobLog, JobRecord

from reference_viz import reference_reduce


class TestTimeline:
    def test_durations(self):
        timeline = Timeline(n_timesteps=1920, dt=15.0)
        assert timeline.duration_seconds == pytest.approx(28_800.0)
        assert timeline.duration_hours == pytest.approx(8.0)

    def test_windows_split(self):
        timeline = Timeline(n_timesteps=100, dt=1.0)
        windows = timeline.windows(2)
        assert windows == [(0, 50), (50, 100)]
        assert timeline.windows(3)[0][0] == 0
        with pytest.raises(ValueError):
            timeline.windows(0)

    def test_step_of_seconds_clips(self):
        timeline = Timeline(n_timesteps=10, dt=2.0)
        assert timeline.step_of_seconds(5.0) == 2
        assert timeline.step_of_seconds(1e9) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline(0, 1.0)
        with pytest.raises(ValueError):
            Timeline(10, 0.0)


class TestMatrices:
    def test_job_activity_matrix(self):
        log = JobLog([JobRecord(0, "p", "u", (1, 2), 0, 10, 20, 30)])
        timeline = Timeline(n_timesteps=30, dt=1.0)
        activity = job_activity_matrix(log, 4, timeline)
        assert activity.shape == (4, 30)
        assert activity[1, 10:20].all()

    def test_event_presence_matrix(self):
        log = HardwareLog([
            HardwareEvent(node=2, event_type=HardwareEventType.NODE_DOWN,
                          start_step=5, end_step=15, severity=3),
            HardwareEvent(node=0, event_type=HardwareEventType.LINK_FAULT,
                          start_step=3, end_step=4),
        ])
        timeline = Timeline(n_timesteps=20, dt=1.0)
        presence = event_presence_matrix(log, 4, timeline)
        assert presence[2, 5:15].all()
        assert presence[0, 3]
        restricted = event_presence_matrix(log, 4, timeline,
                                           event_type=HardwareEventType.LINK_FAULT)
        assert not restricted[2].any()

    def test_bin_events(self):
        log = HardwareLog([
            HardwareEvent(node=1, event_type=HardwareEventType.LINK_FAULT,
                          start_step=2, end_step=3),
            HardwareEvent(node=1, event_type=HardwareEventType.LINK_FAULT,
                          start_step=90, end_step=91),
        ])
        timeline = Timeline(n_timesteps=100, dt=1.0)
        counts = bin_events(log, 3, timeline, n_bins=2)
        assert counts.shape == (3, 2)
        assert counts[1].tolist() == [1, 1]
        with pytest.raises(ValueError):
            bin_events(log, 3, timeline, n_bins=0)


def make_node_scores(n_nodes=20, hot=(3, 4), cold=(7,)):
    data = 50 + np.random.default_rng(0).standard_normal((n_nodes, 100))
    for n in hot:
        data[n] += 20
    for n in cold:
        data[n] -= 20
    model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
    result = model.score(data)
    return map_zscores_to_nodes(result, np.arange(n_nodes))


class TestZScoreMapping:
    def test_aggregation_over_multiple_rows_per_node(self):
        # Two rows per node: node 1 is hot on both channels.
        data = 50 + np.zeros((6, 50))
        data[1] += 20
        data[4] += 20
        node_of_row = np.array([0, 1, 2, 0, 1, 2])
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        scores = model.score(data)
        node_scores = map_zscores_to_nodes(scores, node_of_row)
        assert node_scores.node_indices.tolist() == [0, 1, 2]
        assert node_scores.categories[1] is ZScoreCategory.VERY_HIGH
        assert node_scores.categories[0] is ZScoreCategory.BASELINE

    def test_reducers(self):
        data = 50 + np.zeros((2, 50))
        data[1] += 20
        node_of_row = np.array([0, 0])
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        scores = model.score(data)
        mean_scores = map_zscores_to_nodes(scores, node_of_row, reducer="mean")
        max_scores = map_zscores_to_nodes(scores, node_of_row, reducer="max")
        absmax_scores = map_zscores_to_nodes(scores, node_of_row, reducer="absmax")
        assert max_scores.zscores[0] >= mean_scores.zscores[0]
        assert absmax_scores.zscores[0] == max_scores.zscores[0]
        with pytest.raises(ValueError):
            map_zscores_to_nodes(scores, node_of_row, reducer="bogus")

    def test_helpers_and_validation(self):
        node_scores = make_node_scores()
        assert set(node_scores.hot_nodes().tolist()) == {3, 4}
        assert set(node_scores.cold_nodes().tolist()) == {7}
        assert node_scores.as_dict()[3] > 2.0
        scores = BaselineModel.from_data(
            np.ones((3, 5)) * 50, BaselineSpec(value_range=(46, 54))
        ).score(np.ones((3, 5)) * 50)
        with pytest.raises(ValueError):
            map_zscores_to_nodes(scores, np.arange(2))


REDUCERS = ("mean", "max", "absmax")

#: Row values drawn from a small pool so ties in |z| (3 vs -3, repeats)
#: and NaN/inf rows are common.
_VALUES = st.one_of(
    st.sampled_from([0.0, 3.0, -3.0, 1.5, -1.5, np.nan, np.inf, -np.inf]),
    st.floats(-10, 10, allow_nan=False),
)


@st.composite
def _rows(draw, max_per_node):
    """Node ids (each used 1..max_per_node times, in shuffled order) and
    one value per row."""
    counts = draw(st.lists(st.integers(1, max_per_node), max_size=12))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=len(counts),
                        max_size=len(counts), unique=True))
    nodes = [node for node, count in zip(ids, counts) for _ in range(count)]
    nodes = draw(st.permutations(nodes))
    values = draw(st.lists(_VALUES, min_size=len(nodes), max_size=len(nodes)))
    return np.array(nodes, dtype=int), np.array(values, dtype=float)


class TestReduceByNode:
    """The segment reduce against the per-node loop it replaced."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_rows(max_per_node=7), reducer=st.sampled_from(REDUCERS))
    def test_exact_for_up_to_seven_rows_per_node(self, rows, reducer):
        nodes, values = rows
        got_nodes, got = reduce_by_node(nodes, values, reducer)
        want_nodes, want = reference_reduce(nodes, values, reducer)
        assert np.array_equal(got_nodes, want_nodes)
        assert got.dtype == want.dtype == float
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_rows(max_per_node=40), reducer=st.sampled_from(REDUCERS))
    def test_mean_within_rtol_from_eight_rows(self, rows, reducer):
        nodes, values = rows
        got_nodes, got = reduce_by_node(nodes, values, reducer)
        want_nodes, want = reference_reduce(nodes, values, reducer)
        assert np.array_equal(got_nodes, want_nodes)
        if reducer == "mean":
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        else:
            assert got.tobytes() == want.tobytes()

    def test_ties_keep_the_first_row_and_nan_wins(self):
        nodes = np.array([4, 4, 2, 2, 2, 9, 9, 9])
        values = np.array([-3.0, 3.0, 1.0, np.nan, -5.0, 2.0, -2.0, 0.5])
        got_nodes, got = reduce_by_node(nodes, values, "absmax")
        assert got_nodes.tolist() == [2, 4, 9]
        assert np.isnan(got[0]) and got[1:].tolist() == [-3.0, 2.0]
        _, peak = reduce_by_node(nodes, values, "max")
        assert np.isnan(peak[0]) and peak[1:].tolist() == [3.0, 2.0]

    @pytest.mark.parametrize("reducer", REDUCERS)
    def test_empty_input(self, reducer):
        nodes, values = reduce_by_node(np.zeros(0, dtype=int), np.zeros(0), reducer)
        assert nodes.size == 0 and values.size == 0
        assert nodes.dtype == int and values.dtype == float

    def test_unknown_reducer(self):
        with pytest.raises(ValueError, match="unknown reducer"):
            reduce_by_node(np.zeros(0, dtype=int), np.zeros(0), "median")


class TestCorrelation:
    def test_hardware_correlation_detects_association(self):
        node_scores = make_node_scores(hot=(3, 4, 5), cold=())
        hwlog = HardwareLog([
            HardwareEvent(node=n, event_type=HardwareEventType.THERMAL_TRIP,
                          start_step=10, end_step=11, severity=2)
            for n in (3, 4, 5)
        ])
        report = correlate_with_hardware(node_scores, hwlog)
        assert report.n_positive == 3
        assert report.odds_ratio > 1.0
        assert report.rate_by_category[ZScoreCategory.VERY_HIGH] == pytest.approx(1.0)

    def test_hardware_correlation_event_type_filter(self):
        node_scores = make_node_scores()
        hwlog = HardwareLog([
            HardwareEvent(node=0, event_type=HardwareEventType.LINK_FAULT,
                          start_step=1, end_step=2)
        ])
        report = correlate_with_hardware(
            node_scores, hwlog, event_type=HardwareEventType.NODE_DOWN
        )
        assert report.n_positive == 0

    def test_hardware_correlation_window_filter(self):
        node_scores = make_node_scores()
        hwlog = HardwareLog([
            HardwareEvent(node=3, event_type=HardwareEventType.THERMAL_TRIP,
                          start_step=500, end_step=501)
        ])
        inside = correlate_with_hardware(node_scores, hwlog, window=(400, 600))
        outside = correlate_with_hardware(node_scores, hwlog, window=(0, 100))
        assert inside.n_positive == 1
        assert outside.n_positive == 0

    def test_job_failure_correlation(self):
        node_scores = make_node_scores(hot=(3,), cold=())
        joblog = JobLog([
            JobRecord(0, "p", "u", (3,), 0, 0, 50, 60, exit_status=1),
            JobRecord(1, "p", "u", (10,), 0, 0, 50, 60, exit_status=0),
        ])
        report = correlate_with_jobs(node_scores, joblog)
        assert report.n_positive == 1
        assert report.rate_by_category[ZScoreCategory.VERY_HIGH] == pytest.approx(1.0)


class TestAlignmentReport:
    def test_full_report(self):
        node_scores = make_node_scores()
        hwlog = HardwareLog([
            HardwareEvent(node=3, event_type=HardwareEventType.CORRECTABLE_MEMORY_ERROR,
                          start_step=1, end_step=2)
        ])
        joblog = JobLog([JobRecord(0, "PROJ-A", "u", (3, 4), 0, 0, 50, 60)])
        report = build_alignment_report(node_scores, hwlog=hwlog, joblog=joblog)
        assert report.hardware is not None
        assert report.jobs is not None
        assert 3 in report.memory_error_nodes
        assert "PROJ-A" in report.flagged_projects
        text = report.render()
        assert "hot nodes" in text and "memory errors" in text

    def test_report_without_logs(self):
        node_scores = make_node_scores()
        report = build_alignment_report(node_scores)
        assert report.hardware is None and report.jobs is None
        assert report.memory_error_nodes.size == 0
        assert "Alignment report" in report.render()
