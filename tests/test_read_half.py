"""The pipeline's read half: append-only reconstruction, block-folded
baseline and reconstruction error (repro.pipeline.online._BlockFold).

Two properties are pinned here.  Incremental products equal a rebuild
from scratch bit-for-bit (a pipeline restored from ``state_dict`` or a
pickle recomputes every block), and they stay within ``rtol=1e-9`` of the
full-timeline definitions: ``MrDMDTree.reconstruct`` over the whole
stream, ``BaselineModel.from_data`` over it, and ``np.linalg.norm`` of
the residual.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import obs
from repro.core import MrDMDConfig
from repro.core.baseline import BaselineModel, BaselineSpec
from repro.core.tree import MrDMDTree
from repro.obs import OBS
from repro.pipeline import OnlineAnalysisPipeline, PipelineConfig

INITIAL = 200
CHUNK = 50
RTOL = 1e-9


def _config(**overrides) -> PipelineConfig:
    return PipelineConfig(
        mrdmd=MrDMDConfig(max_levels=4), baseline_range=(46.0, 57.0), **overrides
    )


def _chunks(stream):
    values = stream.values
    return [values[:, lo : lo + CHUNK] for lo in range(INITIAL, values.shape[1], CHUNK)]


def _window(pipeline) -> tuple[int, int]:
    step = pipeline.model.n_snapshots
    return (step - 2 * CHUNK, step)


# --------------------------------------------------------------------------- #
# The full-timeline definitions the fold replaces
# --------------------------------------------------------------------------- #
def _full_reconstruction(pipeline) -> np.ndarray:
    return pipeline.model.tree.reconstruct(
        pipeline.model.n_snapshots,
        frequency_range=pipeline.config.frequency_range,
        min_power=pipeline._min_power_threshold(),
    )


def _full_baseline(pipeline, spec: BaselineSpec) -> BaselineModel:
    return BaselineModel.from_data(
        _full_reconstruction(pipeline),
        spec,
        near=pipeline.config.zscore_near,
        extreme=pipeline.config.zscore_extreme,
    )


def _full_error(pipeline) -> float:
    model = pipeline.model
    return float(np.linalg.norm(model.retained_data() - model.reconstruct()))


def _assert_matches_definitions(pipeline, snapshot=None, baseline=None) -> None:
    """Every read-half product against its full-timeline definition."""
    full = _full_reconstruction(pipeline)
    assert np.allclose(pipeline.reconstruction(), full, rtol=RTOL, atol=0.0)
    lo, hi = _window(pipeline)
    assert np.allclose(
        pipeline.reconstruction(time_range=(lo, hi)), full[:, lo:hi], rtol=RTOL, atol=0.0
    )
    if snapshot is not None and snapshot.reconstruction_error is not None:
        assert snapshot.reconstruction_error == pytest.approx(
            _full_error(pipeline), rel=RTOL
        )
    scores = pipeline.zscores(time_range=(lo, hi))
    if baseline is None:
        spec = pipeline._baseline_spec
        baseline = _full_baseline(pipeline, spec)
        assert np.allclose(pipeline._baseline.mean, baseline.mean, rtol=RTOL, atol=0.0)
        assert np.allclose(pipeline._baseline.std, baseline.std, rtol=RTOL, atol=0.0)
    expected = baseline.score(full, time_range=(lo, hi))
    assert np.allclose(scores.zscores, expected.zscores, rtol=RTOL, atol=1e-9)


# --------------------------------------------------------------------------- #
# Bit-for-bit: incremental == rebuilt from scratch
# --------------------------------------------------------------------------- #
def _restore(pipeline):
    return OnlineAnalysisPipeline.from_state_dict(pipeline.state_dict())


def _unpickle(pipeline):
    return pickle.loads(pickle.dumps(pipeline))


def _assert_identical(twin, live) -> None:
    assert np.array_equal(twin.reconstruction(), live.reconstruction())
    window = _window(live)
    assert np.array_equal(
        twin.zscores(time_range=window).zscores, live.zscores(time_range=window).zscores
    )
    for spec in ({}, {"value_range": (50.0, 60.0), "time_range": (30, 280)}):
        a, b = twin.fit_baseline(**spec), live.fit_baseline(**spec)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)


@pytest.mark.parametrize("copy", [_restore, _unpickle], ids=["state_dict", "pickle"])
@pytest.mark.parametrize("read_every", [1, 3])
@pytest.mark.parametrize("deep_levels", ["inline", "deferred"])
def test_incremental_products_equal_a_rebuild_bit_for_bit(
    small_stream, copy, read_every, deep_levels
):
    live = OnlineAnalysisPipeline.from_stream(
        small_stream, _config(deep_levels=deep_levels)
    )
    live.ingest(small_stream.values[:, :INITIAL])
    twin = None
    for index, chunk in enumerate(_chunks(small_stream)):
        snapshot = live.ingest(chunk)
        if deep_levels == "deferred" and index % 2:
            # Deep nodes land on chunks the buffer already holds.
            live.refresh_deep_levels()
        if twin is not None:
            # The twin's error folds every block from scratch.
            assert twin.ingest(chunk) == snapshot
            if deep_levels == "deferred" and index % 2:
                twin.refresh_deep_levels()
            _assert_identical(twin, live)
        if (index + 1) % read_every == 0:
            live.node_zscores(time_range=_window(live))
            twin = copy(live)
    assert twin is not None


# --------------------------------------------------------------------------- #
# Tolerance: the fold against the full-timeline definitions
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"frequency_range": (0.0, 0.002)},
        {"power_quantile": 0.4},
        {"deep_levels": "deferred", "deep_refresh_every": 0},
    ],
    ids=["default", "frequency_range", "power_quantile", "deferred"],
)
def test_products_match_full_timeline_definitions(small_stream, overrides):
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config(**overrides))
    snapshot = pipeline.ingest(small_stream.values[:, :INITIAL])
    _assert_matches_definitions(pipeline, snapshot)
    for index, chunk in enumerate(_chunks(small_stream)):
        _assert_matches_definitions(pipeline, pipeline.ingest(chunk))
        if index == 2 and pipeline.model.deep_pending:
            # Deep nodes land on chunks the buffer already holds.
            assert pipeline.refresh_deep_levels() > 0
            _assert_matches_definitions(pipeline)


def test_refresh_mid_stream_rebuilds_from_the_new_tree(small_stream):
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :INITIAL])
    chunks = _chunks(small_stream)
    for chunk in chunks[:3]:
        snapshot = pipeline.ingest(chunk)
        _assert_matches_definitions(pipeline, snapshot)
    pipeline.model.refresh()
    _assert_matches_definitions(pipeline)
    for chunk in chunks[3:]:
        _assert_matches_definitions(pipeline, pipeline.ingest(chunk))


def test_explicit_spec_is_folded_and_replayed(small_stream):
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :INITIAL])
    spec = BaselineSpec(value_range=(50.0, 60.0), time_range=(40, 260))
    pipeline.fit_baseline(value_range=spec.value_range, time_range=spec.time_range)
    for chunk in _chunks(small_stream):
        snapshot = pipeline.ingest(chunk)
        _assert_matches_definitions(pipeline, snapshot)
        assert pipeline._baseline_spec == spec


def test_pinned_baseline_scores_buffer_windows(small_stream):
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :INITIAL])
    pinned = pipeline.fit_baseline(small_stream.values[:, :INITIAL])
    for chunk in _chunks(small_stream):
        snapshot = pipeline.ingest(chunk)
        _assert_matches_definitions(pipeline, snapshot, baseline=pinned)
        assert pipeline._baseline is pinned


def test_add_sensors_mid_stream(small_stream):
    values = small_stream.values
    n_old = values.shape[0] - 8
    pipeline = OnlineAnalysisPipeline(
        dt=small_stream.dt,
        config=_config(),
        node_of_row=small_stream.node_indices[:n_old],
    )
    pipeline.ingest(values[:n_old, :INITIAL])
    chunks = _chunks(small_stream)
    for chunk in chunks[:2]:
        _assert_matches_definitions(pipeline, pipeline.ingest(chunk[:n_old]))
    step = pipeline.model.n_snapshots
    pipeline.add_sensors(
        small_stream.node_indices[n_old:], history=values[n_old:, :step]
    )
    for chunk in chunks[2:]:
        _assert_matches_definitions(pipeline, pipeline.ingest(chunk))


# --------------------------------------------------------------------------- #
# Structure: the read half costs O(chunk)
# --------------------------------------------------------------------------- #
@pytest.fixture
def reconstruct_columns(monkeypatch):
    """Columns every ``MrDMDTree.reconstruct`` call expands."""
    columns: list[int] = []
    original = MrDMDTree.reconstruct

    def counting(self, n_snapshots=None, **kwargs):
        out = original(self, n_snapshots, **kwargs)
        columns.append(out.shape[1])
        return out

    monkeypatch.setattr(MrDMDTree, "reconstruct", counting)
    return columns


def test_one_more_chunk_expands_only_its_columns(small_stream, reconstruct_columns):
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :INITIAL])
    chunks = _chunks(small_stream)
    for chunk in chunks[:-1]:
        pipeline.ingest(chunk)
        pipeline.node_zscores(time_range=_window(pipeline))
    reconstruct_columns.clear()
    pipeline.ingest(chunks[-1])
    pipeline.node_zscores(time_range=_window(pipeline))
    pipeline.rack_values(time_range=(0, pipeline.model.n_snapshots))
    assert reconstruct_columns == [CHUNK]


@pytest.mark.parametrize("cold", ["clear_caches", "restore"])
def test_cold_window_read_expands_only_its_blocks(
    small_stream, reconstruct_columns, cold
):
    """With a fresh baseline, the first windowed read after the buffer was
    dropped reconstructs the blocks the window overlaps, not the timeline."""
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :INITIAL])
    for chunk in _chunks(small_stream):
        pipeline.ingest(chunk)
    window = (pipeline.model.n_snapshots - CHUNK, pipeline.model.n_snapshots)
    warm = pipeline.zscores(time_range=window)
    if cold == "clear_caches":
        pipeline.clear_caches()
    else:
        pipeline = _restore(pipeline)
    reconstruct_columns.clear()
    scores = pipeline.zscores(time_range=window)
    assert reconstruct_columns == [CHUNK]
    np.testing.assert_array_equal(scores.zscores, warm.zscores)
    # A full-timeline read then fills the other blocks, once each.
    reconstruct_columns.clear()
    pipeline.rack_values()
    assert sum(reconstruct_columns) == pipeline.model.n_snapshots - CHUNK


def test_ingest_only_pipeline_holds_no_buffer(small_stream, reconstruct_columns):
    """Snapshot errors alone reconstruct each new block and keep nothing."""
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :INITIAL])
    for chunk in _chunks(small_stream):
        reconstruct_columns.clear()
        snapshot = pipeline.ingest(chunk)
        assert reconstruct_columns == [CHUNK]
    assert pipeline._fold.recon is None
    assert snapshot.reconstruction_error == pytest.approx(_full_error(pipeline), rel=RTOL)


def test_windows_are_slices_of_one_buffer(small_stream):
    """Replaces the per-revision window cache: a window is a view of the
    append-only buffer, and an update is visible in the next read."""
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :300])
    first = pipeline._reconstruction_window((100, 300))
    second = pipeline._reconstruction_window((250, 300))
    assert np.shares_memory(first, second)
    pipeline.ingest(small_stream.values[:, 300:360])
    after = pipeline._reconstruction_window((300, 360))
    assert after.shape[1] == 60
    assert np.allclose(after, _full_reconstruction(pipeline)[:, 300:360], rtol=RTOL)


def test_buffer_holds_the_timeline_once(small_stream):
    """Replaces the LRU bound: reading many windows allocates nothing new."""
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :300])
    pipeline.ingest(small_stream.values[:, 300:])
    for lo in range(0, 580, 20):
        pipeline.zscores(time_range=(lo, lo + 20))
    fold = pipeline._fold
    assert fold.recon.shape == (small_stream.values.shape[0], 600)
    assert fold.edges == [0, 300, 600]


def test_ingest_without_full_retention_leaves_the_buffer_alone(small_stream):
    pipeline = OnlineAnalysisPipeline.from_stream(
        small_stream, _config(retain_data="window", retain_window=100)
    )
    pipeline.ingest(small_stream.values[:, :INITIAL])
    for chunk in _chunks(small_stream):
        assert pipeline.ingest(chunk).reconstruction_error is None
    assert pipeline._fold.recon is None


def test_read_half_spans(small_stream):
    pipeline = OnlineAnalysisPipeline.from_stream(small_stream, _config())
    pipeline.ingest(small_stream.values[:, :INITIAL])
    chunks = _chunks(small_stream)
    pipeline.ingest(chunks[0])
    pipeline.zscores(time_range=_window(pipeline))
    obs.enable()
    try:
        pipeline.ingest(chunks[1])
        pipeline.zscores(time_range=_window(pipeline))
        events = list(OBS.ring.events)
    finally:
        OBS.reset()
    catchups = [e for e in events if e["name"] == "pipeline.read_catchup"]
    assert [e["attrs"] for e in catchups] == [{"cols": CHUNK, "blocks": 1, "full": False}]
    folds = [e for e in events if e["name"] == "pipeline.baseline_fold"]
    assert [e["attrs"] for e in folds] == [{"blocks": 1}]
