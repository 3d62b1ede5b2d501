"""FleetMonitor: shard fan-out, merged products, single-shard equivalence."""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align import NodeZScores
from repro.core import MrDMDConfig
from repro.core.baseline import classify_zscores
from repro.pipeline import OnlineAnalysisPipeline, PipelineConfig
from repro.service import (
    FleetMonitor,
    MetricSharding,
    RackSharding,
    SingleShard,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.checkpoint import MANIFEST_NAME
from repro.service.scenarios import quiet_fleet
from repro.telemetry import HotNodes, TelemetryGenerator

from reference_viz import reference_merge


CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
)


@pytest.fixture(scope="module")
def fleet_stream():
    scenario = quiet_fleet()
    generator = TelemetryGenerator(scenario.machine, seed=5, utilization_target=0.3)
    return generator.generate(
        480,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=(20, 21), start=200, delta=15.0)],
    )


@pytest.fixture(scope="module")
def rack_monitor(fleet_stream):
    monitor = FleetMonitor.from_stream(fleet_stream, policy=RackSharding(), config=CONFIG)
    monitor.ingest(fleet_stream.values[:, :240])
    monitor.ingest(fleet_stream.values[:, 240:])
    return monitor


def test_from_stream_builds_one_pipeline_per_rack(rack_monitor, fleet_stream):
    assert rack_monitor.n_shards == fleet_stream.machine.n_racks
    assert set(rack_monitor.pipelines) == {s.shard_id for s in rack_monitor.shards}
    assert rack_monitor.step == fleet_stream.n_timesteps


def test_shard_pipelines_see_only_their_rows(rack_monitor, fleet_stream):
    for spec in rack_monitor.shards:
        model = rack_monitor.pipeline(spec.shard_id).model
        assert model.n_features == spec.n_rows
        assert model.n_snapshots == fleet_stream.n_timesteps


def test_rack_values_cover_every_node(rack_monitor, fleet_stream):
    values = rack_monitor.rack_values()
    assert set(values) == set(int(n) for n in np.unique(fleet_stream.node_indices))
    assert all(np.isfinite(v) for v in values.values())


def test_hot_nodes_stand_out_in_merged_zscores(rack_monitor):
    scores = rack_monitor.node_zscores(time_range=(300, 480))
    by_node = dict(zip(scores.node_indices, scores.zscores))
    hot = min(by_node[20], by_node[21])
    others = [z for n, z in by_node.items() if n not in (20, 21)]
    assert hot > max(others), "injected hot nodes must dominate the fleet z-scores"


def test_single_shard_matches_plain_pipeline(fleet_stream):
    monitor = FleetMonitor.from_stream(fleet_stream, policy=SingleShard(), config=CONFIG)
    monitor.ingest(fleet_stream.values[:, :240])
    monitor.ingest(fleet_stream.values[:, 240:])

    pipeline = OnlineAnalysisPipeline.from_stream(fleet_stream, CONFIG)
    pipeline.ingest(fleet_stream.values[:, :240])
    pipeline.ingest(fleet_stream.values[:, 240:])

    assert monitor.rack_values() == pipeline.rack_values()
    mono_spec = monitor.spectra()["all"]
    solo_spec = pipeline.spectrum()
    assert np.array_equal(mono_spec.power, solo_spec.power)
    assert np.array_equal(mono_spec.frequencies, solo_spec.frequencies)


def test_fleet_spectrum_merges_all_shards(rack_monitor):
    fleet = rack_monitor.fleet_spectrum()
    per_shard = rack_monitor.spectra()
    assert fleet.n_modes == sum(s.n_modes for s in per_shard.values())
    by_shard = fleet.total_power_by_shard()
    for shard_id, spectrum in per_shard.items():
        assert by_shard[shard_id] == pytest.approx(spectrum.total_power())
    assert np.isfinite(fleet.dominant_frequency())


def test_spectra_are_read_only(rack_monitor):
    before = rack_monitor.fleet_spectrum()
    for spectrum in rack_monitor.spectra().values():
        with pytest.raises(ValueError):
            spectrum.power[:] = 0
        with pytest.raises(ValueError):
            spectrum.table.levels[:] = 0
    after = rack_monitor.fleet_spectrum()
    assert after.power.tobytes() == before.power.tobytes()
    assert after.levels.tobytes() == before.levels.tobytes()
    assert after.total_power_by_shard() == before.total_power_by_shard()


def test_a_pickled_spectrum_carries_only_scalar_columns(fleet_stream):
    # The spectrum is a few scalars per mode, whatever the shard's width.
    monitor = FleetMonitor.from_stream(fleet_stream, policy=SingleShard(), config=CONFIG)
    monitor.ingest(fleet_stream.values[:, :240])
    monitor.ingest(fleet_stream.values[:, 240:])
    assert monitor.pipeline("all").model.n_features >= 64
    spectrum = monitor.spectra()["all"]
    assert spectrum.n_modes > 0
    assert len(pickle.dumps(spectrum)) < 100 * spectrum.n_modes


def test_metric_sharding_merges_duplicate_nodes(fleet_stream):
    # Two channels -> every node appears in two shards; the merge must
    # aggregate, not duplicate.
    scenario = quiet_fleet()
    generator = TelemetryGenerator(scenario.machine, seed=5, utilization_target=0.3)
    stream = generator.generate(300, sensors=["cpu_temp", "node_power"])
    monitor = FleetMonitor.from_stream(stream, policy=MetricSharding(), config=CONFIG)
    monitor.ingest(stream.values)
    scores = monitor.node_zscores()
    assert scores.node_indices.size == stream.machine.n_nodes
    assert np.unique(scores.node_indices).size == scores.node_indices.size


@pytest.fixture(scope="module")
def metric_monitor():
    """An unfitted metric-sharded monitor: its merge reads only the shard
    order and the thresholds."""
    scenario = quiet_fleet()
    generator = TelemetryGenerator(scenario.machine, seed=5, utilization_target=0.3)
    stream = generator.generate(
        8, sensors=["cpu_temp", "node_power", "water_temp", "vccp_voltage"]
    )
    return FleetMonitor.from_stream(stream, policy=MetricSharding(), config=CONFIG)


@st.composite
def _per_shard(draw, shard_ids):
    """Random per-shard node scores over a small node pool (so nodes
    repeat across shards), ties in |z| and NaN included; any subset of
    shards may be missing, and dict order is shuffled."""
    present = draw(st.permutations(shard_ids))
    present = present[: draw(st.integers(0, len(present)))]
    values = st.one_of(
        st.sampled_from([2.0, -2.0, 0.0, np.nan]), st.floats(-9, 9, allow_nan=False)
    )
    out = {}
    for shard_id in present:
        nodes = sorted(draw(st.sets(st.integers(0, 12), max_size=8)))
        z = np.array(draw(st.lists(values, min_size=len(nodes), max_size=len(nodes))))
        out[shard_id] = NodeZScores(
            node_indices=np.array(nodes, dtype=int),
            zscores=z,
            categories=classify_zscores(z),
        )
    return out


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data(), reducer=st.sampled_from(["mean", "max", "absmax"]))
def test_merge_matches_the_per_node_loop(metric_monitor, data, reducer):
    shard_ids = [spec.shard_id for spec in metric_monitor.shards]
    per_shard = data.draw(_per_shard(shard_ids))
    merged = metric_monitor._merge_node_scores(per_shard, reducer)
    nodes, values = reference_merge(shard_ids, per_shard, reducer)
    assert np.array_equal(merged.node_indices, nodes)
    assert merged.zscores.tobytes() == values.tobytes()
    assert list(merged.categories) == list(
        classify_zscores(
            values,
            near=metric_monitor.config.zscore_near,
            extreme=metric_monitor.config.zscore_extreme,
        )
    )


def test_merge_of_no_shards_is_empty(metric_monitor):
    merged = metric_monitor._merge_node_scores({}, "mean")
    assert merged.node_indices.size == 0 and merged.zscores.size == 0
    assert merged.node_indices.dtype == int and merged.zscores.dtype == float
    assert merged.as_dict() == {}


def test_ingest_rejects_bad_shapes(rack_monitor):
    with pytest.raises(ValueError, match="2-D"):
        rack_monitor.ingest(np.zeros(8))


def test_ingest_rejects_missing_rows(rack_monitor, fleet_stream):
    with pytest.raises(ValueError, match="covers rows up to"):
        rack_monitor.ingest(fleet_stream.values[:-1, :240])


def test_ingest_rejects_extra_rows(rack_monitor, fleet_stream):
    # Regression: extra rows used to be silently dropped by the partition.
    padded = np.vstack([fleet_stream.values[:, :240], np.zeros((3, 240))])
    with pytest.raises(ValueError, match="extra rows"):
        rack_monitor.ingest(padded)


def test_legacy_extra_rows_ignore_manifest_restores_raising(
    fleet_stream, tmp_path
):
    """Manifests no longer carry ``extra_rows``; one written with the
    retired ``"ignore"`` opt-in still loads, and the restored monitor
    rejects extra rows like every other monitor."""
    monitor = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG
    )
    monitor.ingest(fleet_stream.values[:, :240])
    directory = str(tmp_path / "ckpt")
    save_checkpoint(directory, monitor)
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert "extra_rows" not in manifest
    manifest["extra_rows"] = "ignore"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)

    restored = load_checkpoint(directory)
    assert restored.rack_values() == monitor.rack_values()
    padded = np.vstack([fleet_stream.values[:, 240:300], np.zeros((3, 60))])
    with pytest.raises(ValueError, match="extra rows"):
        restored.ingest(padded)
    assert restored.ingest(fleet_stream.values[:, 240:300]).step == 300


def test_extra_rows_validation(fleet_stream):
    """The retired ``extra_rows`` knob is no longer a parameter."""
    shards = SingleShard().partition(
        np.array(["s0", "s1"], dtype=object), np.array([0, 1])
    )
    with pytest.raises(TypeError, match="extra_rows"):
        FleetMonitor(dt=1.0, shards=shards, extra_rows="ignore")
    with pytest.raises(TypeError, match="extra_rows"):
        FleetMonitor.from_stream(fleet_stream, extra_rows="ignore")


@pytest.mark.parametrize("executor", ["proces", "thread"])
def test_unknown_executor_fails_at_construction(fleet_stream, executor):
    """A misspelt or retired backend fails when the monitor is built, not
    at the first ingest, and the error names the backends that exist."""
    with pytest.raises(ValueError, match="'serial', 'process'"):
        FleetMonitor.from_stream(
            fleet_stream, policy=RackSharding(), config=CONFIG, executor=executor
        )


def test_bad_max_workers_fails_at_construction(fleet_stream):
    with pytest.raises(ValueError, match="max_workers"):
        FleetMonitor.from_stream(
            fleet_stream, policy=RackSharding(), executor="process", max_workers=0
        )


def test_load_checkpoint_checks_the_executor(rack_monitor, tmp_path):
    directory = str(tmp_path / "ckpt")
    save_checkpoint(directory, rack_monitor)
    with pytest.raises(ValueError, match="'serial', 'process'"):
        load_checkpoint(directory, executor="thread")


def test_monitor_without_engine_returns_no_alerts(rack_monitor):
    assert rack_monitor.evaluate_alerts() == []


def test_fleet_snapshot_diagnostics(fleet_stream):
    monitor = FleetMonitor.from_stream(fleet_stream, policy=RackSharding(), config=CONFIG)
    first = monitor.ingest(fleet_stream.values[:, :240])
    assert first.chunk_size == 240
    assert first.max_drift == 0.0, "initial fit has no drift record"
    second = monitor.ingest(fleet_stream.values[:, 240:300])
    assert second.step == 300
    assert second.max_drift >= 0.0
    assert set(second.shard_snapshots) == set(monitor.pipelines)
    assert second.total_modes == monitor.total_modes > 0
