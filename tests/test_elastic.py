"""Elastic topology: new sensors, shards and machines through every layer.

Pins the tentpole guarantees of the elastic-topology refactor:

* core — :meth:`IncrementalMrDMD.add_rows` extends a live decomposition
  (zero-history fast path and back-filled history), bumps the tree
  revision, checkpoints the provenance, and resumes bit-for-bit;
* pipeline — :meth:`OnlineAnalysisPipeline.add_sensors` grows the row map
  and keeps unaffected baseline rows' statistics;
* service — :meth:`ShardingPolicy.repartition` maps new rows onto stable
  shard ids, :meth:`ShardExecutor.add_shard` joins new residents without a
  pool restart, and :meth:`FleetMonitor.add_sensors` is bit-for-bit
  identical across the serial and process backends;
* checkpoints — pre-elastic (version 1) checkpoints load into elastic
  monitors; topology-bearing state is stamped version 2 so pre-elastic
  loaders refuse cleanly;
* federation — partial rounds, mid-run registration, and the
  stale-restore + chunk-log catch-up flow reproduce an uninterrupted run
  exactly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import IncrementalMrDMD, MrDMDConfig, TopologyChange
from repro.federation import (
    AlertRouter,
    ChunkLog,
    FederatedAlertContext,
    FederatedMonitor,
    FleetWideRule,
    FleetWideZScoreRule,
    MachineRegistry,
)
from repro.pipeline import OnlineAnalysisPipeline, PipelineConfig
from repro.service import (
    Alert,
    AlertEngine,
    AlertSeverity,
    FleetMonitor,
    MetricSharding,
    RackSharding,
    ShardSpec,
    SingleShard,
    default_rules,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    validate_partition,
)
from repro.service.scenarios import (
    _default_config,
    _default_machine,
    _row_prefix_stream,
)
from repro.telemetry import HotNodes, TelemetryGenerator, theta_machine
from repro.util import make_shard_executor

from helpers import shard_reprs as _shard_reprs
from legacy_checkpoint import save_legacy_checkpoint

BACKENDS = ["serial", "process"]


# --------------------------------------------------------------------------- #
# Shared inputs
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def two_channel_stream():
    """cpu_temp + node_power telemetry on the 4-rack scenario machine."""
    machine = _default_machine()
    generator = TelemetryGenerator(machine, seed=7, utilization_target=0.3)
    return generator.generate(480, sensors=["cpu_temp", "node_power"])


@pytest.fixture(scope="module")
def channel_split(two_channel_stream):
    """(initial cpu_temp sub-stream, row count of the cpu_temp prefix)."""
    n_cpu = int(np.sum(two_channel_stream.sensor_names == "cpu_temp"))
    return two_channel_stream.channel("cpu_temp"), n_cpu


def _signal(n_rows=6, n_steps=900, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 40, n_steps)
    base = np.vstack([np.sin(0.3 * t + i) for i in range(n_rows)])
    return base + 0.05 * rng.standard_normal((n_rows, n_steps)), t[1] - t[0]


# --------------------------------------------------------------------------- #
# Core: IncrementalMrDMD.add_rows
# --------------------------------------------------------------------------- #
class TestModelAddRows:
    def test_rows_join_without_history(self):
        data, dt = _signal()
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :400])
        model.partial_fit(data[:, 400:500])
        revision = model.tree.revision

        change = model.add_rows(2)
        assert isinstance(change, TopologyChange)
        assert change.n_new_rows == 2 and change.total_rows == 8
        assert change.step == 500 and not change.backfilled
        assert model.n_features == 8
        assert model.tree.revision > revision
        np.testing.assert_array_equal(model.row_birth[-2:], [500, 500])
        assert model.topology_history == [change]

        grown = np.vstack([data[:, 500:600], np.zeros((2, 100))])
        model.partial_fit(grown)
        assert model.reconstruct().shape == (8, 600)
        # Old windows reconstruct new rows as zero (they did not exist).
        np.testing.assert_array_equal(model.reconstruct()[-2:, :500], 0.0)

    def test_zero_history_path_skips_vh_materialization(self):
        data, dt = _signal()
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :400])
        model.partial_fit(data[:, 400:500])
        pending = model._isvd.pending_rotations
        assert pending > 0, "lazy rotations must be outstanding for this test"
        model.add_rows(3)
        # The O(k) fast path must not have paid the O(q^2 T) replay.
        assert model._isvd.pending_rotations == pending

    def test_rows_join_with_backfilled_history(self):
        data, dt = _signal(n_rows=7)
        model = IncrementalMrDMD(dt=dt, max_levels=3, retain_data="all")
        model.fit(data[:6, :400])
        model.partial_fit(data[:6, 400:500])

        change = model.add_rows(data[6:7, :500])
        assert change.backfilled and change.step == 0
        assert model.row_birth[-1] == 0
        model.partial_fit(data[:, 500:600])
        # Backfill extends the *basis*: windows decomposed after the event
        # reconstruct the new row from its actual dynamics (pre-event tree
        # nodes keep their zero rows — old windows are not rewritten).
        recon = model.reconstruct()
        window = slice(500, 600)
        err = np.linalg.norm(recon[6, window] - data[6, window])
        assert err < 0.5 * np.linalg.norm(data[6, window])

    def test_history_nans_are_zero_filled(self):
        data, dt = _signal()
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :400])
        history = np.full((1, 400), np.nan)
        history[:, 200:] = 0.5
        model.add_rows(history)  # must not raise, NaN = missing by contract
        assert model.n_features == 7

    def test_add_rows_checkpoint_roundtrip_resumes_bitwise(self):
        data, dt = _signal()
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :400])
        model.add_rows(2)
        grown = np.vstack([data[:, 400:500], np.zeros((2, 100))])
        model.partial_fit(grown)

        restored = IncrementalMrDMD.from_state_dict(model.state_dict())
        assert restored.topology_history == model.topology_history
        np.testing.assert_array_equal(restored.row_birth, model.row_birth)
        chunk = np.vstack([data[:, 500:600], np.zeros((2, 100))])
        model.partial_fit(chunk)
        restored.partial_fit(chunk)
        np.testing.assert_array_equal(model.reconstruct(), restored.reconstruct())

    def test_pre_elastic_state_dict_loads(self):
        data, dt = _signal()
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :400])
        state = model.state_dict()
        for key in ("row_birth", "topology", "sub_offset", "missing_values"):
            state.pop(key)
        restored = IncrementalMrDMD.from_state_dict(state)
        np.testing.assert_array_equal(
            restored.row_birth, np.zeros(model.n_features, dtype=int)
        )
        assert restored.topology_history == []
        restored.partial_fit(data[:, 400:500])

    def test_validation(self):
        data, dt = _signal()
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        with pytest.raises(RuntimeError):
            model.add_rows(1)
        model.fit(data[:, :400])
        with pytest.raises(ValueError, match=">= 1"):
            model.add_rows(0)
        with pytest.raises(ValueError, match="full ingested timeline"):
            model.add_rows(np.zeros((1, 7)))

    def test_missing_values_policy(self):
        data, dt = _signal()
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :400])
        bad = data[:, 400:420].copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="missing_values='zero'"):
            model.partial_fit(bad)
        tolerant = IncrementalMrDMD(dt=dt, max_levels=3, missing_values="zero")
        tolerant.fit(data[:, :400])
        tolerant.partial_fit(bad)  # NaN -> 0.0
        with pytest.raises(ValueError, match="missing_values"):
            IncrementalMrDMD(dt=dt, missing_values="interpolate")
        with pytest.raises(ValueError, match="missing_values"):
            PipelineConfig(missing_values="interpolate")


# --------------------------------------------------------------------------- #
# Pipeline: add_sensors
# --------------------------------------------------------------------------- #
class TestPipelineAddSensors:
    def _pipeline(self):
        data, dt = _signal(n_rows=8)
        nodes = np.arange(8) // 2
        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), baseline_range=(-5.0, 5.0)
        )
        pipeline = OnlineAnalysisPipeline(dt=dt, config=config, node_of_row=nodes)
        pipeline.ingest(data[:, :400])
        pipeline.ingest(data[:, 400:500])
        return pipeline, data

    def test_row_map_grows_and_old_scores_survive(self):
        pipeline, data = self._pipeline()
        before = pipeline.node_zscores()
        change = pipeline.add_sensors(node_of_row=[4, 4])
        assert change.n_new_rows == 2
        after = pipeline.node_zscores()
        np.testing.assert_array_equal(after.node_indices, [0, 1, 2, 3, 4])
        # Unaffected rows keep their statistics across the event.
        np.testing.assert_array_equal(before.zscores, after.zscores[:4])

    def test_pinned_baseline_is_dropped(self):
        pipeline, data = self._pipeline()
        pipeline.fit_baseline(data[:, :500])  # pinned to caller data
        pipeline.add_sensors(node_of_row=[4])
        assert pipeline._baseline is None
        pipeline.node_zscores()  # refits lazily at the new width

    def test_count_consistency_checks(self):
        pipeline, data = self._pipeline()
        with pytest.raises(ValueError, match="inconsistent"):
            pipeline.add_sensors(node_of_row=[4, 4], n_rows=3)
        with pytest.raises(ValueError, match="node_of_row"):
            pipeline.add_sensors()

    def test_state_roundtrip_carries_topology(self):
        pipeline, data = self._pipeline()
        pipeline.add_sensors(node_of_row=[4, 4])
        assert pipeline.model.topology_history
        restored = OnlineAnalysisPipeline.from_state_dict(pipeline.state_dict())
        chunk = np.vstack([data[:, 500:600], np.zeros((2, 100))])
        pipeline.ingest(chunk)
        restored.ingest(chunk)
        np.testing.assert_array_equal(
            pipeline.node_zscores().zscores, restored.node_zscores().zscores
        )


# --------------------------------------------------------------------------- #
# Sharding: repartition
# --------------------------------------------------------------------------- #
class TestRepartition:
    def test_single_shard_extends(self):
        policy = SingleShard()
        specs = policy.partition(np.array(["t"] * 4), np.arange(4) // 2)
        grown = policy.repartition(specs, np.array(["p", "p"]), np.array([0, 1]))
        assert [s.shard_id for s in grown] == ["all"]
        validate_partition(grown, 6)
        np.testing.assert_array_equal(grown[0].row_indices, np.arange(6))

    def test_metric_sharding_mints_and_extends(self):
        policy = MetricSharding()
        specs = policy.partition(np.array(["t"] * 4), np.arange(4))
        grown = policy.repartition(
            specs, np.array(["t", "p", "p"]), np.array([4, 0, 1])
        )
        assert [s.shard_id for s in grown] == ["metric-t", "metric-p"]
        validate_partition(grown, 7)
        np.testing.assert_array_equal(grown[0].row_indices, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(grown[1].row_indices, [5, 6])

    def test_rack_sharding_matches_by_group(self, two_channel_stream):
        machine = two_channel_stream.machine
        policy = RackSharding()
        names = np.asarray(two_channel_stream.sensor_names)
        nodes = np.asarray(two_channel_stream.node_indices)
        n_cpu = int(np.sum(names == "cpu_temp"))
        specs = policy.partition(names[:n_cpu], nodes[:n_cpu], machine)
        grown = policy.repartition(specs, names[n_cpu:], nodes[n_cpu:], machine)
        # Same shard ids, every shard doubled, no new shards.
        assert [s.shard_id for s in grown] == [s.shard_id for s in specs]
        assert all(g.n_rows == 2 * s.n_rows for g, s in zip(grown, specs))
        validate_partition(grown, len(names))
        # start_step survives extension.
        assert all(g.start_step == s.start_step for g, s in zip(grown, specs))

    def test_spec_start_step_roundtrips(self):
        spec = ShardSpec(
            shard_id="x", row_indices=[3, 4], node_of_row=[0, 0], start_step=240
        )
        assert ShardSpec.from_dict(spec.to_dict()).start_step == 240
        assert ShardSpec.from_dict({k: v for k, v in spec.to_dict().items() if k != "start_step"}).start_step == 0


# --------------------------------------------------------------------------- #
# Executors: add_shard without a pool restart
# --------------------------------------------------------------------------- #
def _get(obj):
    return obj


def _bump(obj):
    obj["n"] = obj.get("n", 0) + 1
    return obj["n"]


class TestExecutorAddShard:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_new_shard_joins_running_pool(self, backend):
        with make_shard_executor(backend, max_workers=2) as executor:
            executor.start({"a": {"name": "a"}, "b": {"name": "b"}})
            assert executor.call("a", _bump) == 1
            executor.add_shard("c", {"name": "c"})
            assert executor.shard_ids == ("a", "b", "c")
            assert executor.call("c", _get)["name"] == "c"
            assert executor.call("c", _bump) == 1
            # Existing residents were untouched by the addition.
            assert executor.call("a", _bump) == 2
            with pytest.raises(ValueError, match="already resident"):
                executor.add_shard("a", {})

    def test_add_shard_requires_started_pool(self):
        executor = make_shard_executor("serial")
        with pytest.raises(RuntimeError, match="not started"):
            executor.add_shard("a", {})
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.add_shard("a", {})


# --------------------------------------------------------------------------- #
# FleetMonitor: elastic events, backend parity, checkpoints
# --------------------------------------------------------------------------- #
def _drive_elastic(stream, full_stream, n_cpu, backend):
    """Reference elastic workload: stream, grow, stream; returns products."""
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=_default_config(),
        alert_engine=AlertEngine(rules=default_rules(), cooldown=60),
        executor=backend,
        max_workers=2,
    )
    full = full_stream.values
    with monitor:
        monitor.ingest(stream.values[:, :240])
        monitor.ingest_and_alert(stream.values[:, 240:320])
        update = monitor.add_sensors(
            full_stream.sensor_names[n_cpu:], full_stream.node_indices[n_cpu:]
        )
        alerts = []
        for lo in range(320, 480, 80):
            _, fired = monitor.ingest_and_alert(full[:, lo : lo + 80])
            alerts.extend(fired)
        products = {
            "update_extended": sorted(update.extended),
            "update_minted": update.minted,
            "rack_values": monitor.rack_values(),
            "windowed": monitor.rack_values(time_range=(380, 480)),
            "alerts": alerts,
            "states": monitor.shard_state_dicts(),
        }
    return products


class TestFleetElastic:
    @pytest.fixture(scope="class")
    def elastic_products(self, two_channel_stream, channel_split):
        initial, n_cpu = channel_split
        return {
            backend: _drive_elastic(initial, two_channel_stream, n_cpu, backend)
            for backend in BACKENDS
        }

    def test_extension_and_alerts_identical_across_backends(self, elastic_products):
        reference = elastic_products["serial"]
        assert reference["update_extended"] == [
            "rack-0",
            "rack-1",
            "rack-2",
            "rack-3",
        ]
        assert reference["update_minted"] == ()
        for backend in ("process",):
            products = elastic_products[backend]
            assert products["rack_values"] == reference["rack_values"]
            assert products["windowed"] == reference["windowed"]
            assert products["alerts"] == reference["alerts"]

    def test_shard_states_identical_across_backends(self, elastic_products):
        def flatten(states):
            return {
                sid: np.asarray(state["model"]["level1_modes"])
                for sid, state in states.items()
            }

        reference = flatten(elastic_products["serial"]["states"])
        for backend in ("process",):
            other = flatten(elastic_products[backend]["states"])
            assert other.keys() == reference.keys()
            for sid in reference:
                np.testing.assert_array_equal(other[sid], reference[sid])

    def test_metric_policy_mints_new_shard_into_live_pool(
        self, two_channel_stream, channel_split
    ):
        initial, n_cpu = channel_split
        monitor = FleetMonitor.from_stream(
            initial, policy=MetricSharding(), config=_default_config(),
            executor="process", max_workers=2,
        )
        with monitor:
            monitor.ingest(initial.values[:, :240])
            executor = monitor.executor
            update = monitor.add_sensors(
                two_channel_stream.sensor_names[n_cpu:],
                two_channel_stream.node_indices[n_cpu:],
            )
            assert update.minted == ("metric-node_power",)
            assert monitor.executor is executor, "pool must not restart"
            assert "metric-node_power" in executor.shard_ids
            # Before its first chunk the new shard scores as "no data".
            assert monitor.rack_values()
            monitor.ingest(two_channel_stream.values[:, 240:320])
            spec = next(
                s for s in monitor.shards if s.shard_id == "metric-node_power"
            )
            assert spec.start_step == 240
            assert "metric-node_power" in monitor.spectra()

    def test_minted_shard_with_history_spans_the_timeline(
        self, two_channel_stream, channel_split
    ):
        initial, n_cpu = channel_split
        monitor = FleetMonitor.from_stream(
            initial, policy=MetricSharding(), config=_default_config()
        )
        with monitor:
            monitor.ingest(initial.values[:, :240])
            update = monitor.add_sensors(
                two_channel_stream.sensor_names[n_cpu:],
                two_channel_stream.node_indices[n_cpu:],
                history=two_channel_stream.values[n_cpu:, :240],
            )
            assert update.minted == ("metric-node_power",)
            spec = next(
                s for s in monitor.shards if s.shard_id == "metric-node_power"
            )
            # Seeded with its back-filled history, the shard spans the
            # fleet timeline from step 0 and is queryable immediately.
            assert spec.start_step == 0
            pipeline = monitor.pipeline("metric-node_power")
            assert pipeline.model.n_snapshots == 240
            assert "metric-node_power" in monitor.spectra()
            monitor.ingest(two_channel_stream.values[:, 240:320])
            assert pipeline.model.n_snapshots == 320

    def test_missing_rows_policy(self, two_channel_stream, channel_split):
        from dataclasses import replace

        initial, n_cpu = channel_split
        monitor = FleetMonitor.from_stream(
            initial, policy=RackSharding(), config=_default_config()
        )
        with pytest.raises(ValueError, match="missing_rows='nan'"):
            monitor.ingest(initial.values[:32, :240])
        monitor.close()
        with pytest.raises(ValueError, match="missing_values='zero'"):
            FleetMonitor.from_stream(
                initial, policy=RackSharding(), config=_default_config(),
                missing_rows="nan",
            )
        config = replace(_default_config(), missing_values="zero")
        tolerant = FleetMonitor.from_stream(
            initial, policy=RackSharding(), config=config, missing_rows="nan"
        )
        with tolerant:
            tolerant.ingest(initial.values[:, :240])
            tolerant.add_sensors(
                two_channel_stream.sensor_names[n_cpu:],
                two_channel_stream.node_indices[n_cpu:],
            )
            # Old-width chunk: the new rows pad with NaN -> zero fill.
            tolerant.ingest(initial.values[:, 240:320])
            assert tolerant.step == 320

    def test_add_sensors_requires_policy_after_restore(
        self, two_channel_stream, channel_split, tmp_path
    ):
        initial, n_cpu = channel_split
        monitor = FleetMonitor.from_stream(
            initial, policy=RackSharding(), config=_default_config()
        )
        monitor.ingest(initial.values[:, :240])
        save_checkpoint(str(tmp_path / "ckpt"), monitor)
        restored = load_checkpoint(str(tmp_path / "ckpt"))
        with pytest.raises(ValueError, match="policy"):
            restored.add_sensors(
                two_channel_stream.sensor_names[n_cpu:],
                two_channel_stream.node_indices[n_cpu:],
            )
        restored.add_sensors(
            two_channel_stream.sensor_names[n_cpu:],
            two_channel_stream.node_indices[n_cpu:],
            policy=RackSharding(),
            machine=two_channel_stream.machine,
        )
        monitor.close()
        restored.close()


# --------------------------------------------------------------------------- #
# Plain ingest rounds: serial == process, with and without mid-run growth
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def parity_stream():
    machine = theta_machine(racks_per_row=1, n_rows=2, node_limit=64)
    generator = TelemetryGenerator(machine, seed=23, utilization_target=0.3)
    return generator.generate(
        560,
        sensors=["cpu_temp", "node_power"],
        anomalies=[HotNodes(node_indices=(10, 11), start=260, delta=12.0)],
    )


def _drive_plain(stream, backend, *, grow_at=None):
    """Ingest the stream with plain ``ingest`` rounds; with ``grow_at`` the
    second sensor's rows join at that chunk, so shard shapes diverge."""
    n_rows = stream.n_rows
    live = n_rows // 2 if grow_at is not None else n_rows
    monitor = FleetMonitor.from_stream(
        _row_prefix_stream(stream, live) if grow_at is not None else stream,
        policy=RackSharding(),
        config=PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), baseline_range=(40.0, 75.0)
        ),
        executor=backend,
        max_workers=2,
    )
    snapshots = []
    with monitor:
        monitor.ingest(stream.values[:live, :240])
        for index, (lo, hi) in enumerate(
            ((240, 320), (320, 400), (400, 480), (480, 560)), start=1
        ):
            snapshots.append(monitor.ingest(stream.values[:live, lo:hi]))
            if grow_at == index:
                monitor.add_sensors(
                    np.asarray(stream.sensor_names)[live:],
                    np.asarray(stream.node_indices)[live:],
                    policy=RackSharding(),
                    machine=stream.machine,
                )
                live = n_rows
        rack_values = monitor.rack_values()
    return snapshots, rack_values


def _assert_plain_parity(run_a, run_b):
    snaps_a, racks_a = run_a
    snaps_b, racks_b = run_b
    assert racks_a == racks_b
    for snap_a, snap_b in zip(snaps_a, snaps_b):
        assert snap_a.step == snap_b.step
        assert snap_a.total_modes == snap_b.total_modes
        for shard_id, pipe_a in snap_a.shard_snapshots.items():
            pipe_b = snap_b.shard_snapshots[shard_id]
            assert pipe_a.n_modes == pipe_b.n_modes
            if pipe_a.update is not None:
                assert pipe_a.update.drift == pipe_b.update.drift


def test_plain_ingest_serial_matches_process(parity_stream):
    """Fleet products are bitwise identical on the serial and process backends."""
    _assert_plain_parity(
        _drive_plain(parity_stream, "serial"), _drive_plain(parity_stream, "process")
    )


def test_plain_ingest_mid_run_growth_serial_matches_process(parity_stream):
    """add_sensors mid-run diverges shard shapes; parity must survive."""
    _assert_plain_parity(
        _drive_plain(parity_stream, "serial", grow_at=2),
        _drive_plain(parity_stream, "process", grow_at=2),
    )


# --------------------------------------------------------------------------- #
# Checkpoint format: forward/backward compatibility
# --------------------------------------------------------------------------- #
class TestCheckpointVersions:
    def test_v1_fixture_restores_and_resumes_bit_for_bit(
        self, channel_split, tmp_path
    ):
        initial, _ = channel_split
        monitor = FleetMonitor.from_stream(
            initial, policy=RackSharding(), config=_default_config()
        )
        monitor.ingest(initial.values[:, :240])
        directory = save_legacy_checkpoint(str(tmp_path / "v1"), monitor)
        assert read_manifest(directory)["version"] == 1

        restored = load_checkpoint(directory)
        assert _shard_reprs(restored) == _shard_reprs(monitor)
        chunk = initial.values[:, 240:320]
        monitor.ingest(chunk)
        restored.ingest(chunk)
        assert _shard_reprs(restored) == _shard_reprs(monitor)
        assert restored.rack_values() == monitor.rack_values()
        monitor.close()
        restored.close()

    def test_v2_fixture_with_added_rows_restores_and_resumes_bit_for_bit(
        self, two_channel_stream, channel_split, tmp_path
    ):
        initial, n_cpu = channel_split
        monitor = FleetMonitor.from_stream(
            initial, policy=RackSharding(), config=_default_config()
        )
        monitor.ingest(initial.values[:, :240])
        monitor.add_sensors(
            two_channel_stream.sensor_names[n_cpu:],
            two_channel_stream.node_indices[n_cpu:],
        )
        monitor.ingest(two_channel_stream.values[:, 240:320])
        directory = save_legacy_checkpoint(
            str(tmp_path / "v2"), monitor, version=2
        )
        assert read_manifest(directory)["version"] == 2

        restored = load_checkpoint(directory)
        assert _shard_reprs(restored) == _shard_reprs(monitor)
        chunk = two_channel_stream.values[:, 320:400]
        monitor.ingest(chunk)
        restored.ingest(chunk)
        assert _shard_reprs(restored) == _shard_reprs(monitor)
        assert monitor.rack_values() == restored.rack_values()
        monitor.close()
        restored.close()

    def test_row_policing_modes_survive_restore(
        self, two_channel_stream, channel_split, tmp_path
    ):
        from dataclasses import replace

        initial, n_cpu = channel_split
        config = replace(_default_config(), missing_values="zero")
        monitor = FleetMonitor.from_stream(
            initial, policy=RackSharding(), config=config, missing_rows="nan"
        )
        monitor.ingest(initial.values[:, :240])
        monitor.add_sensors(
            two_channel_stream.sensor_names[n_cpu:],
            two_channel_stream.node_indices[n_cpu:],
        )
        save_checkpoint(str(tmp_path / "nan"), monitor)
        restored = load_checkpoint(str(tmp_path / "nan"))
        assert restored.missing_rows == "nan"
        # The restored service keeps padding not-yet-reporting sensors.
        restored.ingest(initial.values[:, 240:320])
        assert restored.step == 320
        monitor.close()
        restored.close()

    def test_unknown_version_refuses_cleanly(self, channel_split, tmp_path):
        import json

        initial, _ = channel_split
        monitor = FleetMonitor.from_stream(
            initial, policy=RackSharding(), config=_default_config()
        )
        monitor.ingest(initial.values[:, :240])
        info = save_checkpoint(str(tmp_path / "v"), monitor)
        manifest_path = os.path.join(info.directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        # Version 3 became the delta format; 99 stays from the future.
        manifest["version"] = 99
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(info.directory)
        monitor.close()



# --------------------------------------------------------------------------- #
# Federation: partial rounds, membership, chunk log, catch-up
# --------------------------------------------------------------------------- #
def _fed_machine(stream):
    return FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=_default_config(),
        alert_engine=AlertEngine(rules=default_rules()),
    )


@pytest.fixture()
def fed_streams():
    machine = _default_machine()
    return {
        name: TelemetryGenerator(machine, seed=seed, utilization_target=0.3).generate(
            560, sensors=["cpu_temp"]
        )
        for name, seed in (("east", 21), ("west", 22))
    }


class TestFederationElastic:
    def test_partial_rounds_advance_only_participants(self, fed_streams):
        federated = FederatedMonitor(
            MachineRegistry({n: _fed_machine(s) for n, s in fed_streams.items()})
        )
        with federated:
            federated.ingest({n: s.values[:, :240] for n, s in fed_streams.items()})
            federated.ingest_and_alert(
                {"east": fed_streams["east"].values[:, 240:320]}
            )
            assert federated.machine_steps() == {"east": 320, "west": 240}
            # Windowed fleet queries skip machines outside the window.
            scores = federated.node_zscores(time_range=(300, 320))
            assert set(scores) == {"east"}
        federated.registry.close()

    def test_skipping_a_round_keeps_drift_memory(self):
        from repro.core import UpdateRecord

        def record(stale):
            return UpdateRecord(
                chunk_size=80, total_snapshots=320, level1_rank=2,
                level1_modes=2, drift=1.0, stale=stale, new_nodes=1,
            )

        rule = FleetWideRule(min_machines=2, window=100)
        # Round 1: east drifts; west absent (partial round) but registered.
        out = rule.evaluate(FederatedAlertContext(
            step=320, updates={"east": {"s": record(True)}},
            machines=("east", "west"),
        ))
        assert out == []
        # Round 2: west drifts; east skips. East's memory must survive.
        out = rule.evaluate(FederatedAlertContext(
            step=400, updates={"west": {"s": record(True)}},
            machines=("east", "west"),
        ))
        assert len(out) == 1
        # Deregistration (absent from machines) drops the memory.
        out = rule.evaluate(FederatedAlertContext(
            step=420, updates={"west": {"s": record(True)}}, machines=("west",),
        ))
        assert out == []

    def test_fleet_wide_zscore_rule(self):
        def zalert(step):
            return Alert(
                rule="zscore", severity=AlertSeverity.CRITICAL, step=step,
                message="hot", node=1, value=3.0,
            )

        rule = FleetWideZScoreRule(min_machines=2, window=100)
        out = rule.evaluate(FederatedAlertContext(
            step=320, machines=("east", "west"),
            machine_alerts={"east": (zalert(320),), "west": ()},
        ))
        assert out == []
        out = rule.evaluate(FederatedAlertContext(
            step=400, machines=("east", "west"),
            machine_alerts={"east": (), "west": (zalert(400),)},
        ))
        assert len(out) == 1 and out[0].rule == "fleet-wide-zscore"
        # Router dedup semantics match the drift rule: per-rule cooldown.
        router = AlertRouter(fleet_rules=[rule], cooldown=120)
        state = rule.state_dict()
        rule.load_state_dict(state)  # round-trips
        routed = router.route(
            {"east": [], "west": [zalert(410)]},
            FederatedAlertContext(step=410, machines=("east", "west")),
        )
        assert [a.rule for a in routed if a.rule == "fleet-wide-zscore"]
        routed = router.route(
            {"east": [], "west": [zalert(430)]},
            FederatedAlertContext(step=430, machines=("east", "west")),
        )
        assert not [a for a in routed if a.rule == "fleet-wide-zscore"]

    def test_chunk_log_contract(self):
        log = ChunkLog(capacity_per_machine=2)
        log.record("m", 0, np.zeros((2, 100)))
        log.record("m", 100, np.zeros((2, 50)))
        with pytest.raises(ValueError, match="stream order"):
            log.record("m", 500, np.zeros((2, 10)))
        log.record("m", 150, np.zeros((2, 50)))
        assert log.latest_step("m") == 200
        # Capacity 2: the [0, 100) entry was evicted -> catching up from 0
        # must fail loudly, not skip data.
        with pytest.raises(ValueError, match="no longer covers"):
            log.entries_since("m", 0)
        tail = log.entries_since("m", 150)
        assert [(e.start, e.stop) for e in tail] == [(150, 200)]
        assert log.entries_since("m", 200) == []
        log.forget("m")
        assert log.machines == ()

    def test_register_and_stale_restore_catch_up(self, fed_streams, tmp_path):
        log = ChunkLog()
        federated = FederatedMonitor(
            MachineRegistry({n: _fed_machine(s) for n, s in fed_streams.items()}),
            chunk_log=log,
        )
        bounds = [(0, 240), (240, 320), (320, 400), (400, 480), (480, 560)]
        with federated:
            federated.ingest({n: s.values[:, :240] for n, s in fed_streams.items()})
            federated.ingest({n: s.values[:, 240:320] for n, s in fed_streams.items()})

            # Mid-run registration: a brand-new machine joins.
            machine = _default_machine()
            south_stream = TelemetryGenerator(
                machine, seed=33, utilization_target=0.3
            ).generate(560, sensors=["cpu_temp"])
            replayed = federated.register_machine("south", _fed_machine(south_stream))
            assert replayed == 0
            assert federated.machine_names == ("east", "west", "south")

            # Stale restore: checkpoint west, advance, restore, catch up.
            save_checkpoint(str(tmp_path / "west"), federated.machine("west"))
            federated.ingest({"west": fed_streams["west"].values[:, 320:400]})
            federated.ingest({"west": fed_streams["west"].values[:, 400:480]})
            stale = load_checkpoint(str(tmp_path / "west"), rules=default_rules())
            assert stale.step == 320
            replayed = federated.reattach_machine("west", stale)
            assert replayed == 2
            assert federated.machine_steps()["west"] == 480

            # The caught-up machine matches an uninterrupted run exactly.
            reference = _fed_machine(fed_streams["west"])
            for lo, hi in bounds[:4]:
                reference.ingest(fed_streams["west"].values[:, lo:hi])
            assert (
                federated.machine("west").rack_values(time_range=(380, 480))
                == reference.rack_values(time_range=(380, 480))
            )
            reference.close()
        federated.registry.close()

    def test_round_that_raises_part_way_leaves_no_log_gap(
        self, fed_streams, tmp_path, monkeypatch
    ):
        log = ChunkLog()
        federated = FederatedMonitor(
            MachineRegistry({n: _fed_machine(s) for n, s in fed_streams.items()}),
            chunk_log=log,
        )
        first, second = federated.machine_names
        with federated:
            federated.ingest({n: s.values[:, :240] for n, s in fed_streams.items()})
            save_checkpoint(str(tmp_path / first), federated.machine(first))

            def unreachable(*args, **kwargs):
                raise RuntimeError("machine unreachable")

            monkeypatch.setattr(
                federated.machine(second), "ingest_and_alert", unreachable
            )
            with pytest.raises(RuntimeError, match="unreachable"):
                federated.ingest_and_alert(
                    {n: s.values[:, 240:320] for n, s in fed_streams.items()}
                )
            # The first machine ingested its chunk before the second
            # raised: the log holds it.
            assert federated.machine(first).step == 320
            assert log.latest_step(first) == federated.machine(first).step

            # A stale restore of the first machine replays without a gap.
            stale = load_checkpoint(str(tmp_path / first), rules=default_rules())
            assert stale.step == 240
            assert federated.reattach_machine(first, stale) == 1
            assert federated.machine_steps()[first] == 320
            reference = _fed_machine(fed_streams[first])
            reference.ingest(fed_streams[first].values[:, :240])
            reference.ingest(fed_streams[first].values[:, 240:320])
            assert (
                federated.machine(first).rack_values(time_range=(220, 320))
                == reference.rack_values(time_range=(220, 320))
            )
            reference.close()
        federated.registry.close()

    def test_catch_up_requires_chunk_log(self, fed_streams):
        federated = FederatedMonitor(
            MachineRegistry({n: _fed_machine(s) for n, s in fed_streams.items()})
        )
        with pytest.raises(RuntimeError, match="chunk_log"):
            federated.catch_up("east")
        federated.close()
        federated.registry.close()


# --------------------------------------------------------------------------- #
# Scenario catalog
# --------------------------------------------------------------------------- #
class TestElasticScenarios:
    def test_mid_run_add_sensors_scenario(self, tmp_path):
        from repro.service import ScenarioRunner, get_scenario

        result = ScenarioRunner(get_scenario("mid-run-add-sensors")).run()
        monitor = result.monitor
        assert any(s.shard_id == "metric-node_power" for s in monitor.shards)
        minted = next(
            s for s in monitor.shards if s.shard_id == "metric-node_power"
        )
        assert minted.start_step == 400  # initial 240 + 2 chunks of 80
        # The injected hot job must still alert across the topology event.
        assert {10, 11, 12, 13} <= result.alerted_nodes()

    @pytest.mark.parametrize("executor", [None, "process"])
    def test_elastic_fleet_scenario(self, tmp_path, executor):
        from repro.federation import FederatedScenarioRunner, get_federated_scenario

        result = FederatedScenarioRunner(
            get_federated_scenario("elastic-fleet"),
            checkpoint_dir=str(tmp_path / f"ckpt-{executor}"),
            executor=executor,
        ).run()
        assert result.joined == ("south",)
        assert result.stale_restored and result.chunks_replayed >= 1
        assert sorted(result.topology_updates) == ["east", "west"]
        assert result.topology_updates["east"].minted == ("metric-node_power",)
        assert sorted(result.topology_updates["west"].extended) == [
            "rack-0", "rack-1", "rack-2", "rack-3",
        ]
        # All four machines answer fleet queries at the end.
        assert sorted(result.rack_values) == ["east", "north", "south", "west"]
        if not hasattr(self, "_reference"):
            type(self)._reference = result
        else:
            # serial == process, end to end, through every elastic event.
            assert result.zscore_map == type(self)._reference.zscore_map
            assert [a.to_dict() for a in result.alerts] == [
                a.to_dict() for a in type(self)._reference.alerts
            ]
