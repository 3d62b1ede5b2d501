"""Asynchronous deep-level refresh (``deep_levels="deferred"``).

Deferring levels 2..L trades bounded, *visible* staleness for ingest
latency: level 1 (and therefore drift detection) stays current every
chunk, queued deep work drains through ``refresh_deep_levels``, and the
refreshed tree is node-for-node what inline maintenance would have built.
Covers the model, the pipeline stamps, the fleet scheduling/drain cycle,
checkpoint round-trips of pending work, and the alert-context staleness
annotation.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_multiscale_signal
from repro.core import MrDMDConfig
from repro.core.imrdmd import IncrementalMrDMD, UpdateRecord
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, RackSharding
from repro.service.alerts import AlertContext, DriftRule
from repro.service.checkpoint import load_checkpoint, save_checkpoint
from repro.service.alerts import default_rules
from repro.telemetry import HotNodes, TelemetryGenerator, theta_machine


def _tree_nodes(model):
    """Tree nodes keyed for order-independent comparison.

    Inline maintenance interleaves deep nodes with later level-1 nodes
    while a deferred refresh appends them afterwards, so insertion order
    differs by design; the *set* of nodes must not.
    """
    return sorted(
        model.tree.nodes,
        key=lambda n: (n.level, n.start, n.bin_index, n.n_snapshots),
    )


def _assert_same_trees(a, b):
    nodes_a, nodes_b = _tree_nodes(a), _tree_nodes(b)
    assert len(nodes_a) == len(nodes_b)
    for na, nb in zip(nodes_a, nodes_b):
        assert (na.level, na.bin_index, na.start, na.n_snapshots) == (
            nb.level, nb.bin_index, nb.start, nb.n_snapshots
        )
        assert np.array_equal(na.modes, nb.modes)
        assert np.array_equal(na.eigenvalues, nb.eigenvalues)
        assert np.array_equal(na.amplitudes, nb.amplitudes)


class TestValidation:
    def test_model_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="deep_levels"):
            IncrementalMrDMD(dt=1.0, deep_levels="eventually")

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="deep_levels"):
            PipelineConfig(deep_levels="eventually")

    def test_config_rejects_negative_refresh_period(self):
        with pytest.raises(ValueError, match="deep_refresh_every"):
            PipelineConfig(deep_refresh_every=-1)


class TestModelDeferred:
    @pytest.fixture(scope="class")
    def signal(self):
        return make_multiscale_signal(n_sensors=12, n_timesteps=768)

    def _grow(self, mode, signal, n_chunks=6, chunk=64):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3, deep_levels=mode)
        model.fit(data[:, :384])
        for index in range(n_chunks):
            model.partial_fit(data[:, 384 + index * chunk: 384 + (index + 1) * chunk])
        return model

    def test_staleness_accounting(self, signal):
        model = self._grow("deferred", signal)
        assert model.deep_pending == 6
        # Oldest queued chunk is 6 chunks x 64 snapshots behind the head.
        assert model.deep_stale_snapshots == 6 * 64
        inline = self._grow("inline", signal)
        assert inline.deep_pending == 0
        assert inline.deep_stale_snapshots == 0

    def test_refresh_converges_to_the_inline_tree(self, signal):
        deferred = self._grow("deferred", signal)
        inline = self._grow("inline", signal)
        assert len(deferred.tree) < len(inline.tree)  # deep work still queued
        added = deferred.refresh_deep_levels()
        assert added == len(inline.tree) - (len(deferred.tree) - added)
        assert deferred.deep_pending == 0
        assert deferred.deep_stale_snapshots == 0
        _assert_same_trees(deferred, inline)

    def test_partial_refresh_drains_oldest_first(self, signal):
        model = self._grow("deferred", signal)
        stale_before = model.deep_stale_snapshots
        model.refresh_deep_levels(max_entries=2)
        assert model.deep_pending == 4
        assert model.deep_stale_snapshots == stale_before - 2 * 64
        model.refresh_deep_levels()
        _assert_same_trees(model, self._grow("inline", signal))

    def test_refresh_is_a_noop_inline(self, signal):
        model = self._grow("inline", signal)
        assert model.refresh_deep_levels() == 0

    def test_state_dict_round_trips_pending_work(self, signal):
        model = self._grow("deferred", signal)
        restored = IncrementalMrDMD.from_state_dict(model.state_dict())
        assert restored.deep_levels == "deferred"
        assert restored.deep_pending == model.deep_pending
        assert restored.deep_stale_snapshots == model.deep_stale_snapshots
        model.refresh_deep_levels()
        restored.refresh_deep_levels()
        _assert_same_trees(model, restored)


CONFIG_DEFERRED = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=3),
    baseline_range=(40.0, 75.0),
    deep_levels="deferred",
    deep_refresh_every=2,
)


@pytest.fixture(scope="module")
def fleet_stream():
    machine = theta_machine(racks_per_row=1, n_rows=2, node_limit=64)
    generator = TelemetryGenerator(machine, seed=29, utilization_target=0.3)
    return generator.generate(
        560,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=(8, 9), start=260, delta=13.0)],
    )


def _drive_monitor(stream, config, backend="serial", n_chunks=4):
    monitor = FleetMonitor.from_stream(
        stream, policy=RackSharding(), config=config, executor=backend,
        max_workers=2,
    )
    snapshots = [monitor.ingest(stream.values[:, :240])]
    for index in range(n_chunks):
        lo = 240 + index * 80
        snapshots.append(monitor.ingest(stream.values[:, lo: lo + 80]))
    return monitor, snapshots


class TestFleetDeferred:
    def test_snapshots_stamp_staleness_and_every_n_scheduling_drains(
        self, fleet_stream
    ):
        monitor, snapshots = _drive_monitor(fleet_stream, CONFIG_DEFERRED)
        with monitor:
            # Snapshot staleness stamps are fleet-wide aggregates.
            assert snapshots[1].deep_pending > 0
            assert snapshots[1].deep_stale_snapshots == 80
            # deep_refresh_every=2 over 4 chunks: refreshes were scheduled
            # and the queue was bounded, not monotone.
            scheduled_drain = monitor.drain_refreshes()
            staleness = monitor.deep_staleness()
            assert all(stale <= 2 * 80 for _, stale in staleness.values())
            assert scheduled_drain >= 0
            # Forcing the remainder through empties the backlog.
            monitor.refresh_deep_levels()
            assert all(
                (pending, stale) == (0, 0)
                for pending, stale in monitor.deep_staleness().values()
            )

    def test_inline_monitor_refresh_is_a_noop(self, fleet_stream):
        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), baseline_range=(40.0, 75.0)
        )
        monitor, _ = _drive_monitor(fleet_stream, config, n_chunks=1)
        with monitor:
            assert monitor.refresh_deep_levels() == 0
            assert monitor.deep_staleness() == {
                shard: (0, 0) for shard in (spec.shard_id for spec in monitor.shards)
            }

    @pytest.mark.parametrize("backend", ["process"])
    def test_deferred_scheduling_is_backend_invariant(self, fleet_stream, backend):
        serial_monitor, serial_snaps = _drive_monitor(fleet_stream, CONFIG_DEFERRED)
        other_monitor, other_snaps = _drive_monitor(
            fleet_stream, CONFIG_DEFERRED, backend=backend
        )
        with serial_monitor, other_monitor:
            for a, b in zip(serial_snaps, other_snaps):
                assert a.step == b.step
                assert a.total_modes == b.total_modes
                assert a.deep_pending == b.deep_pending
                assert a.deep_stale_snapshots == b.deep_stale_snapshots
            serial_monitor.refresh_deep_levels()
            other_monitor.refresh_deep_levels()
            assert serial_monitor.rack_values() == other_monitor.rack_values()

    def test_deferred_converges_to_inline_fleet(self, fleet_stream):
        inline_config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), baseline_range=(40.0, 75.0)
        )
        deferred_monitor, _ = _drive_monitor(fleet_stream, CONFIG_DEFERRED)
        inline_monitor, _ = _drive_monitor(fleet_stream, inline_config)
        with deferred_monitor, inline_monitor:
            deferred_monitor.refresh_deep_levels()
            for shard_id in (s.shard_id for s in deferred_monitor.shards):
                _assert_same_trees(
                    deferred_monitor.pipeline(shard_id).model,
                    inline_monitor.pipeline(shard_id).model,
                )

    def test_checkpoint_round_trips_the_backlog(self, fleet_stream, tmp_path):
        monitor, _ = _drive_monitor(fleet_stream, CONFIG_DEFERRED, n_chunks=3)
        with monitor:
            staleness = monitor.deep_staleness()
            assert any(pending for pending, _ in staleness.values())
            save_checkpoint(str(tmp_path / "ckpt"), monitor)
        restored = load_checkpoint(
            str(tmp_path / "ckpt"), rules=default_rules(), sinks=[]
        )
        with restored:
            assert restored.config.deep_levels == "deferred"
            assert restored.deep_staleness() == staleness
            # The restored fleet keeps streaming and draining.
            restored.ingest(fleet_stream.values[:, 480:560])
            restored.refresh_deep_levels()
            assert all(
                (pending, stale) == (0, 0)
                for pending, stale in restored.deep_staleness().values()
            )


class TestAlertStaleness:
    def _record(self, *, stale: bool) -> UpdateRecord:
        return UpdateRecord(
            chunk_size=80, total_snapshots=400, level1_rank=6, level1_modes=3,
            drift=0.4, stale=stale, new_nodes=1,
        )

    def test_drift_alert_carries_the_staleness_age(self):
        context = AlertContext(
            step=400,
            updates={"rack-0": self._record(stale=True)},
            deep_stale={"rack-0": 160},
        )
        (alert,) = DriftRule().evaluate(context)
        assert "160 snapshots of deep-level work queued" in alert.message

    def test_fresh_shards_get_no_annotation(self):
        context = AlertContext(
            step=400, updates={"rack-0": self._record(stale=True)}
        )
        (alert,) = DriftRule().evaluate(context)
        assert "queued" not in alert.message
