"""Process-backend wire contract: pickled chunks, deduplicated broadcasts.

Arrays travel to process workers by pickle, so the products of a process
fleet must match the serial fleet's bit for bit; broadcast payloads are
shipped once per worker rather than once per shard.
"""

from __future__ import annotations

from repro.util.parallel import ProcessShardExecutor


def _describe(obj):
    return obj["offset"]


OBJECTS = {"a": {"offset": 1.0}, "b": {"offset": 2.0}, "c": {"offset": 3.0}}


def test_broadcast_dedup_ships_one_payload_per_worker():
    """Shards co-resident on a worker reuse one broadcast payload."""
    with ProcessShardExecutor(max_workers=2) as executor:
        executor.start(dict(OBJECTS))  # 3 shards on 2 workers
        for _ in range(3):  # repeated rounds: payload cleanup must not leak
            result = executor.broadcast(_describe)
            assert result == {"a": 1.0, "b": 2.0, "c": 3.0}


# --------------------------------------------------------------------------- #
# Fleet-level parity: shipping chunks to workers must be invisible
# --------------------------------------------------------------------------- #
def _drive_fleet(executor):
    from repro.core import MrDMDConfig
    from repro.pipeline import PipelineConfig
    from repro.service import FleetMonitor, RackSharding
    from repro.telemetry import HotNodes, TelemetryGenerator, theta_machine

    machine = theta_machine(racks_per_row=1, n_rows=2, node_limit=64)
    generator = TelemetryGenerator(machine, seed=31, utilization_target=0.3)
    stream = generator.generate(
        480,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=(20, 21), start=240, delta=12.0)],
    )
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), baseline_range=(40.0, 75.0)
        ),
        executor=executor,
    )
    snapshots = []
    with monitor:
        snapshots.append(monitor.ingest(stream.values[:, :240]))
        for lo, hi in ((240, 320), (320, 400), (400, 480)):
            snapshots.append(monitor.ingest(stream.values[:, lo:hi]))
        rack_values = monitor.rack_values()
    return snapshots, rack_values


def test_fleet_products_identical_across_transports():
    """A process fleet (pickled chunks) matches the in-process serial one."""
    snaps_process, racks_process = _drive_fleet(ProcessShardExecutor(max_workers=2))
    snaps_serial, racks_serial = _drive_fleet("serial")
    assert racks_process == racks_serial
    for a, b in zip(snaps_process, snaps_serial):
        assert a.step == b.step and a.total_modes == b.total_modes
        for shard_id, pa in a.shard_snapshots.items():
            pb = b.shard_snapshots[shard_id]
            assert pa.n_modes == pb.n_modes
            if pa.update is not None:
                assert pa.update.drift == pb.update.drift
