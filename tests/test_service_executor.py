"""Persistent-executor parity: serial vs process fleet monitors.

The tentpole guarantee of the shard-executor subsystem: both backends
produces **identical** analysis products — fleet snapshots, rack values,
spectra, checkpoint payloads — because the per-shard computation is the
same code on the same NumPy, only scheduled differently.  These tests pin
that, plus the executor lifecycle (lazy start, hold-open, close-lands-state,
context manager) and the overlapped ``ingest_and_alert`` path.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import MrDMDConfig
from repro.pipeline import PipelineConfig
from repro.service import (
    FleetMonitor,
    RackSharding,
    RingBufferSink,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.alerts import AlertEngine, default_rules
from repro.service.scenarios import quiet_fleet
from repro.telemetry import HotNodes, TelemetryGenerator
from repro.util.parallel import ShardTaskError

BACKENDS = ["serial", "process"]

CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
)


@pytest.fixture(scope="module")
def fleet_stream():
    scenario = quiet_fleet()
    generator = TelemetryGenerator(scenario.machine, seed=17, utilization_target=0.3)
    return generator.generate(
        480,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=(33, 34), start=220, delta=14.0)],
    )


def _drive(stream, backend, *, with_engine=False):
    """Run the reference two-chunk workload on one backend; close at the end."""
    engine = AlertEngine(rules=default_rules(), cooldown=60) if with_engine else None
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=engine,
        executor=backend,
        max_workers=2,
    )
    with monitor:
        snapshots = [
            monitor.ingest(stream.values[:, :240]),
            monitor.ingest(stream.values[:, 240:]),
        ]
        products = {
            "snapshots": snapshots,
            "rack_values": monitor.rack_values(),
            "windowed": monitor.rack_values(time_range=(300, 480)),
            "total_modes": monitor.total_modes,
            "spectra_power": {
                sid: spec.power for sid, spec in monitor.spectra().items()
            },
            "fleet_spectrum": monitor.fleet_spectrum(),
            "states": monitor.shard_state_dicts(),
        }
    return monitor, products


@pytest.fixture(scope="module")
def backend_products(fleet_stream):
    return {backend: _drive(fleet_stream, backend) for backend in BACKENDS}


def _assert_state_equal(a, b, path=""):
    """Deep bit-for-bit comparison of nested checkpoint state dicts."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=True), path
    else:
        assert a == b, path


@pytest.mark.parametrize("backend", ["process"])
def test_backend_products_match_serial(backend_products, backend):
    _, reference = backend_products["serial"]
    _, products = backend_products[backend]
    assert products["snapshots"] == reference["snapshots"]
    assert products["rack_values"] == reference["rack_values"]
    assert products["windowed"] == reference["windowed"]
    assert products["total_modes"] == reference["total_modes"]
    for sid, power in products["spectra_power"].items():
        assert np.array_equal(power, reference["spectra_power"][sid])
        assert not power.flags.writeable


@pytest.mark.parametrize("backend", ["process"])
def test_backend_fleet_spectrum_matches_serial(backend_products, backend):
    _, reference = backend_products["serial"]
    _, products = backend_products[backend]
    got, want = products["fleet_spectrum"], reference["fleet_spectrum"]
    assert got.n_modes == want.n_modes > 0
    for name in ("frequencies", "power", "levels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.shard_ids.tolist() == want.shard_ids.tolist()
    assert got.total_power_by_shard() == want.total_power_by_shard()


@pytest.mark.parametrize("backend", ["process"])
def test_backend_checkpoint_state_matches_serial(backend_products, backend):
    _, reference = backend_products["serial"]
    _, products = backend_products[backend]
    assert products["states"].keys() == reference["states"].keys()
    for sid in products["states"]:
        _assert_state_equal(products["states"][sid], reference["states"][sid], sid)


@pytest.mark.parametrize("backend", ["process"])
def test_backend_checkpoint_files_round_trip(backend_products, backend, tmp_path):
    """save/load through the executor restores serial-identical products."""
    monitor, _ = backend_products[backend]
    serial_monitor, reference = backend_products["serial"]
    save_checkpoint(str(tmp_path / backend), monitor)
    save_checkpoint(str(tmp_path / "serial"), serial_monitor)
    restored = load_checkpoint(str(tmp_path / backend))
    restored_serial = load_checkpoint(str(tmp_path / "serial"))
    assert restored.step == restored_serial.step
    assert restored.rack_values() == restored_serial.rack_values()
    assert restored.rack_values() == reference["rack_values"]


def test_monitor_usable_after_close(backend_products, fleet_stream):
    """close() lands worker-resident state; post-close queries run serially."""
    for backend in BACKENDS:
        monitor, products = backend_products[backend]
        # Post-close work runs on the serial executor close installed.
        assert monitor.executor.backend == "serial"
        assert monitor.executor.started and not monitor.executor.closed
        assert monitor.rack_values() == products["rack_values"], backend
        follow_up = monitor.ingest(fleet_stream.values[:, :480][:, -60:])
        assert follow_up.step == 540, backend


def test_executor_is_held_open_across_ingests(fleet_stream):
    monitor = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG, executor="process",
        max_workers=2,
    )
    with monitor:
        assert monitor.executor.backend == "serial", "process starts lazily"
        assert monitor.total_modes == 0, "a read spawns no workers"
        assert monitor.executor.backend == "serial"
        monitor.ingest(fleet_stream.values[:, :240])
        executor = monitor.executor
        assert executor.backend == "process" and executor.started
        monitor.ingest(fleet_stream.values[:, 240:])
        assert monitor.executor is executor, "same executor across ingests"
    assert monitor.executor.backend == "serial"
    assert executor.closed


def test_process_monitor_spawns_no_worker_before_its_first_round(
    fleet_stream, tmp_path
):
    """Reads after construction, restore and unpickling run on a serial
    executor; the first ingest round moves the pipelines onto workers."""
    monitor = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG, executor="process",
        max_workers=2,
    )
    assert monitor.last_updates() == dict.fromkeys(monitor.pipelines)
    assert monitor.executor.backend == "serial"
    with monitor:
        monitor.ingest(fleet_stream.values[:, :240])
        assert monitor.executor.backend == "process"
        save_checkpoint(str(tmp_path / "ckpt"), monitor)
        copy = pickle.loads(pickle.dumps(monitor))
    restored = load_checkpoint(
        str(tmp_path / "ckpt"), executor="process", max_workers=2
    )
    for other in (copy, restored):
        with other:
            assert other.rack_values() == monitor.rack_values()
            assert other.executor.backend == "serial"
            other.ingest(fleet_stream.values[:, 240:300])
            assert other.executor.backend == "process"


def test_failed_close_leaves_the_monitor_closed(fleet_stream):
    """A close whose pull meets a dead worker raises, and the monitor then
    refuses every call instead of answering from pre-ingest state."""
    monitor = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG, executor="process",
        max_workers=2,
    )
    monitor.ingest(fleet_stream.values[:, :240])
    assert monitor.total_modes > 0
    worker = monitor.executor._workers[-1].process
    worker.kill()
    worker.join(timeout=30)
    with pytest.raises(ShardTaskError) as caught:
        monitor.close()
    assert caught.value.kind == "crash"
    with pytest.raises(RuntimeError, match="executor is closed"):
        monitor.total_modes
    with pytest.raises(RuntimeError, match="executor is closed"):
        monitor.rack_values()
    with pytest.raises(RuntimeError, match="executor is closed"):
        monitor.ingest(fleet_stream.values[:, 240:300])
    assert monitor.step == 240
    monitor.close()  # a second close is a no-op


@pytest.mark.parametrize("backend", BACKENDS)
def test_ingest_and_alert_matches_sequential_path(fleet_stream, backend):
    """The overlapped path fires bit-for-bit the same alerts and snapshots."""
    chunks = [(0, 240), (240, 320), (320, 400), (400, 480)]

    sink_seq = RingBufferSink()
    sequential = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG,
        alert_engine=AlertEngine(rules=default_rules(), sinks=[sink_seq], cooldown=60),
    )
    with sequential:
        sequential.ingest(fleet_stream.values[:, slice(*chunks[0])])
        seq_products = []
        for lo, hi in chunks[1:]:
            snapshot = sequential.ingest(fleet_stream.values[:, lo:hi])
            alerts = sequential.evaluate_alerts(window=150)
            seq_products.append((snapshot, alerts))

    sink_overlap = RingBufferSink()
    overlapped = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG,
        alert_engine=AlertEngine(
            rules=default_rules(), sinks=[sink_overlap], cooldown=60
        ),
        executor=backend,
        max_workers=2,
    )
    with overlapped:
        overlapped.ingest(fleet_stream.values[:, slice(*chunks[0])])
        overlap_products = []
        for lo, hi in chunks[1:]:
            snapshot, alerts = overlapped.ingest_and_alert(
                fleet_stream.values[:, lo:hi], window=150
            )
            overlap_products.append((snapshot, alerts))

    assert overlap_products == seq_products
    assert [a.to_dict() for a in sink_overlap.alerts] == [
        a.to_dict() for a in sink_seq.alerts
    ]


def test_ingest_and_alert_without_engine(fleet_stream):
    with FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG, executor="process"
    ) as monitor:
        snapshot, alerts = monitor.ingest_and_alert(fleet_stream.values[:, :240])
        assert snapshot.step == 240
        assert alerts == []
