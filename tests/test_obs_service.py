"""repro.obs through the service stack: backend parity, disabled path, CLI.

The observability counters must honour the repo's core discipline: the
*scheduling-independent* totals (counter values, gauge values, histogram
counts — never wall-clock sums) are identical across the serial and
process backends, because both run the same per-shard work.
Executor-level instruments are the deliberate exception (they carry a
``backend=`` label and the process backend adds enable/drain round trips),
so the parity comparison filters them out.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.core import MrDMDConfig
from repro.obs import OBS
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, IngestStats, RackSharding, save_checkpoint
from repro.service.__main__ import main as service_main
from repro.service.alerts import AlertEngine, default_rules
from repro.service.scenarios import quiet_fleet
from repro.telemetry import HotNodes, TelemetryGenerator

BACKENDS = ["serial", "process"]

CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
)


@pytest.fixture(autouse=True)
def pristine_provider():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="module")
def fleet_stream():
    scenario = quiet_fleet()
    generator = TelemetryGenerator(scenario.machine, seed=17, utilization_target=0.3)
    return generator.generate(
        480,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=(33, 34), start=220, delta=14.0)],
    )


def _drive(stream, backend):
    """The reference workload under an enabled provider; returns products
    and the scheduling-independent metric totals."""
    OBS.reset()
    obs.enable()
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=AlertEngine(rules=default_rules(), cooldown=60),
        executor=backend,
        max_workers=2,
    )
    with monitor:
        snapshots = [monitor.ingest(stream.values[:, :240])]
        alerts = []
        for lo, hi in ((240, 320), (320, 480)):
            snapshot, fired = monitor.ingest_and_alert(
                stream.values[:, lo:hi], window=150
            )
            snapshots.append(snapshot)
            alerts.extend(fired)
        rack_values = monitor.rack_values()
    totals = OBS.metrics.totals()
    OBS.reset()
    return {"snapshots": snapshots, "alerts": alerts, "rack_values": rack_values}, totals


def _parity_totals(totals: dict) -> dict:
    """Drop the instruments that legitimately differ per backend:
    executor-level ones carry a ``backend=`` label (and the process backend
    adds enable/drain round trips), ``service.rows_per_sec`` is wall-clock,
    and ``core.isvd.rank`` is a last-writer-wins gauge shared by all shards
    of the fleet, so which shard wrote last depends on scheduling."""
    dropped = ("service.rows_per_sec", "core.isvd.rank")
    return {
        key: value
        for key, value in totals.items()
        if "executor." not in key and key not in dropped
    }


@pytest.fixture(scope="module")
def backend_runs(fleet_stream):
    return {backend: _drive(fleet_stream, backend) for backend in BACKENDS}


@pytest.mark.parametrize("backend", ["process"])
def test_metric_totals_match_serial(backend_runs, backend):
    """Counters / gauges / histogram counts are scheduling-independent."""
    _, serial_totals = backend_runs["serial"]
    _, totals = backend_runs[backend]
    assert _parity_totals(totals) == _parity_totals(serial_totals)


def test_expected_instruments_are_present(backend_runs):
    _, totals = backend_runs["serial"]
    for key in (
        "service.rows",
        "service.snapshots",
        "core.isvd.rank",
        "alerts.evaluations",
        "service.chunk.seconds.count",
        "span.service.ingest_and_alert.count",
        "span.pipeline.ingest.count",
        "span.core.partial_fit.count",
    ):
        assert key in totals, key
    assert any(key.startswith("alerts.fired{") for key in totals)


@pytest.mark.parametrize("backend", ["process"])
def test_products_unchanged_across_backends(backend_runs, backend):
    """Instrumentation must not perturb the bit-for-bit parity guarantee."""
    serial_products, _ = backend_runs["serial"]
    products, _ = backend_runs[backend]
    assert products["snapshots"] == serial_products["snapshots"]
    assert products["alerts"] == serial_products["alerts"]
    assert products["rack_values"] == serial_products["rack_values"]


def test_disabled_provider_leaves_no_trace_and_same_results(fleet_stream):
    """Default-off: zero metrics, zero trace events, identical products."""
    assert not OBS.enabled
    monitor = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG, executor="process",
        max_workers=2,
    )
    with monitor:
        disabled_snapshots = [
            monitor.ingest(fleet_stream.values[:, :240]),
            monitor.ingest(fleet_stream.values[:, 240:]),
        ]
    assert len(OBS.metrics) == 0, "disabled provider recorded nothing"
    assert OBS.ring is None

    products, totals = _drive(fleet_stream, "process")
    assert totals, "enabled run did record"
    # ingest() under the enabled provider returns the same snapshots.
    assert products["snapshots"][0] == disabled_snapshots[0]


def test_merge_is_a_named_layer_of_the_round_and_the_read(fleet_stream):
    """The fleet merge of per-shard node scores is its own layer: a span
    nested in the alerting round, and a span-histogram sample for every
    node_zscores read (a read outside any span stays out of the trace)."""
    obs.enable()
    monitor = FleetMonitor.from_stream(
        fleet_stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=AlertEngine(rules=default_rules()),
    )
    monitor.ingest(fleet_stream.values[:, :240])
    monitor.ingest_and_alert(fleet_stream.values[:, 240:320], window=150)
    monitor.rack_values(time_range=(170, 320))
    events = OBS.ring.events
    by_id = {event["span_id"]: event for event in events}
    merges = [e for e in events if e["name"] == "service.merge_node_scores"]
    assert len(merges) == 1
    assert by_id[merges[0]["parent_id"]]["name"] == "service.ingest_and_alert"
    assert OBS.metrics.totals()["span.service.merge_node_scores.count"] == 2
    digest = obs.report.summarize(OBS.metrics)
    assert "service.merge_node_scores" in {s["span"] for s in digest["spans"]}


def test_async_save_records_a_capture_span(fleet_stream, tmp_path):
    """The synchronous half of a save is its own span under
    ``checkpoint.save``, counting dirty and reused shards; the deferred
    half runs as ``checkpoint.write`` on the writer thread."""
    obs.enable()
    monitor = FleetMonitor.from_stream(fleet_stream, policy=RackSharding(), config=CONFIG)
    monitor.ingest(fleet_stream.values[:, :240])
    root = str(tmp_path / "ckpt")
    for _ in range(2):
        save_checkpoint(root, monitor, keep_last=2, mode="async")
        monitor.flush_checkpoints()
    events = OBS.ring.events
    by_id = {event["span_id"]: event for event in events}
    captures = [e for e in events if e["name"] == "checkpoint.capture"]
    assert [by_id[e["parent_id"]]["name"] for e in captures] == ["checkpoint.save"] * 2
    n = monitor.n_shards
    assert [e["attrs"] for e in captures] == [
        {"snapshot": True, "dirty": n, "reused": 0},
        {"snapshot": True, "dirty": 0, "reused": n},
    ]
    writes = [e for e in events if e["name"] == "checkpoint.write"]
    assert len(writes) == 2
    assert {e["tid"] for e in writes}.isdisjoint({e["tid"] for e in captures})
    monitor.close()


def test_ingest_stats_expose_padded_rows(fleet_stream):
    """Satellite fix: rows actually received by nan-padded shards are
    visible both on the snapshot and as a per-shard gauge."""
    obs.enable()
    config = PipelineConfig(
        mrdmd=MrDMDConfig(max_levels=4),
        baseline_range=(40.0, 75.0),
        missing_values="zero",
    )
    monitor = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=config, missing_rows="nan"
    )
    n_rows = fleet_stream.n_rows
    short = fleet_stream.values[: n_rows - 10, :240]
    snapshot = monitor.ingest(short)

    stats = snapshot.ingest_stats
    assert isinstance(stats, IngestStats)
    assert stats.rows_received == n_rows - 10
    assert stats.rows_padded == 10
    assert stats.chunk_columns == 240
    assert sum(stats.rows_received_by_shard.values()) == n_rows - 10
    assert stats.entries_received == (n_rows - 10) * 240

    gauges = {key: value for key, value in OBS.metrics.totals().items()}
    received = {
        key: value
        for key, value in gauges.items()
        if key.startswith("service.shard.rows_received")
    }
    assert sum(received.values()) == n_rows - 10
    assert gauges["service.rows_padded"] == 10 * 240
    assert gauges["service.rows"] == (n_rows - 10) * 240


def test_full_chunk_reports_no_padding(fleet_stream):
    monitor = FleetMonitor.from_stream(
        fleet_stream, policy=RackSharding(), config=CONFIG
    )
    snapshot = monitor.ingest(fleet_stream.values[:, :240])
    stats = snapshot.ingest_stats
    assert stats.rows_padded == 0
    assert stats.rows_received == fleet_stream.n_rows
    assert stats.rows_received_by_shard == {
        spec.shard_id: len(spec.row_indices) for spec in monitor.shards
    }


def test_cli_metrics_and_trace_outputs(tmp_path, capsys):
    """The acceptance surface: valid metrics JSON + parseable nested trace."""
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.jsonl"
    code = service_main(
        [
            "rack-cooling-failure",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "span latencies" in out and "hotspots" in out

    payload = json.loads(metrics_path.read_text())
    assert set(payload) >= {"counters", "gauges", "histograms", "derived"}
    counters = {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
        for entry in payload["counters"]
    }
    assert counters[("service.rows", ())] > 0
    assert any(name == "alerts.fired" for name, _ in counters)
    assert payload["derived"]["throughput"]["rows_per_sec_overall"] > 0
    span_names = {entry["name"] for entry in payload["histograms"]}
    assert "span.service.ingest_and_alert" in span_names
    assert "span.core.partial_fit" in span_names

    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines[0]["kind"] == "trace_header", "version header leads the file"
    assert lines[0]["schema_version"] == 1
    events = [line for line in lines if line.get("kind") != "trace_header"]
    assert events, "trace file has events"
    by_id = {event["span_id"]: event for event in events}

    def ancestry(event):
        names = [event["name"]]
        parent = event.get("parent_id")
        while parent is not None:
            event = by_id[parent]
            names.append(event["name"])
            parent = event.get("parent_id")
        return names

    chains = {tuple(ancestry(event)) for event in events}
    # Nested ingest -> shard task -> pipeline -> core spans.
    assert (
        "core.partial_fit",
        "pipeline.ingest",
        "executor.task",
        "service.ingest_and_alert",
    ) in chains

    # The CLI leaves the module provider pristine for embedders.
    assert not OBS.enabled and len(OBS.metrics) == 0


def test_cli_without_flags_records_nothing(capsys):
    code = service_main(["quiet-fleet"])
    assert code == 0
    assert len(OBS.metrics) == 0
    assert "hotspots" not in capsys.readouterr().out
