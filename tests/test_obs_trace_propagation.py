"""Cross-process trace propagation, clock calibration, lost registries.

The causal-telemetry contract: a ``(trace_id, parent span id)`` pair ships
with every executor task, worker spans adopt it, per-worker clock offsets
land every event on the coordinator's monotonic timeline, and the drained
JSON-lines trace merges into ONE tree rooted at the coordinator's round
spans.  The acceptance test at the bottom asserts exactly that for a
process-backend ``federated-fleet`` CLI run.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import obs
from repro.obs import (
    OBS,
    MetricsRegistry,
    RingBufferTraceSink,
    TraceContext,
    Tracer,
    worker_drain_trace,
    worker_enable_metrics,
)
from repro.federation import FederatedMonitor
from repro.service import FleetMonitor, RackSharding
from repro.service.__main__ import main as service_main
from repro.service.scenarios import quiet_fleet
from repro.telemetry import TelemetryGenerator
from repro.util.parallel import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardTaskError,
)


@pytest.fixture(autouse=True)
def pristine_provider():
    OBS.reset()
    yield
    OBS.reset()


def _identity(obj):
    return obj


def _sleep_forever(obj):
    time.sleep(60.0)
    return obj


# --------------------------------------------------------------------------- #
# TraceContext capture / adoption (in-process units)
# --------------------------------------------------------------------------- #
class TestTraceContext:
    def test_none_while_disabled(self):
        assert not OBS.enabled
        assert OBS.current_context() is None

    def test_none_without_an_open_span(self):
        obs.enable()
        assert OBS.current_context() is None

    def test_captured_inside_a_span(self):
        obs.enable()
        with OBS.span("round"):
            ctx = OBS.current_context()
        assert isinstance(ctx, TraceContext)
        assert ctx.trace_id == OBS.trace_id
        assert ctx.span_id is not None

    def test_adopt_parents_remote_spans(self):
        coordinator_ring = RingBufferTraceSink()
        coordinator = Tracer(
            metrics=MetricsRegistry(), sinks=[coordinator_ring],
            trace_id="t-1",
        )
        with coordinator.span("round"):
            ctx = coordinator.current_context()

        worker_ring = RingBufferTraceSink()
        worker = Tracer(metrics=MetricsRegistry(), sinks=[worker_ring])
        with worker.adopt(ctx):
            with worker.span("task"):
                pass

        (event,) = worker_ring.events
        assert event["parent_id"] == ctx.span_id
        assert event["trace_id"] == "t-1", "trace id travels with the context"
        # Outside the adoption scope, spans are unparented again.
        with worker.span("later"):
            pass
        assert worker_ring.events[-1]["parent_id"] is None

    def test_adopt_accepts_the_pickled_tuple_form(self):
        ring = RingBufferTraceSink()
        worker = Tracer(metrics=MetricsRegistry(), sinks=[ring])
        with worker.adopt(("t-2", 42)):
            with worker.span("task"):
                pass
        assert ring.events[0]["parent_id"] == 42

    def test_adopt_none_and_spanless_context_are_noops(self):
        ring = RingBufferTraceSink()
        worker = Tracer(metrics=MetricsRegistry(), sinks=[ring])
        with worker.adopt(None):
            with worker.span("a"):
                pass
        with worker.adopt(TraceContext("t-3", None)):
            with worker.span("b"):
                pass
        assert [event["parent_id"] for event in ring.events] == [None, None]


class TestClockOffset:
    def test_offset_shifts_events_but_never_durations(self):
        plain_ring, shifted_ring = RingBufferTraceSink(), RingBufferTraceSink()
        plain = Tracer(metrics=MetricsRegistry(), sinks=[plain_ring])
        shifted_registry = MetricsRegistry()
        shifted = Tracer(
            metrics=shifted_registry, sinks=[shifted_ring], clock_offset=123.0
        )
        with plain.span("s"):
            pass
        with shifted.span("s"):
            pass
        plain_event, shifted_event = plain_ring.events[0], shifted_ring.events[0]
        assert shifted_event["end"] - plain_event["end"] == pytest.approx(
            123.0, abs=1.0
        )
        # The metric side sees the raw duration, not the shifted clock.
        assert shifted_event["duration"] < 1.0
        assert shifted_registry.histogram("span.s").max < 1.0

    def test_set_remote_context_applies_immediately(self):
        obs.enable()
        OBS.set_remote_context("t-9", 55.0)
        assert OBS.tracer.trace_id == "t-9"
        assert OBS.tracer.clock_offset == 55.0
        # ...and survives a re-enable (respawned workers re-handshake).
        obs.enable()
        assert OBS.tracer.trace_id == "t-9"
        assert OBS.tracer.clock_offset == 55.0

    def test_in_process_backends_have_nothing_to_calibrate(self):
        obs.enable()
        executor = SerialShardExecutor()
        executor.start({"a": 0, "b": 0})
        try:
            assert executor.remote_worker_shards() == ()
            assert executor.calibrate_clocks() == {}
        finally:
            executor.close()


# --------------------------------------------------------------------------- #
# Process backend: calibration handshake + parented worker spans
# --------------------------------------------------------------------------- #
class TestProcessPropagation:
    def test_calibration_and_worker_span_parenting(self):
        executor = ProcessShardExecutor(max_workers=2)
        executor.start({"a": 0, "b": 0})
        try:
            # Disabled provider: the handshake is skipped entirely.
            assert executor.calibrate_clocks() == {}

            obs.enable()
            offsets = executor.calibrate_clocks()
            assert set(offsets) == set(executor.remote_worker_shards())
            for offset in offsets.values():
                assert abs(offset) < 5.0, "same-host offsets are small"
            totals = OBS.metrics.totals()
            assert any(
                key.startswith("executor.clock.offset_seconds{")
                for key in totals
            )
            assert any(
                key.startswith("executor.clock.rtt_seconds{")
                for key in totals
            )

            executor.broadcast(worker_enable_metrics)
            with OBS.span("service.round"):
                round_id = OBS.tracer.current_span_id()
                executor.map(_identity, {"a": (), "b": ()})

            events = []
            for name in executor.remote_worker_shards():
                events.extend(executor.call(name, worker_drain_trace))
            task_events = [e for e in events if e["name"] == "executor.task"]
            assert len(task_events) == 2, "one span per shard task"
            for event in task_events:
                assert event["parent_id"] == round_id
                assert event["pid"] != os.getpid()
                assert event["trace_id"] == OBS.trace_id
                assert event["attrs"]["backend"] == "process"

            # Merging drops them into the coordinator's sinks verbatim.
            OBS.tracer.ingest_events(task_events)
            merged = [
                e for e in OBS.ring.events if e["name"] == "executor.task"
            ]
            assert len(merged) == 2
        finally:
            executor.close()

    def test_contextless_tasks_stay_out_of_the_trace(self):
        """Housekeeping submitted outside any span must not pollute the
        merged timeline with unparented events."""
        obs.enable()
        executor = ProcessShardExecutor(max_workers=2)
        executor.start({"a": 0, "b": 0})
        try:
            executor.calibrate_clocks()
            executor.broadcast(worker_enable_metrics)
            executor.map(_identity, {"a": (), "b": ()})  # no open span
            events = []
            for name in executor.remote_worker_shards():
                events.extend(executor.call(name, worker_drain_trace))
            assert events == [], "context-free tasks emit no span events"
        finally:
            executor.close()


# --------------------------------------------------------------------------- #
# The process executor owns its workers' observability
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_stream():
    machine = quiet_fleet().machine
    return TelemetryGenerator(machine, seed=29).generate(240, sensors=["cpu_temp"])


def _calibrations() -> float:
    return OBS.metrics.counter(
        "executor.clock.calibrations", backend="process"
    ).value


class TestWorkerObsOwnership:
    def test_process_monitor_calibrates_each_worker_once(self, small_stream):
        obs.enable()
        monitor = FleetMonitor.from_stream(
            small_stream, policy=RackSharding(), executor="process",
            max_workers=2,
        )
        with monitor:
            monitor.ingest(small_stream.values[:, :160])
            assert _calibrations() == 2, "one handshake per worker"
            monitor.ingest(small_stream.values[:, 160:])
            totals = monitor.collect_metrics().totals()
            assert _calibrations() == 2
            # The workers' metrics were switched on at start and drained
            # home: every shard's pipeline spans reached the parent.
            assert totals["span.pipeline.ingest.count"] == 8
            # The pool started inside the first round's span, so its
            # calibration probes are traced too — under the session id.
            events = OBS.ring.events
            assert any(e["pid"] != os.getpid() for e in events)
            assert {e.get("trace_id") for e in events} == {OBS.trace_id}

    def test_process_federation_calibrates_each_worker_once(self, small_stream):
        obs.enable()
        machines = {
            name: FleetMonitor.from_stream(
                small_stream, policy=RackSharding(), executor="process",
                max_workers=2,
            )
            for name in ("east", "west")
        }
        federated = FederatedMonitor(machines)
        try:
            federated.ingest(
                {name: small_stream.values[:, :160] for name in machines}
            )
            # Each machine runs its own two workers.
            assert _calibrations() == 4, "one handshake per worker"
            federated.ingest(
                {name: small_stream.values[:, 160:] for name in machines}
            )
            totals = federated.collect_metrics().totals()
            assert _calibrations() == 4
            assert totals["span.pipeline.ingest.count"] == 16
        finally:
            federated.close()
            federated.registry.close()


# --------------------------------------------------------------------------- #
# Lost registries: force-terminated workers are counted, not silent
# --------------------------------------------------------------------------- #
class TestLostRegistries:
    def test_force_terminated_worker_increments_counter(self):
        obs.enable()
        executor = ProcessShardExecutor(max_workers=2, close_timeout=0.5)
        executor.start({"a": 0, "b": 0})
        executor.broadcast(worker_enable_metrics)
        executor.submit("b", _sleep_forever)
        with pytest.raises(ShardTaskError, match="'b'"):
            executor.close()

        totals = OBS.metrics.totals()
        lost = sum(
            value
            for key, value in totals.items()
            if key.startswith("obs.metrics.lost_registries")
        )
        assert lost >= 1

        digest = obs.report.summarize(OBS.metrics)
        assert digest["resilience"]["lost_registries"] >= 1
        text = obs.report.render_text(OBS.metrics)
        assert "metric registries lost" in text

    def test_clean_close_loses_nothing(self):
        obs.enable()
        executor = ProcessShardExecutor(max_workers=2)
        executor.start({"a": 0, "b": 0})
        executor.broadcast(worker_enable_metrics)
        executor.map(_identity, {"a": (), "b": ()})
        executor.close()
        totals = OBS.metrics.totals()
        assert not any(
            key.startswith("obs.metrics.lost_registries") for key in totals
        )


# --------------------------------------------------------------------------- #
# Acceptance: one merged, calibrated, fully-chained federated trace
# --------------------------------------------------------------------------- #
def test_federated_process_trace_is_one_causal_timeline(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code = service_main(
        [
            "federated-fleet",
            "--executor", "process",
            "--workers", "2",
            "--trace-out", str(trace_path),
        ]
    )
    assert code == 0

    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    header = lines[0]
    assert header["kind"] == "trace_header"
    assert header["schema_version"] == 1
    events = [line for line in lines if line.get("kind") != "trace_header"]
    assert events

    # One trace id across coordinator and every worker process.
    assert {event.get("trace_id") for event in events} == {header["trace_id"]}

    coordinator_pid = os.getpid()
    by_id = {event["span_id"]: event for event in events}
    worker_events = [e for e in events if e["pid"] != coordinator_pid]
    assert worker_events, "process workers contributed spans"
    assert {e["pid"] for e in worker_events}, "distinct worker pids"

    roots = set()
    for event in worker_events:
        # Every worker span's parent chain resolves, link by link, to a
        # span recorded by the coordinator process.
        current = event
        while current.get("parent_id") is not None:
            assert current["parent_id"] in by_id, (
                f"broken chain at {current['name']}"
            )
            current = by_id[current["parent_id"]]
        assert current["pid"] == coordinator_pid, (
            f"worker span {event['name']} is not rooted at the coordinator"
        )
        roots.add(current["name"])
        # Calibrated timeline: the worker span nests inside its
        # coordinator root's envelope (generous bound, far below the
        # seconds-scale error an uncalibrated clock pair would show).
        root = current
        assert event["start"] >= root["start"] - 0.25
        assert event["end"] <= root["end"] + 0.25

    # Ingest rounds and the executor-parallel per-machine checkpoint
    # fan-out both cross the process boundary; every worker span chains
    # back to one of those two coordinator roots.
    assert roots == {"federation.round", "checkpoint.federated_save"}
