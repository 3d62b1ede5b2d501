"""Observability end to end: metrics, spans and the session report.

Demonstrates the ``repro.obs`` subsystem on a sharded fleet monitor:

1. the provider starts **disabled** — the instrumented ingest path runs
   with no recording at all (one attribute check per call site);
2. ``obs.enable(trace_path=...)`` turns on metrics + tracing for a
   rack-cooling-failure workload on a persistent process executor; every
   layer reports — ISVD updates, mrDMD phases, shard dispatch/wait,
   chunk latency, alert rules — and the worker processes' metrics and
   span events are drained home when the monitor closes;
3. the trace file is JSON lines — a ``schema_version`` header line, then
   one span event per line — with ``parent_id`` links that reconstruct
   the nesting (``service.ingest_and_alert -> executor.task ->
   pipeline.ingest -> core.*``); the same events convert to a Chrome
   trace-event file loadable in Perfetto / ``chrome://tracing``;
4. the registry's scheduling-independent totals (counters, gauges,
   histogram counts) are shown to be **identical** on a re-run with the
   serial backend — the same bit-for-bit discipline the analysis
   products obey;
5. the session digest (p50/p95/p99 per span, hotspots, rows/sec, alerts
   per rule) renders through the ``repro.viz`` text-report machinery.

Run with ``python examples/service_metrics.py``.  The same surfaces are
available from the shell via ``python -m repro.service <scenario>
--metrics-out metrics.json --trace-out trace.jsonl``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs  # noqa: E402
from repro.core import MrDMDConfig  # noqa: E402
from repro.pipeline import PipelineConfig  # noqa: E402
from repro.service import (  # noqa: E402
    FleetMonitor,
    RackSharding,
    get_scenario,
)
from repro.service.alerts import AlertEngine, default_rules  # noqa: E402
from repro.telemetry import TelemetryGenerator  # noqa: E402


def _drive(stream, chunks, *, executor=None) -> list:
    """One pass of the workload; returns the fired alerts."""
    config = PipelineConfig(
        mrdmd=MrDMDConfig(max_levels=4), baseline_range=(40.0, 75.0)
    )
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=config,
        alert_engine=AlertEngine(rules=default_rules(), cooldown=60),
        executor=executor,
        max_workers=2,
    )
    alerts = []
    with monitor:
        monitor.ingest(stream.values[:, : chunks[0][1]])
        for lo, hi in chunks[1:]:
            _, fired = monitor.ingest_and_alert(
                stream.values[:, lo:hi], window=150
            )
            alerts.extend(fired)
    return alerts


def main() -> None:
    scenario = get_scenario("rack-cooling-failure")
    generator = TelemetryGenerator(scenario.machine, seed=11)
    stream = generator.generate(
        480, sensors=["cpu_temp"], anomalies=list(scenario.anomalies)
    )
    chunks = [(0, 240), (240, 320), (320, 400), (400, 480)]

    # ---- 1. disabled by default: nothing is recorded ------------------- #
    assert not obs.OBS.enabled
    _drive(stream, chunks, executor="process")
    print(f"disabled run recorded {len(obs.OBS.metrics)} instruments")

    # ---- 2./3. enabled run with a JSON-lines trace --------------------- #
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        obs.enable(trace_path=trace_path)
        alerts = _drive(stream, chunks, executor="process")
        obs.disable()

        header, events = obs.export.read_trace(trace_path)
        print(f"trace schema_version: {header.get('schema_version')}")
        by_id = {event["span_id"]: event for event in events}
        deepest = max(
            events,
            key=lambda event: len(_ancestry(event, by_id)),
        )
        chain = " -> ".join(reversed(_ancestry(deepest, by_id)))
        print(f"\n{len(events)} span events; deepest nesting:\n  {chain}")

        # The same span events as a Chrome trace — drop this file onto
        # https://ui.perfetto.dev or chrome://tracing to see the timeline.
        chrome_path = os.path.join(tmp, "trace.chrome.json")
        payload = obs.export.write_chrome_trace(
            events, chrome_path, trace_id=header.get("trace_id")
        )
        print(
            f"chrome trace: {len(payload['traceEvents'])} events in "
            f"{os.path.basename(chrome_path)} "
            f"({os.path.getsize(chrome_path)} bytes)"
        )

    totals = obs.OBS.metrics.totals()
    print(f"{len(alerts)} alerts fired; "
          f"{int(totals['service.rows'])} telemetry entries ingested over "
          f"{int(totals['service.chunk.seconds.count'])} chunks")

    # ---- 4. totals are scheduling-independent --------------------------- #
    parallel = {
        key: value
        for key, value in totals.items()
        if "executor." not in key
        and key not in ("service.rows_per_sec", "core.isvd.rank")
    }
    obs.OBS.reset()
    obs.enable()
    _drive(stream, chunks, executor=None)  # serial
    serial = {
        key: value
        for key, value in obs.OBS.metrics.totals().items()
        if "executor." not in key
        and key not in ("service.rows_per_sec", "core.isvd.rank")
    }
    match = parallel == serial
    print(f"process vs serial scheduling-independent totals identical: {match}")
    if not match:
        raise SystemExit("metric totals diverged across backends")

    # ---- 5. the session digest ------------------------------------------ #
    print()
    print(obs.report.render_text(obs.OBS.metrics))
    obs.OBS.reset()


def _ancestry(event: dict, by_id: dict) -> list[str]:
    names = [event["name"]]
    parent = event.get("parent_id")
    while parent is not None:
        event = by_id[parent]
        names.append(event["name"])
        parent = event.get("parent_id")
    return names


if __name__ == "__main__":
    main()
