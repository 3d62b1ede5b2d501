"""End-to-end fleet-chunk trajectory: one ``ingest_and_alert`` round vs stream age.

The paper's claim is that I-mrDMD folds a chunk in at a cost independent
of how much history came before.  ``BENCH_core.json`` checks that for
``partial_fit`` alone; this benchmark checks it for the whole chunk an
operator waits for: the shard updates, the reconstruction error, the
baseline refit, the windowed z-scores and the alert rules.

A Theta-shaped stream (cpu_temp rows, one rack shard per rack, a cooling
failure on rack 1) is ingested in 100-column chunks by a serial
``FleetMonitor.ingest_and_alert``.  The round latency is taken at chunk
~10 and chunk ~100 as the p50 (and p95) over an 11-chunk window around
each, using per-chunk best-of-``PASSES`` timings to keep host contention
out.  One more pass runs with ``repro.obs`` enabled and splits each round
into per-span self times (a span's time minus its child spans'), so the
per-layer shares at both ages come from the library's own spans.

Gate: late/early p50 <= ``GATE`` (1.5x).  The ROADMAP's target of 1.2x is
recorded next to the measured ratio but not gated, since single-chunk
latencies on shared CI hosts are too noisy to hold it.  Results land in
``BENCH_e2e.json`` (machine-readable; uploaded as a CI artifact), the one
end-to-end trajectory later changes append to.

Run modes: ``--quick`` / default scale (256 rows, 2 shards) or
``REPRO_BENCH_SCALE=paper`` (1,024 rows, 4 shards).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

from repro import obs
from repro.core import MrDMDConfig
from repro.obs import OBS
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, RackSharding
from repro.service.alerts import AlertEngine, default_rules
from repro.telemetry import TelemetryGenerator, theta_machine
from repro.telemetry.anomalies import CoolingDegradation

from conftest import SCALE, scaled

RESULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_e2e.json")

N_ROWS = scaled(256, 1024)
RACKS = scaled(2, 4)
INITIAL = 200
CHUNK = 100
#: Trailing window the alert rules score.
WINDOW = 200
EARLY, LATE, HALF = 10, 100, 5
N_CHUNKS = LATE + HALF + 1
PASSES = 2
GATE = 1.5
TARGET = 1.2
ROUND_SPAN = "service.ingest_and_alert"


def _stream():
    machine = theta_machine(racks_per_row=RACKS, node_limit=N_ROWS)
    rack1 = tuple(n for n in range(machine.n_nodes) if machine.rack_of_node(n) == 1)
    total = INITIAL + N_CHUNKS * CHUNK
    return TelemetryGenerator(machine, seed=11, utilization_target=0.3).generate(
        total,
        sensors=["cpu_temp"],
        anomalies=[
            CoolingDegradation(
                node_indices=rack1,
                start=INITIAL + 40 * CHUNK,
                rate_per_hour=6.0,
                dt_seconds=machine.dt_seconds,
            )
        ],
    )


def _monitor(stream) -> FleetMonitor:
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=4), baseline_range=(40.0, 75.0)
        ),
        alert_engine=AlertEngine(rules=default_rules()),
    )
    monitor.ingest(stream.values[:, :INITIAL])
    return monitor


def _play(stream) -> list[float]:
    """Seconds of every round of one pass over the stream."""
    monitor = _monitor(stream)
    seconds = []
    try:
        for index in range(N_CHUNKS):
            lo = INITIAL + index * CHUNK
            start = time.perf_counter()
            monitor.ingest_and_alert(stream.values[:, lo : lo + CHUNK], window=WINDOW)
            seconds.append(time.perf_counter() - start)
    finally:
        monitor.close()
    return seconds


def _self_times(events: list[dict]) -> list[dict[str, float]]:
    """Per round: span name -> self seconds, summed over the round's spans.

    Nesting is by time containment rather than by parent id: the core
    records some phases as back-dated leaves next to the timings taken
    inside them (``core.isvd.update`` inside ``core.grid_extend``), and
    containment charges each to its innermost enclosing span.
    """
    rounds: list[dict[str, float]] = []
    open_spans: list[tuple[float, str]] = []  # (end, name), innermost last
    for event in sorted(events, key=lambda e: (e["start"], -e["duration"])):
        end = event["start"] + event["duration"]
        while open_spans and open_spans[-1][0] < end - 1e-6:
            open_spans.pop()
        if event["name"] == ROUND_SPAN:
            rounds.append(defaultdict(float))
            open_spans = []
        elif not open_spans:
            continue  # outside every round (the initial fit)
        split = rounds[-1]
        split[event["name"]] += event["duration"]
        if open_spans:
            split[open_spans[-1][1]] -= event["duration"]
        open_spans.append((end, event["name"]))
    return [dict(split) for split in rounds]


def _traced_pass(stream) -> list[dict[str, float]]:
    obs.enable(ring_capacity=1 << 20)
    try:
        _play(stream)
        events = list(OBS.ring.events)
    finally:
        OBS.reset()
    return _self_times(events)


def _window(values, center: int):
    return values[center - HALF : center + HALF + 1]


def _layer_split(rounds: list[dict[str, float]], center: int) -> dict[str, float]:
    """Median per-round self milliseconds of every span in the window."""
    window = _window(rounds, center)
    names = sorted({name for split in window for name in split})
    split = {
        name: 1e3 * float(np.median([r.get(name, 0.0) for r in window]))
        for name in names
    }
    return dict(sorted(split.items(), key=lambda item: -item[1]))


def test_e2e_chunk_stays_flat_with_stream_age():
    stream = _stream()
    passes = np.array([_play(stream) for _ in range(PASSES)])
    best = passes.min(axis=0)
    rounds = _traced_pass(stream)

    ages = {}
    for label, center in (("early", EARLY), ("late", LATE)):
        window = _window(best, center)
        ages[label] = {
            "chunk_index": center,
            "stream_snapshots": INITIAL + (center + 1) * CHUNK,
            "p50_ms": 1e3 * float(np.median(window)),
            "p95_ms": 1e3 * float(np.percentile(window, 95)),
            "self_ms_by_span": _layer_split(rounds, center),
        }
    ratio = ages["late"]["p50_ms"] / ages["early"]["p50_ms"]
    report = {
        "experiment": "e2e_chunk",
        "scale": SCALE,
        "backend": "serial",
        "rows": N_ROWS,
        "shards": RACKS,
        "initial": INITIAL,
        "chunk": CHUNK,
        "n_chunks": N_CHUNKS,
        "window_chunks": 2 * HALF + 1,
        "passes": PASSES,
        "per_chunk_best_ms": [round(1e3 * v, 3) for v in best],
        "ages": ages,
        "late_over_early_p50": ratio,
        "gate": GATE,
        "target": TARGET,
        "passed": ratio <= GATE,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    assert ratio <= GATE, (
        f"ingest_and_alert p50 grew {ratio:.2f}x from chunk {EARLY} to chunk "
        f"{LATE} (gate {GATE}x): some part of the round re-acquired an O(T) term; "
        f"see {RESULT_PATH} for the per-span split"
    )
