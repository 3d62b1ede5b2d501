"""Raw-speed ingest path: deferred deep levels off the chunk path.

``deep_levels="deferred"`` keeps levels 2..L off the chunk path
(drift/every-N scheduled background refresh).  Gate: p95 per-chunk ingest
latency drops vs inline maintenance.  The catch-up cost that moved off the
critical path is measured and reported too — the work is deferred, not
deleted.

Results land in ``BENCH_speed.json`` (machine-readable; uploaded as a CI
artifact).  Quick mode (``--quick`` / default scale) keeps CI honest
without burning minutes; ``REPRO_BENCH_SCALE=paper`` runs the full-size
sweep.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import MrDMDConfig
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, RackSharding
from repro.telemetry import MachineDescription, TelemetryGenerator, xc40_sensor_suite
from repro.util import Timer, chunk_indices

from conftest import SCALE, scaled

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_speed.json"
)

HISTORY = scaled(1_600, 16_000)
CHUNK = scaled(200, 2_000)
N_CHUNKS = scaled(24, 60)
CONFIG = PipelineConfig(mrdmd=MrDMDConfig(max_levels=scaled(4, 6)))


@pytest.fixture(scope="module")
def fleet_stream():
    """cpu_temp telemetry for a 256-node, 8-rack machine."""
    machine = MachineDescription(
        name="xc40",
        n_rows=1,
        racks_per_row=8,
        cabinets_per_rack=2,
        slots_per_cabinet=4,
        blades_per_slot=1,
        nodes_per_blade=4,
        sensors=xc40_sensor_suite(),
        dt_seconds=15.0,
    )
    generator = TelemetryGenerator(machine, seed=307, utilization_target=0.4)
    return generator.generate(HISTORY + N_CHUNKS * CHUNK, sensors=["cpu_temp"])


def _chunk_bounds():
    return [
        (HISTORY + lo, HISTORY + hi)
        for lo, hi in chunk_indices(N_CHUNKS * CHUNK, CHUNK)
    ]


def _fitted_monitor(stream, *, config=CONFIG) -> FleetMonitor:
    monitor = FleetMonitor.from_stream(stream, policy=RackSharding(), config=config)
    monitor.ingest(stream.values[:, :HISTORY])
    return monitor


def _stream_chunks(monitor, stream) -> list[float]:
    """Per-chunk ingest wall times over the steady-state sweep."""
    times = []
    for lo, hi in _chunk_bounds():
        with Timer() as timer:
            monitor.ingest(stream.values[:, lo:hi])
        times.append(timer.elapsed)
    return times


def test_deferred_deep_levels_cut_p95_ingest_latency(benchmark, fleet_stream):
    """Per-chunk ingest latency, inline vs deferred deep maintenance.

    Deferred mode answers each chunk after the level-1 update only
    (drift detection stays current); levels 2..L queue for background
    refresh.  The p95 chunk latency must drop.  The deferred backlog's
    catch-up cost is measured too and reported alongside — deferring
    moves work off the critical path, it does not erase it.
    """
    inline = _fitted_monitor(fleet_stream)
    inline_times = _stream_chunks(inline, fleet_stream)
    inline.close()

    deferred_config = PipelineConfig(
        mrdmd=CONFIG.mrdmd, deep_levels="deferred", deep_refresh_every=0
    )
    deferred = _fitted_monitor(fleet_stream, config=deferred_config)
    deferred_times = benchmark.pedantic(
        lambda: _stream_chunks(deferred, fleet_stream),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    with Timer() as catch_up:
        deferred.refresh_deep_levels()
    deferred.close()

    inline_p95 = float(np.percentile(inline_times, 95))
    deferred_p95 = float(np.percentile(deferred_times, 95))
    payload = {
        "n_shards": 8,
        "n_chunks": N_CHUNKS,
        "chunk": CHUNK,
        "inline_p95_seconds": inline_p95,
        "deferred_p95_seconds": deferred_p95,
        "inline_total_seconds": float(np.sum(inline_times)),
        "deferred_total_seconds": float(np.sum(deferred_times)),
        "deferred_catch_up_seconds": catch_up.elapsed,
        "p95_speedup": inline_p95 / deferred_p95,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "experiment": "raw_speed_ingest",
                "scale": SCALE,
                "deferred_deep_levels": payload,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    benchmark.extra_info.update(experiment="raw_speed_deferred", **payload)

    # Gate: the latency-critical path must get visibly shorter.
    assert deferred_p95 < inline_p95, (
        f"deferred p95 chunk latency ({deferred_p95 * 1e3:.1f}ms) must "
        f"beat inline ({inline_p95 * 1e3:.1f}ms)"
    )
