"""Federation benchmarks: per-ingest wall time vs machine count.

A federation is only worth its layer if adding machines costs what the
machines themselves cost — fan-out bookkeeping (registry, router, product
merge) must stay negligible and per-ingest wall time must grow **at most
linearly** with machine count on the serial backend (each machine's chunk
is independent work).

The sweep ingests identical per-machine chunk protocols through a
:class:`~repro.federation.FederatedMonitor` at increasing machine counts,
records per-ingest wall time with every machine on the serial shard
executor and again on the process one (``PROCESS_WORKERS`` workers per
machine; recorded, not gated), **asserts** the near-linear serial bound
(super-linear growth fails the build, mirroring
``bench_core_streaming.py``'s flat-ingest gate), and writes the curves to
``BENCH_federation.json`` next to this file (machine-readable; uploaded
as a CI artifact).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import MrDMDConfig
from repro.federation import FederatedMonitor, MachineRegistry
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, RackSharding
from repro.telemetry import MachineDescription, TelemetryGenerator, xc40_sensor_suite
from repro.util import Timer, chunk_indices

from conftest import SCALE, scaled

#: Where the machine-readable results land (committed + CI artifact).
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_federation.json"
)

MACHINE_COUNTS = (1, 2, 4)
HISTORY = scaled(800, 8_000)
CHUNK = scaled(200, 2_000)
N_INGESTS = 4
CONFIG = PipelineConfig(mrdmd=MrDMDConfig(max_levels=scaled(4, 6)))
#: Serial per-ingest time at N machines may exceed N x the 1-machine time
#: by at most this factor (fan-out bookkeeping + scheduler noise).
LINEAR_MARGIN = 1.6
#: Shard workers per machine in the (ungated) process row.
PROCESS_WORKERS = 2


def _machine_description() -> MachineDescription:
    """64 nodes in 4 racks per machine (the scenario catalog's shape)."""
    return MachineDescription(
        name="xc40",
        n_rows=1,
        racks_per_row=4,
        cabinets_per_rack=1,
        slots_per_cabinet=4,
        blades_per_slot=1,
        nodes_per_blade=4,
        sensors=xc40_sensor_suite(),
        dt_seconds=15.0,
    )


def _build_streams(n_machines: int) -> dict:
    machine = _machine_description()
    return {
        f"m{i}": TelemetryGenerator(
            machine, seed=300 + i, utilization_target=0.4
        ).generate(HISTORY + CHUNK, sensors=["cpu_temp"])
        for i in range(n_machines)
    }


def _per_ingest_seconds(streams: dict, executor: str = "serial") -> float:
    """Seconds per federated ingest with every machine on ``executor``;
    the initial fit (which also starts process workers) is untimed."""
    registry = MachineRegistry(
        {
            name: FleetMonitor.from_stream(
                stream,
                policy=RackSharding(),
                config=CONFIG,
                executor=executor,
                max_workers=PROCESS_WORKERS if executor == "process" else None,
            )
            for name, stream in streams.items()
        }
    )
    federated = FederatedMonitor(registry)
    bounds = [
        (HISTORY + lo, HISTORY + hi)
        for lo, hi in chunk_indices(CHUNK, CHUNK // N_INGESTS)
    ]
    try:
        federated.ingest(
            {name: stream.values[:, :HISTORY] for name, stream in streams.items()}
        )
        with Timer() as timer:
            for lo, hi in bounds:
                federated.ingest(
                    {
                        name: stream.values[:, lo:hi]
                        for name, stream in streams.items()
                    }
                )
    finally:
        federated.close()
        registry.close()
    return timer.elapsed / len(bounds)


def test_federated_ingest_scales_near_linearly(benchmark):
    """Per-ingest wall time vs machine count; serial must stay near-linear."""
    streams_by_count = {n: _build_streams(n) for n in MACHINE_COUNTS}

    def sweep() -> dict:
        return {
            backend: {
                n: _per_ingest_seconds(streams_by_count[n], backend)
                for n in MACHINE_COUNTS
            }
            for backend in ("serial", "process")
        }

    curves = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)

    report = {
        "experiment": "federation_ingest_scaling",
        "scale": SCALE,
        "machine_counts": list(MACHINE_COUNTS),
        "nodes_per_machine": _machine_description().n_nodes,
        "shards_per_machine": _machine_description().n_racks,
        "history": HISTORY,
        "chunk": CHUNK // N_INGESTS,
        "n_ingests": N_INGESTS,
        "linear_margin": LINEAR_MARGIN,
        "process_workers_per_machine": PROCESS_WORKERS,
        "per_ingest_seconds": {
            backend: {str(n): curves[backend][n] for n in MACHINE_COUNTS}
            for backend in curves
        },
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    benchmark.extra_info.update(report)

    base = curves["serial"][MACHINE_COUNTS[0]]
    for n in MACHINE_COUNTS[1:]:
        ratio = curves["serial"][n] / base
        assert ratio <= n * LINEAR_MARGIN, (
            f"serial federated ingest grew {ratio:.2f}x from 1 to {n} machines "
            f"(bound: {n}x * {LINEAR_MARGIN} margin) — fan-out bookkeeping is "
            f"no longer negligible"
        )
