"""Elastic-topology benchmarks: onboarding cost and partial-round scaling.

Two properties make the elastic topology production-shaped, and both are
asserted here (violations fail the build, mirroring the flat-ingest gate in
``bench_core_streaming.py``):

1. **Onboarding is O(k), not O(T).**  Adding ``k`` history-less sensors to
   a live :class:`~repro.core.IncrementalMrDMD` takes the all-zero-rows
   fast path: no right-factor materialisation, no refit.  The sweep times
   the same ``add_rows(k)`` event against models that have ingested
   increasingly long streams — keeping no raw snapshots, and keeping a
   fixed trailing window of them — and asserts the cost stays flat as
   ``T`` grows under both, and sits far below a from-scratch refit of the
   retained timeline.

2. **Partial federation rounds cost what their participants cost.**  A
   staggered federation (half the machines per round) must pay per
   *participating* machine what a lockstep round pays per machine — the
   fan-out bookkeeping for absent machines has to be negligible.

Results land in ``BENCH_elastic.json`` next to this file (machine-readable;
uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import pickle

from repro.core import IncrementalMrDMD, MrDMDConfig
from repro.federation import FederatedMonitor, MachineRegistry
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, RackSharding
from repro.telemetry import MachineDescription, TelemetryGenerator, xc40_sensor_suite
from repro.util import Timer, chunk_indices

from conftest import SCALE, scaled

#: Where the machine-readable results land (committed + CI artifact).
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_elastic.json"
)

N_ROWS = scaled(192, 1000)
N_NEW = scaled(64, 256)
CHUNK = scaled(200, 1_000)
#: Stream lengths (in chunks) at which the onboarding event is timed.
HISTORY_CHUNKS = (2, 8, scaled(16, 64))
#: Raw-snapshot retention of the timed models: bounded under both, so the
#: event must not grow with the stream under either.
ONBOARD_RETENTION = {"none": {}, "window": {"retain_window": 2 * CHUNK}}
ONBOARD_REPEATS = 5
#: Onboarding at the longest history may exceed the shortest by at most
#: this factor (pure timing noise — the work is identical).
FLAT_MARGIN = scaled(3.0, 2.0)
#: Onboarding must beat a from-scratch refit by at least this factor at
#: the longest history.
REFIT_MARGIN = 3.0

MACHINE_COUNTS = (2, 4)
FED_HISTORY = scaled(800, 8_000)
FED_CHUNK = scaled(200, 2_000)
FED_INGESTS = 4
#: Per-participating-machine cost of a partial round may exceed the
#: lockstep per-machine cost by at most this factor.
PARTIAL_MARGIN = 1.6

CONFIG = PipelineConfig(mrdmd=MrDMDConfig(max_levels=4))


# --------------------------------------------------------------------------- #
# 1. Onboarding cost vs stream length
# --------------------------------------------------------------------------- #
def _grown_model(n_chunks: int, retain_data: str):
    """A model that has streamed ``n_chunks`` chunks under ``retain_data``."""
    import numpy as np

    rng = np.random.default_rng(1234)
    model = IncrementalMrDMD(
        dt=1.0,
        config=MrDMDConfig(max_levels=4),
        retain_data=retain_data,
        **ONBOARD_RETENTION[retain_data],
    )
    t = np.arange(CHUNK * (n_chunks + 1)) * 1.0
    base = np.sin(0.01 * t)[None, :] + 0.1 * rng.standard_normal(
        (N_ROWS, t.size)
    )
    model.fit(base[:, :CHUNK])
    for index in range(1, n_chunks + 1):
        model.partial_fit(base[:, index * CHUNK : (index + 1) * CHUNK])
    return model


def _onboard_seconds(model) -> float:
    """Median wall time of one ``add_rows(N_NEW)`` event (fresh copy each)."""
    samples = []
    for _ in range(ONBOARD_REPEATS):
        clone = pickle.loads(pickle.dumps(model))
        with Timer() as timer:
            clone.add_rows(N_NEW)
        samples.append(timer.elapsed)
    samples.sort()
    return samples[len(samples) // 2]


def test_onboarding_cost_is_independent_of_stream_length(benchmark):
    """add_rows(k) must stay flat as the ingested stream grows."""
    import numpy as np

    models = {
        (policy, n): _grown_model(n, policy)
        for policy in ONBOARD_RETENTION
        for n in HISTORY_CHUNKS
    }

    def sweep() -> dict:
        onboard = {key: _onboard_seconds(model) for key, model in models.items()}
        # From-scratch refit baseline at the longest history: what a
        # non-elastic system pays to accept a new sensor (re-fit over the
        # whole retained window at the grown width).
        longest = HISTORY_CHUNKS[-1]
        t_total = CHUNK * (longest + 1)
        rng = np.random.default_rng(99)
        refit_data = 0.1 * rng.standard_normal((N_ROWS + N_NEW, t_total))
        with Timer() as timer:
            IncrementalMrDMD(dt=1.0, config=MrDMDConfig(max_levels=4)).fit(
                refit_data
            )
        return {"onboard_seconds": onboard, "refit_seconds": timer.elapsed}

    result = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    onboard = result["onboard_seconds"]

    report = {
        "experiment": "elastic_onboarding_cost",
        "scale": SCALE,
        "n_rows": N_ROWS,
        "n_new_sensors": N_NEW,
        "chunk": CHUNK,
        "history_chunks": list(HISTORY_CHUNKS),
        "flat_margin": FLAT_MARGIN,
        "refit_margin": REFIT_MARGIN,
        "retention": ONBOARD_RETENTION,
        "onboard_seconds": {
            policy: {str(n): onboard[policy, n] for n in HISTORY_CHUNKS}
            for policy in ONBOARD_RETENTION
        },
        "refit_seconds": result["refit_seconds"],
    }
    _merge_report(report)
    benchmark.extra_info.update(report)

    for policy in ONBOARD_RETENTION:
        shortest = onboard[policy, HISTORY_CHUNKS[0]]
        longest = onboard[policy, HISTORY_CHUNKS[-1]]
        assert longest <= shortest * FLAT_MARGIN, (
            f"onboarding {N_NEW} sensors under retain_data={policy!r} grew "
            f"{longest / shortest:.2f}x from {HISTORY_CHUNKS[0]} to "
            f"{HISTORY_CHUNKS[-1]} chunks of history "
            f"(bound: {FLAT_MARGIN}x) — the event is no longer O(k)"
        )
        assert longest * REFIT_MARGIN <= result["refit_seconds"], (
            f"onboarding ({longest:.4f}s) is not meaningfully cheaper than a "
            f"from-scratch refit ({result['refit_seconds']:.4f}s)"
        )


# --------------------------------------------------------------------------- #
# 2. Partial federation rounds
# --------------------------------------------------------------------------- #
def _machine_description() -> MachineDescription:
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


def _fed_streams(n_machines: int) -> dict:
    machine = _machine_description()
    return {
        f"m{i}": TelemetryGenerator(
            machine, seed=500 + i, utilization_target=0.4
        ).generate(FED_HISTORY + FED_CHUNK, sensors=["cpu_temp"])
        for i in range(n_machines)
    }


def _per_machine_ingest_seconds(streams: dict, *, partial: bool) -> float:
    """Wall seconds per (machine, ingest) pair, lockstep or half-fleet rounds."""
    registry = MachineRegistry(
        {
            name: FleetMonitor.from_stream(
                stream, policy=RackSharding(), config=CONFIG
            )
            for name, stream in streams.items()
        }
    )
    federated = FederatedMonitor(registry)
    names = list(streams)
    half = max(1, len(names) // 2)
    bounds = [
        (FED_HISTORY + lo, FED_HISTORY + hi)
        for lo, hi in chunk_indices(FED_CHUNK, FED_CHUNK // FED_INGESTS)
    ]
    try:
        federated.ingest(
            {name: stream.values[:, :FED_HISTORY] for name, stream in streams.items()}
        )
        participations = 0
        with Timer() as timer:
            for round_index, (lo, hi) in enumerate(bounds):
                if partial:
                    # Alternate halves: every machine still sees every
                    # chunk, one round later than its sibling half.
                    members = (
                        names[:half] if round_index % 2 == 0 else names[half:]
                    )
                else:
                    members = names
                federated.ingest(
                    {name: streams[name].values[:, lo:hi] for name in members}
                )
                participations += len(members)
    finally:
        federated.close()
        registry.close()
    return timer.elapsed / participations


def test_partial_rounds_do_not_regress_per_ingest_cost(benchmark):
    """Per-participating-machine cost: partial rounds ~= lockstep rounds."""
    streams_by_count = {n: _fed_streams(n) for n in MACHINE_COUNTS}

    def sweep() -> dict:
        return {
            mode: {
                n: _per_machine_ingest_seconds(
                    streams_by_count[n], partial=(mode == "partial")
                )
                for n in MACHINE_COUNTS
            }
            for mode in ("lockstep", "partial")
        }

    curves = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)

    report = {
        "experiment": "elastic_partial_rounds",
        "scale": SCALE,
        "machine_counts": list(MACHINE_COUNTS),
        "history": FED_HISTORY,
        "chunk": FED_CHUNK // FED_INGESTS,
        "n_ingests": FED_INGESTS,
        "partial_margin": PARTIAL_MARGIN,
        "per_machine_ingest_seconds": {
            mode: {str(n): curves[mode][n] for n in MACHINE_COUNTS}
            for mode in curves
        },
    }
    _merge_report(report)
    benchmark.extra_info.update(report)

    for n in MACHINE_COUNTS:
        ratio = curves["partial"][n] / curves["lockstep"][n]
        assert ratio <= PARTIAL_MARGIN, (
            f"partial rounds cost {ratio:.2f}x lockstep per participating "
            f"machine at {n} machines (bound: {PARTIAL_MARGIN}x) — absent "
            f"machines are no longer free"
        )


# --------------------------------------------------------------------------- #
def _merge_report(section: dict) -> None:
    """Accumulate both experiments into one BENCH_elastic.json."""
    merged: dict = {}
    if os.path.exists(RESULT_PATH):
        with open(RESULT_PATH, "r", encoding="utf-8") as handle:
            try:
                merged = json.load(handle)
            except ValueError:
                merged = {}
    merged[section["experiment"]] = section
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
