"""Zero-stall persistence gates: delta saves and async writer stalls.

Checkpointing stays off the per-chunk critical path in two steps — every
save only serialises shards whose revision stamp moved (re-referencing
the other shards' blocks in a content-addressed block store), and an
asynchronous writer commits entries on a background thread.  Both steps
are only acceptable if they are *actually* cheap and *provably* lossless:

1. **Delta save < 25 % of an empty-store save** (gated).  Reuse against
   no reuse through one writer: in an 8-shard fleet where exactly one
   shard changed between rotations, the timed delta save (1 dirty / 8
   shards) must re-serialise one shard, not eight, and come in under a
   quarter of the timed save of the same state into an empty block
   store, where nothing can be reused and all eight blocks are written.

2. **Async stall < 5 % of a chunk** (gated).  Ingesting with periodic
   ``mode="async"`` saves, the per-chunk ingest-side stall — the
   synchronous exposure of each save (state capture plus writer
   handoff, reported in ``CheckpointInfo.stall_seconds``), amortised
   over the chunks between saves — must stay under 5 % of the median
   chunk ingest time: the writer absorbs serialisation and disk, the
   chunk loop pays only the snapshot copy.

3. **Restore parity** (asserted, not timed).  The empty-store, reusing
   and flushed async checkpoints of the same monitor state — one writer
   with and without reuse, on and off the critical path — must all
   restore bit-for-bit identical shard state dicts.

The writer's per-block cost is recorded too (not gated): for the
largest shard's state, the content digest, the ``save_state`` write and
the block's size on disk.

Results land in ``BENCH_checkpoint.json`` next to this file
(machine-readable; uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from repro.core import MrDMDConfig
from repro.io.delta import state_digest
from repro.io.storage import save_state
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor, RackSharding
from repro.service.alerts import AlertEngine, default_rules
from repro.service.checkpoint import load_checkpoint, save_checkpoint
from repro.telemetry import MachineDescription, TelemetryGenerator, xc40_sensor_suite
from repro.util import Timer

from conftest import SCALE, scaled

#: Where the machine-readable results land (committed + CI artifact).
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_checkpoint.json"
)

HISTORY = scaled(1_200, 10_000)
CHUNK = scaled(300, 2_000)
#: Timed save repetitions (best-of, same rationale as bench_resilience).
N_REPS = 3
#: Measured streaming chunks for the async-stall gate.
N_CHUNKS = 8
#: Async saves fire every this many chunks — a steady cadence the writer
#: can absorb (a save every chunk with all 8 shards dirty writes every
#: block and measures the disk, not the handoff).
ASYNC_EVERY = 2
CONFIG = PipelineConfig(mrdmd=MrDMDConfig(max_levels=scaled(5, 8)))

#: A 1-dirty/8-shard delta save must cost at most this fraction of a save
#: into an empty block store.
DELTA_BOUND = 0.25
#: Ingest-side async stall may cost at most this fraction of a chunk.
STALL_BOUND = 0.05


def _fleet_stream():
    """cpu_temp telemetry for a 256-node, 8-rack machine (8 rack shards)."""
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
    generator = TelemetryGenerator(machine, seed=419, utilization_target=0.4)
    return generator.generate(
        HISTORY + (N_REPS + N_CHUNKS + 2) * CHUNK, sensors=["cpu_temp"]
    )


def _fitted_monitor(stream) -> FleetMonitor:
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=AlertEngine(rules=default_rules(), cooldown=10_000),
    )
    monitor.ingest(stream.values[:, :HISTORY])
    return monitor


def _dirty_one_shard(monitor: FleetMonitor, chunk) -> None:
    """Advance exactly one shard's pipeline (serial backend, in-process)."""
    spec = monitor.shards[0]
    monitor.pipeline(spec.shard_id).ingest(spec.take(chunk))


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _shard_reprs(monitor: FleetMonitor) -> dict[str, str]:
    return {
        spec.shard_id: repr(monitor.shard_state_dict(spec.shard_id))
        for spec in monitor.shards
    }


def _largest_block_cost(monitor: FleetMonitor, workdir: str) -> dict:
    """Best-of-``N_REPS`` writer cost of the largest shard's block: the
    content digest and the ``save_state`` write, the two steps the
    writer thread runs per dirty shard."""
    path = os.path.join(workdir, "largest_block.npz")
    sizes = {}
    for spec in monitor.shards:
        save_state(path, monitor.shard_state_dict(spec.shard_id))
        sizes[spec.shard_id] = os.path.getsize(path)
    state = monitor.shard_state_dict(max(sizes, key=sizes.get))
    digest_seconds, write_seconds = [], []
    for _ in range(N_REPS):
        with Timer() as timer:
            state_digest(state)
        digest_seconds.append(timer.elapsed)
        with Timer() as timer:
            save_state(path, state)
        write_seconds.append(timer.elapsed)
    return {
        "largest_block_digest_ms": min(digest_seconds) * 1e3,
        "largest_block_write_ms": min(write_seconds) * 1e3,
        "largest_block_bytes": os.path.getsize(path),
    }


def test_checkpoint_gates(benchmark):
    stream = _fleet_stream()
    workdir = tempfile.mkdtemp(prefix="bench-checkpoint-")

    def measure() -> dict:
        monitor = _fitted_monitor(stream)
        empty_dir = os.path.join(workdir, "empty")
        delta_dir = os.path.join(workdir, "delta")
        async_dir = os.path.join(workdir, "async")

        # Seed the delta rotation so later saves have an entry to share
        # blocks with — the steady state block reuse is built for.
        save_checkpoint(delta_dir, monitor, keep_last=2)

        # Gate 1: 1 dirty shard out of 8, timed save into an empty block
        # store (no reuse possible: all eight blocks written) vs timed
        # delta save of the *same* state through the same writer.  Each
        # rep dirties one shard first so the delta save has exactly one
        # block to write.
        empty_seconds, delta_seconds = [], []
        reused = 0
        position = HISTORY
        for _ in range(N_REPS):
            _dirty_one_shard(monitor, stream.values[:, position : position + CHUNK])
            position += CHUNK
            shutil.rmtree(empty_dir, ignore_errors=True)
            with Timer() as timer:
                save_checkpoint(empty_dir, monitor, keep_last=2)
            empty_seconds.append(timer.elapsed)
            with Timer() as timer:
                info = save_checkpoint(delta_dir, monitor, keep_last=2)
            delta_seconds.append(timer.elapsed)
            reused = info.shards_reused

        # Restore parity: empty-store and reusing saves of the same state.
        live = _shard_reprs(monitor)
        restored_empty = load_checkpoint(empty_dir, rules=default_rules())
        restored_delta = load_checkpoint(delta_dir, rules=default_rules())
        assert _shard_reprs(restored_empty) == live, "empty-store restore drifted"
        assert _shard_reprs(restored_delta) == live, "delta restore drifted"
        restored_empty.close()
        restored_delta.close()
        bytes_written = info.bytes_written
        bytes_referenced = info.bytes_referenced
        block_cost = _largest_block_cost(monitor, workdir)
        monitor.close()

        # Gate 2: streaming with periodic async delta saves; the chunk
        # loop's only exposure is the capture plus the (bounded-queue)
        # writer handoff, reported per save as stall_seconds.
        monitor = _fitted_monitor(stream)
        chunk_seconds, stall_seconds, save_call_seconds = [], [], []
        position = HISTORY
        for index in range(1, N_CHUNKS + 1):
            chunk = stream.values[:, position : position + CHUNK]
            position += CHUNK
            with Timer() as timer:
                monitor.ingest_and_alert(chunk)
            chunk_seconds.append(timer.elapsed)
            if index % ASYNC_EVERY == 0:
                with Timer() as timer:
                    info = save_checkpoint(
                        async_dir, monitor, keep_last=2, mode="async"
                    )
                save_call_seconds.append(timer.elapsed)
                stall_seconds.append(info.stall_seconds)
        monitor.flush_checkpoints()

        # Restore parity: the flushed async delta rotation's newest entry
        # is the state at the last save, which was the last chunk.
        live = _shard_reprs(monitor)
        restored_async = load_checkpoint(async_dir, rules=default_rules())
        assert _shard_reprs(restored_async) == live, "async restore drifted"
        assert restored_async.step == monitor.step
        restored_async.close()
        monitor.close()

        return {
            "empty_store_save_seconds": _median(empty_seconds),
            "delta_save_seconds": _median(delta_seconds),
            "empty_store_save_seconds_best": min(empty_seconds),
            "delta_save_seconds_best": min(delta_seconds),
            "shards_reused": reused,
            "bytes_written": bytes_written,
            "bytes_referenced": bytes_referenced,
            "chunk_seconds": _median(chunk_seconds),
            "async_stall_seconds": _median(stall_seconds),
            "async_stall_seconds_max": max(stall_seconds),
            "async_stall_per_chunk_seconds": sum(stall_seconds) / N_CHUNKS,
            "async_save_call_seconds": _median(save_call_seconds),
            "n_async_saves": len(stall_seconds),
            **block_cost,
        }

    try:
        result = benchmark.pedantic(
            measure, rounds=1, iterations=1, warmup_rounds=0
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    delta_fraction = (
        result["delta_save_seconds_best"]
        / result["empty_store_save_seconds_best"]
    )
    stall_fraction = (
        result["async_stall_per_chunk_seconds"] / result["chunk_seconds"]
    )

    report = {
        "experiment": "checkpoint_persistence",
        "scale": SCALE,
        "n_shards": 8,
        "dirty_shards": 1,
        "history": HISTORY,
        "chunk": CHUNK,
        "async_every": ASYNC_EVERY,
        "delta_bound": DELTA_BOUND,
        "delta_fraction": delta_fraction,
        "stall_bound": STALL_BOUND,
        "stall_fraction": stall_fraction,
        "restore_parity": True,
        **result,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump({"checkpoint_persistence": report}, handle, indent=2)
    benchmark.extra_info.update(report)

    assert result["shards_reused"] == 7, (
        f"expected 7 of 8 shards reused by the 1-dirty delta save, got "
        f"{result['shards_reused']} — dirty tracking regressed"
    )
    assert delta_fraction < DELTA_BOUND, (
        f"1-dirty/8-shard delta save costs {delta_fraction:.0%} of an "
        f"empty-store save ({result['delta_save_seconds_best'] * 1e3:.1f} ms "
        f"vs {result['empty_store_save_seconds_best'] * 1e3:.1f} ms; bound "
        f"{DELTA_BOUND:.0%}) — incremental persistence regressed"
    )
    assert stall_fraction < STALL_BOUND, (
        f"async saves stall ingest {stall_fraction:.2%} per chunk "
        f"({result['async_stall_per_chunk_seconds'] * 1e3:.2f} ms amortised "
        f"vs {result['chunk_seconds'] * 1e3:.1f} ms chunk; bound "
        f"{STALL_BOUND:.0%}) — checkpointing is back on the critical path"
    )
