"""Checkpoint persistence: one writer, lossless by construction.

Every save — sync or async, written in place or into a rotation — goes
through one capture and one commit into a content-addressed block store.
Block reuse only ever *skips* serialisation work (shards whose revision
stamp has not moved re-reference their block), so every test here is a
parity test at heart: whatever combination of mode, layout, pruning,
rollback and compaction a run goes through, the restored monitor must be
bit-for-bit identical to the live one.  Alongside the parity suite: block-store
garbage collection under ``keep_last`` pruning and in-place re-saves,
ordering between async and sync saves, the resilience recovery
snapshots a save borrows instead of pulling state again, stamp-based
snapshot skipping, and reading the retired v1/v2 layout.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
import zipfile

import numpy as np
import pytest

from repro.core import MrDMDConfig
from repro.federation import (
    AlertRouter,
    FederatedMonitor,
    MachineRegistry,
    compact_federated_checkpoint,
    load_federated_checkpoint,
    save_federated_checkpoint,
)
from repro.io.delta import (
    AsyncCheckpointWriter,
    BlockStore,
    CheckpointWriteError,
    copy_state,
    state_digest,
)
from repro.pipeline import PipelineConfig
from repro.resilience import ResiliencePolicy, ShardRecoveryStore
from repro.service import (
    AlertEngine,
    CheckpointError,
    FleetMonitor,
    RackSharding,
    compact_checkpoint,
    default_rules,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.checkpoint import read_manifest, resolve_checkpoint_dir
from repro.telemetry import MachineDescription, TelemetryGenerator
from repro.telemetry.sensors import xc40_sensor_suite

from helpers import shard_reprs as _shard_reprs
from legacy_checkpoint import put_deflated_block, save_legacy_checkpoint

CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
    power_quantile=0.0,
)


def small_machine(racks: int = 2) -> MachineDescription:
    return MachineDescription(
        name="xc40",
        n_rows=1,
        racks_per_row=racks,
        cabinets_per_rack=1,
        slots_per_cabinet=2,
        blades_per_slot=1,
        nodes_per_blade=4,
        sensors=xc40_sensor_suite(),
        dt_seconds=15.0,
    )


def _stream(seed: int, steps: int = 400, racks: int = 2):
    return TelemetryGenerator(
        small_machine(racks), seed=seed, utilization_target=0.3
    ).generate(steps, sensors=["cpu_temp"])


def _build_monitor(
    seed: int, initial: int = 240, racks: int = 2, executor: str | None = None
) -> tuple[FleetMonitor, object]:
    stream = _stream(seed, racks=racks)
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=AlertEngine(rules=default_rules(), cooldown=100),
        executor=executor,
        max_workers=2 if executor == "process" else None,
    )
    monitor.ingest(stream.values[:, :initial])
    return monitor, stream


def _dirty_one_shard(monitor: FleetMonitor, stream, lo: int, hi: int) -> str:
    spec = monitor.shards[0]
    monitor.pipeline(spec.shard_id).ingest(spec.take(stream.values[:, lo:hi]))
    return spec.shard_id


# --------------------------------------------------------------------------- #
# Bit-for-bit parity
# --------------------------------------------------------------------------- #
#: (mode, keep_last) — async needs a rotation root.  Every save is a
#: delta save: it re-references the blocks of unchanged shards.
SAVE_VARIANTS = [
    pytest.param("sync", None, id="sync-delta-in-place"),
    pytest.param("sync", 2, id="sync-delta-rotated"),
    pytest.param("async", 2, id="async-delta-rotated"),
]


@pytest.mark.parametrize(("mode", "keep_last"), SAVE_VARIANTS)
def test_every_save_writes_version_3_and_restores_bit_for_bit(
    tmp_path, mode, keep_last
):
    monitor, stream = _build_monitor(seed=80)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=keep_last, mode=mode)
    monitor.flush_checkpoints()
    _dirty_one_shard(monitor, stream, 240, 320)
    info = save_checkpoint(root, monitor, keep_last=keep_last, mode=mode)
    monitor.flush_checkpoints()
    assert info.shards_reused == monitor.n_shards - 1

    entry = resolve_checkpoint_dir(root)
    manifest = read_manifest(entry)
    assert manifest["version"] == 3
    assert "shard_files" not in manifest
    assert os.path.normpath(os.path.join(entry, manifest["blocks_dir"])) == (
        os.path.normpath(os.path.join(root, "blocks"))
    )
    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


@pytest.mark.parametrize(("mode", "keep_last"), SAVE_VARIANTS)
def test_federated_save_variants_restore_bit_for_bit(tmp_path, mode, keep_last):
    federated, streams = _build_federation(seeds=(81, 82))
    root = str(tmp_path / "ckpt")
    save_federated_checkpoint(root, federated, keep_last=keep_last, mode=mode)
    federated.flush_checkpoints()
    _dirty_one_shard(federated.machine("east"), streams[0], 240, 320)
    save_federated_checkpoint(root, federated, keep_last=keep_last, mode=mode)
    federated.flush_checkpoints()

    entry = resolve_checkpoint_dir(root)
    for name in federated.machine_names:
        assert read_manifest(os.path.join(entry, "machines", name))["version"] == 3
    restored = load_federated_checkpoint(root)
    assert _federated_reprs(restored) == _federated_reprs(federated)
    federated.close(), restored.close()


def test_reusing_restore_matches_an_empty_store_save(tmp_path):
    """A save that re-references blocks restores exactly like a save of
    the same state into an empty store, which writes every block."""
    monitor, stream = _build_monitor(seed=51)
    reuse_dir, empty_dir = str(tmp_path / "reuse"), str(tmp_path / "empty")
    save_checkpoint(reuse_dir, monitor, keep_last=2)
    _dirty_one_shard(monitor, stream, 240, 320)
    reusing = save_checkpoint(reuse_dir, monitor, keep_last=2)
    fresh = save_checkpoint(empty_dir, monitor, keep_last=2)
    assert reusing.shards_reused == monitor.n_shards - 1
    assert fresh.shards_reused == 0

    live = _shard_reprs(monitor)
    restored_reuse = load_checkpoint(reuse_dir, rules=default_rules())
    restored_empty = load_checkpoint(empty_dir, rules=default_rules())
    assert _shard_reprs(restored_reuse) == live
    assert _shard_reprs(restored_empty) == live
    assert restored_reuse.step == monitor.step
    monitor.close(), restored_reuse.close(), restored_empty.close()


def test_second_delta_save_reuses_unchanged_shards(tmp_path):
    monitor, stream = _build_monitor(seed=52)
    root = str(tmp_path / "ckpt")
    first = save_checkpoint(root, monitor, keep_last=3, format="delta")
    assert first.shards_reused == 0

    dirty = _dirty_one_shard(monitor, stream, 240, 320)
    second = save_checkpoint(root, monitor, keep_last=3, format="delta")
    assert second.shards_reused == monitor.n_shards - 1
    # The reused shard wrote zero new bytes; only the dirty one did.
    assert second.bytes_written > 0
    assert second.bytes_referenced > 0

    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    assert dirty in _shard_reprs(restored)
    monitor.close(), restored.close()


def test_unchanged_fleet_delta_save_writes_nothing(tmp_path):
    monitor, _stream_ = _build_monitor(seed=53)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=3, format="delta")
    again = save_checkpoint(root, monitor, keep_last=3, format="delta")
    assert again.shards_reused == monitor.n_shards
    assert again.bytes_written == 0
    monitor.close()


def test_async_delta_restore_matches_live(tmp_path):
    monitor, stream = _build_monitor(seed=54)
    root = str(tmp_path / "ckpt")
    for lo in (240, 320):
        monitor.ingest(stream.values[:, lo : lo + 80])
        info = save_checkpoint(
            root, monitor, keep_last=2, format="delta", mode="async"
        )
        assert info.mode == "async"
    monitor.flush_checkpoints()

    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    assert restored.step == monitor.step
    monitor.close(), restored.close()


def test_monitor_close_flushes_pending_async_saves(tmp_path):
    monitor, _stream_ = _build_monitor(seed=56)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=2, format="delta", mode="async")
    live = _shard_reprs(monitor)
    monitor.close()  # barrier: the entry must be durable afterwards
    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == live
    restored.close()


def test_async_requires_keep_last(tmp_path):
    monitor, _stream_ = _build_monitor(seed=57)
    with pytest.raises(ValueError, match="keep_last"):
        save_checkpoint(str(tmp_path / "a"), monitor, mode="async")
    with pytest.raises(ValueError, match="keep_last"):
        save_checkpoint(
            str(tmp_path / "b"), monitor, format="delta", mode="async"
        )
    with pytest.raises(ValueError, match="format"):
        save_checkpoint(
            str(tmp_path / "c"), monitor, keep_last=2, format="sparse"
        )
    monitor.close()


def _block_files(blocks_dir: str) -> dict[str, int]:
    """Digest -> inode of every block file; a rewrite changes the inode."""
    store = BlockStore(blocks_dir)
    return {digest: os.stat(store.path(digest)).st_ino for digest in store.digests()}


def test_default_save_reuses_clean_shards(tmp_path):
    """A save with default arguments re-references the seven clean blocks
    of an 8-shard fleet and writes the one dirty shard's block."""
    monitor, stream = _build_monitor(seed=72, racks=8)
    assert monitor.n_shards == 8
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=2)
    before = _block_files(os.path.join(root, "blocks"))
    _dirty_one_shard(monitor, stream, 240, 320)
    info = save_checkpoint(root, monitor, keep_last=2)
    after = _block_files(os.path.join(root, "blocks"))

    assert info.shards_reused == 7
    written = [d for d, inode in after.items() if before.get(d) != inode]
    assert len(written) == 1
    store = BlockStore(os.path.join(root, "blocks"))
    assert info.bytes_written == os.path.getsize(store.path(written[0]))
    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


def test_default_federated_save_reuses_clean_shards(tmp_path):
    """The federated saver re-references clean shards by default too."""
    east, stream = _build_monitor(seed=90, racks=8)
    federated = FederatedMonitor(
        MachineRegistry({"east": east}), router=AlertRouter()
    )
    root = str(tmp_path / "ckpt")
    save_federated_checkpoint(root, federated, keep_last=2)
    before = _block_files(os.path.join(root, "blocks"))
    assert len(before) == 8
    _dirty_one_shard(east, stream, 240, 320)
    save_federated_checkpoint(root, federated, keep_last=2)
    after = _block_files(os.path.join(root, "blocks"))

    written = [d for d, inode in after.items() if before.get(d) != inode]
    assert len(written) == 1
    restored = load_federated_checkpoint(root)
    assert _federated_reprs(restored) == _federated_reprs(federated)
    federated.close(), restored.close()


def test_save_refuses_the_retired_full_format(tmp_path):
    monitor, _stream_ = _build_monitor(seed=91)
    with pytest.raises(ValueError, match="re-references unchanged shards"):
        save_checkpoint(str(tmp_path / "ckpt"), monitor, keep_last=2, format="full")
    assert not os.path.exists(tmp_path / "ckpt")
    monitor.close()


def test_sync_save_waits_for_a_pending_async_commit(tmp_path):
    """A late async commit must not land after a newer sync save.

    The rotation discards entries newer than the one it writes (they
    belong to an abandoned timeline), so an async step-240 commit that
    ran after a sync step-320 save would delete the newer entry.
    """
    monitor, stream = _build_monitor(seed=83)
    root = str(tmp_path / "ckpt")
    release = threading.Event()
    monitor._ensure_checkpoint_writer().submit(
        lambda: release.wait(10), label="blocker"
    )
    timer = threading.Timer(0.3, release.set)
    try:
        save_checkpoint(root, monitor, keep_last=2, format="delta", mode="async")
        monitor.ingest(stream.values[:, 240:320])
        timer.start()
        save_checkpoint(root, monitor, keep_last=2)
        release.set()
        monitor.flush_checkpoints()
    finally:
        timer.cancel()
        release.set()
    assert [entry.step for entry in list_checkpoints(root)] == [320, 240]
    restored = load_checkpoint(root, rules=default_rules())
    assert restored.step == monitor.step == 320
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


def test_federated_sync_save_waits_for_a_pending_async_commit(tmp_path):
    federated, streams = _build_federation(seeds=(84, 85))
    root = str(tmp_path / "ckpt")
    release = threading.Event()
    federated._ensure_checkpoint_writer().submit(
        lambda: release.wait(10), label="blocker"
    )
    timer = threading.Timer(0.3, release.set)
    try:
        save_federated_checkpoint(
            root, federated, keep_last=2, mode="async"
        )
        federated.ingest(
            {
                "east": streams[0].values[:, 240:320],
                "west": streams[1].values[:, 240:320],
            }
        )
        timer.start()
        save_federated_checkpoint(root, federated, keep_last=2)
        release.set()
        federated.flush_checkpoints()
    finally:
        timer.cancel()
        release.set()
    newest = federated.step
    assert [entry.step for entry in list_checkpoints(root)][0] == newest
    restored = load_federated_checkpoint(root)
    assert restored.step == newest
    assert _federated_reprs(restored) == _federated_reprs(federated)
    federated.close(), restored.close()


def test_mid_run_restart_from_delta_checkpoint(tmp_path):
    """Resume from a delta entry mid-stream == an uninterrupted run."""
    baseline, stream = _build_monitor(seed=58)
    baseline.ingest(stream.values[:, 240:320])
    baseline.ingest(stream.values[:, 320:400])

    monitor, _ = _build_monitor(seed=58)
    monitor.ingest(stream.values[:, 240:320])
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=2, format="delta")
    monitor.close()
    resumed = load_checkpoint(root, rules=default_rules())
    resumed.ingest(stream.values[:, 320:400])
    assert _shard_reprs(resumed) == _shard_reprs(baseline)
    baseline.close(), resumed.close()


# --------------------------------------------------------------------------- #
# Rotation, GC and compaction
# --------------------------------------------------------------------------- #
def test_pruned_entries_release_their_blocks(tmp_path):
    monitor, stream = _build_monitor(seed=59)
    root = str(tmp_path / "ckpt")
    store = BlockStore(os.path.join(root, "blocks"))
    save_checkpoint(root, monitor, keep_last=2, format="delta")
    first_blocks = store.digests()
    assert first_blocks

    # Two more saves with every shard dirty: the first entry falls out of
    # the rotation and its (now unreferenced) blocks must be swept.
    for lo in (240, 300):
        monitor.ingest(stream.values[:, lo : lo + 60])
        save_checkpoint(root, monitor, keep_last=2, format="delta")
    remaining = store.digests()
    assert not (first_blocks & remaining), "pruned entry's blocks leaked"

    # Blocks still referenced by retained entries survive.
    live = set()
    for entry in list_checkpoints(root):
        live.update(read_manifest(entry.path)["shard_blocks"])
    assert live <= remaining
    monitor.close()


def test_shared_blocks_survive_pruning(tmp_path):
    """A block referenced by old AND new entries outlives the old one."""
    monitor, stream = _build_monitor(seed=60)
    root = str(tmp_path / "ckpt")
    store = BlockStore(os.path.join(root, "blocks"))
    save_checkpoint(root, monitor, keep_last=2, format="delta")
    # Only shard 0 changes: the other shards' blocks stay shared across
    # all three entries while the rotation prunes the oldest.
    for lo in (240, 300):
        _dirty_one_shard(monitor, stream, lo, lo + 60)
        save_checkpoint(root, monitor, keep_last=2, format="delta")
    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    shared = read_manifest(list_checkpoints(root)[0].path)["shard_blocks"]
    assert set(shared) <= store.digests()
    monitor.close(), restored.close()


def test_rollback_then_resave_is_consistent(tmp_path):
    """Deleting the newest entry and saving again must not corrupt GC.

    The resaved state re-references blocks through the self-healing
    ``store.has`` check, and the sweep keeps everything the retained
    manifests still name.
    """
    monitor, stream = _build_monitor(seed=61)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=3, format="delta")
    monitor.ingest(stream.values[:, 240:320])
    save_checkpoint(root, monitor, keep_last=3, format="delta")

    # Operator rollback: drop the newest entry, fall back to the oldest.
    import shutil

    newest = list_checkpoints(root)[0]
    shutil.rmtree(newest.path)
    rolled_back = load_checkpoint(root, rules=default_rules())

    # The rolled-back monitor streams forward again and saves: the
    # original monitor's save records now name blocks the rotation may
    # sweep, and the rebuilt monitor has no save records at all — both
    # must converge to a loadable, bit-for-bit rotation.
    rolled_back.ingest(stream.values[:, 240:320])
    save_checkpoint(root, rolled_back, keep_last=3, format="delta")
    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(rolled_back)
    monitor.close(), rolled_back.close(), restored.close()


def test_in_place_resave_keeps_only_the_blocks_its_manifest_names(tmp_path):
    monitor, stream = _build_monitor(seed=86)
    directory = str(tmp_path / "ckpt")
    store = BlockStore(os.path.join(directory, "blocks"))
    save_checkpoint(directory, monitor)
    first = store.digests()
    monitor.ingest(stream.values[:, 240:320])
    save_checkpoint(directory, monitor, format="delta")
    manifest = read_manifest(directory)
    assert store.digests() == set(manifest["shard_blocks"])
    assert not first & store.digests(), "every shard moved; old blocks leaked"
    restored = load_checkpoint(directory, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


def test_compact_checkpoint_rewrites_self_contained(tmp_path):
    monitor, stream = _build_monitor(seed=62)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=2, format="delta")
    monitor.ingest(stream.values[:, 240:320])
    save_checkpoint(root, monitor, keep_last=2, format="delta")
    live = _shard_reprs(monitor)

    entry = compact_checkpoint(root)
    manifest = read_manifest(entry)
    assert manifest["version"] == 3
    assert manifest["blocks_dir"] == "blocks"
    own = BlockStore(os.path.join(entry, "blocks"))
    assert own.digests() == set(manifest["shard_blocks"])
    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == live
    # Compacting again is a no-op.
    assert compact_checkpoint(root) == entry
    monitor.close(), restored.close()


def test_compacted_entry_loads_when_copied_alone(tmp_path):
    monitor, _stream_ = _build_monitor(seed=87)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=2, format="delta")
    entry = compact_checkpoint(root)
    elsewhere = str(tmp_path / "archive" / "entry")
    shutil.copytree(entry, elsewhere)
    shutil.rmtree(root)
    restored = load_checkpoint(elsewhere, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


def test_compact_to_target_leaves_the_rotation_untouched(tmp_path):
    monitor, _stream_ = _build_monitor(seed=88)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=2, format="delta")
    before = sorted(BlockStore(os.path.join(root, "blocks")).digests())
    target = compact_checkpoint(root, target=str(tmp_path / "export"))
    assert sorted(BlockStore(os.path.join(root, "blocks")).digests()) == before
    restored = load_checkpoint(target, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


# --------------------------------------------------------------------------- #
# Federated
# --------------------------------------------------------------------------- #
def _build_federation(
    seeds=(63, 64), executor: str | None = None
) -> tuple[FederatedMonitor, list]:
    monitors, streams = {}, []
    for name, seed in zip(("east", "west"), seeds):
        monitor, stream = _build_monitor(seed=seed, executor=executor)
        monitors[name] = monitor
        streams.append(stream)
    federated = FederatedMonitor(
        MachineRegistry(monitors), router=AlertRouter()
    )
    return federated, streams


def _federated_reprs(federated: FederatedMonitor) -> dict[str, dict[str, str]]:
    return {
        name: _shard_reprs(federated.machine(name))
        for name in federated.machine_names
    }


def test_federated_delta_round_trip(tmp_path):
    federated, streams = _build_federation()
    root = str(tmp_path / "ckpt")
    save_federated_checkpoint(root, federated, keep_last=2)
    federated.ingest(
        {
            "east": streams[0].values[:, 240:320],
            "west": streams[1].values[:, 240:320],
        }
    )
    save_federated_checkpoint(root, federated, keep_last=2)

    restored = load_federated_checkpoint(root)
    assert _federated_reprs(restored) == _federated_reprs(federated)
    assert restored.step == federated.step
    federated.close(), restored.close()


def test_federated_async_delta_flush_and_restore(tmp_path):
    federated, streams = _build_federation(seeds=(65, 66))
    root = str(tmp_path / "ckpt")
    save_federated_checkpoint(
        root, federated, keep_last=2, mode="async"
    )
    federated.ingest(
        {
            "east": streams[0].values[:, 240:320],
            "west": streams[1].values[:, 240:320],
        }
    )
    save_federated_checkpoint(
        root, federated, keep_last=2, mode="async"
    )
    federated.flush_checkpoints()
    restored = load_federated_checkpoint(root)
    assert _federated_reprs(restored) == _federated_reprs(federated)
    federated.close(), restored.close()


def test_federated_parallel_save_matches_serial(tmp_path):
    """Machines on process shard executors write the entries serial
    machines write — the same block per shard, sync and async — and
    restore to the same state."""
    entries, restored = {}, {}
    for executor in ("serial", "process"):
        federated, streams = _build_federation(seeds=(67, 68), executor=executor)
        root = str(tmp_path / executor)
        try:
            save_federated_checkpoint(root, federated, keep_last=2)
            federated.ingest(
                {
                    "east": streams[0].values[:, 240:320],
                    "west": streams[1].values[:, 240:320],
                }
            )
            save_federated_checkpoint(root, federated, keep_last=2, mode="async")
            federated.flush_checkpoints()
        finally:
            federated.close()
            federated.registry.close()
        entries[executor] = [
            read_manifest(os.path.join(entry.path, "machines", name))["shard_blocks"]
            for entry in list_checkpoints(root)
            for name in ("east", "west")
        ]
        restored[executor] = _federated_reprs(load_federated_checkpoint(root))
    assert len(entries["serial"]) == 4
    assert entries["process"] == entries["serial"]
    assert restored["process"] == restored["serial"]


def test_compact_federated_checkpoint(tmp_path):
    federated, streams = _build_federation(seeds=(69, 70))
    root = str(tmp_path / "ckpt")
    save_federated_checkpoint(root, federated, keep_last=2)
    live = _federated_reprs(federated)
    compact_federated_checkpoint(root)
    restored = load_federated_checkpoint(root)
    assert _federated_reprs(restored) == live
    federated.close(), restored.close()


# --------------------------------------------------------------------------- #
# One layout per directory
# --------------------------------------------------------------------------- #
def test_rotated_save_into_an_in_place_checkpoint_raises(tmp_path):
    """The root manifest would shadow the rotation entry: a load after the
    rotated save would silently restore the older in-place state."""
    monitor, stream = _build_monitor(seed=92)
    directory = str(tmp_path / "ckpt")
    save_checkpoint(directory, monitor)
    monitor.ingest(stream.values[:, 240:320])
    for mode in ("sync", "async"):
        with pytest.raises(CheckpointError, match="in-place checkpoint"):
            save_checkpoint(directory, monitor, keep_last=2, mode=mode)
    monitor.flush_checkpoints()
    assert list_checkpoints(directory) == []
    restored = load_checkpoint(directory)
    assert restored.step == 240
    monitor.close(), restored.close()


def test_in_place_save_into_a_rotation_root_raises(tmp_path):
    monitor, stream = _build_monitor(seed=93)
    root = str(tmp_path / "ckpt")
    save_checkpoint(root, monitor, keep_last=2)
    monitor.ingest(stream.values[:, 240:320])
    with pytest.raises(CheckpointError, match="rotation root"):
        save_checkpoint(root, monitor)
    assert not os.path.exists(os.path.join(root, "manifest.json"))
    restored = load_checkpoint(root)
    assert restored.step == 240
    monitor.close(), restored.close()


def test_in_place_save_sees_a_pending_async_rotation(tmp_path):
    """A sync save drains the writer before it checks the layout, so a
    rotation entry still queued behind a slow commit counts."""
    monitor, _stream_ = _build_monitor(seed=94)
    root = str(tmp_path / "ckpt")
    release = threading.Event()
    monitor._ensure_checkpoint_writer().submit(
        lambda: release.wait(10), label="blocker"
    )
    timer = threading.Timer(0.3, release.set)
    try:
        save_checkpoint(root, monitor, keep_last=2, mode="async")
        timer.start()
        with pytest.raises(CheckpointError, match="rotation root"):
            save_checkpoint(root, monitor)
    finally:
        timer.cancel()
        release.set()
    monitor.flush_checkpoints()
    assert [entry.step for entry in list_checkpoints(root)] == [240]
    assert not os.path.exists(os.path.join(root, "manifest.json"))
    monitor.close()


def test_federated_saves_refuse_mixed_layouts(tmp_path):
    federated, streams = _build_federation(seeds=(95, 96))
    in_place, rotated = str(tmp_path / "in_place"), str(tmp_path / "rotated")
    save_federated_checkpoint(in_place, federated)
    save_federated_checkpoint(rotated, federated, keep_last=2)
    step = federated.step
    federated.ingest(
        {
            "east": streams[0].values[:, 240:320],
            "west": streams[1].values[:, 240:320],
        }
    )
    for mode in ("sync", "async"):
        with pytest.raises(CheckpointError, match="in-place checkpoint"):
            save_federated_checkpoint(in_place, federated, keep_last=2, mode=mode)
    with pytest.raises(CheckpointError, match="rotation root"):
        save_federated_checkpoint(rotated, federated)
    federated.flush_checkpoints()
    assert list_checkpoints(in_place) == []
    assert not os.path.exists(os.path.join(rotated, "manifest.json"))
    for directory in (in_place, rotated):
        restored = load_federated_checkpoint(directory)
        assert restored.step == step
        restored.close()
    federated.close()


# --------------------------------------------------------------------------- #
# Back-compat: v1/v2 checkpoints keep loading
# --------------------------------------------------------------------------- #
def test_legacy_in_place_checkpoint_still_loads(tmp_path):
    """A v1 checkpoint from before the block store loads, and a save over
    it in place turns it into a version-3 checkpoint."""
    monitor, stream = _build_monitor(seed=71)
    root = save_legacy_checkpoint(str(tmp_path / "legacy"), monitor)
    assert read_manifest(root)["version"] == 1
    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)

    restored.ingest(stream.values[:, 240:320])
    save_checkpoint(root, restored)
    assert read_manifest(root)["version"] == 3
    again = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(again) == _shard_reprs(restored)
    monitor.close(), restored.close(), again.close()


def test_an_earlier_release_deflated_block_is_re_referenced(tmp_path):
    """Blocks that earlier releases wrote deflated keep their digests: a
    save of the same state re-references them, writes no byte, leaves
    them as they were, and restores bit-for-bit."""
    monitor, _stream_ = _build_monitor(seed=91)
    root = str(tmp_path / "ckpt")
    store = BlockStore(os.path.join(root, "blocks"))
    digests = [
        put_deflated_block(store, monitor.shard_state_dict(spec.shard_id))
        for spec in monitor.shards
    ]
    before = {}
    for digest in digests:
        with open(store.path(digest), "rb") as fh:
            before[digest] = fh.read()

    info = save_checkpoint(root, monitor)
    assert info.bytes_written == 0
    assert info.bytes_referenced == sum(len(raw) for raw in before.values())
    assert read_manifest(root)["shard_blocks"] == digests
    for digest in digests:
        with zipfile.ZipFile(store.path(digest)) as zf:
            assert {m.compress_type for m in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        with open(store.path(digest), "rb") as fh:
            assert fh.read() == before[digest]

    restored = load_checkpoint(root, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


def test_compact_upgrades_a_legacy_checkpoint(tmp_path):
    monitor, _stream_ = _build_monitor(seed=89)
    root = save_legacy_checkpoint(str(tmp_path / "legacy"), monitor)
    entry = compact_checkpoint(root)
    manifest = read_manifest(entry)
    assert manifest["version"] == 3 and manifest["blocks_dir"] == "blocks"
    assert not [name for name in os.listdir(entry) if name.startswith("shard_")]
    restored = load_checkpoint(entry, rules=default_rules())
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


# --------------------------------------------------------------------------- #
# Recovery store: content-addressed snapshots + stamp skipping
# --------------------------------------------------------------------------- #
def test_recovery_store_rebuild_bit_for_bit(tmp_path):
    monitor, stream = _build_monitor(seed=73)
    store = ShardRecoveryStore(snapshot_every=4)
    spec = monitor.shards[0]
    shard_id = spec.shard_id
    store.record_snapshot(
        shard_id,
        monitor.shard_state_dict(shard_id),
        stamp=monitor.shard_state_stamp(shard_id),
    )
    tail = [stream.values[:, 240:280], stream.values[:, 280:320]]
    for chunk in tail:
        store.record_chunk(shard_id, spec.take(chunk))
        monitor.pipeline(shard_id).ingest(spec.take(chunk))

    rebuilt, n_replayed = store.rebuild(shard_id)
    assert n_replayed == len(tail)
    assert repr(rebuilt.state_dict()) == repr(
        monitor.shard_state_dict(shard_id)
    )
    monitor.close()


def test_recovery_store_skips_unchanged_stamp(tmp_path):
    monitor, stream = _build_monitor(seed=74)
    store = ShardRecoveryStore(snapshot_every=4)
    spec = monitor.shards[0]
    shard_id = spec.shard_id

    calls = []

    def provider():
        calls.append(1)
        return monitor.shard_state_dict(shard_id)

    stamp = monitor.shard_state_stamp(shard_id)
    assert store.record_snapshot_if_changed(shard_id, stamp, provider)
    # Unchanged stamp: no state pull, no re-serialisation, tail intact.
    store.record_chunk(shard_id, spec.take(stream.values[:, 240:280]))
    assert not store.record_snapshot_if_changed(shard_id, stamp, provider)
    assert len(calls) == 1
    assert store.tail_length(shard_id) == 1

    # The stamp moves on ingest: the next call snapshots again and the
    # newly covered tail is dropped.
    monitor.pipeline(shard_id).ingest(spec.take(stream.values[:, 240:280]))
    moved = monitor.shard_state_stamp(shard_id)
    assert moved != stamp
    assert store.record_snapshot_if_changed(shard_id, moved, provider)
    assert len(calls) == 2
    assert store.tail_length(shard_id) == 0
    monitor.close()


def test_recovery_snapshot_keeps_its_own_copy_until_forgotten():
    store = ShardRecoveryStore(snapshot_every=4)
    state = {"x": np.arange(6.0), "nested": {"y": np.ones((2, 3))}}
    store.record_snapshot("a", state, stamp=(1,))
    state["x"][0] = 99.0  # the caller's (live) arrays move on
    state["nested"]["y"][:] = -1.0
    held = store.snapshot_at("a", (1,))
    assert held["x"][0] == 0.0 and (held["nested"]["y"] == 1.0).all()
    assert store.snapshot_at("a", (2,)) is None  # another stamp: not current

    store.forget("a")
    assert not store.has_snapshot("a")
    assert store.snapshot_at("a", (1,)) is None


def _arrays(state):
    if isinstance(state, np.ndarray):
        yield state
    elif isinstance(state, dict):
        for value in state.values():
            yield from _arrays(value)
    elif isinstance(state, (list, tuple)):
        for value in state:
            yield from _arrays(value)


def test_rebuild_twice_from_one_snapshot_is_identical():
    """A rebuilt pipeline owns its arrays: writing into them in place
    leaves the snapshot intact for the next rebuild."""
    monitor, _stream_ = _build_monitor(seed=75)
    store = ShardRecoveryStore(snapshot_every=4)
    shard_id = monitor.shards[0].shard_id
    store.record_snapshot(shard_id, monitor.shard_state_dict(shard_id))

    first, _ = store.rebuild(shard_id)
    expected = repr(first.state_dict())
    for array in _arrays(first.state_dict()):
        if array.flags.writeable:
            array[...] = 0
    second, n_replayed = store.rebuild(shard_id)
    assert n_replayed == 0
    assert repr(second.state_dict()) == expected
    assert expected == repr(monitor.shard_state_dict(shard_id))
    monitor.close()


def test_save_borrows_a_same_stamp_recovery_snapshot(tmp_path, monkeypatch):
    """A save right after the recovery snapshot pulls no state of its own:
    one ``state_dict`` pull per shard per round, not two."""
    from repro.service import monitor as monitor_module

    stream = _stream(76)
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        resilience=ResiliencePolicy(snapshot_every=1, backoff_base=0.0),
    )
    monitor.ingest(stream.values[:, :240])
    pulls = []
    real_pull = monitor_module._shard_state_dict

    def counting_pull(pipeline):
        pulls.append(1)
        return real_pull(pipeline)

    monkeypatch.setattr(monitor_module, "_shard_state_dict", counting_pull)
    monitor.ingest(stream.values[:, 240:320])
    assert len(pulls) == monitor.n_shards  # the round's recovery snapshots
    root = str(tmp_path / "ckpt")
    info = save_checkpoint(root, monitor, keep_last=2, format="delta", mode="async")
    monitor.flush_checkpoints()
    assert info.shards_reused == 0
    assert len(pulls) == monitor.n_shards  # the save borrowed every state

    monkeypatch.undo()
    restored = load_checkpoint(root)
    assert _shard_reprs(restored) == _shard_reprs(monitor)
    monitor.close(), restored.close()


def test_delta_saves_to_two_stores_at_one_stamp(tmp_path):
    """One save record per shard serves every store: a store lacking the
    recorded block gets it written, and the first store still reuses."""
    monitor, _stream_ = _build_monitor(seed=77)
    first_root, second_root = str(tmp_path / "first"), str(tmp_path / "second")
    first = save_checkpoint(first_root, monitor, keep_last=2, format="delta")
    second = save_checkpoint(second_root, monitor, keep_last=2, format="delta")
    assert first.shards_reused == second.shards_reused == 0
    assert second.bytes_written > 0
    assert BlockStore(os.path.join(second_root, "blocks")).digests() == (
        BlockStore(os.path.join(first_root, "blocks")).digests()
    )
    again = save_checkpoint(first_root, monitor, keep_last=2, format="delta")
    assert again.shards_reused == monitor.n_shards
    assert again.bytes_written == 0
    for root in (first_root, second_root):
        restored = load_checkpoint(root, rules=default_rules())
        assert _shard_reprs(restored) == _shard_reprs(monitor)
        restored.close()
    monitor.close()


# --------------------------------------------------------------------------- #
# Building blocks
# --------------------------------------------------------------------------- #
def test_state_digest_content_addressing():
    a = {"x": np.arange(5.0), "meta": {"k": 3}}
    b = {"x": np.arange(5.0), "meta": {"k": 3}}
    assert state_digest(a) == state_digest(b)
    b["x"][2] = -1.0
    assert state_digest(a) != state_digest(b)
    assert state_digest({"x": np.arange(5.0)}) != state_digest(
        {"x": np.arange(5).astype(np.int64)}
    )


#: ``state_digest`` of :func:`_pinned_state` as earlier releases computed
#: it, hashing ``tobytes()`` copies.  Block stores on disk are addressed
#: by these digests, so a change here would orphan every stored block
#: instead of re-using it.
PINNED_DIGEST = "35c94f8ee1a1cc0bfdae9b8214613dfdbcb1dcee6dc56d02b208f2de04b96153"


def _pinned_state() -> dict:
    """Every array layout a digest meets: C, Fortran and strided order,
    complex, bool, 0-d, zero-size and string arrays, nested containers."""
    return {
        "floats": np.linspace(0.0, 1.0, 6).reshape(2, 3),
        "fortran": np.asfortranarray(np.arange(6, dtype=np.int64).reshape(2, 3)),
        "strided": np.arange(10, dtype=np.int32)[::3],
        "complex": np.array([1 + 2j, -0.5j]),
        "flags": np.array([True, False, True]),
        "scalar": np.array(3.5),
        "empty": np.zeros((0, 4)),
        "names": np.array(["rack0", "r1"]),
        "nested": {
            "pair": (np.arange(3, dtype=np.uint8), "tag"),
            "items": [1, 2.5, None],
        },
    }


def test_state_digest_is_pinned():
    assert state_digest(_pinned_state()) == PINNED_DIGEST


def test_block_put_flattens_once_and_writes_save_state_bytes(tmp_path, monkeypatch):
    import repro.io.delta as delta_module
    import repro.io.storage as storage_module
    from repro.io.storage import save_state

    state = _pinned_state()
    passes = []
    original = storage_module._flatten_state

    def counting(obj, arrays):
        if obj is state:
            passes.append(obj)
        return original(obj, arrays)

    # Both names: put's own and the recursion's (and save_state's).
    monkeypatch.setattr(storage_module, "_flatten_state", counting)
    monkeypatch.setattr(delta_module, "_flatten_state", counting)
    # Zip members carry their write time; pin it so the bytes compare.
    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0)
    store = BlockStore(str(tmp_path / "blocks"))
    digest, created, _ = store.put(state)
    assert created and digest == PINNED_DIGEST
    assert len(passes) == 1
    reference = save_state(str(tmp_path / "reference.npz"), state)
    with open(store.path(digest), "rb") as block, open(reference, "rb") as saved:
        assert block.read() == saved.read()


def test_copy_state_decouples_arrays():
    state = {"x": np.arange(3.0), "t": (np.ones(2), "tag"), "l": [1, 2]}
    copied = copy_state(state)
    state["x"][0] = 42.0
    state["t"][0][0] = 42.0
    assert copied["x"][0] == 0.0
    assert copied["t"][0][0] == 1.0
    assert copied["t"][1] == "tag"
    assert copied["l"] == [1, 2]


def test_copy_state_shares_only_immutable_state():
    monitor, stream = _build_monitor(7)
    live = monitor.shard_state_dict(monitor.shards[0].shard_id)
    captured = copy_state(live)
    model, live_model = captured["model"], live["model"]
    # The stacked tree arrays and the retained-data view are immutable:
    # shared.
    for name in ("node_ints", "node_floats", "modes", "eigenvalues", "amplitudes"):
        assert model["tree"][name] is live_model["tree"][name]
        assert not model["tree"][name].flags.writeable
    assert model["data"] is live_model["data"]
    assert not model["data"].flags.writeable
    # Writeable arrays are copied.
    assert live_model["level1_modes"].flags.writeable
    assert not np.shares_memory(model["level1_modes"], live_model["level1_modes"])
    digest = state_digest(captured)
    monitor.ingest(stream.values[:, 240:300])
    assert state_digest(captured) == digest
    monitor.close()


def test_block_store_round_trip(tmp_path):
    store = BlockStore(str(tmp_path / "blocks"))
    state = {"x": np.arange(8.0).reshape(2, 4), "s": "name"}
    digest, created, nbytes = store.put(state)
    assert created and nbytes > 0
    again, created_again, _ = store.put(state)
    assert again == digest and not created_again
    out = store.load(digest)
    assert repr(out) == repr(state)
    swept, _bytes = store.sweep(live=set())
    assert swept == 1
    assert not store.has(digest)


def test_async_writer_deferred_errors_raise_on_flush():
    writer = AsyncCheckpointWriter(max_pending=2)

    def boom():
        raise RuntimeError("disk on fire")

    writer.submit(boom, label="failing save")
    with pytest.raises(CheckpointWriteError, match="disk on fire"):
        writer.flush()
    # The writer stays usable after a failure and closes cleanly.
    done = []
    writer.submit(lambda: done.append(1), label="ok save")
    writer.close()
    assert done == [1]


def test_async_writer_preserves_fifo_order():
    writer = AsyncCheckpointWriter(max_pending=2)
    order = []
    for index in range(6):
        writer.submit(lambda i=index: order.append(i), label=f"save {index}")
    writer.close()
    assert order == list(range(6))
