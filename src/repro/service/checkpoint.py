"""Checkpoint / restore of a running :class:`FleetMonitor`.

A monitoring service that watches a machine for weeks must survive its own
restarts.  A checkpoint is a directory::

    <dir>/
      manifest.json    # version, step, shard specs, alert-engine state
      shard_0.npz      # pipeline state of shards[0] (io.storage.save_state)
      shard_1.npz
      ...

With ``save_checkpoint(..., keep_last=N)`` the directory becomes a
*rotation root* instead: each save lands in a step-stamped subdirectory
(``step_000000000480/``), written to a temporary sibling first and renamed
into place so a crash mid-write never leaves a half-checkpoint that looks
loadable, and only the newest ``N`` are retained (older ones are renamed
aside before removal — pruning is atomic too).  :func:`list_checkpoints`
returns the retained history newest-first and :func:`load_checkpoint`
accepts either a concrete checkpoint directory or a rotation root (it
resumes from the newest entry).

Each ``shard_k.npz`` holds the *complete* per-shard pipeline state — the
I-mrDMD mode tree, the level-1 incremental-SVD factors, the subsampled
level-1 matrix and counters, and the fitted baseline — through
``OnlineAnalysisPipeline.state_dict()`` and the generic
:func:`repro.io.storage.save_state` container.  Restoring therefore resumes
the stream *bit-for-bit*: the next ingest, the resulting spectra, z-scores
and rack values are exactly what the uninterrupted monitor would have
produced (asserted by the tests and the ``service_fleet`` example).

Rules and sinks are code, not data: :func:`load_checkpoint` takes them as
arguments and re-attaches the engine's persisted dedup/cooldown state so a
restarted service does not re-fire alerts it already delivered.

Two orthogonal switches take persistence off the ingest critical path
(both require a rotation root, i.e. ``keep_last=N``):

* ``format="delta"`` writes *version-3* entries: shard states live in a
  shared content-addressed ``blocks/`` directory next to the rotation
  entries, and the entry manifest lists one digest per shard
  (``shard_blocks``) instead of per-entry ``shard_files``.  Shards whose
  :meth:`~repro.pipeline.online.OnlineAnalysisPipeline.state_stamp` is
  unchanged since the previous save skip ``state_dict()`` entirely and
  re-reference the block already on disk, so a steady-state save costs
  O(changed state).  Blocks unreferenced by any retained entry are swept
  after every rotation (reference counting at ``keep_last`` pruning
  time); :func:`compact_checkpoint` rewrites a delta entry as a
  self-contained v1/v2 full checkpoint loadable by pre-delta code.
* ``mode="async"`` captures a decoupled snapshot synchronously (cheap:
  stamps + dirty shards only under ``format="delta"``) and defers the
  hash/compress/write/rotate tail to a bounded background writer
  (:class:`~repro.io.delta.AsyncCheckpointWriter`).  Crash consistency
  is unchanged — blocks land before the entry rename, so a torn async
  write leaves at worst orphan blocks and the newest *complete* entry
  keeps loading.  ``monitor.flush_checkpoints()`` (or ``close()``) is
  the barrier that surfaces deferred write errors.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import zipfile
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..io.delta import (
    BLOCKS_DIRNAME,
    AsyncCheckpointWriter,
    BlockStore,
    copy_state,
    state_digest,
)
from ..io.storage import load_state, save_state
from ..obs import OBS
from ..obs.flight import FLIGHT
from ..pipeline.config import PipelineConfig
from ..pipeline.online import OnlineAnalysisPipeline
from .alerts import AlertEngine, AlertRule, AlertSink
from .monitor import FleetMonitor
from .sharding import ShardSpec

__all__ = [
    "CheckpointError",
    "CheckpointInfo",
    "RotatedCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "compact_checkpoint",
    "read_manifest",
    "list_checkpoints",
    "resolve_checkpoint_dir",
    "rotate_into",
]


class CheckpointError(ValueError):
    """A checkpoint is corrupt, incomplete, or otherwise unloadable.

    Raised instead of the cryptic low-level errors a damaged checkpoint
    otherwise surfaces (``zipfile.BadZipFile`` from a truncated npz,
    ``KeyError`` from a missing manifest entry, ...) — the message always
    names the offending file and suggests restoring from an older rotation
    entry.  Subclasses ``ValueError`` so callers catching the historical
    version-mismatch error keep working.
    """

#: Base manifest version — written whenever the state could also resume on
#: pre-elastic code (every row present since the start, full level-1 grids).
CHECKPOINT_VERSION = 1
#: Written when the state is *topology-bearing* (rows added mid-stream, a
#: shard minted mid-run, or a level-1 grid shrunk to its trailing column):
#: pre-elastic loaders would silently mis-resume such state, so their
#: ``version != 1`` check makes them refuse cleanly instead.
ELASTIC_CHECKPOINT_VERSION = 2
#: Written by ``format="delta"`` saves: shard state lives in a shared
#: content-addressed block store and the manifest lists digests
#: (``shard_blocks`` + ``blocks_dir``) instead of per-entry files.  Pre-delta
#: loaders refuse v3 cleanly via their version check.
DELTA_CHECKPOINT_VERSION = 3
SUPPORTED_CHECKPOINT_VERSIONS = (
    CHECKPOINT_VERSION,
    ELASTIC_CHECKPOINT_VERSION,
    DELTA_CHECKPOINT_VERSION,
)
MANIFEST_NAME = "manifest.json"

#: Step-stamped rotation entries: ``step_<12-digit zero-padded step>``.
STEP_DIR_PREFIX = "step_"
_STEP_DIR_RE = re.compile(r"^step_(\d{12})$")


@dataclass(frozen=True)
class CheckpointInfo:
    """What :func:`save_checkpoint` wrote.

    For ``mode="async"`` the info is *provisional*: ``directory`` is
    where the entry will land, ``files`` is empty, and the write stats
    are zero (the commit happens on the writer thread; its totals show
    up in the ``checkpoint.*`` obs counters).  ``stall_seconds`` is the
    time the caller actually spent on the critical path either way.
    """

    directory: str
    step: int
    n_shards: int
    files: tuple[str, ...]
    format: str = "full"
    mode: str = "sync"
    shards_reused: int = 0
    bytes_written: int = 0
    bytes_referenced: int = 0
    stall_seconds: float = 0.0

    @property
    def total_bytes(self) -> int:
        """On-disk size of every checkpoint file."""
        return sum(os.path.getsize(path) for path in self.files)


@dataclass(frozen=True)
class RotatedCheckpoint:
    """One retained entry of a rotated checkpoint history."""

    step: int
    path: str


def _shard_filename(index: int) -> str:
    return f"shard_{index}.npz"


def _manifest_entry(manifest: dict, key: str, directory: str):
    """One required manifest entry, or a clear :class:`CheckpointError`."""
    try:
        return manifest[key]
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint manifest under {directory!r} is missing its "
            f"{key!r} entry; the manifest is corrupt or written by an "
            f"incompatible tool — restore from an older rotation entry"
        ) from exc


def load_shard_state(path: str) -> dict:
    """Load one shard's pipeline state, mapping low-level failures to
    :class:`CheckpointError` (shared with the federated loader)."""
    try:
        return load_state(path)
    except FileNotFoundError as exc:
        raise CheckpointError(
            f"checkpoint shard file {path!r} is missing; the checkpoint "
            f"directory is incomplete — restore from an older rotation entry"
        ) from exc
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"checkpoint shard file {path!r} is corrupt or unreadable "
            f"({type(exc).__name__}: {exc}); restore from an older "
            f"rotation entry"
        ) from exc


def list_checkpoints(directory: str) -> list[RotatedCheckpoint]:
    """Retained step-stamped checkpoints under a rotation root, newest first.

    Only *complete* entries count: a step directory missing its manifest
    (e.g. an interrupted write under a non-atomic filesystem) is skipped,
    as are the transient ``*.tmp`` / ``*.trash`` siblings the rotation
    protocol uses.  A missing root yields an empty history.
    """
    if not os.path.isdir(directory):
        return []
    entries = []
    for name in os.listdir(directory):
        match = _STEP_DIR_RE.match(name)
        path = os.path.join(directory, name)
        if (
            match
            and os.path.isdir(path)
            and os.path.exists(os.path.join(path, MANIFEST_NAME))
        ):
            entries.append(RotatedCheckpoint(step=int(match.group(1)), path=path))
    entries.sort(key=lambda entry: entry.step, reverse=True)
    return entries


def _discard(path: str) -> None:
    """Remove a checkpoint directory atomically.

    The directory is renamed aside first (one atomic operation that takes
    it out of :func:`list_checkpoints`' view), then deleted — a crash
    mid-removal can never leave a partially deleted directory that still
    looks like a valid checkpoint.
    """
    trash = path + ".trash"
    if os.path.exists(trash):
        shutil.rmtree(trash)
    os.rename(path, trash)
    shutil.rmtree(trash)


def rotate_into(
    directory: str, step: int, keep_last: int, writer: Callable[[str], None]
) -> str:
    """Write one step-stamped checkpoint under a rotation root; prune old ones.

    ``writer`` receives a fresh temporary directory and must fully populate
    it; the directory is then renamed to ``step_<step>`` in one atomic
    operation (same filesystem), so readers never observe a half-written
    checkpoint.  Re-checkpointing the same step replaces the previous
    entry.  After the rename, any *newer* entries are discarded — they
    belong to a timeline abandoned by restoring an older checkpoint and
    resuming, and the resumed stream is now authoritative — then all but
    the newest ``keep_last`` entries are pruned (the entry just written is
    by construction the newest, so it always survives).  Returns the final
    checkpoint path.

    Shared by the single-machine and federated checkpoint writers.
    """
    if keep_last < 1:
        raise ValueError(f"keep_last must be >= 1, got {keep_last!r}")
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step!r}")
    os.makedirs(directory, exist_ok=True)
    final = os.path.join(directory, f"{STEP_DIR_PREFIX}{step:012d}")
    tmp = final + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        writer(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if os.path.exists(final):
        _discard(final)
    os.rename(tmp, final)
    for entry in list_checkpoints(directory):
        if entry.step > step:
            _discard(entry.path)
    for stale in list_checkpoints(directory)[keep_last:]:
        _discard(stale.path)
    return final


def save_checkpoint(
    directory: str,
    monitor: FleetMonitor,
    *,
    keep_last: int | None = None,
    format: str = "full",
    mode: str = "sync",
    writer: AsyncCheckpointWriter | None = None,
) -> CheckpointInfo:
    """Write the monitor's state under ``directory`` (created if needed).

    Per-shard state is collected through the monitor's executor
    (:meth:`FleetMonitor.shard_state_dicts`), so remote-resident backends
    ship only state dicts — identical bytes to a serial monitor's, as the
    parity tests assert.

    With ``keep_last=N`` the directory is treated as a *rotation root*:
    the checkpoint lands in an atomic step-stamped subdirectory
    (``step_000000000480/``) and only the newest ``N`` entries survive.
    The returned :class:`CheckpointInfo` then points at the step
    directory; :func:`load_checkpoint` accepts either form.

    ``format="delta"`` (requires ``keep_last``) writes a version-3 entry
    whose shard states live in the root's shared content-addressed
    ``blocks/`` store; shards whose state stamp is unchanged since this
    monitor's previous save re-reference their existing block without
    being serialised.  ``mode="async"`` (requires ``keep_last``) captures
    a decoupled snapshot synchronously and commits on the monitor's
    background writer (or the explicitly passed ``writer``); deferred
    write errors surface at the next ``monitor.flush_checkpoints()`` /
    ``close()`` barrier.  Restores are bit-for-bit identical across all
    four format/mode combinations.
    """
    if format not in ("full", "delta"):
        raise ValueError(f"format must be 'full' or 'delta', got {format!r}")
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
    if keep_last is None:
        if format == "delta" or mode == "async":
            raise ValueError(
                "format='delta' and mode='async' need a rotation root: pass "
                "keep_last=N (atomic entry renames are what keep torn or "
                "deferred writes from corrupting the newest entry)"
            )
        return _write_checkpoint(directory, monitor)

    start = time.perf_counter()
    with OBS.span("checkpoint.save", format=format, mode=mode):
        if mode == "sync" and format == "full":
            final = rotate_into(
                directory,
                monitor.step,
                keep_last,
                lambda tmp: _write_checkpoint(tmp, monitor),
            )
            manifest = read_manifest(final)
            files = [os.path.join(final, name) for name in manifest["shard_files"]]
            files.append(os.path.join(final, MANIFEST_NAME))
            stall = time.perf_counter() - start
            _record_save(format, mode, stall)
            return CheckpointInfo(
                directory=final,
                step=monitor.step,
                n_shards=monitor.n_shards,
                files=tuple(files),
                format=format,
                mode=mode,
                stall_seconds=stall,
            )

        blocks_dir = None
        if format == "delta":
            blocks_dir = os.path.join(directory, BLOCKS_DIRNAME)
            base, blocks, reused = _capture_delta(
                monitor, blocks_dir, snapshot=(mode == "async")
            )
        else:
            base, blocks = _capture_full(monitor, snapshot=True)
            reused = 0
        step = monitor.step
        n_shards = monitor.n_shards

        if mode == "sync":
            info = _commit_rotation(
                directory, step, keep_last, base, blocks, blocks_dir
            )
            stall = time.perf_counter() - start
            _record_save(format, mode, stall)
            return CheckpointInfo(
                directory=info.directory,
                step=step,
                n_shards=n_shards,
                files=info.files,
                format=format,
                mode=mode,
                shards_reused=reused,
                bytes_written=info.bytes_written,
                bytes_referenced=info.bytes_referenced,
                stall_seconds=stall,
            )

        if writer is None:
            writer = monitor._ensure_checkpoint_writer()
        writer.submit(
            lambda: _commit_rotation(
                directory, step, keep_last, base, blocks, blocks_dir
            ),
            label=f"{format} step {step}",
        )
        stall = time.perf_counter() - start
        _record_save(format, mode, stall)
        return CheckpointInfo(
            directory=os.path.join(directory, f"{STEP_DIR_PREFIX}{step:012d}"),
            step=step,
            n_shards=n_shards,
            files=(),
            format=format,
            mode=mode,
            shards_reused=reused,
            stall_seconds=stall,
        )


def _record_save(format: str, mode: str, stall: float) -> None:
    if OBS.enabled:
        OBS.inc("checkpoint.saves", format=format, mode=mode)
        OBS.observe("checkpoint.stall_seconds", stall)


def _state_is_topology_bearing(state: dict) -> bool:
    """Whether a pipeline state dict needs an elastic-aware loader."""
    model = state.get("model")
    if not model:
        return False
    if int(model.get("sub_offset") or 0) > 0:
        return True
    topology = model.get("topology")
    return topology is not None and len(topology) > 0


def _capture_manifest(monitor: FleetMonitor) -> dict:
    """Every manifest field except the version and the shard payload list.

    Plain containers decoupled from the alert-engine / quarantine state
    the live monitor keeps mutating, so an asynchronous commit can write
    them later (the alert engine's ``state_dict`` already builds fresh
    containers of scalars).
    """
    return {
        "step": monitor.step,
        "dt": monitor.dt,
        "config": monitor.config.to_dict(),
        "shards": [spec.to_dict() for spec in monitor.shards],
        # Row-policing modes are behaviour, not derivable from state: a
        # restored monitor watching registered-but-not-yet-reporting
        # sensors must keep padding their rows, not crash on the next
        # short chunk.
        "extra_rows": monitor.extra_rows,
        "missing_rows": monitor.missing_rows,
        "alert_engine": (
            None
            if monitor.alert_engine is None
            else monitor.alert_engine.state_dict()
        ),
        # Degradation is state: a restarted supervisor must keep excluding
        # the shards its predecessor quarantined (and keep annotating its
        # snapshots/alerts) rather than silently resurrecting stale rows.
        "quarantined": copy_state(monitor.quarantine_info),
        "chunks_ingested": monitor._chunk_index,
    }


def _write_checkpoint(directory: str, monitor: FleetMonitor) -> CheckpointInfo:
    os.makedirs(directory, exist_ok=True)
    files = []
    elastic = any(spec.start_step > 0 for spec in monitor.shards)
    # One shard at a time: fetch, write, drop — peak memory stays at a
    # single shard's state even for fleets retaining raw data.
    for index, spec in enumerate(monitor.shards):
        path = os.path.join(directory, _shard_filename(index))
        state = monitor.shard_state_dict(spec.shard_id)
        elastic = elastic or _state_is_topology_bearing(state)
        save_state(path, state)
        files.append(path)
    manifest = {
        "version": ELASTIC_CHECKPOINT_VERSION if elastic else CHECKPOINT_VERSION,
        **_capture_manifest(monitor),
        "shard_files": [os.path.basename(path) for path in files],
    }
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    files.append(manifest_path)
    return CheckpointInfo(
        directory=directory,
        step=monitor.step,
        n_shards=monitor.n_shards,
        files=tuple(files),
    )


class _DigestCell:
    """A digest slot filled when the (possibly deferred) commit runs.

    The coordinator records ``(stamp, cell)`` in the monitor's stamp
    memory at capture time; the writer thread assigns ``digest`` after
    the block lands.  Attribute assignment is atomic under the GIL and
    the value is an immutable string, so the cross-thread handoff needs
    no lock — a reader either sees ``None`` (commit pending, shard is
    re-captured) or the durable digest.
    """

    __slots__ = ("digest",)

    def __init__(self, digest: str | None = None) -> None:
        self.digest = digest


def _memory_digest(entry) -> str | None:
    """The digest recorded in a stamp-memory entry (None while pending)."""
    recorded = entry[1]
    return recorded.digest if isinstance(recorded, _DigestCell) else recorded


@dataclass
class _ShardBlock:
    """One shard's contribution to a captured checkpoint.

    ``state is None`` means the shard was unchanged and its existing
    block (``digest``) is re-referenced without serialisation.  A dirty
    shard may carry ``digest=None``: the commit computes it while
    storing the block (off the critical path for asynchronous saves)
    and publishes it through ``cell``.
    """

    shard_id: str
    digest: str | None
    state: dict | None
    cell: _DigestCell | None = None


def _capture_full(
    monitor: FleetMonitor, *, snapshot: bool
) -> tuple[dict, list[_ShardBlock]]:
    """Pull every shard's state (for an asynchronous full commit)."""
    base = _capture_manifest(monitor)
    blocks = []
    for spec in monitor.shards:
        state = monitor.shard_state_dict(spec.shard_id)
        if snapshot and not monitor._resident_remote:
            # Serial/thread backends hand back state sharing arrays with
            # the live pipeline; a deferred write needs its own copy.
            # Process backends already returned a pickled-home copy.
            state = copy_state(state)
        blocks.append(_ShardBlock(spec.shard_id, None, state))
    return base, blocks


def _capture_delta(
    monitor: FleetMonitor,
    blocks_dir: str,
    *,
    snapshot: bool,
    defer_digest: bool = True,
) -> tuple[dict, list[_ShardBlock], int]:
    """Pull only dirty shards; unchanged ones re-reference their block.

    A shard is *clean* when its state stamp equals the one recorded at
    this monitor's previous save against the same block store **and**
    that block still exists on disk (self-healing against swept blocks,
    rollback-then-resave, or a failed deferred write).  The stamp is
    recorded synchronously here; by default the digest is computed by
    the commit while storing the block, keeping the capture's cost to
    the state pull plus an array copy.  ``defer_digest=False`` computes
    digests inline instead — for captures whose commit runs in another
    process, where a deferred cell could never propagate back.
    """
    base = _capture_manifest(monitor)
    store = BlockStore(blocks_dir)
    memory = monitor._delta_stamp_memory(blocks_dir)
    stamps = monitor.shard_state_stamps()
    blocks = []
    reused = 0
    for spec in monitor.shards:
        shard_id = spec.shard_id
        stamp = stamps[shard_id]
        previous = memory.get(shard_id)
        if previous is not None and previous[0] == stamp:
            digest = _memory_digest(previous)
            if digest is not None and store.has(digest):
                blocks.append(_ShardBlock(shard_id, digest, None))
                reused += 1
                continue
        state = monitor.shard_state_dict(shard_id)
        if snapshot and not monitor._resident_remote:
            state = copy_state(state)
        if defer_digest:
            cell = _DigestCell()
            memory[shard_id] = (stamp, cell)
            blocks.append(_ShardBlock(shard_id, None, state, cell))
        else:
            digest = state_digest(state)
            memory[shard_id] = (stamp, digest)
            blocks.append(_ShardBlock(shard_id, digest, state))
    if OBS.enabled and reused:
        OBS.inc("checkpoint.shards_reused", reused)
    return base, blocks, reused


def _commit_entry(
    entry_dir: str, base: dict, blocks: list[_ShardBlock], blocks_dir: str | None
) -> tuple[int, int]:
    """Write one checkpoint entry from captured state.

    Returns ``(bytes_written, bytes_referenced)``.  With ``blocks_dir``
    the entry is a v3 delta manifest over the shared block store (blocks
    land *before* the manifest, and the caller renames the entry into
    place after — so a crash at any point leaves at worst orphan blocks,
    never a manifest naming absent state); without it, a classic v1/v2
    full entry.
    """
    os.makedirs(entry_dir, exist_ok=True)
    written = referenced = 0
    if blocks_dir is None:
        elastic = any(
            int(spec.get("start_step") or 0) > 0 for spec in base["shards"]
        )
        shard_files = []
        for index, block in enumerate(blocks):
            name = _shard_filename(index)
            elastic = elastic or _state_is_topology_bearing(block.state)
            save_state(os.path.join(entry_dir, name), block.state)
            written += os.path.getsize(os.path.join(entry_dir, name))
            shard_files.append(name)
        manifest = {
            "version": ELASTIC_CHECKPOINT_VERSION if elastic else CHECKPOINT_VERSION,
            **base,
            "shard_files": shard_files,
        }
    else:
        store = BlockStore(blocks_dir)
        shard_blocks = []
        blocks_written = blocks_reused = 0
        for block in blocks:
            if block.state is not None:
                digest, created, nbytes = store.put(block.state, block.digest)
                block.digest = digest
                if block.cell is not None:
                    # Deferred digest: publish it to the stamp memory now
                    # the block is durable, so the next capture can reuse.
                    block.cell.digest = digest
                if created:
                    written += nbytes
                    blocks_written += 1
                else:
                    # Stamp changed but content did not (e.g. a restored
                    # monitor with fresh counters): dedup caught it.
                    referenced += nbytes
                    blocks_reused += 1
            else:
                try:
                    referenced += os.path.getsize(store.path(block.digest))
                except OSError:
                    pass
                blocks_reused += 1
            shard_blocks.append(block.digest)
        manifest = {
            "version": DELTA_CHECKPOINT_VERSION,
            "format": "delta",
            **base,
            "shard_blocks": shard_blocks,
            "blocks_dir": os.path.relpath(blocks_dir, entry_dir),
        }
        if OBS.enabled:
            OBS.inc("checkpoint.blocks_written", blocks_written)
            OBS.inc("checkpoint.blocks_referenced", blocks_reused)
    with open(os.path.join(entry_dir, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    if OBS.enabled:
        OBS.inc("checkpoint.bytes_written", written)
        OBS.inc("checkpoint.bytes_referenced", referenced)
    return written, referenced


def _commit_rotation(
    root: str,
    step: int,
    keep_last: int,
    base: dict,
    blocks: list[_ShardBlock],
    blocks_dir: str | None,
) -> CheckpointInfo:
    """Rotate a captured entry into ``root`` and sweep dead blocks."""
    stats = {"written": 0, "referenced": 0}

    def write(tmp: str) -> None:
        stats["written"], stats["referenced"] = _commit_entry(
            tmp, base, blocks, blocks_dir
        )

    final = rotate_into(root, step, keep_last, write)
    if blocks_dir is not None:
        _sweep_blocks(root, blocks_dir)
        files = [os.path.join(final, MANIFEST_NAME)]
        store = BlockStore(blocks_dir)
        files.extend(store.path(block.digest) for block in blocks)
        fmt = "delta"
    else:
        files = [
            os.path.join(final, _shard_filename(index))
            for index in range(len(blocks))
        ]
        files.append(os.path.join(final, MANIFEST_NAME))
        fmt = "full"
    return CheckpointInfo(
        directory=final,
        step=step,
        n_shards=len(blocks),
        files=tuple(files),
        format=fmt,
        bytes_written=stats["written"],
        bytes_referenced=stats["referenced"],
    )


def _collect_live_digests(root: str) -> set[str]:
    """Digests referenced by any retained entry under a rotation root.

    Walks each entry recursively: a federated entry nests one manifest
    per machine under ``machines/``, and those references pin blocks in
    the root's shared store exactly like top-level ones.
    """
    live: set[str] = set()
    for entry in list_checkpoints(root):
        for dirpath, _dirs, files in os.walk(entry.path):
            if MANIFEST_NAME not in files:
                continue
            try:
                with open(
                    os.path.join(dirpath, MANIFEST_NAME), "r", encoding="utf-8"
                ) as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError):
                continue
            if isinstance(manifest, dict):
                live.update(
                    str(digest) for digest in manifest.get("shard_blocks") or ()
                )
    return live


def _sweep_blocks(root: str, blocks_dir: str) -> tuple[int, int]:
    """Reference-count GC: drop blocks no retained entry references."""
    removed, freed = BlockStore(blocks_dir).sweep(_collect_live_digests(root))
    if OBS.enabled and removed:
        OBS.inc("checkpoint.blocks_swept", removed)
        OBS.inc("checkpoint.bytes_swept", freed)
    return removed, freed


def read_manifest(directory: str) -> dict:
    """Load and version-check a checkpoint's manifest.

    A missing, unparsable, or non-object manifest raises
    :class:`CheckpointError` naming the file; an unsupported version keeps
    its historical ``ValueError`` message (``CheckpointError`` is a
    subclass, so both spellings catch it).
    """
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as exc:
        raise CheckpointError(f"no checkpoint manifest at {path!r}") from exc
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint manifest {path!r} is not valid JSON "
            f"({type(exc).__name__}: {exc}); the checkpoint is corrupt — "
            f"restore from an older rotation entry"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"checkpoint manifest {path!r} must hold a JSON object, "
            f"got {type(manifest).__name__}"
        )
    version = manifest.get("version")
    if version not in SUPPORTED_CHECKPOINT_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(expected one of {SUPPORTED_CHECKPOINT_VERSIONS})"
        )
    return manifest


def resolve_checkpoint_dir(directory: str) -> str:
    """Map ``directory`` to a concrete checkpoint directory.

    A directory holding a manifest *is* a checkpoint; a rotation root
    resolves to its newest retained entry.  Anything else raises
    ``FileNotFoundError``.
    """
    if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        return directory
    history = list_checkpoints(directory)
    if history:
        return history[0].path
    raise FileNotFoundError(
        f"no checkpoint under {directory!r}: neither a {MANIFEST_NAME} nor any "
        f"retained {STEP_DIR_PREFIX}* entries"
    )


def _checkpoint_blocks_dir(manifest: dict, directory: str) -> str:
    """Absolute block-store directory a delta manifest references."""
    relative = manifest.get("blocks_dir") or os.path.join(os.pardir, BLOCKS_DIRNAME)
    return os.path.normpath(os.path.join(directory, relative))


def _shard_state_paths(manifest: dict, directory: str, *, n_shards: int) -> list[str]:
    """Per-shard state file paths for either checkpoint format.

    Full manifests name files inside the entry (``shard_files``); delta
    manifests name content digests (``shard_blocks``) resolved against
    the shared block store next to the rotation root.  Either way the
    count must match the shard specs or the manifest is corrupt.
    """
    if manifest.get("format") == "delta":
        digests = _manifest_entry(manifest, "shard_blocks", directory)
        store = BlockStore(_checkpoint_blocks_dir(manifest, directory))
        paths = [store.path(str(digest)) for digest in digests]
        kind = "shard blocks"
    else:
        names = _manifest_entry(manifest, "shard_files", directory)
        paths = [os.path.join(directory, name) for name in names]
        kind = "shard files"
    if len(paths) != n_shards:
        raise CheckpointError(
            f"checkpoint manifest under {directory!r} lists "
            f"{n_shards} shards but {len(paths)} {kind}; "
            f"the manifest is corrupt — restore from an older rotation entry"
        )
    return paths


def compact_checkpoint(directory: str, target: str | None = None) -> str:
    """Rewrite a delta checkpoint as a self-contained full checkpoint.

    ``directory`` may be a concrete entry or a rotation root (newest
    entry).  With ``target`` the full copy is written there and the
    original is untouched — the way to export an archival checkpoint
    that pre-delta code can load.  Without it the entry is rewritten in
    place (atomically, via the rotation protocol's rename-aside) and
    blocks no longer referenced by any retained sibling are swept.
    Already-full checkpoints are returned (or copied) unchanged.
    """
    entry = resolve_checkpoint_dir(directory)
    manifest = read_manifest(entry)
    if manifest.get("format") != "delta":
        if target is None:
            return entry
        shutil.copytree(entry, target)
        return target
    digests = _manifest_entry(manifest, "shard_blocks", entry)
    store = BlockStore(_checkpoint_blocks_dir(manifest, entry))

    def write(dest: str) -> None:
        os.makedirs(dest, exist_ok=True)
        elastic = any(
            int(spec.get("start_step") or 0) > 0
            for spec in manifest.get("shards") or ()
        )
        shard_files = []
        for index, digest in enumerate(digests):
            state = load_shard_state(store.path(str(digest)))
            elastic = elastic or _state_is_topology_bearing(state)
            name = _shard_filename(index)
            save_state(os.path.join(dest, name), state)
            shard_files.append(name)
        full = {
            key: value
            for key, value in manifest.items()
            if key not in ("version", "format", "shard_blocks", "blocks_dir")
        }
        full["version"] = (
            ELASTIC_CHECKPOINT_VERSION if elastic else CHECKPOINT_VERSION
        )
        full["shard_files"] = shard_files
        with open(os.path.join(dest, MANIFEST_NAME), "w", encoding="utf-8") as handle:
            json.dump(full, handle, indent=2)

    if target is not None:
        write(target)
        return target
    tmp = entry + ".compact.tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    try:
        write(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _discard(entry)
    os.rename(tmp, entry)
    # The rotation root that owns the block store (for a machine dir
    # inside a federated entry, that is the federated root — its other
    # entries and machines keep their references pinned).
    _sweep_blocks(os.path.dirname(os.path.abspath(store.root)), store.root)
    return entry


def load_checkpoint(
    directory: str,
    *,
    rules: Sequence[AlertRule] | None = None,
    sinks: Iterable[AlertSink] = (),
    executor=None,
    max_workers: int | None = None,
    resilience=None,
    fault_plan=None,
) -> FleetMonitor:
    """Rebuild a :class:`FleetMonitor` from a checkpoint directory.

    ``rules``/``sinks`` recreate the alert engine (code is not persisted).
    An engine is attached whenever the checkpoint carried engine state *or*
    the caller passes rules/sinks; persisted cooldown bookkeeping, when
    present, is restored so alert deduplication continues seamlessly.
    ``executor``/``max_workers`` configure the restored monitor's shard
    fan-out exactly as the :class:`FleetMonitor` constructor does; the
    executor starts lazily on first use, after the restored pipelines are
    installed.

    ``directory`` may be either a concrete checkpoint or a rotation root
    written with ``save_checkpoint(..., keep_last=N)`` — the latter
    resumes from the newest retained entry.

    ``resilience``/``fault_plan`` re-arm supervision on the restored
    monitor (policies are code, not data); the predecessor's quarantine
    record, when present in the manifest, is restored either way so the
    degradation stays visible across the restart.

    Damaged checkpoints — truncated or garbage shard files, missing
    manifest entries — raise :class:`CheckpointError` naming the file
    rather than leaking low-level numpy/zipfile/KeyError noise; each such
    failure also drops a flight-recorder bundle (a refused restore is
    exactly the moment the operator wants the black box).
    """
    requested = str(directory)
    try:
        return _load_checkpoint(
            directory,
            rules=rules,
            sinks=sinks,
            executor=executor,
            max_workers=max_workers,
            resilience=resilience,
            fault_plan=fault_plan,
        )
    except CheckpointError as exc:
        FLIGHT.record_note(
            "checkpoint_load_failed", path=requested, error=str(exc)
        )
        FLIGHT.dump(
            "checkpoint_load_failed",
            extra={"path": requested, "error": str(exc)},
        )
        raise


def _load_checkpoint(
    directory: str,
    *,
    rules: Sequence[AlertRule] | None = None,
    sinks: Iterable[AlertSink] = (),
    executor=None,
    max_workers: int | None = None,
    resilience=None,
    fault_plan=None,
) -> FleetMonitor:
    directory = resolve_checkpoint_dir(directory)
    manifest = read_manifest(directory)
    shards = [
        ShardSpec.from_dict(payload)
        for payload in _manifest_entry(manifest, "shards", directory)
    ]
    shard_paths = _shard_state_paths(manifest, directory, n_shards=len(shards))

    sinks = list(sinks)
    engine = None
    engine_state = _manifest_entry(manifest, "alert_engine", directory)
    if engine_state is not None or rules is not None or sinks:
        engine = AlertEngine(rules=rules, sinks=sinks)
        if engine_state is not None:
            engine.load_state_dict(engine_state)

    monitor = FleetMonitor(
        dt=float(_manifest_entry(manifest, "dt", directory)),
        shards=shards,
        config=PipelineConfig.from_dict(_manifest_entry(manifest, "config", directory)),
        alert_engine=engine,
        executor=executor,
        max_workers=max_workers,
        extra_rows=str(manifest.get("extra_rows", "raise")),
        missing_rows=str(manifest.get("missing_rows", "raise")),
        resilience=resilience,
        fault_plan=fault_plan,
    )
    for index, spec in enumerate(shards):
        monitor._pipelines[spec.shard_id] = OnlineAnalysisPipeline.from_state_dict(
            load_shard_state(shard_paths[index])
        )
        if resilience is not None:
            monitor._pipelines[spec.shard_id].validate_chunks = True
    monitor._step = int(_manifest_entry(manifest, "step", directory))
    monitor._chunk_index = int(manifest.get("chunks_ingested", 0))
    monitor._quarantined = {
        str(shard_id): dict(info)
        for shard_id, info in (manifest.get("quarantined") or {}).items()
    }
    return monitor
