"""Checkpoint / restore of a running :class:`FleetMonitor`.

A monitoring service that watches a machine for weeks must survive its own
restarts.  A checkpoint is a directory::

    <dir>/
      manifest.json    # version 3, step, shard specs, alert-engine state,
                       # one content digest per shard (shard_blocks)
      blocks/          # content-addressed shard states (io.delta.BlockStore)
        <digest>.npz
        ...

With ``save_checkpoint(..., keep_last=N)`` the directory becomes a
*rotation root* instead: each save lands in a step-stamped subdirectory
(``step_000000000480/``), written to a temporary sibling first and renamed
into place so a crash mid-write never leaves a half-checkpoint that looks
loadable, and only the newest ``N`` are retained (older ones are renamed
aside before removal — pruning is atomic too).  The entries' manifests
share one block store at ``<root>/blocks``.  :func:`list_checkpoints`
returns the retained history newest-first and :func:`load_checkpoint`
accepts either a concrete checkpoint directory or a rotation root (it
resumes from the newest entry).

Each block holds the *complete* per-shard pipeline state — the I-mrDMD
mode tree, the level-1 incremental-SVD factors, the trailing column of
the subsampled level-1 matrix and its counters, and the fitted baseline — through
``OnlineAnalysisPipeline.state_dict()`` and the generic
:func:`repro.io.storage.save_state` container.  Restoring therefore resumes
the stream *bit-for-bit*: the next ingest, the resulting spectra, z-scores
and rack values are exactly what the uninterrupted monitor would have
produced (asserted by the tests and the ``service_fleet`` example).

Rules and sinks are code, not data: :func:`load_checkpoint` takes them as
arguments and re-attaches the engine's persisted dedup/cooldown state so a
restarted service does not re-fire alerts it already delivered.

Every save goes through one capture and one commit.  The capture checks
each shard's
:meth:`~repro.pipeline.online.OnlineAnalysisPipeline.state_stamp`
against one save record per shard (stamp + content digest).  A shard
whose stamp is unchanged since its last save, and whose block the target
store holds, re-references that block without ``state_dict()`` ever
being pulled, so a steady-state save costs O(changed state).  Every other
shard is stored; it borrows its supervisor's recovery snapshot when that
was taken at the current stamp
(:meth:`~repro.resilience.ShardRecoveryStore.snapshot_at`), so a save
round never pulls the same state twice.  A missing block is therefore
written again, but a block damaged on disk after it was written is not:
loading it raises :class:`CheckpointError` naming the file.  Blocks no
manifest references are swept after every save; :func:`compact_checkpoint`
copies the blocks an entry references into the entry's own ``blocks/``,
making it self-contained.

``mode="async"`` (requires ``keep_last``) captures a decoupled snapshot
synchronously (cheap: stamps + dirty shards only) and defers the
hash/serialise/write/rotate tail to a bounded background writer
(:class:`~repro.io.delta.AsyncCheckpointWriter`).  Crash consistency is
unchanged — blocks land before the entry rename, so a torn async write
leaves at worst orphan blocks and the newest *complete* entry keeps
loading.  ``monitor.flush_checkpoints()`` (or ``close()``) is the barrier
that surfaces deferred write errors; a sync save drains pending async
commits before it writes.

A directory holds one layout: an in-place checkpoint or a rotation root,
never both (the root manifest would shadow every rotation entry on load).

Version-1/2 checkpoints (one ``shard_<k>.npz`` per shard inside the entry,
listed as ``shard_files``) are still read; they are no longer written.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import zipfile
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from ..io.delta import (
    BLOCKS_DIRNAME,
    AsyncCheckpointWriter,
    BlockStore,
    copy_state,
)
from ..io.storage import load_state
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

#: What every save writes: shard states live in a content-addressed block
#: store and the manifest lists digests (``shard_blocks`` + ``blocks_dir``).
#: Pre-delta loaders refuse v3 cleanly via their version check.
CHECKPOINT_VERSION = 3
#: Versions 1 and 2 — one ``shard_<k>.npz`` per shard inside the entry
#: (``shard_files``), v2 marking topology-bearing state — are still read.
SUPPORTED_CHECKPOINT_VERSIONS = (1, 2, CHECKPOINT_VERSION)
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


def _entry_path(root: str, step: int) -> str:
    """Where the rotation entry for ``step`` lives under ``root``."""
    return os.path.join(root, f"{STEP_DIR_PREFIX}{step:012d}")


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
    final = _entry_path(directory, step)
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
    retained = []
    for entry in list_checkpoints(directory):
        if entry.step > step:
            _discard(entry.path)
        else:
            retained.append(entry)
    for stale in retained[keep_last:]:
        _discard(stale.path)
    return final


def save_checkpoint(
    directory: str,
    monitor: FleetMonitor,
    *,
    keep_last: int | None = None,
    format: str = "delta",
    mode: str = "sync",
) -> CheckpointInfo:
    """Write the monitor's state under ``directory`` (created if needed).

    Per-shard state is collected through the monitor's executor
    (:meth:`FleetMonitor.shard_state_dict`), so remote-resident backends
    ship only state dicts — identical bytes to a serial monitor's, as the
    parity tests assert.  A sync save pulls, stores and drops one shard at
    a time, so its peak memory is a single shard's state.

    Without ``keep_last`` the checkpoint is written in place, its blocks
    in ``<directory>/blocks``; a re-save sweeps the blocks its new
    manifest no longer names.  With ``keep_last=N`` the directory is
    treated as a *rotation root*: the checkpoint lands in an atomic
    step-stamped subdirectory (``step_000000000480/``), only the newest
    ``N`` entries survive, and they share ``<directory>/blocks``.  The
    returned :class:`CheckpointInfo` then points at the step directory;
    :func:`load_checkpoint` accepts either form.

    Every save re-references the stored block of each shard whose state
    stamp is unchanged since its last save, when this store holds that
    block, without serialising it; only the other shards are stored.
    ``format`` is accepted for existing callers and must be ``"delta"``.
    ``mode="async"`` (requires ``keep_last``) captures a decoupled
    snapshot synchronously and commits on the monitor's background
    writer; deferred write errors surface at the next
    ``monitor.flush_checkpoints()`` / ``close()`` barrier.  A sync save
    first waits for that writer's pending commits, so a late async entry
    never lands after (and discards) a newer sync one.  Restores are
    bit-for-bit identical whichever mode and layout wrote them.  Saving
    in place into a rotation root, or rotating into a directory that
    holds an in-place checkpoint, raises :class:`CheckpointError`.
    """
    if format != "delta":
        raise ValueError(
            f"format={format!r} is not supported: every save now "
            f"re-references unchanged shards (only 'delta' is accepted)"
        )
    start = time.perf_counter()
    with OBS.span("checkpoint.save", mode=mode):
        if mode == "sync":
            _drain(monitor._checkpoint_writer)
        _check_save_args(directory, keep_last, mode)
        blocks_dir = os.path.join(directory, BLOCKS_DIRNAME)
        step = monitor.step
        base, blocks = _capture(monitor, blocks_dir, snapshot=mode == "async")
        if mode == "sync":
            info = _commit(
                directory,
                step,
                keep_last,
                base,
                blocks,
                pull=monitor.shard_state_dict,
            )
        else:
            monitor._ensure_checkpoint_writer().submit(
                lambda: _commit(directory, step, keep_last, base, blocks),
                label=f"step {step}",
            )
            info = CheckpointInfo(
                directory=_entry_path(directory, step),
                step=step,
                n_shards=len(blocks),
                files=(),
            )
        stall = time.perf_counter() - start
        _record_save("checkpoint.saves", mode, stall)
        return replace(
            info,
            mode=mode,
            shards_reused=sum(block.reused for block in blocks),
            stall_seconds=stall,
        )


def _check_save_args(directory: str, keep_last: int | None, mode: str) -> None:
    """Validate the switches shared by the service and federated savers.

    Also refuses to mix layouts in one directory, at call time (so an
    async save fails synchronously): a root manifest shadows every
    rotation entry on load.  A sync save calls this after draining the
    writer, so it also sees the entries of pending async saves.
    """
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
    if keep_last is not None and keep_last < 1:
        raise ValueError(f"keep_last must be >= 1, got {keep_last!r}")
    if mode == "async" and keep_last is None:
        raise ValueError(
            "mode='async' needs a rotation root: pass keep_last=N (the "
            "atomic entry rename is what keeps deferred writes from "
            "corrupting the newest entry)"
        )
    if keep_last is None and list_checkpoints(directory):
        raise CheckpointError(
            f"{directory!r} is a rotation root holding {STEP_DIR_PREFIX}* "
            f"entries; an in-place save there would shadow them — pass "
            f"keep_last=N or save into another directory"
        )
    if keep_last is not None and os.path.exists(
        os.path.join(directory, MANIFEST_NAME)
    ):
        raise CheckpointError(
            f"{directory!r} holds an in-place checkpoint ({MANIFEST_NAME}), "
            f"which would shadow any rotation entry saved there — save in "
            f"place (no keep_last) or into another directory"
        )


def _drain(writer: AsyncCheckpointWriter | None) -> None:
    """Wait for a writer's pending commits before a sync save commits."""
    if writer is not None:
        writer.drain()


def _record_save(counter: str, mode: str, stall: float) -> None:
    if OBS.enabled:
        OBS.inc(counter, mode=mode)
        OBS.observe("checkpoint.stall_seconds", stall)


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
        # The row-padding mode is behaviour, not derivable from state: a
        # restored monitor watching registered-but-not-yet-reporting
        # sensors must keep padding their rows, not crash on the next
        # short chunk.  (Older manifests also carry an "extra_rows" key;
        # loading ignores it — extra rows always raise.)
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


@dataclass
class _ShardBlock:
    """One shard's contribution to a captured checkpoint.

    It doubles as the shard's save record: the capture keeps the newest
    dirty block per shard on the monitor, and the next capture calls the
    shard clean when ``stamp`` still matches and ``digest`` names a block
    the target store has.  A ``reused`` block re-references that digest
    without serialisation.  A dirty block carries ``state`` when the
    capture already holds one (a borrowed recovery snapshot, or an
    asynchronous save's decoupled pull); otherwise the commit pulls it.
    The commit drops ``state`` once stored and fills in ``digest`` —
    attribute assignment of an immutable string, so a commit on the
    writer thread hands it back without a lock; until then the shard is
    simply re-captured.
    """

    shard_id: str
    stamp: tuple
    digest: str | None = None
    state: dict | None = None
    reused: bool = False


def _capture(
    monitor: FleetMonitor,
    blocks_dir: str,
    *,
    snapshot: bool,
) -> tuple[dict, list[_ShardBlock]]:
    """One save's view of a monitor: manifest fields plus a block per shard.

    A shard is *clean* when its state stamp equals the one in its save
    record **and** the recorded block exists in this store (self-healing
    against swept blocks, rollback-then-resave, a failed deferred write,
    or a save to a different store); a clean shard re-references its
    block.  Every other shard is dirty.  A dirty
    shard whose recovery snapshot was taken at its current stamp borrows
    that state instead of pulling it again.  ``snapshot`` pulls the other
    dirty states now, decoupled from the live pipelines, for a commit
    that runs later; otherwise the commit pulls each one as it stores it.
    """
    with OBS.span("checkpoint.capture", snapshot=snapshot) as span:
        base = _capture_manifest(monitor)
        store = BlockStore(blocks_dir)
        records = monitor._checkpoint_blocks
        stamps = monitor.shard_state_stamps()
        blocks = []
        for spec in monitor.shards:
            shard_id = spec.shard_id
            stamp = stamps[shard_id]
            previous = records.get(shard_id)
            if (
                previous is not None
                and previous.stamp == stamp
                and previous.digest is not None
                and store.has(previous.digest)
            ):
                blocks.append(
                    _ShardBlock(shard_id, stamp, previous.digest, reused=True)
                )
                continue
            block = _ShardBlock(shard_id, stamp)
            block.state = monitor._recovery.snapshot_at(shard_id, stamp)
            if block.state is None and snapshot:
                block.state = monitor.shard_state_dict(shard_id)
                if monitor.executor.backend == "serial":
                    # The serial backend hands back state sharing arrays
                    # with the live pipeline; a deferred write needs its
                    # own copy.  The process backend already returned a
                    # copy.
                    block.state = copy_state(block.state)
            records[shard_id] = block
            blocks.append(block)
        reused = sum(block.reused for block in blocks)
        span.set(dirty=len(blocks) - reused, reused=reused)
    if OBS.enabled and reused:
        OBS.inc("checkpoint.shards_reused", reused)
    return base, blocks


def _commit_entry(
    entry_dir: str,
    base: dict,
    blocks: list[_ShardBlock],
    blocks_dir: str,
    *,
    pull: Callable[[str], dict] | None = None,
) -> tuple[int, int]:
    """Write one checkpoint entry from captured state.

    Stores every dirty shard's block, then a version-3 manifest naming
    all of them.  Blocks land *before* the manifest (and, for a rotation,
    before the caller renames the entry into place), so a crash at any
    point leaves at worst orphan blocks, never a manifest naming absent
    state.  A dirty shard without a snapshot is pulled through
    ``pull(shard_id)``, stored and dropped before the next one, and a
    snapshot is dropped once stored.  Returns ``(bytes_written,
    bytes_referenced)``.
    """
    os.makedirs(entry_dir, exist_ok=True)
    store = BlockStore(blocks_dir)
    written = referenced = blocks_written = blocks_reused = 0
    for block in blocks:
        if block.reused:
            try:
                referenced += os.path.getsize(store.path(block.digest))
            except OSError:
                pass
            blocks_reused += 1
            continue
        state = block.state if block.state is not None else pull(block.shard_id)
        block.state = None
        # Publishes the digest to the shard's save record now the block
        # is durable, so the next capture can reuse it.
        block.digest, created, nbytes = store.put(state, block.digest)
        del state
        if created:
            written += nbytes
            blocks_written += 1
        else:
            # Stamp changed but content did not (e.g. a restored monitor
            # with fresh counters): dedup caught it.
            referenced += nbytes
            blocks_reused += 1
    _write_manifest(
        entry_dir,
        {
            "version": CHECKPOINT_VERSION,
            **base,
            "shard_blocks": [block.digest for block in blocks],
            "blocks_dir": os.path.relpath(blocks_dir, entry_dir),
        },
    )
    if OBS.enabled:
        OBS.inc("checkpoint.blocks_written", blocks_written)
        OBS.inc("checkpoint.blocks_referenced", blocks_reused)
        OBS.inc("checkpoint.bytes_written", written)
        OBS.inc("checkpoint.bytes_referenced", referenced)
    return written, referenced


def _write_manifest(directory: str, manifest: dict) -> None:
    """Write ``manifest.json`` atomically (tmp + rename), so an in-place
    re-save never leaves a torn manifest."""
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        # One C-encoded string: ``json.dump`` with ``indent`` would run
        # the pure-Python encoder and issue one write per token.
        handle.write(json.dumps(manifest))
    os.replace(tmp, path)


def _place_entry(
    directory: str,
    step: int,
    keep_last: int | None,
    write: Callable[[str], None],
) -> str:
    """Have ``write`` populate an entry, then sweep ``<directory>/blocks``.

    Without ``keep_last`` the entry is ``directory`` itself, written in
    place; with it, a step entry rotated in by :func:`rotate_into`.
    Returns the entry path.  Shared by the service and federated savers.
    """
    if keep_last is None:
        os.makedirs(directory, exist_ok=True)
        write(directory)
        final = directory
    else:
        final = rotate_into(directory, step, keep_last, write)
    _sweep_blocks(os.path.join(directory, BLOCKS_DIRNAME))
    return final


def _commit(
    directory: str,
    step: int,
    keep_last: int | None,
    base: dict,
    blocks: list[_ShardBlock],
    *,
    pull: Callable[[str], dict] | None = None,
) -> CheckpointInfo:
    """Commit a captured save under ``directory`` and sweep dead blocks."""
    blocks_dir = os.path.join(directory, BLOCKS_DIRNAME)
    stats = [0, 0]

    def write(entry_dir: str) -> None:
        stats[:] = _commit_entry(entry_dir, base, blocks, blocks_dir, pull=pull)

    final = _place_entry(directory, step, keep_last, write)
    store = BlockStore(blocks_dir)
    files = [os.path.join(final, MANIFEST_NAME)]
    files.extend(store.path(block.digest) for block in blocks)
    return CheckpointInfo(
        directory=final,
        step=step,
        n_shards=len(blocks),
        files=tuple(files),
        bytes_written=stats[0],
        bytes_referenced=stats[1],
    )


def _collect_live_digests(blocks_dir: str) -> set[str]:
    """Digests referenced by the manifests that use a block store.

    The store's parent owns it: either a checkpoint written in place
    (walked whole) or a rotation root (each retained entry walked).
    Walks recurse — a federated entry nests one manifest per machine
    under ``machines/`` — and count only manifests whose ``blocks_dir``
    resolves to this store, so a compacted entry's own copies never pin
    the shared blocks.
    """
    store_root = os.path.abspath(blocks_dir)
    owner = os.path.dirname(store_root)
    if os.path.exists(os.path.join(owner, MANIFEST_NAME)):
        tops = [owner]
    else:
        tops = [entry.path for entry in list_checkpoints(owner)]
    live: set[str] = set()
    for top in tops:
        for dirpath, _dirs, files in os.walk(top):
            if MANIFEST_NAME not in files:
                continue
            try:
                with open(
                    os.path.join(dirpath, MANIFEST_NAME), "r", encoding="utf-8"
                ) as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(manifest, dict) or not manifest.get("blocks_dir"):
                continue
            uses = os.path.join(os.path.abspath(dirpath), manifest["blocks_dir"])
            if os.path.normpath(uses) == store_root:
                live.update(
                    str(digest) for digest in manifest.get("shard_blocks") or ()
                )
    return live


def _sweep_blocks(blocks_dir: str) -> tuple[int, int]:
    """Reference-count GC: drop blocks no manifest using the store names."""
    removed, freed = BlockStore(blocks_dir).sweep(_collect_live_digests(blocks_dir))
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
    """Absolute block-store directory a version-3 manifest references."""
    relative = _manifest_entry(manifest, "blocks_dir", directory)
    return os.path.normpath(os.path.join(directory, relative))


def _shard_state_paths(manifest: dict, directory: str, *, n_shards: int) -> list[str]:
    """Per-shard state file paths for either checkpoint layout.

    Version-3 manifests name content digests (``shard_blocks``) resolved
    against the block store ``blocks_dir`` points at; legacy v1/v2
    manifests name files inside the entry (``shard_files``).  Either way
    the count must match the shard specs or the manifest is corrupt.
    """
    if manifest["version"] == CHECKPOINT_VERSION:
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
    """Rewrite a checkpoint entry as a self-contained version-3 entry.

    ``directory`` may be a concrete entry or a rotation root (newest
    entry).  Every shard state the entry references — a block in a
    shared store, or a legacy v1/v2 shard file — is re-stored through
    :meth:`~repro.io.delta.BlockStore.put` into the entry's own
    ``blocks/``, so the entry loads wherever it is copied.  With
    ``target`` the copy is written there and the original is untouched —
    the way to export an archival checkpoint.  Without it the entry is
    rewritten in place (atomically, via the rotation protocol's
    rename-aside) and blocks of the shared store no remaining manifest
    references are swept.  An entry that is already self-contained is
    returned (or copied) unchanged.  A shard state that fails to load
    raises :class:`CheckpointError` naming its file.
    """
    entry = resolve_checkpoint_dir(directory)
    manifest = read_manifest(entry)
    shards = _manifest_entry(manifest, "shards", entry)
    paths = _shard_state_paths(manifest, entry, n_shards=len(shards))
    shared = None
    if manifest["version"] == CHECKPOINT_VERSION:
        shared = _checkpoint_blocks_dir(manifest, entry)
        if shared == os.path.join(os.path.normpath(entry), BLOCKS_DIRNAME):
            if target is None:
                return entry
            shutil.copytree(entry, target)
            return target

    def write(dest: str) -> None:
        store = BlockStore(os.path.join(dest, BLOCKS_DIRNAME))
        digests = []
        for path in paths:
            digest, _created, _nbytes = store.put(load_shard_state(path))
            digests.append(digest)
        compacted = {
            key: value
            for key, value in manifest.items()
            if key not in ("format", "shard_files", "shard_blocks", "blocks_dir")
        }
        compacted["version"] = CHECKPOINT_VERSION
        compacted["shard_blocks"] = digests
        compacted["blocks_dir"] = BLOCKS_DIRNAME
        _write_manifest(dest, compacted)

    if target is not None:
        os.makedirs(target, exist_ok=True)
        write(target)
        return target
    tmp = entry + ".compact.tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        write(tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _discard(entry)
    os.rename(tmp, entry)
    if shared is not None:
        # For a machine inside a federated entry the shared store belongs
        # to the federated root; its other machines keep their blocks.
        _sweep_blocks(shared)
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
    fan-out exactly as the :class:`FleetMonitor` constructor does: the
    restored pipelines are installed into its serial executor, and the
    configured backend takes them over at the first ingest round.

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
        missing_rows=str(manifest.get("missing_rows", "raise")),
        resilience=resilience,
        fault_plan=fault_plan,
    )
    for index, spec in enumerate(shards):
        monitor.executor.install(
            spec.shard_id,
            OnlineAnalysisPipeline.from_state_dict(load_shard_state(shard_paths[index])),
        )
    monitor._step = int(_manifest_entry(manifest, "step", directory))
    monitor._chunk_index = int(manifest.get("chunks_ingested", 0))
    monitor._quarantined = {
        str(shard_id): dict(info)
        for shard_id, info in (manifest.get("quarantined") or {}).items()
    }
    return monitor
