"""Checkpoint / restore of a whole federation, with rotating retention.

A federated checkpoint is a directory::

    <dir>/
      manifest.json          # version, federated step, machine names, router state
      machines/
        east/                # one service checkpoint manifest per machine
          manifest.json      #   (repro.service.checkpoint format, reused as-is)
        west/
          manifest.json
      blocks/                # every machine's shard blocks, one shared store
        <digest>.npz
        ...

With ``keep_last=N`` the directory is a rotation root of step-stamped
entries, exactly like ``save_checkpoint(..., keep_last=N)`` one layer down
(same atomic write-then-rename protocol, same
:func:`~repro.service.checkpoint.list_checkpoints` history helper — the
rotation machinery is shared, not duplicated); the entries' machines
share ``<root>/blocks``.  A save captures and commits each machine in turn
through the service saver's own capture/commit path, so every machine
re-references its unchanged shards exactly as a service save does.

Restore rebuilds the registry machine by machine through
:func:`~repro.service.checkpoint.load_checkpoint` (so every per-machine
guarantee — bit-for-bit stream resumption, restored engine cooldown state —
carries over) and re-attaches the router's persisted dedup and fleet-rule
memory.  Rules, sinks and routers are code, not data: pass them in.
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..io.delta import BLOCKS_DIRNAME
from ..obs import OBS
from ..service.alerts import AlertRule, AlertSink
from ..service.checkpoint import (
    MANIFEST_NAME,
    CheckpointError,
    _capture,
    _check_save_args,
    _commit_entry,
    _drain,
    _entry_path,
    _place_entry,
    _record_save,
    _shard_state_paths,
    _write_manifest,
    compact_checkpoint,
    load_checkpoint,
    read_manifest,
    resolve_checkpoint_dir,
)
from .chunklog import ChunkLog
from .monitor import FederatedMonitor
from .registry import MachineRegistry
from .routing import AlertRouter

__all__ = [
    "FederatedCheckpointInfo",
    "save_federated_checkpoint",
    "load_federated_checkpoint",
    "compact_federated_checkpoint",
    "read_federated_manifest",
]

FEDERATION_CHECKPOINT_VERSION = 1
MACHINES_DIRNAME = "machines"


@dataclass(frozen=True)
class FederatedCheckpointInfo:
    """What :func:`save_federated_checkpoint` wrote.

    For ``mode="async"`` the info is provisional (``directory`` is where
    the entry will land); ``federated.flush_checkpoints()`` is the
    barrier that makes it durable and surfaces deferred write errors.
    """

    directory: str
    step: int
    machines: tuple[str, ...]
    mode: str = "sync"
    stall_seconds: float = 0.0

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def total_bytes(self) -> int:
        """On-disk size of the whole federated checkpoint: every file in
        the entry plus the shared blocks its machines reference."""
        if not os.path.isdir(self.directory):
            return 0
        paths = {
            os.path.join(root, name)
            for root, _dirs, files in os.walk(self.directory)
            for name in files
        }
        for name in self.machines:
            machine_dir = os.path.join(self.directory, MACHINES_DIRNAME, name)
            manifest = read_manifest(machine_dir)
            paths.update(
                _shard_state_paths(
                    manifest, machine_dir, n_shards=len(manifest["shards"])
                )
            )
        return sum(os.path.getsize(path) for path in {os.path.abspath(p) for p in paths})


def save_federated_checkpoint(
    directory: str,
    federated: FederatedMonitor,
    *,
    keep_last: int | None = None,
    mode: str = "sync",
) -> FederatedCheckpointInfo:
    """Write the federation's full state under ``directory``.

    Each machine is captured and committed in registry order through the
    same capture/commit path as a service save, pulling its shard states
    from the machine's own executor — machines on the serial and process
    backends write identical bytes, as the parity tests assert.  The
    federated manifest is written only after every machine save
    completed; with ``keep_last`` the whole entry appears via the same
    atomic rename as a service rotation.

    ``keep_last`` and ``mode`` behave exactly like
    :func:`repro.service.checkpoint.save_checkpoint`: every machine's
    shard blocks go to ``<directory>/blocks``, unchanged shards are
    re-referenced, ``mode="async"`` (requires ``keep_last``) captures
    synchronously (dirty shards only) then commits on the federation's
    background writer — ``federated.flush_checkpoints()`` is the
    durability/error barrier — a sync save first drains that writer, and
    mixing in-place and rotated saves in one directory raises
    :class:`~repro.service.checkpoint.CheckpointError`.
    """
    step = federated.step
    monitors = federated.machines
    names = list(monitors)
    blocks_dir = os.path.join(directory, BLOCKS_DIRNAME)
    start = time.perf_counter()
    with OBS.span("checkpoint.federated_save", mode=mode):
        if mode == "sync":
            _drain(federated._checkpoint_writer)
        _check_save_args(directory, keep_last, mode)
        captures = {
            name: _capture(monitor, blocks_dir, snapshot=mode == "async")
            for name, monitor in monitors.items()
        }
        router_state = federated.router.state_dict()
        if mode == "async":
            router_state = copy.deepcopy(router_state)

        def write(target: str) -> None:
            machines_root = os.path.join(target, MACHINES_DIRNAME)
            os.makedirs(machines_root, exist_ok=True)
            for name, (base, blocks) in captures.items():
                _commit_entry(
                    os.path.join(machines_root, name),
                    base,
                    blocks,
                    blocks_dir,
                    # An async capture already holds every dirty state.
                    pull=monitors[name].shard_state_dict if mode == "sync" else None,
                )
            _write_federated_manifest(target, step, names, router_state)

        if mode == "sync":
            final = _place_entry(directory, step, keep_last, write)
        else:
            federated._ensure_checkpoint_writer().submit(
                lambda: _place_entry(directory, step, keep_last, write),
                label=f"federation step {step}",
            )
            final = _entry_path(directory, step)
        stall = time.perf_counter() - start
        _record_save("checkpoint.federated_saves", mode, stall)
        return FederatedCheckpointInfo(
            directory=final,
            step=step,
            machines=tuple(names),
            mode=mode,
            stall_seconds=stall,
        )


def _write_federated_manifest(
    target: str, step: int, names: list[str], router_state: dict
) -> None:
    _write_manifest(
        target,
        {
            "version": FEDERATION_CHECKPOINT_VERSION,
            "kind": "federation",
            "step": step,
            "machines": list(names),
            "router": router_state,
        },
    )


def compact_federated_checkpoint(directory: str) -> str:
    """Make a federated entry self-contained: each machine's referenced
    blocks are re-stored into that machine's own ``blocks/`` (in place,
    atomically per machine), then the shared store is swept.

    ``directory`` may be a concrete entry or a rotation root (newest
    entry).  Self-contained machines are left untouched.  Returns the
    entry path; after compaction the entry loads wherever it is copied.
    """
    entry = resolve_checkpoint_dir(directory)
    machines_root = os.path.join(entry, MACHINES_DIRNAME)
    if os.path.isdir(machines_root):
        for name in sorted(os.listdir(machines_root)):
            machine_dir = os.path.join(machines_root, name)
            if os.path.isfile(os.path.join(machine_dir, MANIFEST_NAME)):
                compact_checkpoint(machine_dir)
    return entry


def read_federated_manifest(directory: str) -> dict:
    """Load and check a *federated* checkpoint's manifest.

    ``directory`` may be a concrete checkpoint or a rotation root (the
    newest entry is used).  Pointing at a single-machine service
    checkpoint is reported as such instead of failing on a missing key.
    A missing or unparsable manifest raises
    :class:`~repro.service.checkpoint.CheckpointError` naming the file.
    """
    directory = resolve_checkpoint_dir(directory)
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise CheckpointError(f"no federated checkpoint manifest at {path!r}") from exc
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"federated checkpoint manifest {path!r} is not valid JSON "
            f"({type(exc).__name__}: {exc}); the checkpoint is corrupt — "
            f"restore from an older rotation entry"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"federated checkpoint manifest {path!r} must hold a JSON "
            f"object, got {type(manifest).__name__}"
        )
    if manifest.get("kind") != "federation":
        raise ValueError(
            f"{directory!r} holds a single-machine service checkpoint, not a "
            f"federated one — load it with repro.service.load_checkpoint"
        )
    version = manifest.get("version")
    if version != FEDERATION_CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported federated checkpoint version {version!r} "
            f"(expected {FEDERATION_CHECKPOINT_VERSION})"
        )
    manifest["__directory__"] = directory
    return manifest


def load_federated_checkpoint(
    directory: str,
    *,
    rules: Sequence[AlertRule] | None = None,
    sinks: Iterable[AlertSink] = (),
    machine_sinks: Mapping[str, Iterable[AlertSink]] | None = None,
    router: AlertRouter | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
    chunk_log: ChunkLog | None = None,
) -> FederatedMonitor:
    """Rebuild a :class:`FederatedMonitor` from a (possibly rotated) checkpoint.

    ``rules`` recreate each machine's alert engine (persisted per-machine
    cooldown state is re-attached by the per-machine loader).  The router
    is rebuilt from ``sinks``/``machine_sinks`` — or pass a pre-configured
    ``router`` instance (custom fleet rules, cooldown) and its persisted
    dedup/fleet-rule memory is loaded into it; combining both forms is an
    error.  ``executor``/``max_workers`` configure every restored
    machine's shard executor, exactly as
    :func:`~repro.service.checkpoint.load_checkpoint` does for one
    machine; restored products resume **bit-for-bit** on either backend
    (asserted by the tests).
    """
    if router is not None and (list(sinks) or machine_sinks):
        raise ValueError(
            "pass either a pre-built router or sinks/machine_sinks, not both "
            "(attach sinks to the router you pass in)"
        )
    manifest = read_federated_manifest(directory)
    directory = manifest.pop("__directory__")

    registry = MachineRegistry()
    for name in manifest.get("machines") or ():
        machine_dir = os.path.join(directory, MACHINES_DIRNAME, name)
        try:
            monitor = load_checkpoint(
                machine_dir, rules=rules, executor=executor, max_workers=max_workers
            )
        except FileNotFoundError as exc:
            raise CheckpointError(
                f"federated checkpoint under {directory!r} lists machine "
                f"{name!r} but its per-machine checkpoint at "
                f"{machine_dir!r} is missing — restore from an older "
                f"rotation entry"
            ) from exc
        registry.register(name, monitor)

    if router is None:
        router = AlertRouter(sinks=sinks, machine_sinks=machine_sinks)
    router.load_state_dict(manifest["router"])

    federated = FederatedMonitor(registry, router=router, chunk_log=chunk_log)
    federated._step = int(manifest["step"])
    return federated
