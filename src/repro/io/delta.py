"""Content-addressed delta blocks and the asynchronous checkpoint writer.

A steady-state ingest round touches a handful of a fleet's shards (deep
refreshes land asynchronously, quarantined shards do not move at all), so
rewriting every shard's state on every save would be wasted work.  This
module supplies the two primitives that make persistence cost
O(changed state) instead of O(total state):

* :class:`BlockStore` — a directory of per-shard state blocks keyed by a
  content digest (:func:`state_digest`).  A checkpoint manifest lists
  digests; every save points unchanged shards at the block an earlier
  save already wrote, so only dirty shards are serialised.  Blocks are
  written tmp+rename and their content never changes, which makes
  concurrent writers (two savers sharing one store) and torn writes
  safe: the worst case is an orphan block that the next
  :meth:`BlockStore.sweep` reclaims.  A block damaged on disk after it
  was written is not repaired by later saves; loading it raises.
* :class:`AsyncCheckpointWriter` — a bounded-queue background thread
  that takes the hash/serialise/write tail of a save off the ingest
  critical path.  ``submit`` returns the stall time actually spent
  waiting for a slot (zero in steady state, non-zero only under
  backpressure), ``flush``/``close`` are barriers that re-raise the
  first deferred write error.

The content digest is computed over the *flattened* state (structure
JSON plus each array's dtype/shape/bytes), never over the ``.npz``
container's bytes: zip containers embed timestamps, so equal states
would hash unequal, and blocks written deflated by earlier releases keep
their digests.  Two saves of an untouched shard therefore produce the
same digest and the second write is skipped entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import re
import threading
import time
import uuid

import numpy as np

from ..obs import OBS
from ..obs.flight import FLIGHT
from .storage import _flatten_state, _write_flat_state, load_state

__all__ = [
    "BLOCKS_DIRNAME",
    "AsyncCheckpointWriter",
    "BlockStore",
    "CheckpointWriteError",
    "copy_state",
    "state_digest",
]

#: Directory name (under a rotation root) that holds the shared blocks.
BLOCKS_DIRNAME = "blocks"

_BLOCK_SUFFIX = ".npz"
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


class CheckpointWriteError(RuntimeError):
    """A deferred (asynchronous) checkpoint write failed.

    Raised from :meth:`AsyncCheckpointWriter.flush` / ``close`` — never
    from the background thread itself, so a failed write surfaces at the
    next barrier instead of killing the ingest loop.
    """


# --------------------------------------------------------------------------- #
# State snapshots
# --------------------------------------------------------------------------- #
def copy_state(obj):
    """Decouple a state tree from live pipeline mutation (arrays copied).

    Checkpoint state dicts are plain containers (dict/list/tuple, arrays,
    scalars — the same vocabulary ``save_state`` flattens), so a targeted
    walk that copies the ndarray leaves and rebuilds the containers is
    equivalent to ``copy.deepcopy`` but without its per-object memo
    bookkeeping — this sits on the synchronous side of an asynchronous
    save, where every millisecond is ingest stall.  Read-only arrays are
    shared, not copied.
    """
    if isinstance(obj, np.ndarray):
        # Read-only arrays in state are immutable by construction (fresh
        # stacked tree arrays, frozen views of buffers that never write
        # into their occupied columns).
        return obj if not obj.flags.writeable else np.array(obj, copy=True)
    if isinstance(obj, dict):
        return {key: copy_state(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [copy_state(value) for value in obj]
    if isinstance(obj, tuple):
        return tuple(copy_state(value) for value in obj)
    return obj


# --------------------------------------------------------------------------- #
# Content digest
# --------------------------------------------------------------------------- #
def state_digest(state: dict) -> str:
    """SHA-256 content digest of a (nested) state dict.

    Deterministic for equal states: the structure is serialised with
    sorted keys, and each array contributes its dtype, shape and raw
    bytes in flattening order.  Unlike hashing a ``.npz`` file, this is
    stable across processes and wall-clock time.
    """
    arrays: dict[str, np.ndarray] = {}
    structure = _flatten_state(state, arrays)
    return _flat_digest(structure, arrays)


def _flat_digest(structure, arrays: dict[str, np.ndarray]) -> str:
    """:func:`state_digest` of an already flattened state."""
    digest = hashlib.sha256()
    digest.update(
        json.dumps(structure, sort_keys=True, separators=(",", ":")).encode()
    )
    for key in sorted(arrays, key=lambda name: int(name.rsplit("_", 1)[1])):
        array = arrays[key]
        digest.update(b"\x00" + key.encode())
        digest.update(b"\x00" + array.dtype.str.encode())
        digest.update(b"\x00" + repr(tuple(array.shape)).encode())
        # Hashed in place, without a ``tobytes()`` copy: the C-order
        # bytes, which the names of blocks already on disk depend on.
        digest.update(b"\x00")
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# On-disk block store
# --------------------------------------------------------------------------- #
class BlockStore:
    """A directory of immutable, content-addressed state blocks.

    Each block is one ``save_state`` container named ``<digest>.npz``.
    Writes go through a uniquely named temp file and an ``os.replace``,
    so concurrent writers of the same block (two savers sharing one
    store, say two processes) race benignly — last rename wins and both
    names are the same bytes-equal content.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, digest: str) -> str:
        """Absolute path a block with this digest lives at (or would)."""
        return os.path.join(self.root, digest + _BLOCK_SUFFIX)

    def has(self, digest: str) -> bool:
        return os.path.isfile(self.path(digest))

    def put(self, state: dict, digest: str | None = None) -> tuple[str, bool, int]:
        """Store ``state``; returns ``(digest, created, nbytes)``.

        ``created`` is False when the block already existed (the write is
        skipped — content addressing makes this exact, not heuristic).
        Pass ``digest`` when the caller already computed it.  The state is
        flattened once, for the digest and the write alike.
        """
        arrays: dict[str, np.ndarray] = {}
        structure = None
        if digest is None:
            structure = _flatten_state(state, arrays)
            digest = _flat_digest(structure, arrays)
        final = self.path(digest)
        if os.path.isfile(final):
            return digest, False, os.path.getsize(final)
        if structure is None:
            structure = _flatten_state(state, arrays)
        os.makedirs(self.root, exist_ok=True)
        tmp = os.path.join(
            self.root,
            f".tmp-{digest[:16]}-{os.getpid()}-{uuid.uuid4().hex[:8]}{_BLOCK_SUFFIX}",
        )
        try:
            _write_flat_state(tmp, structure, arrays)
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):  # failed before the rename
                os.unlink(tmp)
        return digest, True, os.path.getsize(final)

    def load(self, digest: str) -> dict:
        """Load a block back into its state dict (bit-for-bit)."""
        return load_state(self.path(digest))

    def digests(self) -> set[str]:
        """Digests of every complete block currently in the store."""
        if not os.path.isdir(self.root):
            return set()
        found = set()
        for name in os.listdir(self.root):
            if not name.endswith(_BLOCK_SUFFIX):
                continue
            stem = name[: -len(_BLOCK_SUFFIX)]
            if _DIGEST_RE.match(stem):
                found.add(stem)
        return found

    def sweep(self, live: set[str]) -> tuple[int, int]:
        """Remove blocks not in ``live``; returns ``(n_removed, bytes)``.

        Also clears abandoned temp files from interrupted writers.  Call
        only after the manifests referencing ``live`` are durable and
        while no writer targets this store (the checkpoint layer runs it
        after rotation pruning, on the thread that owns the store).
        """
        if not os.path.isdir(self.root):
            return 0, 0
        removed = 0
        freed = 0
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if name.startswith(".tmp-"):
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if not name.endswith(_BLOCK_SUFFIX):
                continue
            stem = name[: -len(_BLOCK_SUFFIX)]
            if not _DIGEST_RE.match(stem) or stem in live:
                continue
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            freed += size
        return removed, freed


# --------------------------------------------------------------------------- #
# Asynchronous writer
# --------------------------------------------------------------------------- #
class AsyncCheckpointWriter:
    """Bounded-queue background thread for deferred checkpoint commits.

    ``submit(job)`` enqueues a zero-argument callable and returns the
    seconds the caller stalled waiting for a queue slot (0.0 unless the
    writer is saturated — that stall *is* the backpressure, bounding how
    far persistence can fall behind ingest).  Jobs run FIFO on one
    daemon thread, so rotation ordering is preserved.  Exceptions are
    deferred and re-raised (wrapped in :class:`CheckpointWriteError`)
    from the next :meth:`flush` or :meth:`close`.
    """

    def __init__(self, max_pending: int = 2, name: str = "checkpoint-writer") -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.name = name
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._errors: list[BaseException] = []
        self._closed = False

    @property
    def max_pending(self) -> int:
        return self._queue.maxsize

    @property
    def queue_depth(self) -> int:
        """Commits currently enqueued (not counting one mid-write)."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_thread(self) -> None:
        with self._lock:
            if self._closed:
                raise CheckpointWriteError(f"writer {self.name!r} is closed")
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._drain, name=self.name, daemon=True
                )
                self._thread.start()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                job, label = item
                try:
                    with OBS.span("checkpoint.write", label=label):
                        job()
                except BaseException as exc:  # deferred to the next barrier
                    with self._lock:
                        self._errors.append(exc)
                    if OBS.enabled:
                        OBS.inc("checkpoint.writer.errors")
                    FLIGHT.record_note(
                        "checkpoint_write_failed", label=label, error=repr(exc)
                    )
                    FLIGHT.dump("checkpoint_write_failed")
            finally:
                self._queue.task_done()

    def submit(self, job, *, label: str = "checkpoint") -> float:
        """Enqueue a commit; returns seconds stalled on backpressure."""
        self._ensure_thread()
        stalled = 0.0
        try:
            self._queue.put_nowait((job, label))
        except queue.Full:
            if OBS.enabled:
                OBS.inc("checkpoint.writer.saturated")
            FLIGHT.record_note(
                "checkpoint_writer_saturated",
                label=label,
                max_pending=self._queue.maxsize,
            )
            start = time.perf_counter()
            self._queue.put((job, label))
            stalled = time.perf_counter() - start
        if OBS.enabled:
            OBS.gauge("checkpoint.writer.queue_depth", float(self._queue.qsize()))
        return stalled

    def _raise_pending(self) -> None:
        with self._lock:
            errors, self._errors = self._errors, []
        if errors:
            raise CheckpointWriteError(
                f"{len(errors)} asynchronous checkpoint write(s) failed; "
                f"first: {errors[0]!r}"
            ) from errors[0]

    def drain(self) -> None:
        """Block until every submitted commit finished (errors stay
        pending for the next :meth:`flush`)."""
        self._queue.join()

    def flush(self) -> None:
        """Block until every submitted commit finished; raise deferred errors."""
        self.drain()
        self._raise_pending()

    def close(self, *, flush: bool = True) -> None:
        """Drain the queue, stop the thread, and (by default) raise errors."""
        with self._lock:
            already = self._closed
            self._closed = True
            thread = self._thread
            self._thread = None
        if not already and thread is not None and thread.is_alive():
            self._queue.put(None)
            thread.join()
        if flush:
            self._raise_pending()
