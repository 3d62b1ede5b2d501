"""Parent-side crash-recovery state: snapshots plus a per-shard chunk tail.

The process backend keeps shard pipelines *resident in the workers* — a
crashed or hung worker therefore takes its shards' in-memory state with it.
The :class:`ShardRecoveryStore` is the supervisor's insurance: after every
successful chunk it records the chunk, and every ``snapshot_every`` chunks
it refreshes a full ``state_dict`` snapshot (clearing the tail).  Recovery
is then exact, not approximate::

    pipeline = OnlineAnalysisPipeline.from_state_dict(snapshot)
    for chunk in tail:            # every chunk since the snapshot
        pipeline.ingest(chunk)

Because ``from_state_dict`` restores bit-for-bit (asserted by the
checkpoint tests) and ingest is deterministic, the rehydrated pipeline is
indistinguishable from one that never crashed — the chaos tests compare
final state dicts against a fault-free run and require equality.

Each snapshot is held as a decoupled state dict
(:func:`~repro.io.delta.copy_state`: arrays the live pipeline may still
write are copied, frozen ones shared) together with the shard's
``state_stamp`` at the time.  That stamp is the fleet's one notion of
"this shard is unchanged": :meth:`ShardRecoveryStore.record_snapshot_if_changed`
skips the ``state_dict()`` pull when the stamp has not moved (the
``snapshots_skipped`` counter in the resilience digest tracks this fast
path), and a checkpoint save at the same stamp borrows the snapshot
(:meth:`ShardRecoveryStore.snapshot_at`) instead of pulling the state
again.

This is the shard-level sibling of the federation
:class:`~repro.federation.chunklog.ChunkLog` (PR 5): same replay idea, but
held per shard in the supervising parent rather than shared per machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..io.delta import copy_state
from ..obs import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.online import OnlineAnalysisPipeline

__all__ = ["ShardRecoveryStore"]


class ShardRecoveryStore:
    """Snapshots + chunk tails from which lost shards are rehydrated."""

    def __init__(self, snapshot_every: int = 8) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every!r}")
        self.snapshot_every = int(snapshot_every)
        # shard -> (stamp at snapshot or None, decoupled state)
        self._snapshots: dict[str, tuple[tuple | None, dict]] = {}
        self._chunks: dict[str, list[np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def has_snapshot(self, shard_id: str) -> bool:
        return shard_id in self._snapshots

    def needs_snapshot(self, shard_id: str) -> bool:
        """Whether the supervisor should pull a fresh ``state_dict`` now:
        either the shard has never been snapshotted or its tail reached
        ``snapshot_every`` chunks."""
        if shard_id not in self._snapshots:
            return True
        return len(self._chunks.get(shard_id, ())) >= self.snapshot_every

    def record_snapshot(
        self, shard_id: str, state: dict, *, stamp: tuple | None = None
    ) -> None:
        """Install a fresh snapshot and drop the now-covered chunk tail.

        The store keeps a :func:`~repro.io.delta.copy_state` of ``state``:
        on in-process backends the incoming dict shares arrays with the
        live pipeline, which would otherwise mutate the snapshot out from
        under a later rebuild.
        """
        self._snapshots[shard_id] = (stamp, copy_state(state))
        self._chunks[shard_id] = []
        if OBS.enabled:
            OBS.inc("service.resilience.snapshots")

    def snapshot_at(self, shard_id: str, stamp: tuple) -> dict | None:
        """The recorded snapshot state if it was taken at ``stamp``.

        ``None`` when the shard has no snapshot or has moved on since.
        The returned state is the store's own: read it, never write it.
        """
        recorded = self._snapshots.get(shard_id)
        if recorded is None or recorded[0] != stamp:
            return None
        return recorded[1]

    def record_snapshot_if_changed(
        self,
        shard_id: str,
        stamp: tuple,
        provider: Callable[[], dict],
    ) -> bool:
        """Snapshot from ``provider()`` unless ``stamp`` proves it stale.

        The dirty-tracking fast path: when the shard's state stamp equals
        the one recorded with its current snapshot, the state pull is
        skipped entirely (an unchanged stamp also implies nothing was
        ingested, so the covered tail stays valid and is *not* cleared).
        Returns True when a snapshot was taken.
        """
        if self.snapshot_at(shard_id, stamp) is not None:
            if OBS.enabled:
                OBS.inc("service.resilience.snapshots_skipped")
            return False
        self.record_snapshot(shard_id, provider(), stamp=stamp)
        return True

    def record_chunk(self, shard_id: str, values: np.ndarray) -> None:
        """Append one successfully ingested chunk to the shard's tail."""
        self._chunks.setdefault(shard_id, []).append(
            np.array(values, copy=True)
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(self._snapshots)

    def tail_length(self, shard_id: str) -> int:
        return len(self._chunks.get(shard_id, ()))

    def forget(self, shard_id: str) -> None:
        """Drop a shard's recovery state (it left the fleet)."""
        self._snapshots.pop(shard_id, None)
        self._chunks.pop(shard_id, None)

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def rebuild(self, shard_id: str) -> tuple["OnlineAnalysisPipeline", int]:
        """Rehydrate ``shard_id``: restore the snapshot, replay the tail.

        The pipeline is built from a copy of the snapshot, which stays
        intact for the next rebuild.  Returns ``(pipeline, n_replayed)``.
        Raises ``KeyError`` when the shard has no snapshot — the
        supervisor records one before the first supervised round, so this
        only fires on misuse.
        """
        if shard_id not in self._snapshots:
            raise KeyError(
                f"no recovery snapshot for shard {shard_id!r}; "
                "was it ever supervised?"
            )
        from ..pipeline.online import OnlineAnalysisPipeline

        _stamp, state = self._snapshots[shard_id]
        pipeline = OnlineAnalysisPipeline.from_state_dict(copy_state(state))
        tail = self._chunks.get(shard_id, ())
        for chunk in tail:
            pipeline.ingest(chunk)
        return pipeline, len(tail)
