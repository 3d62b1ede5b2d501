"""Shared chunk log: the federation's short-term ingest memory.

With staggered rounds and machine-local restores, "what did machine X
already see?" stops being derivable from the round counter: a machine
restored from an older checkpoint sits several chunks behind the stream,
and a machine registered mid-run starts at its own step 0.  The
:class:`ChunkLog` closes that gap — the federated monitor records each
machine's chunk (keyed by machine and absolute step range) as soon as
that machine has ingested it, so a round that raises part-way leaves no
gap for the machines it reached, and
:meth:`~repro.federation.monitor.FederatedMonitor.catch_up` replays the
retained tail into a lagging machine before it rejoins alert evaluation.

The log is deliberately a bounded in-memory ring per machine (it is the
*recent* tail that matters for catch-up — older state comes from the
machine's own checkpoint, which is exactly the combination the stale-restore
flow uses: restore the newest retained checkpoint, then replay the logged
chunks after it).  Entries store the chunk arrays as handed in; memory is
bounded by ``capacity_per_machine`` chunks per machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChunkLog", "ChunkLogEntry"]


@dataclass(frozen=True)
class ChunkLogEntry:
    """One recorded ingest: ``values`` covered ``[start, stop)`` snapshots."""

    machine: str
    start: int
    stop: int
    values: np.ndarray

    @property
    def n_snapshots(self) -> int:
        return self.stop - self.start


class ChunkLog:
    """Bounded per-machine history of recently ingested chunks.

    Parameters
    ----------
    capacity_per_machine:
        How many trailing chunks to retain per machine.  Sized to cover
        the distance between checkpoint rotations plus the longest
        expected outage; an entry evicted before a machine caught up
        makes :meth:`entries_since` raise (a gap must fail loudly, never
        silently skip data).
    """

    def __init__(self, capacity_per_machine: int = 64) -> None:
        if capacity_per_machine < 1:
            raise ValueError("capacity_per_machine must be >= 1")
        self.capacity_per_machine = int(capacity_per_machine)
        self._entries: dict[str, list[ChunkLogEntry]] = {}

    # ------------------------------------------------------------------ #
    @property
    def machines(self) -> tuple[str, ...]:
        """Machines with at least one retained entry."""
        return tuple(self._entries)

    def n_entries(self, machine: str) -> int:
        return len(self._entries.get(machine, ()))

    def latest_step(self, machine: str) -> int:
        """One past the last logged snapshot for ``machine`` (0 if none)."""
        entries = self._entries.get(machine)
        return entries[-1].stop if entries else 0

    # ------------------------------------------------------------------ #
    def record(self, machine: str, start: int, values: np.ndarray) -> ChunkLogEntry:
        """Append one machine's ingested chunk (must extend its timeline)."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape!r}")
        start = int(start)
        entries = self._entries.setdefault(machine, [])
        if entries and start != entries[-1].stop:
            raise ValueError(
                f"chunk for {machine!r} starts at {start} but the log ends at "
                f"{entries[-1].stop} — record chunks in stream order"
            )
        entry = ChunkLogEntry(
            machine=machine, start=start, stop=start + values.shape[1], values=values
        )
        entries.append(entry)
        del entries[: -self.capacity_per_machine]
        return entry

    def forget(self, machine: str) -> None:
        """Drop a machine's history (after deregistration)."""
        self._entries.pop(machine, None)

    def entries_since(self, machine: str, step: int) -> list[ChunkLogEntry]:
        """Retained entries covering snapshots at or after ``step``, in order.

        Raises when the retained history no longer reaches back to
        ``step`` (the machine fell further behind than the log covers) —
        catch-up must not silently skip a gap.
        """
        entries = self._entries.get(machine, [])
        tail = [entry for entry in entries if entry.stop > step]
        if tail and tail[0].start > step:
            raise ValueError(
                f"chunk log for {machine!r} starts at step {tail[0].start} but "
                f"catch-up needs step {step}: the log's "
                f"{self.capacity_per_machine}-chunk retention no longer covers "
                f"the gap — restore from a newer checkpoint or raise the "
                f"capacity"
            )
        return tail
