"""Deterministic fault injection for chaos testing the fleet.

A :class:`FaultPlan` is a *seeded, explicit* description of what goes wrong
where: every fault names its shard, its chunk index and (for transient
faults) the attempt it fires on.  Nothing here consults a clock or a global
RNG — replaying the same plan against the same stream produces the same
failures, the same retries and the same recovered state, which is what lets
the chaos tests assert bit-for-bit convergence with a fault-free run.

Faults come in two layers:

* **executor-layer** faults (``CRASH``, ``HANG``, ``SLOW``) execute inside
  the worker serving the shard.  In a spawned worker process a crash is a
  real ``os._exit`` and a hang is a real sleep the supervisor must detect
  via its task deadline; the in-process serial backend cannot crash the
  interpreter it shares with the caller, so the same plan degrades to
  typed :class:`SimulatedCrashError` / :class:`SimulatedHangError`
  exceptions that the supervisor treats as the crash/hang class.  The
  backend distinction is made *at execution time* (are we in a spawned
  child?), so one plan drives every backend.
* **pipeline-layer** faults: ``EXCEPTION`` raises
  :class:`InjectedFaultError` before the pipeline mutates (a clean retry
  converges exactly), and ``NAN_CHUNK`` poisons the chunk *data* with NaNs
  — the poison travels with every retry, so under the default
  ``missing_values="raise"`` the model rejects it
  (:class:`PoisonChunkError`) on every attempt and the shard lands in
  quarantine, exercising the degraded path.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from ..core.imrdmd import PoisonChunkError

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "InjectedFaultError",
    "PoisonChunkError",
    "SimulatedCrashError",
    "SimulatedHangError",
    "CRASH_EXIT_CODE",
]

#: Exit status used by injected worker crashes (recognisable in CI logs).
CRASH_EXIT_CODE = 17


class FaultKind(str, Enum):
    """What kind of failure a :class:`FaultSpec` injects."""

    CRASH = "crash"          # worker dies (os._exit in a spawned child)
    HANG = "hang"            # worker stops responding (sleeps past the deadline)
    SLOW = "slow"            # task is late but completes (tests the happy path)
    EXCEPTION = "exception"  # task raises a transient error before any mutation
    NAN_CHUNK = "nan_chunk"  # chunk data is poisoned with NaNs (fails every attempt)


class InjectedFaultError(RuntimeError):
    """A fault raised on purpose by a :class:`FaultPlan` (transient class)."""


class SimulatedCrashError(InjectedFaultError):
    """In-process stand-in for a worker crash (serial backend)."""


class SimulatedHangError(InjectedFaultError):
    """In-process stand-in for a hung worker (serial backend)."""


def _in_spawned_child() -> bool:
    """Whether we are executing inside a spawned worker process (where a
    real crash/hang is safe to inject) rather than the caller's own
    interpreter (serial backend)."""
    return mp.parent_process() is not None


@dataclass(frozen=True)
class FaultSpec:
    """One fault at an exact ``(shard, chunk, attempt)`` coordinate.

    ``attempt`` defaults to 1 — the fault fires on the first try only, so
    the retry converges (the transient-failure shape).  ``attempt=None``
    fires on *every* attempt (a persistent failure that must end in
    quarantine).  ``NAN_CHUNK`` ignores ``attempt``: the poison lives in
    the data, which every retry resubmits unchanged.

    ``duration`` is the sleep for ``SLOW`` (should sit *under* the
    supervisor's deadline) and for ``HANG`` in a process worker (should
    sit *over* it; the supervisor terminates the worker long before the
    sleep finishes).
    """

    kind: FaultKind
    shard_id: str
    chunk_index: int
    attempt: int | None = 1
    duration: float = 30.0

    def matches(self, shard_id: str, chunk_index: int, attempt: int) -> bool:
        return (
            self.shard_id == shard_id
            and self.chunk_index == int(chunk_index)
            and (self.attempt is None or self.attempt == int(attempt))
        )

    def execute(self) -> None:
        """Run the fault's effect at the point of injection (worker side).

        Called by the supervised ingest command *before* it touches the
        resident pipeline, so a retried task starts from unmutated state.
        """
        if self.kind is FaultKind.SLOW:
            time.sleep(self.duration)
            return
        if self.kind is FaultKind.EXCEPTION:
            raise InjectedFaultError(
                f"injected exception for shard {self.shard_id!r} "
                f"at chunk {self.chunk_index}"
            )
        if self.kind is FaultKind.CRASH:
            if _in_spawned_child():
                os._exit(CRASH_EXIT_CODE)
            raise SimulatedCrashError(
                f"injected worker crash for shard {self.shard_id!r} "
                f"at chunk {self.chunk_index}"
            )
        if self.kind is FaultKind.HANG:
            if _in_spawned_child():
                time.sleep(self.duration)
                # If the supervisor's deadline never fired we wake up and
                # fail loudly rather than silently completing late.
                raise SimulatedHangError(
                    f"injected hang for shard {self.shard_id!r} outlived "
                    f"its {self.duration:.1f}s sleep without being reaped"
                )
            raise SimulatedHangError(
                f"injected worker hang for shard {self.shard_id!r} "
                f"at chunk {self.chunk_index}"
            )
        # NAN_CHUNK is data-borne (see FaultPlan.poison) and never executes.


class FaultPlan:
    """A seeded, ordered collection of :class:`FaultSpec`\\ s.

    The plan is consulted at two points: :meth:`task_fault` by the
    supervisor when it builds a task (crash/hang/slow/exception ride along
    and execute in the worker), and :meth:`poisons`/:meth:`poison` when the
    per-shard chunk is sliced (NaN faults corrupt the data itself).  The
    ``seed`` names the plan (it keys the retry policy's deterministic
    jitter when the two are paired) — fault coordinates themselves are
    always explicit, never drawn.
    """

    def __init__(self, faults: Iterable[FaultSpec] = (), *, seed: int = 0) -> None:
        self.faults = tuple(faults)
        self.seed = int(seed)
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise TypeError(f"FaultPlan takes FaultSpec entries, got {fault!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultPlan seed={self.seed} faults={len(self.faults)}>"

    def task_fault(
        self, shard_id: str, chunk_index: int, attempt: int
    ) -> FaultSpec | None:
        """The executable fault for this task, or ``None`` (first match wins)."""
        for fault in self.faults:
            if fault.kind is FaultKind.NAN_CHUNK:
                continue
            if fault.matches(shard_id, chunk_index, attempt):
                return fault
        return None

    def poisons(self, shard_id: str, chunk_index: int) -> bool:
        """Whether this shard's chunk data is NaN-poisoned this round."""
        return any(
            fault.kind is FaultKind.NAN_CHUNK
            and fault.shard_id == shard_id
            and fault.chunk_index == int(chunk_index)
            for fault in self.faults
        )

    @staticmethod
    def poison(chunk: np.ndarray) -> np.ndarray:
        """A NaN-filled copy of ``chunk`` (same shape/dtype family)."""
        poisoned = np.array(chunk, dtype=float, copy=True)
        poisoned[:] = np.nan
        return poisoned

    def shards_with_persistent_faults(self) -> tuple[str, ...]:
        """Shards this plan condemns to quarantine (NaN or every-attempt)."""
        doomed = {
            fault.shard_id
            for fault in self.faults
            if fault.kind is FaultKind.NAN_CHUNK or fault.attempt is None
        }
        return tuple(sorted(doomed))
