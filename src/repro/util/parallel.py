"""Persistent shard executors.

The paper notes that refreshing levels 2..L of a previously computed mrDMD
tree "is an embarrassingly parallel problem" (Sec. III-A-1): every window at
every level can be recomputed independently.  :class:`ShardExecutor` exposes
that structure for stateful shards (e.g. one online pipeline per rack).
Workers are created once, receive their shard objects once, and keep them
**resident**: subsequent calls ship only ``(shard_id, payload)`` and small
results travel back.  This is the streaming-service shape — a per-chunk
pool would re-pickle the entire pipeline state (mode tree, iSVD factors,
baselines) to the workers and back on every ingest, which is routinely
slower than running serially.

Two interchangeable backends implement the same API:

``serial``
    Everything runs inline in the calling thread (deterministic, zero
    overhead, no pickling requirements) — the default, and the only
    in-process backend.
``process``
    A fixed pool of spawned worker processes; shard objects are shipped
    once at :meth:`ShardExecutor.start` and live in the workers.  Use
    :meth:`ShardExecutor.pull` to bring them back (e.g. before shutdown).
    The executor also owns its workers' observability: it switches their
    providers on and calibrates their clocks when they start (or are
    respawned), and :meth:`ShardExecutor.collect_obs` drains their
    metrics and trace events home.

Every backend guarantees per-shard FIFO ordering: two calls submitted for
the same shard run in submission order, so ``submit(ingest); submit(query)``
always observes the post-ingest state.  Results are bit-for-bit identical
across backends (same NumPy, same code path), which the service tests
assert.

Process-backend transport
-------------------------

Task arguments travel to process workers by pickle.
:meth:`ShardExecutor.broadcast` ships its ``(fn, args, kwargs)`` payload
once per worker *process* and then one tiny ``(shard_id, payload_id)``
task per shard, instead of re-pickling the full payload for every shard.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping

# repro.obs imports repro.util.timer/growbuf, and this module is imported by
# repro.util.__init__ — a top-level obs import here would be circular.  The
# provider is fetched lazily on first use and cached.
_OBS = None


def _get_obs():
    global _OBS
    if _OBS is None:
        from ..obs import OBS
        _OBS = OBS
    return _OBS


def _current_trace_context():
    """The (trace_id, parent span id) pair to ship with a task, or ``None``.

    ``None`` — tracing disabled or no span open — costs the worker nothing:
    the adopt call on the far side is a no-op.
    """
    obs = _get_obs()
    if not obs.enabled:
        return None
    return obs.current_context()


# --------------------------------------------------------------------------- #
# Worker-side trace plumbing (top-level, hence picklable by reference).
# Executor calling convention: fn(resident_obj, *args) — the resident is
# ignored; any shard on a worker reaches that interpreter's clock/provider.
# --------------------------------------------------------------------------- #
def _worker_clock_probe(obj=None) -> float:
    """Read the worker interpreter's monotonic clock (calibration probe)."""
    from .timer import now
    return now()


def _worker_set_trace_context(obj=None, trace_id=None, clock_offset=0.0) -> bool:
    """Install the coordinator's trace id and the measured clock offset in
    the worker's provider (see :meth:`ProcessShardExecutor.calibrate_clocks`)."""
    _get_obs().set_remote_context(trace_id, clock_offset)
    return True


__all__ = [
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "ShardTask",
    "ShardTaskError",
    "ShardTimeoutError",
    "make_shard_executor",
    "validate_executor_spec",
    "SHARD_EXECUTOR_BACKENDS",
]


# --------------------------------------------------------------------------- #
# Persistent shard executors
# --------------------------------------------------------------------------- #
class ShardTaskError(RuntimeError):
    """A shard worker failed (or died) while executing a submitted call.

    Carries structured context so supervisors can react without parsing
    messages: ``shard_id`` (when known), ``attempts`` (how many tries the
    submitting layer has made, 1 for a first failure), ``kind`` (``"error"``
    for an ordinary task exception, ``"crash"`` for a dead/terminated
    worker, ``"timeout"`` for a missed deadline) and the original exception
    as ``__cause__`` / :attr:`cause`.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: str | None = None,
        attempts: int = 1,
        kind: str = "error",
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.attempts = int(attempts)
        self.kind = kind
        if cause is not None:
            self.__cause__ = cause

    @property
    def cause(self) -> BaseException | None:
        """The original worker-side exception, when one exists."""
        return self.__cause__

    def __reduce__(self):
        # Default exception pickling replays only positional args and would
        # drop the structured fields on the trip back from a worker.
        return (
            _rebuild_shard_task_error,
            (type(self), str(self), self.shard_id, self.attempts, self.kind),
        )


def _rebuild_shard_task_error(cls, message, shard_id, attempts, kind):
    if issubclass(cls, ShardTimeoutError):
        return cls(message, shard_id=shard_id, attempts=attempts)
    return cls(message, shard_id=shard_id, attempts=attempts, kind=kind)


class ShardTimeoutError(ShardTaskError):
    """A submitted call missed its deadline (its worker is presumed hung)."""

    def __init__(
        self,
        message: str,
        *,
        shard_id: str | None = None,
        attempts: int = 1,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(
            message, shard_id=shard_id, attempts=attempts, kind="timeout",
            cause=cause,
        )


class ShardTask:
    """Handle for one submitted shard call.

    ``result()`` blocks until the call completed in its worker and either
    returns the call's return value or re-raises the worker-side exception
    (wrapped in :class:`ShardTaskError` when it cannot be transported).
    """

    __slots__ = ("shard_id", "_done", "_result", "_error", "_worker")

    def __init__(self, shard_id: str, *, worker=None) -> None:
        self.shard_id = shard_id
        self._done = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._worker = worker

    @property
    def done(self) -> bool:
        return self._done

    def _resolve(self, result: Any, error: BaseException | None) -> None:
        self._result = result
        self._error = error
        self._done = True

    def result(self, timeout: float | None = None) -> Any:
        """Block for the result; ``timeout`` (seconds) turns the wait into
        a deadline.  A missed deadline raises :class:`ShardTimeoutError`
        and leaves the task pending — the worker serving it is presumed
        hung and should be respawned (see ``ShardExecutor.respawn``)."""
        if not self._done:
            obs = _get_obs()
            if obs.enabled:
                from .timer import now
                blocked = now()
                self._wait(timeout)
                obs.observe("executor.wait.seconds", now() - blocked,
                            shard=self.shard_id)
            else:
                self._wait(timeout)
        if not self._done:
            if timeout is not None:
                raise ShardTimeoutError(
                    f"task for shard {self.shard_id!r} missed its "
                    f"{timeout:.3f}s deadline",
                    shard_id=self.shard_id,
                )
            raise ShardTaskError(
                f"task for shard {self.shard_id!r} never completed",
                shard_id=self.shard_id,
            )
        if self._error is not None:
            raise self._error
        return self._result

    def _wait(self, timeout: float | None = None) -> None:
        if self._worker is not None:
            self._worker.wait_for(self, timeout=timeout)


class ShardExecutor(ABC):
    """Persistent executor whose workers own resident shard objects.

    Lifecycle::

        with make_shard_executor("process", max_workers=4) as executor:
            executor.start({"rack-0": pipeline0, "rack-1": pipeline1})
            tasks = [executor.submit(sid, ingest_fn, chunk) for sid, chunk in ...]
            results = [t.result() for t in tasks]

    ``fn`` arguments are always called as ``fn(shard_object, *args,
    **kwargs)``; for the process backend they must be picklable top-level
    functions, and arguments/results must be picklable.  Parent-side use is
    single-threaded by design (the service's ingest loop); the executor
    does not synchronise concurrent ``submit``/``result`` callers.
    """

    backend: str = "abstract"

    def __init__(self) -> None:
        self._objects: dict[str, Any] | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------- #
    @property
    def started(self) -> bool:
        return self._objects is not None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return () if self._objects is None else tuple(self._objects)

    def start(self, objects: Mapping[str, Any]) -> None:
        """Install the resident shard objects and bring the workers up.

        A failure while bringing workers up (spawn limits, pickling
        errors) tears down whatever was started and leaves the executor
        *closed* — a half-started executor must not keep accepting work.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if self.started:
            raise RuntimeError("executor is already started")
        if not objects:
            raise ValueError("executor needs at least one shard object")
        self._objects = dict(objects)
        try:
            self._start()
        except BaseException:
            self._closed = True
            try:
                self._shutdown()
            except Exception:
                pass
            raise

    def _start(self) -> None:
        """Backend hook run after ``self._objects`` is populated."""

    def _check_started(self) -> None:
        if self._closed:
            raise RuntimeError("executor is closed")
        if not self.started:
            raise RuntimeError("executor is not started")

    def _check_ready(self, shard_id: str) -> None:
        self._check_started()
        if shard_id not in self._objects:
            raise KeyError(f"unknown shard {shard_id!r}")

    def remote_worker_shards(self) -> tuple[str, ...]:
        """One representative shard id per worker *interpreter* that does
        not share this process's memory — the addresses a metrics
        collector must call to reach every remote
        :data:`repro.obs.OBS` instance.  The in-process serial backend
        records straight into the parent provider, so it reports none."""
        return ()

    def calibrate_clocks(self) -> dict[str, float]:
        """Align remote worker clocks with this process's (trace timeline).

        In-process backends share the parent's monotonic clock, so there
        is nothing to align; the process backend overrides this with an
        NTP-style handshake per worker.  Returns the measured offset in
        seconds keyed by each calibrated worker's representative shard
        (empty when nothing needed calibrating).  No-op unless the
        observability provider is enabled.
        """
        return {}

    def collect_obs(self) -> None:
        """Merge every remote worker's metric registry and buffered trace
        events into this process's provider.

        Workers are drained with reset, so repeated collections never
        double-count.  A no-op on the in-process serial backend (it
        records straight into the parent provider) and while the provider
        is disabled.
        """

    # -- calls ----------------------------------------------------------- #
    def _record_submit(self, shard_id: str, depth: int | None = None) -> None:
        """Submission metrics shared by the backends (no-op when disabled)."""
        obs = _get_obs()
        if obs.enabled:
            obs.inc("executor.submitted", backend=self.backend, shard=shard_id)
            if depth is not None:
                obs.gauge("executor.queue_depth", depth, backend=self.backend,
                          shard=shard_id)

    @abstractmethod
    def submit(self, shard_id: str, fn: Callable, /, *args, **kwargs) -> ShardTask:
        """Enqueue ``fn(shard_object, *args, **kwargs)``; FIFO per shard."""

    def call(self, shard_id: str, fn: Callable, /, *args, **kwargs) -> Any:
        """Synchronous :meth:`submit` + ``result()``."""
        return self.submit(shard_id, fn, *args, **kwargs).result()

    def map(self, fn: Callable, args_by_shard: Mapping[str, tuple]) -> dict[str, Any]:
        """Fan ``fn`` out with per-shard positional args; gather in order."""
        tasks = [
            (shard_id, self.submit(shard_id, fn, *args))
            for shard_id, args in args_by_shard.items()
        ]
        return {shard_id: task.result() for shard_id, task in tasks}

    def broadcast(self, fn: Callable, /, *args, **kwargs) -> dict[str, Any]:
        """Run ``fn`` on every shard with the same arguments; gather."""
        self._check_started()
        tasks = [
            (shard_id, self.submit(shard_id, fn, *args, **kwargs))
            for shard_id in self._objects
        ]
        return {shard_id: task.result() for shard_id, task in tasks}

    # -- state management ------------------------------------------------ #
    def install(self, shard_id: str, obj: Any) -> None:
        """Replace one resident shard object (keeps workers in sync)."""
        self._check_ready(shard_id)
        self._objects[shard_id] = obj

    def add_shard(self, shard_id: str, obj: Any) -> None:
        """Install a brand-new resident shard into the running pool.

        This is the elastic-topology hook: a shard minted mid-stream (new
        sensors that do not belong to any existing shard) joins the live
        worker pool without a restart — existing residents, their queued
        work and their FIFO ordering are untouched.  The new shard is
        assigned to a worker deterministically (registration order modulo
        pool size), so every backend routes identically.
        """
        self._check_started()
        if shard_id in self._objects:
            raise ValueError(f"shard {shard_id!r} is already resident")
        self._objects[shard_id] = obj
        self._add_shard(shard_id, obj)

    def _add_shard(self, shard_id: str, obj: Any) -> None:
        """Backend hook run after the new shard joined ``self._objects``."""

    # -- supervision ------------------------------------------------------ #
    def worker_shards(self, shard_id: str) -> tuple[str, ...]:
        """Every shard co-resident with ``shard_id`` (same worker).

        Losing a worker loses *all* of these at once — a supervisor must
        rehydrate the full set when it respawns (see :meth:`respawn`).
        The serial backend has no workers, so each shard stands alone.
        """
        self._check_ready(shard_id)
        return (shard_id,)

    def worker_alive(self, shard_id: str) -> bool:
        """Liveness of the worker serving ``shard_id``.

        Detects *crashed* workers (the process backend checks the child's
        ``is_alive``); a *hung* worker still reports alive — hangs are
        detected by task deadlines (``ShardTask.result(timeout=...)``),
        which together with this probe form the supervision model.
        """
        self._check_ready(shard_id)
        return True

    def respawn(self, shard_id: str, objects: Mapping[str, Any]) -> None:
        """Replace the worker serving ``shard_id`` with a fresh one and
        install ``objects`` — rehydrated replacements for every resident
        shard (see :meth:`worker_shards`).

        The process backend force-terminates the old worker (dead or hung
        — either way it is not coming back), fails its in-flight tasks
        with crash-kind :class:`ShardTaskError`\\ s, and spawns a clean
        replacement.  The serial backend only swaps the resident objects.
        Tasks queued on the lost worker are NOT resubmitted; the
        supervisor retries them.
        """
        self._check_ready(shard_id)
        for sid, obj in objects.items():
            self._check_ready(sid)
            self._objects[sid] = obj
        obs = _get_obs()
        if obs.enabled:
            obs.inc("executor.worker.respawned", backend=self.backend)

    def pull(self) -> dict[str, Any]:
        """Return the resident shard objects to the parent.

        The serial backend shares objects with the parent, so this is a
        plain lookup; the process backend round-trips each object through
        its worker (one pickle per shard — the same price ``start`` paid).
        """
        self._check_started()
        return dict(self._objects)

    # -- shutdown -------------------------------------------------------- #
    def close(self) -> None:
        """Shut the workers down; idempotent.  Resident state is dropped —
        callers that need it back must :meth:`pull` first."""
        if self._closed:
            return
        self._closed = True
        self._shutdown()

    def _shutdown(self) -> None:
        """Backend hook for worker teardown."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("started" if self.started else "idle")
        return f"<{type(self).__name__} backend={self.backend!r} {state} shards={len(self.shard_ids)}>"


class SerialShardExecutor(ShardExecutor):
    """Inline execution in the calling thread (deterministic reference)."""

    backend = "serial"

    def submit(self, shard_id: str, fn: Callable, /, *args, **kwargs) -> ShardTask:
        self._check_ready(shard_id)
        self._record_submit(shard_id)
        task = ShardTask(shard_id)
        try:
            obs = _get_obs()
            if obs.enabled and obs.tracer.current_span_id() is None:
                # No enclosing span to parent under (housekeeping outside a
                # round): keep the event out of the trace — it could never
                # chain onto the merged timeline — but feed the histogram.
                t0 = time.perf_counter()
                result = fn(self._objects[shard_id], *args, **kwargs)
                obs.observe("span.executor.task", time.perf_counter() - t0)
            else:
                with obs.span("executor.task", shard=shard_id, backend=self.backend):
                    result = fn(self._objects[shard_id], *args, **kwargs)
            task._resolve(result, None)
        except Exception as exc:
            task._resolve(None, exc)
        return task


def _default_max_workers(requested: int | None, n_shards: int) -> int:
    if requested is not None:
        if requested < 1:
            raise ValueError(f"max_workers must be >= 1, got {requested!r}")
        return min(requested, n_shards)
    return max(1, min(n_shards, os.cpu_count() or 1))


# --------------------------------------------------------------------------- #
# Process backend
# --------------------------------------------------------------------------- #
def _process_worker_main(conn) -> None:
    """Loop of one spawned shard worker: install / task / payload / ptask /
    close commands."""
    objects: dict[str, Any] = {}
    payloads: dict[int, list] = {}  # payload_id -> [fn, args, kwargs, uses left]

    def run_one(task_id, shard_id, fn, args, kwargs, ctx=None) -> None:
        try:
            # The worker interpreter's own provider: disabled unless the
            # parent turned it on via repro.obs.worker_enable_metrics.
            # Adopting the shipped context parents this span under the
            # coordinator's round span (no-op while disabled).
            obs = _get_obs()
            if ctx is not None:
                with obs.adopt(ctx):
                    with obs.span("executor.task", shard=shard_id,
                                  backend="process"):
                        result = fn(objects[shard_id], *args, **kwargs)
            else:
                # No causal context: housekeeping (drains, calibration,
                # pulls) or work submitted outside any coordinator span.
                # An event here could never chain to the merged timeline,
                # so keep it out of the trace but still feed the span
                # duration histogram the metrics path reports.
                t0 = time.perf_counter()
                result = fn(objects[shard_id], *args, **kwargs)
                obs.observe("span.executor.task", time.perf_counter() - t0)
            payload = ("result", task_id, result, None)
        except Exception as exc:
            payload = ("result", task_id, None, exc)
        try:
            conn.send(payload)
        except Exception as exc:
            # Unpicklable result or exception: transport a description.
            conn.send(("result", task_id, None,
                       ShardTaskError(f"worker could not return result: {exc!r}",
                                      shard_id=shard_id)))

    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        kind = message[0]
        if kind == "install":
            _, shard_id, obj = message
            objects[shard_id] = obj
            conn.send(("installed", shard_id))
        elif kind == "task":
            _, task_id, shard_id, fn, args, kwargs, ctx = message
            run_one(task_id, shard_id, fn, args, kwargs, ctx)
        elif kind == "payload":
            # Broadcast dedup: the (fn, args, kwargs) of a fan-out travels
            # once per worker; the per-shard "ptask" messages reference it.
            _, payload_id, fn, args, kwargs, uses = message
            payloads[payload_id] = [fn, args, kwargs, int(uses)]
        elif kind == "ptask":
            _, task_id, shard_id, payload_id, ctx = message
            entry = payloads[payload_id]
            run_one(task_id, shard_id, entry[0], entry[1], entry[2], ctx)
            entry[3] -= 1
            if entry[3] <= 0:
                payloads.pop(payload_id, None)
        elif kind == "close":
            conn.send(("closed",))
            break
    conn.close()


class _ProcessWorker:
    """Parent-side handle of one spawned worker (duplex pipe + pending set)."""

    def __init__(self, ctx, index: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_process_worker_main, args=(child_conn,),
            name=f"shard-worker-{index}", daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._pending: dict[int, ShardTask] = {}
        self._next_task_id = 0
        self._next_payload_id = 0

    def _send(self, message: tuple, shard_id: str) -> None:
        """Ship one command.  A worker that cannot take it (dead, or the
        message does not pickle) raises a crash-kind
        :class:`ShardTaskError` naming the shard."""
        try:
            self.conn.send(message)
        except Exception as exc:
            raise ShardTaskError(
                f"could not ship {message[0]} for shard {shard_id!r} to "
                f"worker {self.process.name}: {exc!r}",
                shard_id=shard_id, kind="crash",
            ) from exc

    def install(self, shard_id: str, obj: Any) -> None:
        self.drain()
        self._send(("install", shard_id, obj), shard_id)
        ack = self.conn.recv()
        if ack != ("installed", shard_id):  # pragma: no cover - defensive
            raise ShardTaskError(f"unexpected install ack {ack!r}")

    def submit(self, task: ShardTask, fn: Callable, args, kwargs,
               ctx=None) -> None:
        task_id = self._next_task_id
        self._next_task_id += 1
        self._send(("task", task_id, task.shard_id, fn, args, kwargs, ctx),
                   task.shard_id)
        self._pending[task_id] = task

    def send_payload(self, fn: Callable, args, kwargs,
                     shard_ids: list[str]) -> int:
        """Ship one broadcast payload; the next ptasks, one per shard in
        ``shard_ids``, reference it."""
        payload_id = self._next_payload_id
        self._next_payload_id += 1
        self._send(("payload", payload_id, fn, args, kwargs, len(shard_ids)),
                   shard_ids[0])
        return payload_id

    def submit_ptask(self, task: ShardTask, payload_id: int, ctx=None) -> None:
        task_id = self._next_task_id
        self._next_task_id += 1
        self._send(("ptask", task_id, task.shard_id, payload_id, ctx),
                   task.shard_id)
        self._pending[task_id] = task

    @property
    def pending_shards(self) -> tuple[str, ...]:
        """Shards with in-flight tasks on this worker (submission order)."""
        return tuple(task.shard_id for task in self._pending.values())

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def wait_for(self, task: ShardTask, timeout: float | None = None) -> None:
        if timeout is None:
            while not task.done and self._pending:
                self._receive_one()
            return
        deadline = time.monotonic() + timeout
        while not task.done and self._pending:
            remaining = deadline - time.monotonic()
            # A missed deadline returns with the task still pending; the
            # caller (ShardTask.result) raises ShardTimeoutError.
            if remaining <= 0 or not self._receive_one(timeout=remaining):
                return

    def drain(self, timeout: float | None = None) -> bool:
        """Receive until no task is pending; ``False`` on a missed deadline."""
        if timeout is None:
            while self._pending:
                self._receive_one()
            return True
        deadline = time.monotonic() + timeout
        while self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._receive_one(timeout=remaining):
                return False
        return True

    def _fail_pending(self, reason: str) -> tuple[str, ...]:
        """Resolve every in-flight task with a crash-kind error."""
        lost = self.pending_shards
        for pending in self._pending.values():
            pending._resolve(None, ShardTaskError(
                f"{reason} (in-flight task for shard {pending.shard_id!r} lost)",
                shard_id=pending.shard_id, kind="crash",
            ))
        self._pending.clear()
        return lost

    def _receive_one(self, timeout: float | None = None) -> bool:
        """Receive one result; ``False`` only when ``timeout`` expired."""
        try:
            if timeout is not None and not self.conn.poll(timeout):
                return False
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            self._fail_pending(f"shard worker {self.process.name} died: {exc!r}")
            return True
        kind, task_id, result, error = message
        assert kind == "result", message
        self._pending.pop(task_id)._resolve(result, error)
        return True

    def kill(self, reason: str) -> tuple[str, ...]:
        """Force-terminate the worker; returns the shards whose in-flight
        tasks were lost.  Used for hung workers and respawns — never asks
        the child to cooperate."""
        lost = self._fail_pending(reason)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.kill()
                self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        return lost

    def close(self, timeout: float = 30.0) -> tuple[str, ...]:
        """Graceful shutdown with a drain/join deadline.

        A worker that cannot drain within ``timeout`` (it hung, or died
        without the pipe collapsing) is force-terminated; the names of the
        shards whose in-flight tasks were lost are returned so the
        executor can raise one clear error instead of blocking forever.
        """
        if not self.drain(timeout=timeout):
            return self.kill(
                f"shard worker {self.process.name} failed to drain within "
                f"{timeout:.1f}s at close"
            )
        try:
            self.conn.send(("close",))
            if self.conn.poll(timeout):
                self.conn.recv()  # "closed" ack
        except (EOFError, OSError, BrokenPipeError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.conn.close()
        return ()


class ProcessShardExecutor(ShardExecutor):
    """Spawned worker processes with resident shard objects.

    Each shard object is pickled to its worker exactly once at ``start``
    (and once more per :meth:`pull`); every other exchange carries only the
    call payloads.  Parent-side state in ``self._objects`` is the *initial*
    copy and goes stale as workers mutate their residents — always query
    through the executor, or :meth:`pull` to resynchronise.
    """

    backend = "process"

    def __init__(self, max_workers: int | None = None, *,
                 close_timeout: float = 30.0) -> None:
        super().__init__()
        if close_timeout <= 0:
            raise ValueError(f"close_timeout must be positive, got {close_timeout!r}")
        self._max_workers = max_workers
        self._close_timeout = float(close_timeout)
        self._workers: list[_ProcessWorker] = []
        self._worker_of_shard: dict[str, int] = {}

    def _start(self) -> None:
        ctx = mp.get_context("spawn")
        n_workers = _default_max_workers(self._max_workers, len(self._objects))
        self._workers = [_ProcessWorker(ctx, index) for index in range(n_workers)]
        for index, (shard_id, obj) in enumerate(self._objects.items()):
            worker = self._workers[index % n_workers]
            self._worker_of_shard[shard_id] = index % n_workers
            worker.install(shard_id, obj)
        self._start_worker_obs(self.remote_worker_shards())

    def submit(self, shard_id: str, fn: Callable, /, *args, **kwargs) -> ShardTask:
        self._check_ready(shard_id)
        worker = self._workers[self._worker_of_shard[shard_id]]
        self._record_submit(shard_id, depth=len(worker._pending))
        task = ShardTask(shard_id, worker=worker)
        worker.submit(task, fn, args, kwargs, ctx=_current_trace_context())
        return task

    def broadcast(self, fn: Callable, /, *args, **kwargs) -> dict[str, Any]:
        """Fan ``fn`` out to every shard, shipping the payload once per
        worker process instead of once per shard (see module docstring)."""
        self._check_started()
        by_worker: dict[int, list[str]] = {}
        for shard_id in self._objects:
            by_worker.setdefault(self._worker_of_shard[shard_id], []).append(shard_id)
        tasks: dict[str, ShardTask] = {}
        ctx = _current_trace_context()
        for worker_index, shard_ids in by_worker.items():
            worker = self._workers[worker_index]
            payload_id = worker.send_payload(fn, args, kwargs, shard_ids)
            for shard_id in shard_ids:
                self._record_submit(shard_id, depth=len(worker._pending))
                task = ShardTask(shard_id, worker=worker)
                worker.submit_ptask(task, payload_id, ctx=ctx)
                tasks[shard_id] = task
        return {shard_id: tasks[shard_id].result() for shard_id in self._objects}

    def remote_worker_shards(self) -> tuple[str, ...]:
        """One resident shard per spawned worker (any shard on a worker
        reaches that interpreter's module-level provider)."""
        if not self.started:
            return ()
        representative: dict[int, str] = {}
        for shard_id, index in self._worker_of_shard.items():
            representative.setdefault(index, shard_id)
        return tuple(representative[index] for index in sorted(representative))

    def _start_worker_obs(self, shard_ids) -> None:
        """Mirror the parent's observability switch into fresh workers.

        Each worker is a new interpreter whose provider starts disabled:
        turn its metrics on, then calibrate its clock so its trace events
        land on this process's timeline.  Runs once per worker, at start
        and on respawn; a no-op unless the provider is enabled.
        """
        obs = _get_obs()
        if not obs.enabled:
            return
        from ..obs import worker_enable_metrics

        for shard_id in shard_ids:
            # The session trace id goes first, so the worker's provider
            # keeps it when it enables: a worker started inside an open
            # span traces its calibration probes under that span.
            self.call(shard_id, _worker_set_trace_context, obs.trace_id)
            self.call(shard_id, worker_enable_metrics)
            self._calibrate_worker(shard_id)

    def collect_obs(self) -> None:
        obs = _get_obs()
        if not obs.enabled or not self.started or self._closed:
            return
        from ..obs import worker_drain_metrics, worker_drain_trace

        for shard_id in self.remote_worker_shards():
            obs.metrics.merge(self.call(shard_id, worker_drain_metrics))
            # Worker span events arrive calibrated and parented through the
            # shipped TraceContext: one causal trace per session.
            events = self.call(shard_id, worker_drain_trace)
            if events:
                obs.tracer.ingest_events(events)

    # How many round trips a clock handshake makes; the minimum-RTT probe
    # wins (NTP's trick: the midpoint estimate is tightest when the pipe
    # was least congested).
    _CLOCK_PROBES = 5

    def calibrate_clocks(self) -> dict[str, float]:
        obs = _get_obs()
        if not obs.enabled or not self.started or not self._workers:
            return {}
        offsets: dict[str, float] = {}
        for shard_id in self.remote_worker_shards():
            offsets[shard_id] = self._calibrate_worker(shard_id)
        return offsets

    def _calibrate_worker(self, shard_id: str) -> float:
        """NTP-style handshake with the worker serving ``shard_id``.

        Each probe brackets the worker's clock read between two parent
        clock reads; the probe with the smallest round trip gives the
        tightest midpoint estimate ``offset = (t0 + t1)/2 - t_worker``
        (seconds to ADD to the worker clock to land on the parent's).
        The result, plus the session trace id, is installed in the
        worker's provider so every event it emits is already calibrated.
        """
        from .timer import now

        obs = _get_obs()
        best_rtt = float("inf")
        offset = 0.0
        for _ in range(self._CLOCK_PROBES):
            t0 = now()
            t_worker = self.call(shard_id, _worker_clock_probe)
            t1 = now()
            rtt = t1 - t0
            if rtt < best_rtt:
                best_rtt = rtt
                offset = (t0 + t1) / 2.0 - t_worker
        self.call(shard_id, _worker_set_trace_context, obs.trace_id, offset)
        index = self._worker_of_shard[shard_id]
        obs.inc("executor.clock.calibrations", backend=self.backend)
        obs.gauge("executor.clock.offset_seconds", offset, worker=str(index))
        obs.gauge("executor.clock.rtt_seconds", best_rtt, worker=str(index))
        return offset

    def install(self, shard_id: str, obj: Any) -> None:
        super().install(shard_id, obj)
        self._workers[self._worker_of_shard[shard_id]].install(shard_id, obj)

    def _add_shard(self, shard_id: str, obj: Any) -> None:
        index = len(self._worker_of_shard) % len(self._workers)
        self._worker_of_shard[shard_id] = index
        self._workers[index].install(shard_id, obj)

    def worker_shards(self, shard_id: str) -> tuple[str, ...]:
        self._check_ready(shard_id)
        index = self._worker_of_shard[shard_id]
        return tuple(
            sid for sid, widx in self._worker_of_shard.items() if widx == index
        )

    def worker_alive(self, shard_id: str) -> bool:
        self._check_ready(shard_id)
        return self._workers[self._worker_of_shard[shard_id]].alive

    def respawn(self, shard_id: str, objects: Mapping[str, Any]) -> None:
        """Kill the worker serving ``shard_id`` and spawn a replacement.

        ``objects`` must carry a rehydrated object for every shard that
        was resident on the lost worker (:meth:`worker_shards`) — they are
        shipped to the fresh process exactly as ``start`` shipped the
        originals.  Any in-flight tasks on the old worker resolve with
        crash-kind :class:`ShardTaskError`\\ s; the supervisor resubmits.
        """
        self._check_ready(shard_id)
        index = self._worker_of_shard[shard_id]
        resident = self.worker_shards(shard_id)
        missing = sorted(set(resident) - set(objects))
        if missing:
            raise ValueError(
                f"respawn needs a replacement object for every shard resident "
                f"on the lost worker; missing {missing}"
            )
        old = self._workers[index]
        old.kill(f"respawning shard worker {old.process.name}")
        worker = _ProcessWorker(mp.get_context("spawn"), index)
        self._workers[index] = worker
        for sid in resident:
            worker.install(sid, objects[sid])
            self._objects[sid] = objects[sid]
        obs = _get_obs()
        if obs.enabled:
            obs.inc("executor.worker.respawned", backend=self.backend)
            # The killed worker's undrained registry (and buffered trace
            # events) die with it — surface the undercount instead of
            # hiding it.
            obs.inc("obs.metrics.lost_registries", backend=self.backend)
        self._start_worker_obs((shard_id,))

    def pull(self) -> dict[str, Any]:
        synced = self.broadcast(_return_shard_object)
        self._objects.update(synced)
        return dict(self._objects)

    def _shutdown(self) -> None:
        lost: list[str] = []
        lost_workers = 0
        for worker in self._workers:
            worker_lost = worker.close(timeout=self._close_timeout)
            if worker_lost:
                lost.extend(worker_lost)
                lost_workers += 1
        self._workers = []
        obs = _get_obs()
        if lost_workers and obs.enabled:
            # Each force-terminated worker took its undrained metric
            # registry with it; record the loss so reports can flag the
            # undercount rather than silently presenting partial totals.
            obs.inc("obs.metrics.lost_registries", lost_workers,
                    backend=self.backend)
        if lost:
            raise ShardTaskError(
                "executor closed with unresponsive workers; in-flight tasks "
                f"for shards {sorted(set(lost))} were lost (force-terminated "
                f"after {self._close_timeout:.1f}s)",
                kind="crash",
            )


def _return_shard_object(obj: Any) -> Any:
    """Worker-side helper shipping the resident object back (see ``pull``)."""
    return obj


SHARD_EXECUTOR_BACKENDS = ("serial", "process")


def validate_executor_spec(
    backend: str | ShardExecutor | None, max_workers: int | None = None
) -> None:
    """Raise the :class:`ValueError` :func:`make_shard_executor` would.

    A monitor builds its configured executor only at its first ingest
    round (a serial executor holds its pipelines until then); it calls
    this when it is built so a bad ``executor``/``max_workers`` fails
    there, not at the first ingest.
    """
    if isinstance(backend, ShardExecutor):
        if max_workers is not None:
            raise ValueError("max_workers cannot be combined with an executor instance")
        if backend.started or backend.closed:
            raise ValueError("executor instance must be fresh (not started or closed)")
        return
    if backend is not None and backend not in SHARD_EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; expected one of "
            f"{SHARD_EXECUTOR_BACKENDS}"
        )
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")


def make_shard_executor(
    backend: str | ShardExecutor | None = None,
    *,
    max_workers: int | None = None,
) -> ShardExecutor:
    """Build (or pass through) a :class:`ShardExecutor`.

    ``backend`` may be a backend name (``"serial"``/``"process"``),
    ``None`` (serial), or an existing un-started executor instance, which
    is returned as-is (``max_workers`` must then be ``None`` — the
    instance already carries its sizing).
    """
    validate_executor_spec(backend, max_workers)
    if isinstance(backend, ShardExecutor):
        return backend
    if backend == "process":
        return ProcessShardExecutor(max_workers=max_workers)
    return SerialShardExecutor()
