"""Fleet-chunk benchmark runner.

Usage, from the repository root::

    python3 perfbench/run.py --workload alert-stream --seed 1 --seconds 40 --trace 0

Runs episodes of one workload (see ``workloads.py``) until ``--seconds`` of
episode time have passed, and at least four episodes.  Every episode
replays the same schedule, so each timed operation has a position.  The
run keeps the best (lowest) time of every position across its episodes
and takes medians and tail percentiles over those per-position bests;
throughput divides an episode's readings by the sum of its bests.
Best-of-episodes discards the host's CPU contention, which on small
shared machines swings single-core speed by up to 2x for seconds to tens
of seconds and would otherwise dominate run-to-run spread.  Set-up time is
the median of the run's set-ups.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
every second episode runs with ``repro.obs`` enabled and the layer wrappers
of ``layers.py`` installed, and it reports the per-layer metrics plus the
tracing overhead (traced against untraced episodes of the same run).
Correctness checks run after the first episode, outside the timed region.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (checkpoints); removed on exit.
WORKDIR = os.path.join(ROOT, ".perfbench_tmp")
MIN_EPISODES = 4

END_TO_END = {
    "setup_s": "s",
    "chunk_p50_ms": "ms",
    "chunk_tail_ms": "ms",
    "chunk_late_p50_ms": "ms",
    "samples_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _by_position(recorders, kind: str):
    """Best latency (s) of every schedule position across episodes."""
    import numpy as np

    table = np.array([getattr(rec, kind) for rec in recorders], dtype=float)
    return np.nanmin(table, axis=0)


def _pin_to_quietest_cpu() -> int | None:
    """Pin this process to the allowed CPU where a fixed loop runs fastest.

    On small shared machines one vCPU can sit on a core a neighbour keeps
    busy: measured, a serial run placed there read up to 1.3x slower than
    one on its sibling, and the scheduler picks either per process.  The
    probe takes the median of five ~10 ms loops per CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    timings: dict[int, list[float]] = {cpu: [] for cpu in cpus}
    for _ in range(5):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i
            timings[cpu].append(time.perf_counter() - start)
    best = min(cpus, key=lambda cpu: statistics.median(timings[cpu]))
    os.sched_setaffinity(0, {best})
    return best


def _stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Shard workers are stopped by ``monitor.close()``; any an aborted episode
    left behind are terminated here.  The resource tracker that
    ``multiprocessing`` starts for the shared-memory transport would
    otherwise outlive this process until it noticed the closed pipe.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the shard workers, once the monitor closed them); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(workload, plain, setups, readings) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as ``name -> (value, how it was taken)``."""
    import numpy as np

    chunks = _by_position(plain, "chunks")
    reads = _by_position(plain, "reads")
    busy = chunks.sum() + reads.sum() + _by_position(plain, "finish").sum()
    late = chunks[len(chunks) - math.ceil(len(chunks) / 10) :]
    per = f"per position, best of {len(plain)} episodes"
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "chunk_p50_ms": (1e3 * np.median(chunks), f"{len(chunks)} chunk rounds {per}"),
        "chunk_tail_ms": (
            1e3 * np.percentile(chunks, workload.chunk_tail),
            f"p{workload.chunk_tail} of {len(chunks)} chunk rounds",
        ),
        "chunk_late_p50_ms": (
            1e3 * np.median(late), f"last {len(late)} chunk rounds of each episode"
        ),
        "samples_per_s": (
            statistics.median(readings) / busy,
            "readings per episode / best times of its rounds, reads, flush and close",
        ),
        "read_p50_ms": (1e3 * np.median(reads), f"{len(reads)} reads {per}"),
        "read_tail_ms": (
            1e3 * np.percentile(reads, workload.read_tail),
            f"p{workload.read_tail} of {len(reads)} reads",
        ),
        "peak_rss_mb": (_peak_rss_mb(), "coordinator + largest worker"),
    }


def _per_layer(clock, workload, plain, traced) -> dict[str, float]:
    """Per-layer totals per traced episode, plus the tracing overhead."""
    import numpy as np

    totals = clock.metrics(process_backend=workload.process_backend)
    values = {key: value / len(traced) for key, value in totals.items()}
    reads = totals["pipeline.reads"]
    values["pipeline.recon_per_read"] = (
        totals["read.reconstruct.calls"] / reads if reads else 0.0
    )
    print(f"  pipeline.recon_per_read base: {reads / len(traced):g} reads per episode")
    for kind in ("chunks", "reads"):
        on = np.median(_by_position(traced, kind))
        off = np.median(_by_position(plain, kind))
        values[f"trace.overhead.{kind[:-1]}_p50"] = on / off - 1.0
        print(f"  {kind[:-1]}_p50_ms traced {1e3 * on:.2f}, untraced {1e3 * off:.2f}")
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import LAYER_METRICS, LayerClock
    from repro.obs import OBS
    from workloads import WORKLOADS, Recorder

    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[name](seed, WORKDIR)
    plain, traced = [], []
    clock = LayerClock()
    setups: list[float] = []
    readings: list[int] = []
    problems: list[str] = []
    episode_seconds = 0.0
    OBS.reset()
    while len(plain) + len(traced) < MIN_EPISODES or episode_seconds < seconds:
        index = len(plain) + len(traced)
        tracing = trace and index % 2 == 1
        rec = Recorder()
        if tracing:
            OBS.enable()
        start = time.perf_counter()
        monitor = workload.setup()
        setups.append(time.perf_counter() - start)
        if tracing:
            clock.install()
        start = time.perf_counter()
        try:
            ingested = workload.episode(monitor, rec, clock if tracing else None)
        finally:
            if tracing:
                clock.uninstall()
                OBS.disable()
        episode_seconds += time.perf_counter() - start
        (traced if tracing else plain).append(rec)
        if not tracing:
            readings.append(ingested)
        if index == 0:
            # Episodes replay one schedule; checking the first one keeps the
            # checks' cost (checkpoint restores, full reconstructions) per run.
            problems.extend(workload.check(monitor))

    recorders = plain + traced
    attempted = sum(rec.attempted for rec in recorders)
    failed = sum(rec.failed for rec in recorders)
    print(
        f"{name}: seed {seed}, {len(recorders)} episodes ({len(traced)} traced), "
        f"{failed}/{attempted} operations failed"
    )
    for problem in problems:
        print(f"  CHECK FAILED {problem}")

    metrics = {}
    if not trace:
        for key, (value, note) in _end_to_end(workload, plain, setups, readings).items():
            unit = END_TO_END[key]
            metrics[key] = {"value": float(value), "unit": unit}
            print(f"  {key:<18} {value:>14.4f} {unit:<4} {note}")
    else:
        values = _per_layer(clock, workload, plain, traced)
        print("  per traced episode; metric -> what it should move")
        for key, (unit, moves) in LAYER_METRICS.items():
            metrics[key] = {"value": float(values[key]), "unit": unit}
            print(f"  {key:<33} {values[key]:>14.6g} {unit:<5} -> {moves}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread per process, set before NumPy loads; spawned shard
    # workers inherit it.  On two cores BLAS threads do not speed these
    # matrix sizes up, and with process workers they oversubscribe the
    # cores: measured, default threading made ingest-persist rounds ~3x
    # slower and roughly doubled run-to-run spread on every workload.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not WORKLOADS[args.workload].process_backend:
        # Serial workloads use one core; the process backend needs them all.
        _pin_to_quietest_cpu()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_children()
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
