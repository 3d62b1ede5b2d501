"""Streaming-core scaling benchmark: per-chunk ingest cost vs stream length.

The paper's headline (Sec. III-A, Table I, Fig. 9) is that I-mrDMD folds a
new chunk in at a cost *independent of how much history came before*.  The
seed implementation silently lost that property three ways — eager
``(q, T)`` right-factor rotation in the incremental SVD, ``np.hstack``
re-copies of the level-1 grid on every append, and an ``O(T)`` dense
level-1 operator/amplitude rebuild per chunk — so per-chunk
``partial_fit`` time grew roughly linearly with the chunk index.

This benchmark streams the same telemetry-shaped matrix through

* ``projected_lazy`` — the streaming path (default): lazy ``Vh``
  rotation, growth buffers, incrementally maintained ``Y Vh^H`` cross
  product, chunk-window amplitude fit; and
* ``dense_eager_seed`` — the test-only
  ``tests/reference_level1.py::DenseLevel1MrDMD``, which reproduces the
  seed's per-chunk algorithm (full factor materialisation — the eager
  rotation's ``O(q^2 T)`` on every chunk — and whole-window amplitude
  refit),

records every chunk's ``partial_fit`` CPU time (process time, in a
spawned interpreter with one BLAS thread), and **asserts** the
acceptance criterion: the streaming path's late-chunk cost stays within
2x of its early-chunk cost, while the seed path demonstrably grows.  The
measured curves are written to ``BENCH_core.json`` next to this file
(machine-readable; uploaded as a CI artifact), seeding the repo's
benchmark trajectory for the core.

Run modes: small scale (the default, and what ``--quick`` forces: 40
chunks, CI smoke) or ``REPRO_BENCH_SCALE=paper`` (100 chunks — the
chunk-10 vs chunk-100 acceptance claim; this is the run whose
``BENCH_core.json`` is committed, so regenerate it at paper scale after
a default-scale run overwrites it).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core import IncrementalMrDMD, MrDMDConfig

from conftest import SCALE, scaled
from reference_level1 import DenseLevel1MrDMD

#: Where the machine-readable results land (committed + CI artifact).
RESULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_core.json")

N_FEATURES = 48
CHUNK = 48
#: Initial fit window; with max_cycles=4 the level-1 stride locks at 1, so
#: the subsampled grid grows 1:1 with the stream (the adversarial case —
#: larger fit windows only make the seed path look better by subsampling).
FIT_WINDOW = 32
N_CHUNKS = scaled(40, 100)
#: Rank is pinned (no SVHT) so the curves measure the asymptotics in T,
#: not the threshold's rank-selection noise on synthetic data.
CONFIG = MrDMDConfig(max_levels=3, max_cycles=4, use_svht=False, svd_rank=8)
#: Acceptance bound: late-chunk median within this factor of early-chunk.
FLAT_WITHIN = 2.0


def _stream(seed: int = 7) -> np.ndarray:
    """Multi-timescale sensor matrix long enough for the full sweep."""
    total = FIT_WINDOW + (N_CHUNKS + 1) * CHUNK
    t = np.arange(total) * 0.5
    gen = np.random.default_rng(seed)
    rows = [
        np.sin(0.02 * t + i) + 0.2 * np.sin(0.3 * t * (1 + 0.01 * i))
        for i in range(N_FEATURES)
    ]
    return np.vstack(rows) + 0.05 * gen.standard_normal((N_FEATURES, total))


#: BLAS thread-count variables, pinned to 1 in the measuring interpreter.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _chunk_cpu_seconds(data: np.ndarray, model_cls: type, n_chunks: int) -> list[float]:
    model = model_cls(dt=0.5, config=CONFIG)
    model.fit(data[:, :FIT_WINDOW])
    times = []
    position = FIT_WINDOW
    for _ in range(n_chunks):
        start = time.process_time()
        model.partial_fit(data[:, position : position + CHUNK])
        times.append(time.process_time() - start)
        position += CHUNK
    return times


def _per_chunk_seconds(data: np.ndarray, model_cls: type) -> list[float]:
    """Each chunk's ``partial_fit`` cost as process CPU time.

    Not wall clock: the gate compares chunk 10 with a late chunk, and on
    a shared runner a burst of contention in either window moved the
    wall-clock ratio (2.13x once) with no change in the work done.  The
    chunks run in a spawned interpreter whose BLAS has one thread, set
    before NumPy loads there: idle BLAS threads spin on a contended CPU
    and bill that spin to the process, which inflated one contended
    chunk's CPU time 20x in this harness.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            return pool.apply(_chunk_cpu_seconds, (data, model_cls, N_CHUNKS))
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _window_median(times: list[float], center: int, half: int = 2) -> float:
    lo = max(0, center - half)
    return float(np.median(times[lo : center + half + 1]))


def test_streaming_core_flat_ingest(benchmark):
    """Per-chunk ``partial_fit`` must be flat for the streaming path."""
    data = _stream()

    streaming = benchmark.pedantic(
        lambda: _per_chunk_seconds(data, IncrementalMrDMD),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    seed_like = _per_chunk_seconds(data, DenseLevel1MrDMD)

    early_at, late_at = 10, N_CHUNKS - 3
    report = {
        "experiment": "core_streaming_ingest",
        "scale": SCALE,
        "n_features": N_FEATURES,
        "chunk": CHUNK,
        "n_chunks": N_CHUNKS,
        "fit_window": FIT_WINDOW,
        "level1_stride": 1,
        "flat_within": FLAT_WITHIN,
        "early_chunk_index": early_at,
        "late_chunk_index": late_at,
        "variants": {},
    }
    for name, times in (
        ("projected_lazy", streaming),
        ("dense_eager_seed", seed_like),
    ):
        early = _window_median(times, early_at)
        late = _window_median(times, late_at)
        report["variants"][name] = {
            "per_chunk_seconds": [round(v, 6) for v in times],
            "early_median_seconds": early,
            "late_median_seconds": late,
            "growth_ratio": late / early,
        }
    streaming_ratio = report["variants"]["projected_lazy"]["growth_ratio"]
    seed_ratio = report["variants"]["dense_eager_seed"]["growth_ratio"]
    report["late_chunk_speedup"] = (
        report["variants"]["dense_eager_seed"]["late_median_seconds"]
        / report["variants"]["projected_lazy"]["late_median_seconds"]
    )
    seed_growth_bound = FLAT_WITHIN if SCALE == "paper" else 1.3 * streaming_ratio
    report["seed_growth_bound"] = seed_growth_bound
    report["passed"] = streaming_ratio < FLAT_WITHIN and seed_ratio > seed_growth_bound

    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    benchmark.extra_info.update(
        experiment="core_streaming_ingest",
        streaming_growth_ratio=streaming_ratio,
        seed_growth_ratio=seed_ratio,
        late_chunk_speedup=report["late_chunk_speedup"],
        result_path=RESULT_PATH,
    )

    # The acceptance criterion, asserted: flat streaming ingest...
    assert streaming_ratio < FLAT_WITHIN, (
        f"streaming per-chunk time grew {streaming_ratio:.2f}x from chunk "
        f"{early_at} to chunk {late_at} (bound {FLAT_WITHIN}x) — the ingest "
        f"path re-acquired an O(T) term"
    )
    # ...while the seed-equivalent path grows super-linearly in total cost
    # (its per-chunk cost keeps climbing with the chunk index).  At the
    # short quick sweep the absolute bound would sit too close to the
    # measured ratio for a noisy shared runner, so there the guard is
    # relative: the seed path must grow clearly faster than the flat one.
    assert seed_ratio > seed_growth_bound, (
        f"seed-equivalent path only grew {seed_ratio:.2f}x (bound "
        f"{seed_growth_bound:.2f}x) — benchmark is no longer exercising "
        f"the O(T) regime it documents"
    )
    # And the streaming path must actually win where it matters.
    assert report["late_chunk_speedup"] > 2.0


def test_streaming_and_seed_paths_agree(benchmark):
    """Sanity companion: the two timed variants compute the same model.

    Mode counts per level and reconstructions must agree closely (the
    projected path fits level-1 amplitudes over its contribution window
    rather than the whole timeline, so agreement is numerical, not
    bitwise).  Keeping this next to the timing assertion guards against
    "fast because wrong".
    """
    data = _stream(seed=13)
    horizon = FIT_WINDOW + 10 * CHUNK

    def build(model_cls):
        model = model_cls(dt=0.5, config=CONFIG)
        model.fit(data[:, :FIT_WINDOW])
        for lo in range(FIT_WINDOW, horizon, CHUNK):
            model.partial_fit(data[:, lo : lo + CHUNK])
        return model

    streaming = benchmark.pedantic(
        lambda: build(IncrementalMrDMD), rounds=1, iterations=1, warmup_rounds=0
    )
    seed_like = build(DenseLevel1MrDMD)

    assert len(streaming.tree) == len(seed_like.tree)
    assert streaming.tree.levels() == seed_like.tree.levels()
    reference = data[:, :horizon]
    err_streaming = np.linalg.norm(reference - streaming.reconstruct())
    err_seed = np.linalg.norm(reference - seed_like.reconstruct())
    scale = np.linalg.norm(reference)
    assert abs(err_streaming - err_seed) < 0.05 * scale
    benchmark.extra_info.update(
        experiment="core_streaming_agreement",
        err_streaming=float(err_streaming),
        err_seed=float(err_seed),
        reference_norm=float(scale),
    )
