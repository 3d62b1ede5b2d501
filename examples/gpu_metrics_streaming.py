"""Streaming GPU-metrics analysis on a Polaris-like machine (Sec. IV).

The paper's second performance scenario monitors GPU temperatures from the
560-node Polaris system (four A100s per node, ~3-second cadence), comparing
a full mrDMD recomputation against the incremental update when new time
points arrive.  This example reproduces the protocol at configurable scale:

* generate GPU temperature telemetry chunk by chunk (bounded memory) with a
  :class:`~repro.telemetry.streaming.ChunkedSource`;
* time the initial I-mrDMD fit, each incremental update, and the equivalent
  full recomputation;
* report the speed-up and the accuracy gap between the two (Q2).

Run with ``python examples/gpu_metrics_streaming.py [n_gpilot_rows]``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core import IncrementalMrDMD, MrDMDConfig, compute_mrdmd
from repro.telemetry import ChunkedSource, TelemetryGenerator, polaris_machine
from repro.util import TimingTable


def main(n_rows: int = 400, initial_steps: int = 1_200, chunk_steps: int = 400, n_chunks: int = 3) -> None:
    machine = polaris_machine(node_limit=max(1, n_rows // 4))
    generator = TelemetryGenerator(machine, seed=17, utilization_target=0.6)
    source = ChunkedSource(generator, sensors=["gpu0_temp", "gpu1_temp", "gpu2_temp", "gpu3_temp"])

    config = MrDMDConfig(max_levels=7)
    model = IncrementalMrDMD(dt=machine.dt_seconds, config=config, retain_data="all")

    initial = source.next_chunk(initial_steps).values[:n_rows]
    t0 = time.perf_counter()
    model.fit(initial)
    fit_seconds = time.perf_counter() - t0
    print(f"GPU metrics: {initial.shape[0]} series, initial fit on {initial_steps} steps "
          f"took {fit_seconds:.2f}s ({model.tree.total_modes} modes)")

    table = TimingTable(columns=["chunk", "T_total", "partial_fit_s", "full_recompute_s", "speedup"])
    history = [initial]
    for chunk_idx in range(n_chunks):
        chunk = source.next_chunk(chunk_steps).values[:n_rows]
        history.append(chunk)
        t0 = time.perf_counter()
        model.partial_fit(chunk)
        partial_seconds = time.perf_counter() - t0

        full_data = np.hstack(history)
        t0 = time.perf_counter()
        compute_mrdmd(full_data, machine.dt_seconds, config)
        full_seconds = time.perf_counter() - t0
        table.add_row(
            chunk_idx + 1,
            full_data.shape[1],
            partial_seconds,
            full_seconds,
            full_seconds / max(partial_seconds, 1e-9),
        )

    print(table.render())
    full_data = np.hstack(history)
    gap = model.incremental_vs_batch_gap(full_data)
    err = model.reconstruction_error(full_data)
    print(f"Q2 accuracy: incremental reconstruction error {err:.1f}, "
          f"|incremental - batch| gap {gap:.2f} "
          "(the paper reports gaps of 10-5000 depending on dynamics and update counts)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
