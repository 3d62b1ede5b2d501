"""Plain-function helpers shared by test modules.

Lives outside ``conftest.py`` so tests can import it by a unique module
name: ``from conftest import ...`` breaks whenever another rootdir
directory (``benchmarks/``) also exposes a top-level ``conftest`` module.
"""

from __future__ import annotations

import numpy as np


def make_multiscale_signal(
    n_sensors: int = 16,
    n_timesteps: int = 1024,
    dt: float = 0.05,
    *,
    slow_hz: float = 0.05,
    fast_hz: float = 0.5,
    noise: float = 0.2,
    offset: float = 50.0,
    seed: int = 7,
) -> tuple[np.ndarray, float]:
    """Matrix with two known oscillation frequencies plus noise.

    Every sensor sees both oscillations with its own phase, so the data has
    spatial rank ~5 and both frequencies are recoverable by DMD.
    """
    gen = np.random.default_rng(seed)
    t = np.arange(n_timesteps) * dt
    phases = gen.uniform(0, 2 * np.pi, n_sensors)
    data = (
        offset
        + 5.0 * np.sin(2 * np.pi * slow_hz * t[None, :] + phases[:, None])
        + 2.0 * np.sin(2 * np.pi * fast_hz * t[None, :] + 2 * phases[:, None])
        + noise * gen.standard_normal((n_sensors, n_timesteps))
    )
    return data, dt


def shard_reprs(monitor) -> dict[str, str]:
    """Every shard's full pipeline state as a string, keyed by shard id —
    equal exactly when two monitors' states are bit-for-bit equal."""
    return {
        spec.shard_id: repr(monitor.shard_state_dict(spec.shard_id))
        for spec in monitor.shards
    }
