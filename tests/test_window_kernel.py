"""The lean mrDMD window kernel against the SVD-route oracle.

Every deep-level window runs :func:`repro.core.mrdmd.decompose_window`'s
kernel: the method of snapshots (a Gram ``eigh``) for a tall window, behind
a conditioning guard that falls back to ``np.linalg.svd``.  The SVD route
it replaced lives on as ``tests/reference_dmd.py``.  Gram and SVD bases
differ by column signs and mode order, so a window the Gram route takes is
compared through phase- and order-invariant products (ranks, slow-mode
counts, metadata, reconstruction, sorted eigenvalues, powers and |a|) to
:data:`RTOL`; a window the guard sends to the SVD must equal the oracle bit
for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_dmd import reference_compute_mrdmd, reference_decompose_window
from repro.core import MrDMDConfig
from repro.core.dmd import GRAM_EIG_RATIO, compute_dmd
from repro.core.imrdmd import IncrementalMrDMD
from repro.core.mrdmd import compute_mrdmd, decompose_window, grow_mrdmd
from repro.core.svht import omega_approx, svht_threshold
from repro.core.tree import MrDMDTree
from repro.obs import OBS
from repro.pipeline import PipelineConfig
from repro.service import FleetMonitor
from repro.service.sharding import SingleShard
from repro.telemetry import TelemetryGenerator, theta_machine

#: Relative tolerance of Gram-route products against the SVD route.
RTOL = 1e-10

#: The ``alert-stream`` chunk's levels-2..4 recursion (``max_levels=4``
#: minus the level-1 node): windows of 100, 50 and 25 snapshots.
CHUNK_CONFIG = MrDMDConfig(max_levels=3)


@pytest.fixture(autouse=True)
def pristine_provider():
    OBS.reset()
    yield
    OBS.reset()


def _fallbacks(data: np.ndarray, dt: float, config: MrDMDConfig) -> int:
    """SVD fallbacks of the recursion over ``data``."""
    return grow_mrdmd(MrDMDTree(dt=dt, n_features=data.shape[0]), data, dt, config)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(b), np.finfo(float).tiny)
    return float(np.linalg.norm(a - b) / scale)


def _assert_node_close(node, ref) -> None:
    """Same window, rank and slow-mode count; products within RTOL."""
    for name in ("level", "bin_index", "start", "n_snapshots", "step", "rho", "dt"):
        assert getattr(node, name) == getattr(ref, name), name
    assert node.svd_rank == ref.svd_rank
    assert node.n_modes == ref.n_modes
    np.testing.assert_allclose(
        np.sort_complex(node.eigenvalues), np.sort_complex(ref.eigenvalues),
        rtol=RTOL, atol=0,
    )
    np.testing.assert_allclose(np.sort(node.power), np.sort(ref.power), rtol=RTOL)
    np.testing.assert_allclose(
        np.sort(np.abs(node.amplitudes)), np.sort(np.abs(ref.amplitudes)), rtol=RTOL
    )


def _assert_node_equal(node, ref) -> None:
    """Bit-for-bit node equality."""
    for name in ("level", "bin_index", "start", "n_snapshots", "step", "rho", "dt",
                 "svd_rank"):
        assert getattr(node, name) == getattr(ref, name), name
    for name in ("modes", "eigenvalues", "amplitudes"):
        np.testing.assert_array_equal(getattr(node, name), getattr(ref, name))


# --------------------------------------------------------------------------- #
# SVHT median
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("size", range(1, 41))
def test_svht_threshold_equals_the_np_median_form(size):
    rng = np.random.default_rng(size)
    shape = (3 * size + 7, size)
    beta = min(shape) / max(shape)
    cases = [
        np.sort(rng.random(size))[::-1],
        np.sort(np.round(rng.random(size), 1))[::-1],       # ties
        np.full(size, 0.25),                               # all tied
        rng.random(size),                                  # unsorted
    ]
    for s in cases:
        expected = float(omega_approx(beta) * np.median(s))
        assert svht_threshold(s, shape) == expected


def test_svht_threshold_keeps_np_median_nan():
    assert np.isnan(svht_threshold(np.array([3.0, np.nan, 1.0]), (10, 3)))


# --------------------------------------------------------------------------- #
# Gram route on well-conditioned windows
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def alert_stream_residuals():
    """Level-1 residuals of one 100-column chunk on the 192- and 64-row rack
    shards of an ``alert-stream``-shaped machine."""
    machine = theta_machine(racks_per_row=2, node_limit=256)
    stream = TelemetryGenerator(machine, seed=3, utilization_target=0.3).generate(
        300, sensors=["cpu_temp"]
    )
    racks = np.array([machine.rack_of_node(n) for n in stream.node_indices])
    residuals = {}
    for rack in (0, 1):
        rows = stream.values[racks == rack]
        model = IncrementalMrDMD(
            dt=stream.dt, config=MrDMDConfig(max_levels=4), deep_levels="deferred"
        )
        model.fit(rows[:, :200])
        model.partial_fit(rows[:, 200:300])
        residuals[rows.shape[0]] = (model._deep_pending[0]["residual"], stream.dt)
    assert sorted(residuals) == [64, 192]
    return residuals


@pytest.mark.parametrize("n_rows", [64, 192])
def test_alert_stream_windows_match_the_svd_route(alert_stream_residuals, n_rows):
    residual, dt = alert_stream_residuals[n_rows]
    tree = compute_mrdmd(residual, dt, CHUNK_CONFIG)
    ref = reference_compute_mrdmd(residual, dt, CHUNK_CONFIG)
    # Subsampled windows of 17 (100 and 50 columns) and 25 (25 columns)
    # snapshots, all on the Gram route.
    assert sorted({-(-n.n_snapshots // n.step) for n in tree}) == [17, 25]
    assert _fallbacks(residual, dt, CHUNK_CONFIG) == 0
    assert len(tree) == len(ref) == 7
    for node, ref_node in zip(tree, ref):
        _assert_node_close(node, ref_node)
    assert _rel(tree.reconstruct(), ref.reconstruct()) <= RTOL


def _separated_window(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    """A tall window of a few damped oscillations with separated
    frequencies, plus noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_cols)
    freqs = np.array([0.0, 0.02, 0.09, 0.21]) + rng.uniform(0, 0.005, 4)
    signal = np.zeros((n_rows, n_cols))
    for f in freqs:
        shape = rng.standard_normal((n_rows, 2))
        signal += np.outer(shape[:, 0], np.cos(2 * np.pi * f * t))
        signal += np.outer(shape[:, 1], np.sin(2 * np.pi * f * t)) * 0.5
    return signal + 0.05 * rng.standard_normal((n_rows, n_cols))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(("n_rows", "n_cols"), [(64, 16), (192, 25), (120, 100)])
def test_random_tall_windows_match_the_svd_route(seed, n_rows, n_cols):
    data = _separated_window(seed, n_rows, n_cols)
    config = MrDMDConfig(max_levels=1)
    assert _fallbacks(data, 1.0, config) == 0
    node, recon = decompose_window(data, 1.0, config, level=2, bin_index=3, start=40)
    ref, ref_recon = reference_decompose_window(
        data, 1.0, config, level=2, bin_index=3, start=40
    )
    _assert_node_close(node, ref)
    assert _rel(recon, ref_recon) <= RTOL


def test_compute_dmd_takes_the_same_route():
    data = _separated_window(11, 96, 20)
    result = compute_dmd(data, 0.5, amplitude_method="window")
    node, _ = decompose_window(
        data, 0.5, MrDMDConfig(max_levels=1, max_cycles=50), level=1,
        bin_index=0, start=0,
    )
    # One factorisation step: the same modes, whichever entry point.
    np.testing.assert_array_equal(
        np.sort_complex(result.eigenvalues), np.sort_complex(node.eigenvalues)
    )


# --------------------------------------------------------------------------- #
# Guard-tripping windows fall back to the SVD, bit for bit
# --------------------------------------------------------------------------- #
def _with_singular_values(rng, n_rows: int, s: np.ndarray) -> np.ndarray:
    """A window whose ``X`` has exactly the singular values ``s``."""
    n = s.size
    u, _ = np.linalg.qr(rng.standard_normal((n_rows, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    x = (u * s) @ v.T
    return np.column_stack([x, x @ rng.standard_normal(n) / np.sqrt(n)])


def _planted_on_threshold(rng) -> np.ndarray:
    s = np.linspace(2.0, 1.0, 15)
    tau = svht_threshold(s, (64, 15))
    s[1] = tau                     # above the median: the median is unchanged
    s = np.sort(s)[::-1]
    assert svht_threshold(s, (64, 15)) == tau
    return _with_singular_values(rng, 64, s)


def _guard_cases():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((4, 16))
    duplicated = np.repeat(base, 24, axis=0)                           # rank 4
    rank_deficient = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 16))
    constant = np.repeat(rng.standard_normal((96, 1)), 16, axis=1)
    offset = 1e6 + rng.standard_normal((64, 16))
    ill = _with_singular_values(rng, 64, np.logspace(0, -5, 15))         # cond 1e5
    return {
        "all-zero": np.zeros((64, 16)),
        "duplicated-rows": duplicated,
        "rank-deficient": rank_deficient,
        "constant-rows": constant,
        "offset-1e6": offset,
        "cond-1e5": ill,
        "on-threshold": _planted_on_threshold(rng),
    }


GUARD_CASES = _guard_cases()


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_guard_falls_back_to_the_svd_bit_for_bit(case):
    data = GUARD_CASES[case]
    config = MrDMDConfig(max_levels=1)
    assert _fallbacks(data, 1.0, config) == 1
    node, recon = decompose_window(data, 1.0, config, level=1, bin_index=0, start=0)
    ref, ref_recon = reference_decompose_window(
        data, 1.0, config, level=1, bin_index=0, start=0
    )
    _assert_node_equal(node, ref)
    np.testing.assert_array_equal(recon, ref_recon)


def test_cond_guard_sits_at_1e4():
    assert GRAM_EIG_RATIO == 1e-8
    rng = np.random.default_rng(3)
    config = MrDMDConfig(max_levels=1, use_svht=False)
    below = _with_singular_values(rng, 64, np.logspace(0, -3.9, 15))
    above = _with_singular_values(rng, 64, np.logspace(0, -4.1, 15))
    assert _fallbacks(below, 1.0, config) == 0
    assert _fallbacks(above, 1.0, config) == 1


def test_guard_tripping_recursion_equals_the_oracle():
    rng = np.random.default_rng(5)
    data = np.repeat(rng.standard_normal((3, 100)), 30, axis=0)
    tree = compute_mrdmd(data, 1.0, CHUNK_CONFIG)
    ref = reference_compute_mrdmd(data, 1.0, CHUNK_CONFIG)
    assert _fallbacks(data, 1.0, CHUNK_CONFIG) == 7
    assert len(tree) == len(ref)
    for node, ref_node in zip(tree, ref):
        _assert_node_equal(node, ref_node)


# --------------------------------------------------------------------------- #
# Fallbacks are visible
# --------------------------------------------------------------------------- #
def _model_with_guard_tripping_chunk(**kwargs):
    rng = np.random.default_rng(2)
    model = IncrementalMrDMD(dt=1.0, config=MrDMDConfig(max_levels=4), **kwargs)
    model.fit(rng.standard_normal((48, 200)))
    # Every row the same series: each chunk window has rank <= 1 + the
    # level-1 slow rank, far below its 16-24 columns.
    chunk = np.repeat(rng.standard_normal((1, 100)), 48, axis=0)
    return model, chunk


@pytest.mark.parametrize("deep_levels", ["inline", "deferred"])
def test_guard_tripping_chunk_counts_its_fallbacks(deep_levels):
    OBS.enable()
    model, chunk = _model_with_guard_tripping_chunk(deep_levels=deep_levels)
    model.partial_fit(chunk)
    if deep_levels == "deferred":
        model.refresh_deep_levels()
    name = "core.chunk_mrdmd" if deep_levels == "inline" else "core.deep_refresh"
    (event,) = [e for e in OBS.ring.events if e["name"] == name]
    assert event["attrs"]["windows"] == event["attrs"]["new_nodes"] == 7
    assert event["attrs"]["svd_fallbacks"] == model.svd_fallbacks > 0
    counter = OBS.metrics.counter("core.numerics.svd_fallbacks")
    assert counter.value == model.svd_fallbacks


def test_svd_fallbacks_reach_fleet_health():
    rng = np.random.default_rng(2)
    n_rows = 48
    monitor = FleetMonitor(
        dt=1.0,
        config=PipelineConfig(mrdmd=MrDMDConfig(max_levels=4)),
        shards=SingleShard().partition(
            np.array([f"s{i}" for i in range(n_rows)], dtype=object),
            np.arange(n_rows),
        ),
    )
    monitor.ingest(rng.standard_normal((n_rows, 200)))
    assert monitor.health["all"].svd_fallbacks == 0
    snapshot = monitor.ingest(np.repeat(rng.standard_normal((1, 100)), n_rows, axis=0))
    fallbacks = snapshot.shard_snapshots["all"].svd_fallbacks
    assert fallbacks > 0
    assert monitor.health["all"].svd_fallbacks == fallbacks
    assert monitor.health["fleet"].svd_fallbacks == fallbacks
    assert monitor.health["fleet"].to_dict()["svd_fallbacks"] == fallbacks
    # Counted, not scored: a fallback gives the right answer.
    assert monitor.health["all"].score == 1.0
    monitor.close()
