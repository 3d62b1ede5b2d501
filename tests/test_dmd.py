"""Unit tests for exact DMD (repro.core.dmd)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dmd import DMDResult, _fit_window_amplitudes, compute_dmd, slow_mode_mask

from helpers import make_multiscale_signal
from reference_dmd import reference_window_amplitudes, window_residual_norm


def linear_system_data(n_steps: int = 200, dt: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Snapshots of a known 2x2 linear system (damped oscillator)."""
    theta = 0.3
    decay = 0.98
    a = decay * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    x = np.zeros((2, n_steps))
    x[:, 0] = [1.0, 0.5]
    for t in range(1, n_steps):
        x[:, t] = a @ x[:, t - 1]
    return x, a


class TestComputeDMDBasics:
    def test_recovers_linear_operator_eigenvalues(self):
        data, a = linear_system_data()
        result = compute_dmd(data, dt=0.1, use_svht=False, svd_rank=2)
        expected = np.sort_complex(np.linalg.eigvals(a))
        got = np.sort_complex(result.eigenvalues)
        assert np.allclose(got, expected, atol=1e-6)

    def test_recovers_injected_frequencies(self):
        data, dt = make_multiscale_signal(n_sensors=12, n_timesteps=800)
        result = compute_dmd(data, dt)
        freqs = np.unique(np.round(result.frequencies, 3))
        assert any(abs(f - 0.05) < 0.01 for f in freqs)
        assert any(abs(f - 0.5) < 0.02 for f in freqs)

    def test_reconstruction_error_small_for_clean_signal(self):
        # A whisper of noise keeps the SVHT's median-based noise estimate
        # meaningful (it is designed for noisy data).
        data, dt = make_multiscale_signal(noise=0.01, n_sensors=10, n_timesteps=600)
        result = compute_dmd(data, dt, amplitude_method="window")
        recon = result.reconstruct()
        rel = np.linalg.norm(data - recon) / np.linalg.norm(data)
        assert rel < 0.01

    def test_noiseless_data_with_explicit_rank_reconstructs_exactly(self):
        data, dt = make_multiscale_signal(noise=0.0, n_sensors=10, n_timesteps=600)
        result = compute_dmd(data, dt, use_svht=False, svd_rank=6, amplitude_method="window")
        recon = result.reconstruct()
        rel = np.linalg.norm(data - recon) / np.linalg.norm(data)
        assert rel < 1e-6

    def test_window_amplitudes_beat_first_snapshot_on_noisy_start(self):
        data, dt = make_multiscale_signal(noise=0.5, seed=11)
        first = compute_dmd(data, dt, amplitude_method="first")
        window = compute_dmd(data, dt, amplitude_method="window")
        err_first = np.linalg.norm(data - first.reconstruct())
        err_window = np.linalg.norm(data - window.reconstruct())
        assert err_window <= err_first * 1.05  # window fit never much worse

    def test_modes_shape_matches_rank(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        assert result.modes.shape == (data.shape[0], result.svd_rank)
        assert result.eigenvalues.shape == (result.svd_rank,)
        assert result.amplitudes.shape == (result.svd_rank,)

    def test_svd_rank_cap(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt, svd_rank=2)
        assert result.n_modes <= 2

    def test_power_is_squared_mode_norm(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        expected = np.sum(np.abs(result.modes) ** 2, axis=0)
        assert np.allclose(result.power, expected)

    def test_frequencies_nonnegative(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        assert np.all(result.frequencies >= 0)


class TestDegenerateInputs:
    def test_single_snapshot_gives_empty_result(self):
        result = compute_dmd(np.ones((4, 1)), dt=1.0)
        assert result.n_modes == 0
        assert result.reconstruct(3).shape == (4, 3)

    def test_zero_matrix_gives_empty_result(self):
        result = compute_dmd(np.zeros((4, 20)), dt=1.0)
        assert result.n_modes == 0

    def test_empty_feature_dimension(self):
        result = compute_dmd(np.zeros((0, 10)), dt=1.0)
        assert result.n_modes == 0

    def test_1d_input_rejected(self):
        with pytest.raises(ValueError):
            compute_dmd(np.ones(10), dt=1.0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            compute_dmd(np.ones((2, 10)), dt=0.0)

    def test_bad_amplitude_method_rejected(self):
        with pytest.raises(ValueError):
            compute_dmd(np.random.default_rng(0).standard_normal((3, 20)), dt=1.0,
                        amplitude_method="nope")


class TestSVDFactors:
    def test_precomputed_factors_match_direct_computation(self):
        data, dt = make_multiscale_signal(n_sensors=8, n_timesteps=300)
        x = data[:, :-1]
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        direct = compute_dmd(data, dt)
        via_factors = compute_dmd(data, dt, svd_factors=(u, s, vh))
        assert np.allclose(
            np.sort_complex(direct.eigenvalues), np.sort_complex(via_factors.eigenvalues),
            atol=1e-8,
        )

    def test_inconsistent_factor_shapes_rejected(self):
        data, dt = make_multiscale_signal(n_sensors=8, n_timesteps=100)
        u, s, vh = np.linalg.svd(data[:, :50], full_matrices=False)
        with pytest.raises(ValueError):
            compute_dmd(data, dt, svd_factors=(u, s, vh))


class TestTimeDynamicsAndSubsets:
    def test_time_dynamics_shape(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        dyn = result.time_dynamics(50)
        assert dyn.shape == (result.n_modes, 50)

    def test_time_dynamics_explicit_times(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        times = np.array([0.0, dt, 5 * dt])
        dyn = result.time_dynamics(times)
        assert dyn.shape == (result.n_modes, 3)

    def test_forecast_longer_than_training(self):
        data, dt = make_multiscale_signal(noise=0.0)
        result = compute_dmd(data, dt, amplitude_method="window")
        forecast = result.reconstruct(data.shape[1] + 100)
        assert forecast.shape == (data.shape[0], data.shape[1] + 100)
        assert np.all(np.isfinite(forecast))

    def test_mode_subset_bool_mask(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        mask = np.zeros(result.n_modes, dtype=bool)
        mask[:1] = True
        subset = result.mode_subset(mask)
        assert subset.n_modes == 1
        assert subset.n_features == result.n_features

    def test_mode_subset_index_array(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        subset = result.mode_subset(np.array([0]))
        assert subset.n_modes == 1


class TestSlowModeMask:
    def test_slow_mask_selects_low_frequencies(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        mask = slow_mode_mask(result, rho=0.1)
        assert np.all(result.frequencies[mask] <= 0.1)
        assert np.all(result.frequencies[~mask] > 0.1)

    def test_rho_zero_keeps_only_nonoscillating(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        mask = slow_mode_mask(result, rho=0.0)
        assert np.all(result.frequencies[mask] == 0.0)

    def test_negative_rho_rejected(self):
        data, dt = make_multiscale_signal()
        result = compute_dmd(data, dt)
        with pytest.raises(ValueError):
            slow_mode_mask(result, rho=-1.0)


def _window_case(n_features, n_snapshots, rank, *, seed, offset=0, dtype=float):
    """Modes, near-unit eigenvalues, powers and noisy real data of one window."""
    rng = np.random.default_rng(seed)
    modes = rng.standard_normal((n_features, rank)) + 1j * rng.standard_normal(
        (n_features, rank)
    )
    eigenvalues = np.exp(rng.uniform(-2e-3, 1e-4, rank) + 1j * rng.uniform(-1, 1, rank))
    powers = offset + np.arange(n_snapshots)
    truth = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    clean = modes @ (truth[:, None] * eigenvalues[:, None] ** powers[None, :])
    data = clean.real + 0.1 * rng.standard_normal(clean.shape)
    return modes, eigenvalues, powers, data.astype(dtype)


class TestWindowAmplitudesMatchFullSpaceOracle:
    """The QR-reduced amplitude fit solves the oracle's least squares."""

    @staticmethod
    def _assert_matches(modes, eigenvalues, data, powers):
        got = _fit_window_amplitudes(modes, eigenvalues, data, powers=powers)
        want = reference_window_amplitudes(modes, eigenvalues, data, powers=powers)
        assert got.dtype == want.dtype == np.complex128
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        res_got = window_residual_norm(modes, eigenvalues, data, got, powers)
        res_want = window_residual_norm(modes, eigenvalues, data, want, powers)
        assert abs(res_got - res_want) <= 1e-12 * res_want

    @pytest.mark.parametrize("rank", [1, 4, 7])
    @pytest.mark.parametrize("n_snapshots", [1, 8, 25])
    @pytest.mark.parametrize("n_features", [64, 192])
    def test_shapes(self, n_features, n_snapshots, rank):
        modes, eigenvalues, powers, data = _window_case(
            n_features, n_snapshots, rank, seed=n_features * 100 + n_snapshots * 10 + rank
        )
        self._assert_matches(modes, eigenvalues, data, powers)

    def test_duplicated_mode_gives_the_same_minimum_norm_answer(self):
        modes, eigenvalues, powers, data = _window_case(128, 16, 4, seed=5)
        modes = np.concatenate([modes, modes[:, 1:2]], axis=1)
        eigenvalues = np.concatenate([eigenvalues, eigenvalues[1:2]])
        self._assert_matches(modes, eigenvalues, data, powers)
        got = _fit_window_amplitudes(modes, eigenvalues, data, powers=powers)
        assert abs(got[1] - got[4]) <= 1e-12 * abs(got[1])

    def test_float32_data(self):
        modes, eigenvalues, powers, data = _window_case(96, 12, 5, seed=7, dtype=np.float32)
        self._assert_matches(modes, eigenvalues, data, powers)

    def test_late_absolute_powers(self):
        modes, eigenvalues, powers, data = _window_case(128, 10, 6, seed=11, offset=3000)
        self._assert_matches(modes, eigenvalues, data, powers)

    def test_real_modes_still_give_complex_amplitudes(self):
        data, _ = linear_system_data(n_steps=40)
        modes, eigenvalues, powers, _ = _window_case(2, 40, 2, seed=13)
        self._assert_matches(modes.real, eigenvalues.real, data, powers)

    def test_compute_dmd_window_path_uses_the_reduced_fit(self):
        data, dt = make_multiscale_signal(n_sensors=64, n_timesteps=25)
        result = compute_dmd(data, dt, amplitude_method="window")
        want = reference_window_amplitudes(result.modes, result.eigenvalues, data)
        assert np.linalg.norm(result.amplitudes - want) <= 1e-12 * np.linalg.norm(want)
