"""Exact (SVD-projected) Dynamic Mode Decomposition.

This module implements the DMD variant described in Sec. III-A of the paper
(Eqs. 1-6), following Tu et al. (2014) / Brunton & Kutz (2019):

1. form the shifted snapshot matrices ``X = [x_1 ... x_{T-1}]`` and
   ``Y = [x_2 ... x_T]``;
2. compute a rank-``r`` SVD ``X = U S V'`` with ``r`` chosen by the optimal
   singular value hard threshold (:mod:`repro.core.svht`).  A tall window
   (``P > T - 1``, the deep mrDMD levels) takes the method of snapshots
   (Sirovich 1987) instead: one ``T x T`` Gram matrix ``D' D`` of the
   window, an ``eigh`` of its ``X' X`` block for ``V`` and ``S``, and
   never ``U``.  The Gram route squares the condition number, so a guard
   sends the window to the SVD when ``cond(X) > 1e4``
   (:data:`GRAM_EIG_RATIO`), or when a singular value, the SVHT threshold
   or a slow-mode cutoff sits inside the Gram route's error band; ranks
   and slow-mode counts then match the SVD's;
3. project the best-fit linear operator ``A = Y X^+`` onto the POD modes:
   ``Atilde = U' Y V S^{-1}`` (Gram route: ``C' (X' Y) C`` with
   ``C = V S^{-1}``, as ``U = X C``);
4. eigendecompose ``Atilde W = W Lambda``;
5. lift the eigenvectors back to the full space: ``Phi = Y V S^{-1} W``
   (exact DMD modes);
6. obtain continuous-time frequencies ``psi_i = log(lambda_i) / dt`` and
   amplitudes ``a`` by least squares against the first snapshot.

The decomposition object supports forecasting/reconstruction
(:meth:`DMDResult.reconstruct`), per-mode frequency and power queries used
by the mrDMD spectrum, and "slow mode" selection used by the
multiresolution recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .svht import SVHTResult, rank_decision, truncate_singular_triplets

__all__ = [
    "DMDResult",
    "GRAM_EIG_RATIO",
    "compute_dmd",
    "compute_dmd_projected",
    "slow_mode_mask",
]

#: Smallest ``lambda_min / lambda_max`` of ``X' X`` the Gram route accepts,
#: i.e. ``cond(X) <= 1e4``.  Forming ``X' X`` squares the condition number:
#: a singular value ``sigma`` comes out of the Gram route with an error of
#: about ``eps * sigma_max**2 / sigma``, so at this bound the smallest one
#: keeps ~8 correct digits.  Deep mrDMD windows of HPC telemetry measure
#: ``cond(X) <= 230``; a rank-deficient, constant or offset-dominated window
#: trips the bound and takes the SVD.
GRAM_EIG_RATIO = 1e-8

#: Safety factor on the Gram route's eigenvalue error bound
#: ``eps * (P + T) * ||X||_F**2`` (the rounding of the ``P``-term inner
#: products that form ``X' X`` plus the backward error of ``eigh``).
_GRAM_ERR = 4.0

#: Allowance for the eigenvector conditioning of ``Atilde`` (not computed:
#: it costs as much as the ``eig``) when the Gram route's relative error is
#: carried over to the eigenvalues that the slow-mode cutoff compares.
_CUTOFF_BAND = 1e3


@dataclass
class DMDResult:
    """Container for one DMD decomposition.

    Attributes
    ----------
    modes:
        Complex array of shape ``(P, r)``; column ``i`` is the exact DMD
        mode ``phi_i``.
    eigenvalues:
        Discrete-time eigenvalues ``lambda_i`` (shape ``(r,)``).
    amplitudes:
        Mode amplitudes ``a_i`` fitted against the first snapshot.
    dt:
        Sampling interval of the snapshots that produced the
        decomposition (seconds).
    n_snapshots:
        Number of snapshots ``T`` the decomposition covers.
    svd_rank:
        Rank retained after SVHT truncation.
    svht:
        Full record of the SVHT decision (threshold, aspect ratio, ...).
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    dt: float
    n_snapshots: int
    svd_rank: int
    svht: SVHTResult | None = None
    _omega_cache: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Derived spectral quantities
    # ------------------------------------------------------------------ #
    @property
    def n_modes(self) -> int:
        """Number of retained DMD modes."""
        return int(self.modes.shape[1])

    @property
    def n_features(self) -> int:
        """State dimension ``P`` (number of sensors)."""
        return int(self.modes.shape[0])

    @property
    def omega(self) -> np.ndarray:
        """Continuous-time eigenvalues ``psi_i = log(lambda_i) / dt``."""
        if self._omega_cache is None or self._omega_cache.shape != self.eigenvalues.shape:
            with np.errstate(divide="ignore", invalid="ignore"):
                self._omega_cache = np.log(self.eigenvalues.astype(complex)) / self.dt
        return self._omega_cache

    @property
    def frequencies(self) -> np.ndarray:
        """Oscillation frequency of each mode in Hz (Eq. 9): ``|Im psi_i| / 2 pi``."""
        return np.abs(self.omega.imag) / (2.0 * np.pi)

    @property
    def growth_rates(self) -> np.ndarray:
        """Real part of ``psi_i``: positive = growing, negative = decaying."""
        return self.omega.real

    @property
    def power(self) -> np.ndarray:
        """mrDMD mode power (Eq. 10): squared 2-norm of each mode column."""
        return np.sum(np.abs(self.modes) ** 2, axis=0)

    @property
    def amplitude_magnitudes(self) -> np.ndarray:
        """Magnitude of the fitted mode amplitudes ``|a_i|``."""
        return np.abs(self.amplitudes)

    # ------------------------------------------------------------------ #
    # Time dynamics / reconstruction
    # ------------------------------------------------------------------ #
    def time_dynamics(self, timesteps: np.ndarray | int) -> np.ndarray:
        """Return the ``(r, len(t))`` matrix ``diag(a) exp(Psi t)``.

        ``timesteps`` may be an integer count (interpreted as
        ``0, dt, 2 dt, ...``) or an explicit array of times in seconds
        relative to the start of the decomposition window.
        """
        if np.isscalar(timesteps):
            t = np.arange(int(timesteps)) * self.dt
        else:
            t = np.asarray(timesteps, dtype=float)
        # (r, T) dynamics; outer product in the exponent is vectorized.
        dynamics = np.exp(np.outer(self.omega, t))
        return self.amplitudes[:, None] * dynamics

    def reconstruct(self, timesteps: np.ndarray | int | None = None) -> np.ndarray:
        """Reconstruct (or forecast) the data matrix from the modes (Eq. 6).

        With no argument, reconstructs the original ``T`` snapshots.
        The result is real-valued (imaginary residue is discarded; for
        real input data it is numerically negligible because complex
        modes come in conjugate pairs).
        """
        if timesteps is None:
            timesteps = self.n_snapshots
        dynamics = self.time_dynamics(timesteps)
        return np.real(self.modes @ dynamics)

    def mode_subset(self, mask: np.ndarray) -> "DMDResult":
        """Return a new :class:`DMDResult` restricted to ``mask`` modes."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            idx = np.asarray(mask, dtype=int)
        else:
            idx = np.flatnonzero(mask)
        return DMDResult(
            modes=self.modes[:, idx],
            eigenvalues=self.eigenvalues[idx],
            amplitudes=self.amplitudes[idx],
            dt=self.dt,
            n_snapshots=self.n_snapshots,
            svd_rank=self.svd_rank,
            svht=self.svht,
        )


def _fit_window_amplitudes(
    modes: np.ndarray,
    eigenvalues: np.ndarray,
    data: np.ndarray,
    powers: np.ndarray | None = None,
) -> np.ndarray:
    """Least-squares mode amplitudes against every snapshot of the window.

    Solves ``min_a sum_t || Phi diag(lambda^t) a - x_t ||^2`` jointly over
    all ``t``.  With the reduced QR factorisation ``Phi = Q R`` (``Q`` has
    orthonormal columns) each term splits into ``|| R diag(lambda^t) a -
    Q^H x_t ||^2`` plus a part of ``x_t`` no ``a`` can reach, so the
    ``(P T) x r`` problem becomes the stacked ``(T r) x r`` system whose
    block ``t`` is ``R diag(lambda^t)``, solved against the columns of
    ``Q^H X``.  Same minimiser and minimum-norm solution, at ``O(P r (r +
    T) + T r^3)`` instead of ``O(P T r^2)``.  ``powers`` optionally gives
    the snapshot index of each data column (default ``0 .. T-1``); the
    streaming path uses this to fit against a trailing slice of a longer
    window without touching the rest of it.
    """
    if powers is None:
        powers = np.arange(data.shape[1])
    # Vandermonde of eigenvalues: (T, r)
    vander = eigenvalues[None, :] ** powers[:, None]
    q, rfac = np.linalg.qr(modes)
    # (T, k) rows of Q^H X, k = min(P, r); complex even when every mode is real
    target = np.asarray((q.conj().T @ data).T, dtype=complex).reshape(-1)
    # Block t of the stacked system is R diag(lambda^t): (T, k, r) -> (T k, r)
    system = (rfac[None, :, :] * vander[:, None, :]).reshape(-1, modes.shape[1])
    amplitudes, *_ = np.linalg.lstsq(system, target, rcond=None)
    return amplitudes


def _eig_from_projection(
    u_r: np.ndarray, s_r: np.ndarray, yv_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and exact DMD modes from the projected cross product.

    ``yv_r = Y V_r`` is the only quantity the operator projection needs
    from the right factor: ``Atilde = U^H (Y V S^{-1})`` and
    ``Phi = (Y V S^{-1}) W``.  Shared by the SVD route of
    :func:`compute_dmd` (which forms ``Y V`` densely) and
    :func:`compute_dmd_projected` (which receives it incrementally
    maintained), so both paths run the identical instruction sequence
    from here on.
    """
    yvs = yv_r / s_r[None, :]                 # (P, r), scaled columns
    atilde = u_r.conj().T @ yvs               # (r, r)
    eigenvalues, w = np.linalg.eig(atilde)
    # Exact DMD modes: Phi = Y V S^{-1} W
    modes = yvs @ w                           # (P, r)
    return eigenvalues, modes


def _empty_result(n_features: int, dt: float, n_snapshots: int) -> DMDResult:
    """A zero-mode decomposition (used when the data window is degenerate)."""
    return DMDResult(
        modes=np.zeros((n_features, 0), dtype=complex),
        eigenvalues=np.zeros(0, dtype=complex),
        amplitudes=np.zeros(0, dtype=complex),
        dt=dt,
        n_snapshots=n_snapshots,
        svd_rank=0,
        svht=None,
    )


def _positive(s: np.ndarray, x_shape: tuple[int, int]) -> np.ndarray:
    """Mask of the singular values above numerical zero, so ``1 / s``
    never overflows."""
    return s > max(s[0], 1.0) * np.finfo(float).eps * max(x_shape)


def _svd_route(
    data: np.ndarray,
    svd_factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    **rank_rule,
) -> tuple[np.ndarray, np.ndarray, SVHTResult] | None:
    """Eigenvalues, exact modes and rank decision through an SVD of ``X``
    (``svd_factors``, or a fresh ``np.linalg.svd``); ``None`` when no
    singular value survives."""
    x = data[:, :-1]
    y = data[:, 1:]
    if svd_factors is None:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
    else:
        u, s, vh = svd_factors
        u = np.asarray(u)
        s = np.asarray(s, dtype=float)
        vh = np.asarray(vh)
        if u.shape[0] != data.shape[0] or vh.shape[1] != data.shape[1] - 1:
            raise ValueError(
                "svd_factors shapes are inconsistent with data: "
                f"U {u.shape}, Vh {vh.shape}, data {data.shape}"
            )
    positive = _positive(s, x.shape) if s.size else s > 0
    u, s, vh = u[:, positive], s[positive], vh[positive, :]
    if s.size == 0:
        return None
    u_r, s_r, vh_r, decision = truncate_singular_triplets(u, s, vh, x.shape, **rank_rule)
    if s_r.size == 0:
        return None
    # Atilde = U' Y V S^{-1}  -- work entirely in the r-dimensional space.
    yv = y @ vh_r.conj().T                    # (P, r)
    eigenvalues, modes = _eig_from_projection(u_r, s_r, yv)
    return eigenvalues, modes, decision


def _gram_route(
    data: np.ndarray,
    cutoff: float | None,
    *,
    sigma: float | None,
    use_svht: bool,
    max_rank: int | None,
) -> tuple[np.ndarray, np.ndarray, SVHTResult] | None:
    """The method of snapshots for a tall real window; ``None`` when the
    guard sends the window to the SVD.

    ``G = D' D`` of the whole window holds both ``X' X`` (its leading
    block) and ``X' Y`` (the block shifted by one column).  ``eigh`` of
    ``X' X`` gives ``V`` and ``S**2``; with ``C = V_r S_r^{-1}``,
    ``Atilde = C' (X' Y) C`` and the exact modes are ``Y (C W)``.  The
    guard returns ``None`` when ``cond(X) > 1e4`` (:data:`GRAM_EIG_RATIO`)
    or when a singular value sits inside the error band of the numerical
    zero cut or of the SVHT threshold, so the rank equals the SVD route's;
    likewise when an eigenvalue's frequency sits inside the band of the
    slow-mode ``cutoff`` (an angle ``2 pi rho dt``, ``None`` for none).
    """
    n_features, n_cols = data.shape
    x_shape = (n_features, n_cols - 1)
    gram = data.T @ data
    lam, v = np.linalg.eigh(gram[:-1, :-1])
    lam, v = lam[::-1], v[:, ::-1]            # descending, like the SVD
    if not (lam[0] > 0.0 and lam[-1] >= GRAM_EIG_RATIO * lam[0]):
        return None                           # also catches NaN
    s = np.sqrt(lam)
    eps = np.finfo(float).eps
    err = _GRAM_ERR * eps * sum(x_shape) * lam.sum()
    band = err / s                            # error bound of each s_i
    # s - 2 band grows with s: the smallest value decides the zero cut.
    if s[-1] <= max(s[0], 1.0) * eps * max(x_shape) + 2.0 * band[-1]:
        return None
    decision = rank_decision(s, x_shape, sigma=sigma, use_svht=use_svht, max_rank=max_rank)
    if use_svht:
        # The threshold scales the median, whose error is at most the band
        # of the lower middle value.
        tau = decision.threshold
        tau_band = tau * err / lam[x_shape[1] // 2]
        if (np.abs(s - tau) <= 2.0 * band + tau_band).any():
            return None
    r = decision.rank
    c = v[:, :r] / s[:r]                      # (T-1, r) = V_r S_r^{-1}
    atilde = c.T @ gram[:-1, 1:] @ c          # (r, r)
    eigenvalues, w = np.linalg.eig(atilde)
    if cutoff is not None:
        rel = _CUTOFF_BAND * err / lam[-1]
        if (np.abs(np.abs(np.angle(eigenvalues)) - cutoff) <= rel * cutoff).any():
            return None
    modes = data[:, 1:] @ (c @ w)             # (P, r) = Y C W
    return eigenvalues, modes, decision


def _exact_dmd(
    data: np.ndarray,
    *,
    svd_rank: int | None,
    use_svht: bool,
    noise_sigma: float | None,
    amplitude_method: str,
    svd_factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    cutoff: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SVHTResult | None, bool]:
    """``(eigenvalues, modes, amplitudes, decision, svd_fallback)`` of the
    exact DMD of ``data``; zero modes (and no decision) for a degenerate
    window.

    The one factorisation step behind :func:`compute_dmd` and every mrDMD
    window: a tall real window without ``svd_factors`` takes the Gram
    route, and ``svd_fallback`` says its guard sent it to the SVD.
    ``cutoff`` is the slow-mode cutoff angle the guard protects (see
    :func:`_gram_route`).
    """
    if amplitude_method not in ("first", "window"):
        raise ValueError(
            f"amplitude_method must be 'first' or 'window', got {amplitude_method!r}"
        )
    n_features, n_snapshots = data.shape
    factored = None
    fallback = False
    if n_snapshots >= 2 and n_features:
        rank_rule = {"sigma": noise_sigma, "use_svht": use_svht, "max_rank": svd_rank}
        if (
            svd_factors is None
            and n_features > n_snapshots - 1
            and not np.iscomplexobj(data)
        ):
            factored = _gram_route(data, cutoff, **rank_rule)
            fallback = factored is None
        if factored is None:
            factored = _svd_route(data, svd_factors, **rank_rule)
    if factored is None:
        none = np.zeros(0, dtype=complex)
        return none, np.zeros((n_features, 0), dtype=complex), none, None, fallback
    eigenvalues, modes, decision = factored
    if amplitude_method == "first":
        # Amplitudes from the first snapshot: min ||Phi a - x_1||_2
        x1 = data[:, 0].astype(complex)
        amplitudes, *_ = np.linalg.lstsq(modes, x1, rcond=None)
    else:
        amplitudes = _fit_window_amplitudes(modes, eigenvalues, data)
    return eigenvalues, modes, amplitudes, decision, fallback


def compute_dmd(
    data: np.ndarray,
    dt: float = 1.0,
    *,
    svd_rank: int | None = None,
    use_svht: bool = True,
    noise_sigma: float | None = None,
    svd_factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    amplitude_method: str = "first",
) -> DMDResult:
    """Compute the exact DMD of a ``(P, T)`` snapshot matrix.

    Parameters
    ----------
    data:
        Real or complex array with sensors along rows and time along
        columns.  At least two snapshots are required; degenerate inputs
        return an empty (zero-mode) result rather than raising, because
        the mrDMD recursion routinely produces very short leaves.
    dt:
        Sampling interval in seconds.
    svd_rank:
        Optional hard cap on the retained rank (applied after SVHT).
    use_svht:
        Apply the Gavish--Donoho threshold (default).  When ``False`` the
        rank is ``svd_rank`` or full.
    noise_sigma:
        Known noise level forwarded to the SVHT rule.
    svd_factors:
        Optionally, a precomputed (possibly incrementally-updated)
        truncated SVD ``(U, s, Vh)`` of ``X = data[:, :-1]``, such as
        :meth:`~repro.core.isvd.IncrementalSVD.factors`, to avoid
        recomputing the SVD from scratch; the factors are still
        re-truncated with SVHT so both paths share the same rank rule.
        Without factors a tall real window (``P > T - 1``) takes the
        guarded Gram route (module docstring, step 2) and any other takes
        ``np.linalg.svd``.
    amplitude_method:
        How to fit the mode amplitudes ``a_i``: ``"first"`` (classic DMD,
        least squares against the first snapshot only — Eq. 6's
        ``a_i(0)``) or ``"window"`` (least squares against every snapshot
        of the window, markedly more robust when the first snapshot is
        unrepresentative; solved in the ``r``-dimensional mode space after
        one QR factorisation of the modes, at ``O(P r (r + T) + T r^3)``
        rather than the ``O(P T r^2)`` of the full ``(P T) x r`` system).
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (P, T), got shape {data.shape!r}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    eigenvalues, modes, amplitudes, decision, _ = _exact_dmd(
        data,
        svd_rank=svd_rank,
        use_svht=use_svht,
        noise_sigma=noise_sigma,
        amplitude_method=amplitude_method,
        svd_factors=svd_factors,
    )
    return DMDResult(
        modes=modes,
        eigenvalues=eigenvalues,
        amplitudes=amplitudes,
        dt=dt,
        n_snapshots=data.shape[1],
        svd_rank=modes.shape[1],
        svht=decision if use_svht else None,
    )


def compute_dmd_projected(
    u: np.ndarray,
    s: np.ndarray,
    yv: np.ndarray,
    *,
    dt: float,
    n_snapshots: int,
    svd_rank: int | None = None,
    use_svht: bool = True,
    noise_sigma: float | None = None,
    amplitude_data: np.ndarray,
    amplitude_powers: np.ndarray | None = None,
) -> DMDResult:
    """Exact DMD from streaming-maintained projected factors — no ``Vh``.

    This is the flat-cost sibling of :func:`compute_dmd` for the
    incremental path: everything the operator projection needs from the
    ``(q, T)`` right factor is the ``(P, q)`` cross product
    ``yv = Y Vh^H`` (``X = data[:, :-1]``, ``Y = data[:, 1:]``), which
    :class:`~repro.core.imrdmd.IncrementalMrDMD` maintains incrementally
    from :attr:`IncrementalSVD.last_update_ops` in ``O(P q (q + c))`` per
    chunk.  Rank selection (zero-singular-value guard + SVHT), operator
    projection, eigendecomposition and mode lifting follow the exact same
    steps as :func:`compute_dmd` (the assembly is shared code); only the
    amplitude fit differs structurally: it is solved over the
    ``amplitude_data`` columns (typically the freshly appended chunk —
    the only range an incremental level-1 node contributes to
    reconstructions), whose absolute snapshot indices are given by
    ``amplitude_powers``.

    Parameters
    ----------
    u, s:
        Current left factors / singular values of ``X`` (from
        :class:`~repro.core.isvd.IncrementalSVD`).
    yv:
        The ``(P, q)`` cross product ``Y @ Vh^H`` for the *full* current
        right factor.
    dt:
        Sampling interval of the (possibly subsampled) snapshots.
    n_snapshots:
        Number of snapshots ``T`` the decomposition covers (``X`` has
        ``T - 1`` columns).
    svd_rank, use_svht, noise_sigma:
        Rank-selection knobs, as in :func:`compute_dmd`.
    amplitude_data:
        ``(P, k)`` columns the mode amplitudes are least-squares fitted
        against (``k >= 1``).
    amplitude_powers:
        Snapshot index of each ``amplitude_data`` column (default
        ``0 .. k-1``).
    """
    u = np.asarray(u)
    s = np.asarray(s, dtype=float)
    yv = np.asarray(yv)
    amplitude_data = np.asarray(amplitude_data)
    n_features = u.shape[0]
    x_shape = (n_features, n_snapshots - 1)
    if n_snapshots < 2 or n_features == 0 or s.size == 0:
        return _empty_result(n_features, dt, n_snapshots)
    if yv.shape != (n_features, s.size):
        raise ValueError(
            f"yv shape {yv.shape} inconsistent with factors "
            f"({n_features}, {s.size})"
        )

    # Same zero-singular-value guard as compute_dmd; dropping row i of Vh
    # drops column i of Y Vh^H.
    positive = _positive(s, x_shape)
    u, s, yv = u[:, positive], s[positive], yv[:, positive]
    if s.size == 0:
        return _empty_result(n_features, dt, n_snapshots)

    decision = rank_decision(
        s, x_shape, sigma=noise_sigma, use_svht=use_svht, max_rank=svd_rank
    )
    r = decision.rank
    if r == 0:
        return _empty_result(n_features, dt, n_snapshots)

    eigenvalues, modes = _eig_from_projection(u[:, :r], s[:r], yv[:, :r])
    amplitudes = _fit_window_amplitudes(
        modes, eigenvalues, amplitude_data, powers=amplitude_powers
    )

    return DMDResult(
        modes=modes,
        eigenvalues=eigenvalues,
        amplitudes=amplitudes,
        dt=dt,
        n_snapshots=n_snapshots,
        svd_rank=r,
        svht=decision if use_svht else None,
    )


def slow_mode_mask(result: DMDResult, rho: float) -> np.ndarray:
    """Boolean mask of "slow" modes used by the mrDMD recursion.

    A mode is slow when its oscillation rate ``|Im(log lambda)| / (2 pi dt)``
    expressed in *cycles per snapshot window* is at most ``rho`` cycles.
    Following Kutz, Fu & Brunton (2016), ``rho`` is the ``max_cycles``
    parameter divided by the window length in seconds; callers typically
    pass ``max_cycles / (T * dt)`` converted to Hz.  Here ``rho`` is given
    directly in Hz to keep the core numerics unit-explicit.
    """
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho!r}")
    return result.frequencies <= rho
