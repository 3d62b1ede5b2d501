"""Optimal singular value hard thresholding (SVHT).

Implements the Gavish--Donoho optimal hard threshold for singular values
("The optimal hard threshold for singular values is 4/sqrt(3)", IEEE
Trans. Inf. Theory 2014), which the paper uses to pick the reduced SVD rank
``r`` of the snapshot matrix before projecting the DMD operator
(Sec. III-A, step 1).

Two regimes are provided:

* **known noise level** ``sigma``: threshold ``tau = lambda(beta) * sqrt(n) * sigma``
  where ``beta = m/n`` (aspect ratio, ``m <= n``) and ``lambda`` is the
  closed-form coefficient from the paper;
* **unknown noise level** (the common case for measured HPC telemetry):
  ``tau = omega(beta) * median(singular values)`` where ``omega`` is
  approximated either by the published rational approximation or by
  numerically integrating the Marchenko--Pastur distribution.

All routines are pure NumPy, operate on 1-D arrays of singular values and
return integer ranks / float thresholds, so they can be reused by the batch
SVD path (:mod:`repro.core.dmd`) and the incremental SVD path
(:mod:`repro.core.isvd`) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "lambda_star",
    "omega_approx",
    "median_marchenko_pastur",
    "svht_threshold",
    "svht_rank",
    "rank_decision",
    "truncate_singular_triplets",
    "SVHTResult",
]


def lambda_star(beta: float) -> float:
    """Return the optimal hard-threshold coefficient ``lambda*(beta)``.

    ``beta`` is the matrix aspect ratio ``m / n`` with ``0 < beta <= 1``.
    For square matrices (``beta == 1``) this equals ``4 / sqrt(3)``, the
    value in the title of Gavish & Donoho (2014).

    Parameters
    ----------
    beta:
        Aspect ratio of the data matrix, ``min(shape) / max(shape)``.

    Returns
    -------
    float
        The coefficient multiplying ``sqrt(n) * sigma`` when the noise
        level ``sigma`` is known.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    return math.sqrt(
        2.0 * (beta + 1.0)
        + 8.0 * beta / ((beta + 1.0) + math.sqrt(beta**2 + 14.0 * beta + 1.0))
    )


def _marchenko_pastur_pdf(x: np.ndarray, beta: float) -> np.ndarray:
    """Density of the Marchenko--Pastur distribution with ratio ``beta``."""
    lower = (1.0 - math.sqrt(beta)) ** 2
    upper = (1.0 + math.sqrt(beta)) ** 2
    pdf = np.zeros_like(x, dtype=float)
    inside = (x > lower) & (x < upper)
    xi = x[inside]
    pdf[inside] = np.sqrt((upper - xi) * (xi - lower)) / (2.0 * math.pi * beta * xi)
    return pdf


def median_marchenko_pastur(beta: float, *, grid: int = 200_000) -> float:
    """Numerically compute the median of the Marchenko--Pastur law.

    The unknown-noise threshold is ``omega(beta) = lambda*(beta) /
    sqrt(mu_beta)`` where ``mu_beta`` is this median.  A dense trapezoidal
    CDF inversion is accurate to ~1e-5, far below what rank selection needs.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    lower = (1.0 - math.sqrt(beta)) ** 2
    upper = (1.0 + math.sqrt(beta)) ** 2
    x = np.linspace(lower, upper, grid)
    pdf = _marchenko_pastur_pdf(x, beta)
    cdf = np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(x))
    cdf = np.concatenate([[0.0], cdf])
    cdf /= cdf[-1]
    idx = int(np.searchsorted(cdf, 0.5))
    idx = min(max(idx, 1), grid - 1)
    # Linear interpolation between the bracketing grid points.
    c0, c1 = cdf[idx - 1], cdf[idx]
    if c1 == c0:
        return float(x[idx])
    frac = (0.5 - c0) / (c1 - c0)
    return float(x[idx - 1] + frac * (x[idx] - x[idx - 1]))


def omega_approx(beta: float) -> float:
    """Rational approximation of ``omega(beta)`` from Gavish & Donoho.

    ``omega(beta) ~= 0.56 beta^3 - 0.95 beta^2 + 1.82 beta + 1.43``.
    Accurate to within a few percent over ``beta`` in (0, 1]; used as the
    fast default.  :func:`svht_threshold` can use the exact
    Marchenko--Pastur median instead when ``exact=True``.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


@dataclass(frozen=True)
class SVHTResult:
    """Outcome of an SVHT rank decision.

    Attributes
    ----------
    rank:
        Number of singular values retained (at least 1 when requested).
    threshold:
        The cutoff applied to the singular values.
    beta:
        Aspect ratio used.
    noise_sigma:
        The noise level assumed (``None`` when unknown-noise rule used).
    """

    rank: int
    threshold: float
    beta: float
    noise_sigma: float | None


def svht_threshold(
    singular_values: np.ndarray,
    shape: tuple[int, int],
    *,
    sigma: float | None = None,
    exact: bool = False,
) -> float:
    """Return the hard threshold ``tau`` for the given singular values.

    Parameters
    ----------
    singular_values:
        Non-increasing 1-D array of singular values of the data matrix.
    shape:
        Shape ``(m, n)`` of the data matrix the values came from.
    sigma:
        Known per-entry noise standard deviation.  When ``None`` the
        median-based unknown-noise rule is applied.
    exact:
        When ``True`` use the numerically-integrated Marchenko--Pastur
        median rather than the rational approximation of ``omega``.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.ndim != 1:
        raise ValueError("singular_values must be one-dimensional")
    if len(shape) != 2 or shape[0] <= 0 or shape[1] <= 0:
        raise ValueError(f"shape must be a positive 2-tuple, got {shape!r}")
    m, n = shape
    beta = min(m, n) / max(m, n)
    if sigma is not None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        return lambda_star(beta) * math.sqrt(max(m, n)) * sigma
    if s.size == 0:
        return 0.0
    if exact:
        coeff = lambda_star(beta) / math.sqrt(median_marchenko_pastur(beta))
    else:
        coeff = omega_approx(beta)
    return float(coeff * _median(s))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit, by partition.

    The middle element for an odd count; for an even count the mean
    ``(a + b) / 2`` of the two middle elements, exactly as ``np.median``
    forms it (NaN anywhere gives NaN, as there).  A partition costs a
    fraction of ``np.median``'s generic dispatch, which the rank rule of
    every DMD window pays.
    """
    half = values.size // 2
    if values.size % 2:
        middle = np.partition(values, half)[half]
    else:
        low, high = np.partition(values, (half - 1, half))[half - 1 : half + 1]
        middle = (low + high) / 2
    return np.nan if np.isnan(values).any() else middle


def svht_rank(
    singular_values: np.ndarray,
    shape: tuple[int, int],
    *,
    sigma: float | None = None,
    exact: bool = False,
    min_rank: int = 1,
    max_rank: int | None = None,
) -> SVHTResult:
    """Select the SVD truncation rank by optimal hard thresholding.

    The returned rank is clipped to ``[min_rank, max_rank]`` (and to the
    number of available singular values).  ``min_rank=1`` guarantees DMD
    always has at least one mode to work with, matching the reference
    mrDMD implementations the paper builds on.
    """
    s = np.asarray(singular_values, dtype=float)
    tau = svht_threshold(s, shape, sigma=sigma, exact=exact)
    rank = int(np.count_nonzero(s > tau))
    rank = max(rank, int(min_rank))
    rank = min(rank, s.size) if s.size else 0
    if max_rank is not None:
        rank = min(rank, int(max_rank))
    beta = min(shape) / max(shape)
    return SVHTResult(rank=rank, threshold=float(tau), beta=float(beta), noise_sigma=sigma)


def truncate_singular_triplets(
    u: np.ndarray,
    s: np.ndarray,
    vh: np.ndarray,
    shape: tuple[int, int],
    *,
    sigma: float | None = None,
    use_svht: bool = True,
    max_rank: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SVHTResult]:
    """Truncate an SVD ``(U, s, Vh)`` with the SVHT rule.

    Returns views (not copies) of the leading ``r`` components together
    with the :class:`SVHTResult` describing the decision.  When
    ``use_svht`` is ``False`` only ``max_rank`` (or full rank) applies.
    """
    s = np.asarray(s, dtype=float)
    decision = rank_decision(s, shape, sigma=sigma, use_svht=use_svht, max_rank=max_rank)
    r = decision.rank
    return u[:, :r], s[:r], vh[:r, :], decision


def rank_decision(
    s: np.ndarray,
    shape: tuple[int, int],
    *,
    sigma: float | None = None,
    use_svht: bool = True,
    max_rank: int | None = None,
) -> SVHTResult:
    """The truncation rank of singular values ``s`` of a ``shape`` matrix.

    The SVHT rule (:func:`svht_rank`) when ``use_svht``; otherwise
    ``max_rank`` (or full rank), at least 1 when any value exists.
    """
    if use_svht:
        return svht_rank(s, shape, sigma=sigma, max_rank=max_rank)
    rank = s.size if max_rank is None else min(int(max_rank), s.size)
    return SVHTResult(rank=max(rank, 1) if s.size else 0,
                      threshold=0.0,
                      beta=min(shape) / max(shape),
                      noise_sigma=sigma)
