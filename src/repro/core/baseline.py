"""Baseline selection and z-score change-from-baseline analysis.

The paper (Sec. III-A-2 and both case studies) turns the mrDMD output into
an operator-facing health signal in three steps:

1. **baseline selection** — pick readings that represent "expected" system
   behaviour.  In the case studies this is a simple temperature band
   (46-57 degC for case 1; 45-60 degC / 30-45 degC for the hot and cool
   halves of case 2), but any boolean selector over sensors/time works and
   the user can supply job- or project-specific baselines;
2. **per-measurement statistics** — estimate each measurement's baseline
   magnitude and the standard deviation of the deviation from it (following
   Brunton et al. 2016, reference [1]);
3. **z-scores** — ``z_p = (current_p - baseline_p) / sigma_p``; values in
   ``[-1.5, 1.5]`` count as near-baseline, ``> 2`` as critically hot
   (overheating risk), and strongly negative values as under-utilised /
   stalled nodes.

The resulting per-node z-scores feed the rack-layout view (Figs. 4/6) and
the alignment with hardware/job logs (:mod:`repro.align`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "ZScoreCategory",
    "BaselineSpec",
    "BaselineMoments",
    "BaselineModel",
    "ZScoreResult",
    "select_baseline_mask",
    "compute_zscores",
    "classify_zscores",
]


class ZScoreCategory(Enum):
    """Operational interpretation of a z-score value (paper Sec. V)."""

    VERY_LOW = "very_low"        # z < -2     : likely idle / stalled node
    LOW = "low"                  # -2 <= z < -1.5
    BASELINE = "baseline"        # -1.5 <= z <= 1.5 : expected behaviour
    ELEVATED = "elevated"        # 1.5 < z <= 2
    VERY_HIGH = "very_high"      # z > 2      : overheating risk


@dataclass(frozen=True)
class BaselineSpec:
    """How to pick baseline readings out of a data matrix.

    Exactly one of the selection mechanisms is typically used; when several
    are given their conjunction applies.

    Attributes
    ----------
    value_range:
        Keep samples whose value lies in ``[low, high]`` — the paper's
        temperature-band baselines.
    time_range:
        Keep snapshots with index in ``[start, stop)``.
    row_indices:
        Restrict to these sensor rows (e.g. the nodes of a reference job).
    min_fraction:
        Minimum fraction of in-range samples a row must have for its
        in-range samples to be trusted; rows below it fall back to the
        global baseline statistics.
    """

    value_range: tuple[float, float] | None = None
    time_range: tuple[int, int] | None = None
    row_indices: np.ndarray | None = None
    min_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.value_range is not None and self.value_range[1] < self.value_range[0]:
            raise ValueError(f"value_range must be (low, high), got {self.value_range!r}")
        if self.time_range is not None and self.time_range[1] < self.time_range[0]:
            raise ValueError(f"time_range must be (start, stop), got {self.time_range!r}")
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValueError("min_fraction must be in [0, 1]")


def select_baseline_mask(data: np.ndarray, spec: BaselineSpec) -> np.ndarray:
    """Boolean mask over ``data`` (same shape) marking baseline samples."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (P, T), got shape {data.shape!r}")
    mask = np.ones(data.shape, dtype=bool)
    if spec.value_range is not None:
        lo, hi = spec.value_range
        mask &= (data >= lo) & (data <= hi)
    if spec.time_range is not None:
        start, stop = spec.time_range
        col_mask = np.zeros(data.shape[1], dtype=bool)
        col_mask[max(start, 0) : max(stop, 0)] = True
        mask &= col_mask[None, :]
    if spec.row_indices is not None:
        row_mask = np.zeros(data.shape[0], dtype=bool)
        row_mask[np.asarray(spec.row_indices, dtype=int)] = True
        mask &= row_mask[:, None]
    return mask


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """``(count, mean, M2)`` of a 1-D sample, as ``np.mean``/``np.std`` do."""
    if values.size == 0:
        return (0, np.nan, 0.0)
    mean = values.mean()
    dev = values - mean
    return (int(values.size), float(mean), float(np.sum(dev * dev)))


def _merge(a: tuple, b: tuple) -> tuple:
    """Chan et al.'s pairwise merge of two ``(count, mean, M2)`` triples.

    Works elementwise on per-row arrays and on scalars (as 0-d arrays);
    an empty side passes the other through unchanged, so merging into an
    empty accumulator is exact.
    """
    na, ma, qa = a
    nb, mb, qb = b
    n = np.add(na, nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = mb - ma
        mean = ma + delta * (nb / n)
        m2 = qa + qb + delta * delta * (na * nb / n)
    mean = np.where(na == 0, mb, np.where(nb == 0, ma, mean))
    m2 = np.where(na == 0, qb, np.where(nb == 0, qa, m2))
    return (n, mean, m2)


def _merge_totals(a: tuple, b: tuple) -> tuple[int, float, float]:
    """:func:`_merge` of two scalar triples, as plain Python numbers."""
    n, mean, m2 = _merge(a, b)
    return (int(n), float(mean), float(m2))


@dataclass(frozen=True)
class BaselineMoments:
    """Mergeable sufficient statistics of a baseline fit.

    Per row: the count, mean and M2 (sum of squared deviations) of the
    samples the spec selects.  ``pooled`` holds the same triple over every
    selected sample and ``overall`` over every sample (the global
    fallbacks of :meth:`BaselineModel.from_moments`); ``selected_cols``
    counts the columns the spec's ``time_range`` keeps, the denominator
    of ``min_fraction``.  :meth:`of_block` summarises one column block and
    :meth:`merge` combines two adjacent blocks, so a baseline over a
    growing timeline folds block by block instead of rescanning it.
    """

    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    selected_cols: int
    pooled: tuple[int, float, float]
    overall: tuple[int, float, float]

    @classmethod
    def of_block(
        cls, block: np.ndarray, spec: BaselineSpec, *, start: int = 0
    ) -> "BaselineMoments":
        """Moments of the ``(P, L)`` columns ``[start, start + L)`` of a
        timeline; ``spec.time_range`` is in timeline columns."""
        block = np.asarray(block, dtype=float)
        local = spec
        if spec.time_range is not None:
            lo, hi = (max(edge, 0) - start for edge in spec.time_range)
            local = replace(spec, time_range=(lo, max(lo, hi)))
        mask = select_baseline_mask(block, local)
        selected = block.shape[1]
        if spec.time_range is not None:
            selected = max(0, min(hi, selected) - max(lo, 0))
        count = mask.sum(axis=1)
        # nanmean / nanstd over the selected samples, written out so the
        # one-block case reproduces them exactly.
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.sum(np.where(mask, block, 0.0), axis=1) / count
            dev = np.where(mask, block - mean[:, None], 0.0)
        m2 = np.sum(dev * dev, axis=1)
        return cls(
            count=count,
            mean=mean,
            m2=m2,
            selected_cols=selected,
            pooled=_moments(block[mask]),
            overall=_moments(block.ravel()),
        )

    def merge(self, later: "BaselineMoments") -> "BaselineMoments":
        """Moments of this block followed by ``later`` (same rows)."""
        count, mean, m2 = _merge(
            (self.count, self.mean, self.m2), (later.count, later.mean, later.m2)
        )
        return BaselineMoments(
            count=count,
            mean=mean,
            m2=m2,
            selected_cols=self.selected_cols + later.selected_cols,
            pooled=_merge_totals(self.pooled, later.pooled),
            overall=_merge_totals(self.overall, later.overall),
        )


def compute_zscores(
    current: np.ndarray,
    baseline_mean: np.ndarray | float,
    baseline_std: np.ndarray | float,
    *,
    std_floor: float = 1e-8,
) -> np.ndarray:
    """Elementwise z-scores ``(current - mean) / max(std, std_floor)``."""
    current = np.asarray(current, dtype=float)
    std = np.maximum(np.asarray(baseline_std, dtype=float), std_floor)
    return (current - np.asarray(baseline_mean, dtype=float)) / std


def classify_zscores(
    zscores: np.ndarray,
    *,
    near: float = 1.5,
    extreme: float = 2.0,
) -> np.ndarray:
    """Map z-scores to :class:`ZScoreCategory` values (object array)."""
    if near <= 0 or extreme <= 0 or extreme < near:
        raise ValueError("thresholds must satisfy 0 < near <= extreme")
    z = np.asarray(zscores, dtype=float)
    out = np.empty(z.shape, dtype=object)
    out[...] = ZScoreCategory.BASELINE
    out[z > near] = ZScoreCategory.ELEVATED
    out[z > extreme] = ZScoreCategory.VERY_HIGH
    out[z < -near] = ZScoreCategory.LOW
    out[z < -extreme] = ZScoreCategory.VERY_LOW
    return out


@dataclass
class ZScoreResult:
    """Per-measurement z-scores plus derived summaries.

    Attributes
    ----------
    zscores:
        1-D array, one value per sensor/node row.
    categories:
        :class:`ZScoreCategory` per row.
    baseline_mean / baseline_std:
        The per-row statistics used.
    near / extreme:
        The classification thresholds used (paper defaults 1.5 / 2).
    """

    zscores: np.ndarray
    categories: np.ndarray
    baseline_mean: np.ndarray
    baseline_std: np.ndarray
    near: float = 1.5
    extreme: float = 2.0

    def counts(self) -> dict[ZScoreCategory, int]:
        """Number of rows in each category."""
        return {cat: int(np.sum(self.categories == cat)) for cat in ZScoreCategory}

    def hot_rows(self) -> np.ndarray:
        """Indices of rows flagged VERY_HIGH (overheating risk)."""
        return np.flatnonzero(self.categories == ZScoreCategory.VERY_HIGH)

    def cold_rows(self) -> np.ndarray:
        """Indices of rows flagged VERY_LOW (idle / stalled)."""
        return np.flatnonzero(self.categories == ZScoreCategory.VERY_LOW)

    def baseline_rows(self) -> np.ndarray:
        """Indices of rows within the near-baseline band."""
        return np.flatnonzero(self.categories == ZScoreCategory.BASELINE)

    def fraction_outside_baseline(self) -> float:
        """Fraction of rows outside the near-baseline band."""
        if self.zscores.size == 0:
            return 0.0
        return float(np.mean(np.abs(self.zscores) > self.near))


class BaselineModel:
    """Per-measurement baseline statistics and z-score computation.

    Typical usage mirrors the case studies::

        spec = BaselineSpec(value_range=(46.0, 57.0))
        model = BaselineModel.from_data(raw_or_reconstructed, spec)
        result = model.score(reconstruction)      # one z-score per sensor

    ``from_data`` estimates, for every row, the mean and standard deviation
    of its baseline samples; rows with too few baseline samples fall back to
    the global statistics so every row always gets a finite z-score.
    """

    def __init__(
        self,
        mean: np.ndarray,
        std: np.ndarray,
        *,
        near: float = 1.5,
        extreme: float = 2.0,
        std_floor: float = 1e-8,
    ) -> None:
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        if mean.shape != std.shape:
            raise ValueError("mean and std must have the same shape")
        if np.any(std < 0):
            raise ValueError("std must be non-negative")
        self.mean = mean
        self.std = std
        self.near = float(near)
        self.extreme = float(extreme)
        self.std_floor = float(std_floor)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_data(
        cls,
        data: np.ndarray,
        spec: BaselineSpec,
        *,
        near: float = 1.5,
        extreme: float = 2.0,
    ) -> "BaselineModel":
        """Estimate per-row baseline statistics from (reconstructed) data.

        ``data`` is a ``(P, T)`` matrix — typically the noise-filtered
        mrDMD reconstruction, so the statistics describe the underlying
        dynamics rather than sensor noise.
        """
        return cls.from_moments(
            BaselineMoments.of_block(data, spec), spec, near=near, extreme=extreme
        )

    @classmethod
    def from_moments(
        cls,
        moments: BaselineMoments,
        spec: BaselineSpec,
        *,
        near: float = 1.5,
        extreme: float = 2.0,
    ) -> "BaselineModel":
        """Finalise per-row statistics from (merged) :class:`BaselineMoments`.

        Rows with fewer selected samples than ``min_fraction`` of the
        columns the spec selects, or with a zero spread, fall back to the
        statistics pooled over every selected sample (over every sample
        when nothing was selected).
        """
        count = moments.count
        with np.errstate(invalid="ignore", divide="ignore"):
            row_mean = moments.mean
            row_std = np.sqrt(moments.m2 / count)
        n, global_mean, m2 = moments.pooled if moments.pooled[0] else moments.overall
        global_std = float(np.sqrt(m2 / n)) if n else np.nan
        min_count = max(1, int(np.ceil(spec.min_fraction * moments.selected_cols)))
        insufficient = count < min_count
        row_mean = np.where(insufficient | ~np.isfinite(row_mean), global_mean, row_mean)
        row_std = np.where(insufficient | ~np.isfinite(row_std) | (row_std == 0.0),
                           max(global_std, 1e-8), row_std)
        return cls(row_mean, row_std, near=near, extreme=extreme)

    @classmethod
    def from_reference_rows(
        cls,
        data: np.ndarray,
        rows: np.ndarray,
        *,
        near: float = 1.5,
        extreme: float = 2.0,
    ) -> "BaselineModel":
        """Build a shared baseline from a set of reference rows.

        Every row is compared against the *same* statistics computed over
        ``data[rows]`` — the "baselines specific to the user jobs" variant
        mentioned at the end of case study 2.
        """
        data = np.asarray(data, dtype=float)
        rows = np.asarray(rows, dtype=int)
        if rows.size == 0:
            raise ValueError("rows must contain at least one index")
        reference = data[rows]
        mean = float(reference.mean())
        std = float(reference.std()) or 1e-8
        p = data.shape[0]
        return cls(np.full(p, mean), np.full(p, std), near=near, extreme=extreme)

    # ------------------------------------------------------------------ #
    def score_values(self, values: np.ndarray) -> np.ndarray:
        """Z-scores of a per-row value vector (no classification)."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.mean.shape:
            raise ValueError(
                f"values shape {values.shape} does not match baseline shape {self.mean.shape}"
            )
        return compute_zscores(values, self.mean, self.std, std_floor=self.std_floor)

    def score(
        self,
        data: np.ndarray,
        *,
        reducer: str = "mean",
        time_range: tuple[int, int] | None = None,
    ) -> ZScoreResult:
        """Score a ``(P, T)`` matrix (or ``(P,)`` vector) row by row.

        ``reducer`` collapses each row's time dimension before scoring:
        ``"mean"`` (default), ``"max"``, ``"median"`` or ``"last"``.
        ``time_range`` optionally restricts the columns considered, which
        is how the two 8-hour windows of case study 2 are scored from one
        decomposition.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            values = data
        elif data.ndim == 2:
            window = data
            if time_range is not None:
                start, stop = time_range
                window = data[:, max(start, 0) : max(stop, 0)]
                if window.shape[1] == 0:
                    raise ValueError(f"time_range {time_range!r} selects no columns")
            if reducer == "mean":
                values = window.mean(axis=1)
            elif reducer == "max":
                values = window.max(axis=1)
            elif reducer == "median":
                values = np.median(window, axis=1)
            elif reducer == "last":
                values = window[:, -1]
            else:
                raise ValueError(f"unknown reducer {reducer!r}")
        else:
            raise ValueError(f"data must be 1-D or 2-D, got shape {data.shape!r}")

        z = self.score_values(values)
        cats = classify_zscores(z, near=self.near, extreme=self.extreme)
        return ZScoreResult(
            zscores=z,
            categories=cats,
            baseline_mean=self.mean.copy(),
            baseline_std=self.std.copy(),
            near=self.near,
            extreme=self.extreme,
        )
