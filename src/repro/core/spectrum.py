"""mrDMD spectrum: frequency/power analysis and mode isolation.

Sec. III-A-2 of the paper computes, for every mrDMD mode ``phi_i`` with
continuous-time eigenvalue ``psi_i = log(lambda_i) / dt``:

* the oscillation frequency (Eq. 9): ``f_i = |Im(psi_i)| / (2 pi)`` (Hz);
* the mrDMD power (Eq. 10): ``P_i = ||phi_i||_2^2``;

and visualises power against frequency (Figs. 5 and 7).  High-power modes in
a chosen frequency band are the ones retained for reconstruction and for the
baseline/z-score comparison.

This module provides the :class:`MrDMDSpectrum` view over a
:class:`~repro.core.tree.MrDMDTree` (or a flat
:class:`~repro.core.tree.ModeTable`), band/power filtering, band-energy
summaries, and a plain-data export consumed by the plotting helpers in
:mod:`repro.viz.spectrum_plot`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import ModeTable, MrDMDTree

__all__ = ["MrDMDSpectrum", "SpectrumBand", "mode_frequencies", "mode_power"]


def mode_frequencies(eigenvalues: np.ndarray, dt: float) -> np.ndarray:
    """Oscillation frequency (Hz) of discrete-time eigenvalues (Eq. 9)."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if eigenvalues.size == 0:
        return np.zeros(0, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.log(eigenvalues) / dt
    return np.abs(psi.imag) / (2.0 * np.pi)


def mode_power(modes: np.ndarray) -> np.ndarray:
    """mrDMD power of each mode column: squared 2-norm (Eq. 10)."""
    modes = np.asarray(modes)
    if modes.size == 0:
        return np.zeros(modes.shape[1] if modes.ndim == 2 else 0, dtype=float)
    return np.sum(np.abs(modes) ** 2, axis=0)


@dataclass(frozen=True)
class SpectrumBand:
    """A labelled frequency band summary.

    Attributes
    ----------
    low, high:
        Band edges in Hz (inclusive).
    n_modes:
        Number of modes whose frequency falls in the band.
    total_power:
        Sum of mode powers in the band.
    peak_power:
        Largest single-mode power in the band (0 when empty).
    peak_frequency:
        Frequency of that peak mode (NaN when empty).
    """

    low: float
    high: float
    n_modes: int
    total_power: float
    peak_power: float
    peak_frequency: float


class MrDMDSpectrum:
    """Power-vs-frequency view of an mrDMD decomposition.

    Parameters
    ----------
    source:
        Either an :class:`~repro.core.tree.MrDMDTree` or a pre-built
        :class:`~repro.core.tree.ModeTable`.
    label:
        Optional name carried into exports (used to overlay "hot" vs
        "cool" spectra as in Fig. 7).

    The spectrum holds only the table's four read-only columns
    (frequency, power, |amplitude|, level), so it pickles to a few
    scalars per mode; mode shapes stay on the tree's nodes.
    """

    def __init__(self, source: MrDMDTree | ModeTable, label: str = "") -> None:
        if isinstance(source, MrDMDTree):
            table = source.mode_table()
        elif isinstance(source, ModeTable):
            table = source
        else:
            raise TypeError(
                f"source must be MrDMDTree or ModeTable, got {type(source).__name__}"
            )
        self._table = table
        self.label = label

    # ------------------------------------------------------------------ #
    @property
    def table(self) -> ModeTable:
        """The underlying flat mode table (read-only columns)."""
        return self._table

    @property
    def frequencies(self) -> np.ndarray:
        """Mode frequencies in Hz."""
        return self._table.frequencies

    @property
    def power(self) -> np.ndarray:
        """Mode powers (Eq. 10)."""
        return self._table.power

    @property
    def amplitudes(self) -> np.ndarray:
        """Mode amplitude magnitudes (the y-axis used in Figs. 5/7)."""
        return self._table.amplitudes

    @property
    def n_modes(self) -> int:
        return len(self._table)

    def __len__(self) -> int:
        return self.n_modes

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def band_mask(
        self,
        frequency_range: tuple[float, float] | None = None,
        *,
        min_power: float = 0.0,
        min_amplitude: float = 0.0,
        levels: list[int] | None = None,
    ) -> np.ndarray:
        """Boolean mask of modes satisfying all the given filters."""
        mask = np.ones(self.n_modes, dtype=bool)
        if frequency_range is not None:
            lo, hi = frequency_range
            if hi < lo:
                raise ValueError(f"frequency_range must be (low, high), got {frequency_range!r}")
            mask &= (self.frequencies >= lo) & (self.frequencies <= hi)
        if min_power > 0.0:
            mask &= self.power >= min_power
        if min_amplitude > 0.0:
            mask &= self.amplitudes >= min_amplitude
        if levels is not None:
            mask &= np.isin(self._table.levels, np.asarray(levels, dtype=int))
        return mask

    def filter(
        self,
        frequency_range: tuple[float, float] | None = None,
        *,
        min_power: float = 0.0,
        min_amplitude: float = 0.0,
        levels: list[int] | None = None,
        label: str | None = None,
    ) -> "MrDMDSpectrum":
        """Return a new spectrum restricted to the selected modes."""
        mask = self.band_mask(
            frequency_range,
            min_power=min_power,
            min_amplitude=min_amplitude,
            levels=levels,
        )
        return MrDMDSpectrum(self._table.filter(mask), label=label if label is not None else self.label)

    def high_power_modes(self, quantile: float = 0.5) -> "MrDMDSpectrum":
        """Keep modes whose power is at or above the given power quantile.

        This is the "filter modes by higher mrDMD power" step of
        Fig. 1(b).  ``quantile=0.5`` keeps the upper half.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile!r}")
        if self.n_modes == 0:
            return MrDMDSpectrum(self._table, label=self.label)
        threshold = float(np.quantile(self.power, quantile))
        return self.filter(min_power=threshold)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def band_summary(self, edges: np.ndarray | list[float]) -> list[SpectrumBand]:
        """Summarise power by frequency band.

        ``edges`` is an increasing list of band boundaries in Hz; band
        ``k`` covers ``[edges[k], edges[k+1])`` (the last band is closed).
        """
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must contain at least two values")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        bands: list[SpectrumBand] = []
        f, p = self.frequencies, self.power
        for k in range(edges.size - 1):
            lo, hi = float(edges[k]), float(edges[k + 1])
            if k == edges.size - 2:
                mask = (f >= lo) & (f <= hi)
            else:
                mask = (f >= lo) & (f < hi)
            if np.any(mask):
                powers = p[mask]
                peak_idx = int(np.argmax(powers))
                bands.append(
                    SpectrumBand(
                        low=lo,
                        high=hi,
                        n_modes=int(mask.sum()),
                        total_power=float(powers.sum()),
                        peak_power=float(powers[peak_idx]),
                        peak_frequency=float(f[mask][peak_idx]),
                    )
                )
            else:
                bands.append(
                    SpectrumBand(
                        low=lo, high=hi, n_modes=0, total_power=0.0,
                        peak_power=0.0, peak_frequency=float("nan"),
                    )
                )
        return bands

    def dominant_frequency(self) -> float:
        """Frequency (Hz) of the highest-power mode (NaN if empty)."""
        if self.n_modes == 0:
            return float("nan")
        return float(self.frequencies[int(np.argmax(self.power))])

    def total_power(self) -> float:
        """Sum of all mode powers."""
        return float(self.power.sum())

    def centroid_frequency(self) -> float:
        """Power-weighted mean frequency; shifts upward for "hotter" system
        states (the qualitative claim of Fig. 7)."""
        if self.n_modes == 0 or self.total_power() == 0.0:
            return float("nan")
        return float(np.average(self.frequencies, weights=self.power))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_points(self) -> dict[str, np.ndarray | str]:
        """Plain-array export (frequency, power, amplitude, level, label).

        Consumed by :mod:`repro.viz.spectrum_plot` and by the Figs. 5/7
        benchmarks; keeping it free of plotting dependencies means the
        benches can assert on the numbers directly.
        """
        return {
            "label": self.label,
            "frequency_hz": self.frequencies.copy(),
            "power": self.power.copy(),
            "amplitude": self.amplitudes.copy(),
            "level": self._table.levels.copy(),
        }
