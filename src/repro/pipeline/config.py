"""Configuration objects for the online analysis pipeline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..core.imrdmd import (
    DEEP_LEVEL_MODES,
    MISSING_VALUE_POLICIES,
    RETENTION_POLICIES,
)
from ..core.mrdmd import MrDMDConfig

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end settings of the online analysis pipeline.

    Attributes
    ----------
    mrdmd:
        Settings of the multiresolution decomposition (levels, cycles,
        SVHT, ...).
    drift_threshold:
        Level-1 drift threshold forwarded to
        :class:`~repro.core.imrdmd.IncrementalMrDMD`.
    frequency_range:
        Band (Hz) of modes retained for reconstruction and z-scoring
        (case study 1 uses 0-60 Hz).
    power_quantile:
        Keep modes at or above this power quantile when filtering the
        spectrum (0 keeps everything).
    baseline_range:
        Value band (sensor units) defining baseline readings — the paper's
        46-57 degC band in case study 1.
    zscore_near / zscore_extreme:
        Classification thresholds (+-1.5 near baseline, +-2 extreme).
    zscore_reducer:
        How each row's time series is collapsed before scoring.
    retain_data:
        Raw-snapshot retention policy forwarded to
        :class:`~repro.core.imrdmd.IncrementalMrDMD`: ``"all"``
        (default), ``"window"`` (trailing ``retain_window`` snapshots
        only) or ``"none"``.  Per-ingest reconstruction-error reporting
        requires the full timeline and is therefore only computed under
        ``"all"``.
    retain_window:
        Trailing-snapshot count for ``retain_data="window"``.
    missing_values:
        Non-finite-reading policy forwarded to
        :class:`~repro.core.imrdmd.IncrementalMrDMD`: ``"raise"``
        (default) rejects NaN/inf input with a clear error; ``"zero"``
        zero-fills it — required when the fleet monitor pads not-yet-
        reporting sensor rows with NaN (``missing_rows="nan"``).
    deep_levels:
        When the levels-2..L recursion over each appended chunk runs
        (forwarded to :class:`~repro.core.imrdmd.IncrementalMrDMD`):
        ``"inline"`` (default) on the ingest path, reproducing the
        historical results exactly; ``"deferred"`` queues it for an
        asynchronous ``refresh_deep_levels()`` that the fleet monitor
        schedules off the ingest path (on drift firings or every
        ``deep_refresh_every`` chunks).  Snapshots stamp the resulting
        deep-level staleness (``deep_pending`` / ``deep_stale_snapshots``).
    deep_refresh_every:
        Under ``deep_levels="deferred"``, schedule a background refresh
        after this many ingested chunks even when no drift fired
        (bounding staleness).  ``0`` refreshes only on drift firings /
        explicit ``drain_refreshes()`` calls.
    """

    mrdmd: MrDMDConfig = field(default_factory=MrDMDConfig)
    drift_threshold: float | None = None
    frequency_range: tuple[float, float] | None = None
    power_quantile: float = 0.0
    baseline_range: tuple[float, float] = (46.0, 57.0)
    zscore_near: float = 1.5
    zscore_extreme: float = 2.0
    zscore_reducer: str = "mean"
    retain_data: str = "all"
    retain_window: int = 4096
    missing_values: str = "raise"
    deep_levels: str = "inline"
    deep_refresh_every: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.power_quantile <= 1.0:
            raise ValueError("power_quantile must be in [0, 1]")
        if self.retain_data not in RETENTION_POLICIES:
            raise ValueError(
                f"retain_data must be one of {RETENTION_POLICIES}, "
                f"got {self.retain_data!r}"
            )
        if self.retain_window < 1:
            raise ValueError("retain_window must be >= 1")
        if self.missing_values not in MISSING_VALUE_POLICIES:
            raise ValueError(
                f"missing_values must be one of {MISSING_VALUE_POLICIES}, "
                f"got {self.missing_values!r}"
            )
        if self.deep_levels not in DEEP_LEVEL_MODES:
            raise ValueError(
                f"deep_levels must be one of {DEEP_LEVEL_MODES}, "
                f"got {self.deep_levels!r}"
            )
        if self.deep_refresh_every < 0:
            raise ValueError("deep_refresh_every must be >= 0")
        if self.baseline_range[1] < self.baseline_range[0]:
            raise ValueError("baseline_range must be (low, high)")
        if self.zscore_near <= 0 or self.zscore_extreme < self.zscore_near:
            raise ValueError("thresholds must satisfy 0 < near <= extreme")

    # ------------------------------------------------------------------ #
    # Serialisation (JSON-safe; used by service checkpoints)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-container form (nested ``mrdmd`` becomes a dict)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        """Inverse of :meth:`to_dict`.

        Tolerates the tuple→list coercion a JSON round trip applies to
        ``frequency_range`` and ``baseline_range``, and reads older
        payloads that carry the retired ``keep_data`` flag: with
        ``retain_data`` ``None`` (or absent) retention is ``"all"`` when
        the flag was set and ``"none"`` otherwise.  The retired
        ``level1_path`` and ``baseline_refit`` keys are ignored: every
        pipeline runs the projected level-1 update and refits a stale
        baseline fitted from the reconstruction.
        """
        payload = dict(payload)
        for key in ("level1_path", "baseline_refit"):
            payload.pop(key, None)
        keep_data = payload.pop("keep_data", True)
        if payload.get("retain_data") is None:
            payload["retain_data"] = "all" if keep_data else "none"
        mrdmd = MrDMDConfig(**payload.pop("mrdmd"))
        for key in ("frequency_range", "baseline_range"):
            if payload.get(key) is not None:
                payload[key] = tuple(payload[key])
        return cls(mrdmd=mrdmd, **payload)
