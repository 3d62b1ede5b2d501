"""Partitioning a machine's sensor matrix into monitor shards.

The fleet monitor never hands one giant ``(P, T)`` matrix to a single
decomposition: rows are partitioned into *shards* — by rack/cabinet
(spatially coherent dynamics stay together, matching the paper's rack-view
products) or by metric group (each sensor channel gets its own
decomposition) — and every shard runs its own
:class:`~repro.pipeline.online.OnlineAnalysisPipeline`.  Policies are
pluggable: anything that maps row metadata to a list of
:class:`ShardSpec` works.

A valid partition covers every row exactly once; :func:`validate_partition`
asserts that invariant and the tests rely on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..telemetry.generator import TelemetryStream
from ..telemetry.machine import MachineDescription

__all__ = [
    "ShardSpec",
    "ShardingPolicy",
    "RackSharding",
    "MetricSharding",
    "SingleShard",
    "validate_partition",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard of the fleet: a named subset of matrix rows.

    Attributes
    ----------
    shard_id:
        Stable human-readable identifier (``"rack-3"``, ``"metric-cpu_temp"``).
    row_indices:
        Indices into the *full* sensor matrix selecting this shard's rows.
    node_of_row:
        Populated-node index per selected row (aligned with
        ``row_indices``); feeds per-node products inside the shard.
    sensor_names:
        Channel name per selected row (diagnostics / alert messages).
    start_step:
        Absolute snapshot index at which this shard's stream begins.
        0 for shards present since the monitor started; shards minted by a
        mid-run topology event start at the fleet step of the event, and
        the monitor translates absolute query windows into shard-local
        ones using this offset.
    """

    shard_id: str
    row_indices: np.ndarray
    node_of_row: np.ndarray
    sensor_names: tuple[str, ...] = ()
    start_step: int = 0

    def extended(
        self,
        row_indices: np.ndarray,
        node_of_row: np.ndarray,
        sensor_names: Sequence[str] = (),
    ) -> "ShardSpec":
        """A copy of this spec with new rows appended (elastic growth)."""
        names = self.sensor_names
        if names or sensor_names:
            # Keep per-row name alignment: pad whichever side lacks names.
            names = tuple(names) + ("",) * max(0, self.n_rows - len(names))
            extra = tuple(str(s) for s in sensor_names)
            extra += ("",) * (len(np.atleast_1d(row_indices)) - len(extra))
            names = names + extra
        return ShardSpec(
            shard_id=self.shard_id,
            row_indices=np.concatenate(
                [self.row_indices, np.atleast_1d(np.asarray(row_indices, dtype=int))]
            ),
            node_of_row=np.concatenate(
                [self.node_of_row, np.atleast_1d(np.asarray(node_of_row, dtype=int))]
            ),
            sensor_names=names,
            start_step=self.start_step,
        )

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_indices", np.asarray(self.row_indices, dtype=int))
        object.__setattr__(self, "node_of_row", np.asarray(self.node_of_row, dtype=int))
        if self.row_indices.ndim != 1 or self.row_indices.size == 0:
            raise ValueError(f"shard {self.shard_id!r} must select at least one row")
        if self.node_of_row.shape != self.row_indices.shape:
            raise ValueError(
                f"shard {self.shard_id!r}: node_of_row and row_indices lengths differ"
            )

    @property
    def n_rows(self) -> int:
        return int(self.row_indices.size)

    @property
    def nodes(self) -> np.ndarray:
        """Sorted unique node indices present in the shard."""
        return np.unique(self.node_of_row)

    def take(self, values: np.ndarray) -> np.ndarray:
        """Select this shard's rows from the full ``(P, T)`` matrix."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape!r}")
        return values[self.row_indices, :]

    # JSON-safe round trip for the checkpoint manifest. ----------------- #
    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "row_indices": np.asarray(self.row_indices, dtype=int).tolist(),
            "node_of_row": np.asarray(self.node_of_row, dtype=int).tolist(),
            "sensor_names": list(self.sensor_names),
            "start_step": int(self.start_step),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardSpec":
        return cls(
            shard_id=str(payload["shard_id"]),
            row_indices=np.asarray(payload["row_indices"], dtype=int),
            node_of_row=np.asarray(payload["node_of_row"], dtype=int),
            sensor_names=tuple(payload.get("sensor_names", ())),
            start_step=int(payload.get("start_step", 0)),
        )


def validate_partition(specs: Sequence[ShardSpec], n_rows: int) -> None:
    """Raise unless ``specs`` cover ``[0, n_rows)`` exactly once."""
    if not specs:
        raise ValueError("partition must contain at least one shard")
    seen = np.concatenate([spec.row_indices for spec in specs])
    if seen.size != n_rows or not np.array_equal(np.sort(seen), np.arange(n_rows)):
        raise ValueError(
            f"shards must cover all {n_rows} rows exactly once "
            f"(covered {seen.size}, {np.unique(seen).size} distinct)"
        )


class ShardingPolicy(ABC):
    """Maps row metadata onto a list of :class:`ShardSpec`."""

    #: Registry name recorded in checkpoints (informational only).
    name: str = "custom"

    @abstractmethod
    def partition(
        self,
        sensor_names: np.ndarray,
        node_of_row: np.ndarray,
        machine: MachineDescription | None = None,
    ) -> list[ShardSpec]:
        """Partition rows described by ``(sensor_names, node_of_row)``."""

    def partition_stream(self, stream: TelemetryStream) -> list[ShardSpec]:
        """Convenience wrapper taking a :class:`TelemetryStream`."""
        return self.partition(
            np.asarray(stream.sensor_names, dtype=object),
            np.asarray(stream.node_indices, dtype=int),
            stream.machine,
        )

    def repartition(
        self,
        specs: Sequence[ShardSpec],
        sensor_names: np.ndarray,
        node_of_row: np.ndarray,
        machine: MachineDescription | None = None,
        *,
        row_offset: int | None = None,
    ) -> list[ShardSpec]:
        """Map *new* rows onto an existing partition (elastic topology).

        ``sensor_names``/``node_of_row`` describe only the rows being
        added; their absolute matrix rows start at ``row_offset`` (default:
        one past the highest row the existing partition covers).  New rows
        whose policy-assigned shard id matches an existing spec *extend*
        that shard (same id — resident executor state survives); the rest
        mint new shards, appended after the existing ones.  Existing shard
        ids never change, so per-shard products, alert dedup keys and
        checkpoint layouts stay stable across topology events.

        The default implementation partitions the new rows alone and
        merges by shard id, which is exact for id-stable policies
        (:class:`SingleShard`, :class:`MetricSharding`);
        :class:`RackSharding` overrides it to match by rack group instead
        of by label.
        """
        specs = list(specs)
        if row_offset is None:
            row_offset = (
                max(int(spec.row_indices.max()) for spec in specs) + 1
                if specs
                else 0
            )
        new_specs = self.partition(
            np.asarray(sensor_names), np.asarray(node_of_row, dtype=int), machine
        )
        by_id = {spec.shard_id: index for index, spec in enumerate(specs)}
        out = list(specs)
        for spec in new_specs:
            absolute = spec.row_indices + row_offset
            if spec.shard_id in by_id:
                index = by_id[spec.shard_id]
                out[index] = out[index].extended(
                    absolute, spec.node_of_row, spec.sensor_names
                )
            else:
                out.append(
                    ShardSpec(
                        shard_id=spec.shard_id,
                        row_indices=absolute,
                        node_of_row=spec.node_of_row,
                        sensor_names=spec.sensor_names,
                    )
                )
        return out


class SingleShard(ShardingPolicy):
    """Everything in one shard — the pre-service single-pipeline behaviour."""

    name = "single"

    def partition(self, sensor_names, node_of_row, machine=None):
        node_of_row = np.asarray(node_of_row, dtype=int)
        return [
            ShardSpec(
                shard_id="all",
                row_indices=np.arange(node_of_row.size),
                node_of_row=node_of_row,
                sensor_names=tuple(str(s) for s in np.asarray(sensor_names)),
            )
        ]


class RackSharding(ShardingPolicy):
    """One shard per group of ``racks_per_shard`` racks.

    Requires a machine description (to map nodes to racks).  Rack-coherent
    dynamics (cooling loops, rack-level anomalies) stay within a shard, so
    per-shard spectra remain physically interpretable.
    """

    name = "rack"

    def __init__(self, racks_per_shard: int = 1) -> None:
        if racks_per_shard < 1:
            raise ValueError("racks_per_shard must be >= 1")
        self.racks_per_shard = int(racks_per_shard)

    def partition(self, sensor_names, node_of_row, machine=None):
        if machine is None:
            raise ValueError("RackSharding requires a machine description")
        sensor_names = np.asarray(sensor_names)
        node_of_row = np.asarray(node_of_row, dtype=int)
        rack_of_row = np.array(
            [machine.rack_of_node(int(n)) for n in node_of_row], dtype=int
        )
        group_of_row = rack_of_row // self.racks_per_shard
        specs = []
        for group in np.unique(group_of_row):
            rows = np.flatnonzero(group_of_row == group)
            racks = np.unique(rack_of_row[rows])
            label = f"rack-{racks[0]}" if racks.size == 1 else f"racks-{racks[0]}-{racks[-1]}"
            specs.append(
                ShardSpec(
                    shard_id=label,
                    row_indices=rows,
                    node_of_row=node_of_row[rows],
                    sensor_names=tuple(str(s) for s in sensor_names[rows]),
                )
            )
        return specs

    def repartition(
        self,
        specs: Sequence[ShardSpec],
        sensor_names: np.ndarray,
        node_of_row: np.ndarray,
        machine: MachineDescription | None = None,
        *,
        row_offset: int | None = None,
    ) -> list[ShardSpec]:
        """Match new rows to existing shards by *rack group*, not label.

        A shard's label records the racks it held when it was minted
        (``rack-2`` may later also hold rows from rack 3 when
        ``racks_per_shard > 1``), so group membership — recomputed from
        each spec's nodes — is the stable join key.  Ids never change.
        """
        if machine is None:
            raise ValueError("RackSharding requires a machine description")
        specs = list(specs)
        if row_offset is None:
            row_offset = (
                max(int(spec.row_indices.max()) for spec in specs) + 1
                if specs
                else 0
            )
        sensor_names = np.asarray(sensor_names)
        node_of_row = np.asarray(node_of_row, dtype=int)
        rack_of_row = np.array(
            [machine.rack_of_node(int(n)) for n in node_of_row], dtype=int
        )
        group_of_row = rack_of_row // self.racks_per_shard
        group_of_spec = {
            machine.rack_of_node(int(spec.node_of_row[0])) // self.racks_per_shard: i
            for i, spec in enumerate(specs)
        }
        out = list(specs)
        for group in np.unique(group_of_row):
            rows = np.flatnonzero(group_of_row == group)
            names = tuple(str(s) for s in sensor_names[rows])
            if int(group) in group_of_spec:
                index = group_of_spec[int(group)]
                out[index] = out[index].extended(
                    rows + row_offset, node_of_row[rows], names
                )
            else:
                racks = np.unique(rack_of_row[rows])
                label = (
                    f"rack-{racks[0]}"
                    if racks.size == 1
                    else f"racks-{racks[0]}-{racks[-1]}"
                )
                out.append(
                    ShardSpec(
                        shard_id=label,
                        row_indices=rows + row_offset,
                        node_of_row=node_of_row[rows],
                        sensor_names=names,
                    )
                )
        return out


class MetricSharding(ShardingPolicy):
    """One shard per sensor channel (metric group).

    Useful when channels have very different dynamics (temperatures vs
    power draw): each gets its own decomposition, baseline and spectrum.
    A node then appears in several shards; the fleet merge aggregates its
    per-shard z-scores.
    """

    name = "metric"

    def partition(self, sensor_names, node_of_row, machine=None):
        sensor_names = np.asarray(sensor_names)
        node_of_row = np.asarray(node_of_row, dtype=int)
        specs = []
        # dict preserves first-appearance order (rows are grouped by channel).
        for channel in dict.fromkeys(str(s) for s in sensor_names):
            rows = np.flatnonzero(sensor_names.astype(str) == channel)
            specs.append(
                ShardSpec(
                    shard_id=f"metric-{channel}",
                    row_indices=rows,
                    node_of_row=node_of_row[rows],
                    sensor_names=(channel,) * rows.size,
                )
            )
        return specs
