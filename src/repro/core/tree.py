"""Data structures for the multiresolution DMD mode tree.

The mrDMD recursion produces a binary tree of time windows: level 1 covers
the full timeline, level 2 its two halves, level 3 the four quarters, and
so on (Fig. 1(a) of the paper).  Each node stores the *slow* DMD modes
extracted at that window together with everything needed to reconstruct
their contribution (eigenvalues, amplitudes, the local sampling interval
after the 4x-Nyquist subsampling, and the window's absolute position).

The tree object offers the traversals the rest of the pipeline needs:

* per-level access (used by the incremental update's level re-indexing),
* global mode tables (used by the mrDMD spectrum, Figs. 5/7),
* window-resolved reconstruction (Eq. 7/8, Fig. 3),
* compact serialisation of what is, for week-scale telemetry, a
  megabyte-scale summary of terabyte-scale raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..util.growbuf import GrowableMatrix

__all__ = ["MrDMDNode", "MrDMDTree", "ModeTable"]

#: Integer node fields in the column order of :meth:`MrDMDTree.to_dict`'s
#: ``node_ints`` table (``-1`` stands for a ``None`` contribution bound).
#: The table then holds the mode matrix's shape and layout (1 = Fortran
#: order, kept so a restored node sums exactly as the live one) and the
#: eigenvalue and amplitude counts; see ``_packed_row``.
_INT_FIELDS = (
    "level", "bin_index", "start", "n_snapshots", "step", "svd_rank",
    "contribution_start", "contribution_end",
)


def _fortran(array: np.ndarray) -> int:
    """1 when ``array`` is stored in Fortran order only (as ``np.save``
    and pickle would keep it), else 0."""
    return int(array.flags.f_contiguous and not array.flags.c_contiguous)


def _packed_row(node: "MrDMDNode") -> tuple:
    """The node's ``node_ints`` row (see ``_INT_FIELDS``)."""
    lo, hi = node.contribution_start, node.contribution_end
    return (
        node.level, node.bin_index, node.start, node.n_snapshots, node.step,
        node.svd_rank, -1 if lo is None else lo, -1 if hi is None else hi,
        *node.modes.shape, _fortran(node.modes),
        node.eigenvalues.size, node.amplitudes.size,
    )


@dataclass
class MrDMDNode:
    """One window of the multiresolution decomposition.

    Attributes
    ----------
    level:
        1-based resolution level (1 = whole timeline / slowest dynamics).
    bin_index:
        Index of the window within its level (0-based, left to right).
    start:
        Absolute index (in snapshots) of the first snapshot of the window.
    n_snapshots:
        Window length in snapshots (before subsampling).
    dt:
        Raw sampling interval of the underlying data in seconds.
    step:
        Subsampling stride applied before the local DMD (>= 1); the local
        effective interval is ``dt * step``.
    rho:
        Slow/fast cutoff frequency (Hz) used at this node.
    modes:
        Complex ``(P, m)`` array of retained slow modes (possibly empty).
    eigenvalues:
        Discrete-time eigenvalues of the retained modes (w.r.t.
        ``dt * step``).
    amplitudes:
        Mode amplitudes fitted at the subsampled resolution.
    svd_rank:
        Rank retained by the local SVD truncation before slow-mode
        selection (diagnostic).
    contribution_start / contribution_end:
        Optional absolute snapshot indices bounding the part of the
        window this node contributes to reconstructions.  The incremental
        update (Fig. 1(c)) re-indexes the previous level-1 node to level 2
        while the *new* level-1 node spans the whole, longer timeline; to
        keep the summed reconstruction consistent, the new level-1 node
        only contributes over the freshly appended chunk.  ``None`` means
        "the whole window" (the batch-mrDMD default).
    """

    level: int
    bin_index: int
    start: int
    n_snapshots: int
    dt: float
    step: int
    rho: float
    modes: np.ndarray
    eigenvalues: np.ndarray
    amplitudes: np.ndarray
    svd_rank: int = 0
    contribution_start: int | None = None
    contribution_end: int | None = None

    def __post_init__(self) -> None:
        # Mode data is complex by contract.  np.linalg.eig returns *real*
        # arrays when every eigenvalue happens to be real, which would
        # otherwise make node dtypes — and therefore checkpoint payloads
        # and bit-for-bit state comparisons — depend on the data.
        self.modes = np.asarray(self.modes, dtype=complex)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=complex)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)

    # ------------------------------------------------------------------ #
    @property
    def n_modes(self) -> int:
        """Number of slow modes kept at this node."""
        return int(self.modes.shape[1])

    @property
    def n_features(self) -> int:
        """State dimension ``P``."""
        return int(self.modes.shape[0])

    @property
    def end(self) -> int:
        """Absolute index one past the last snapshot of the window."""
        return self.start + self.n_snapshots

    @property
    def local_dt(self) -> float:
        """Effective sampling interval after subsampling (seconds)."""
        return self.dt * self.step

    @property
    def omega(self) -> np.ndarray:
        """Continuous-time eigenvalues ``psi_i = log(lambda_i) / (dt * step)``."""
        if self.eigenvalues.size == 0:
            return np.zeros(0, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.eigenvalues.astype(complex)) / self.local_dt

    @property
    def frequencies(self) -> np.ndarray:
        """Mode oscillation frequencies in Hz (Eq. 9)."""
        return np.abs(self.omega.imag) / (2.0 * np.pi)

    @property
    def growth_rates(self) -> np.ndarray:
        """Real part of the continuous-time eigenvalues (1/s)."""
        return self.omega.real

    @property
    def power(self) -> np.ndarray:
        """mrDMD mode power ``||phi_i||_2^2`` (Eq. 10)."""
        if self.modes.size == 0:
            return np.zeros(0, dtype=float)
        return np.sum(np.abs(self.modes) ** 2, axis=0)

    @property
    def time_span(self) -> tuple[float, float]:
        """Absolute (start, end) times of the window in seconds."""
        return (self.start * self.dt, self.end * self.dt)

    # ------------------------------------------------------------------ #
    def local_reconstruction(self, n_timesteps: int | None = None) -> np.ndarray:
        """Contribution of this node's slow modes over its own window.

        Returns a real ``(P, n_timesteps)`` array evaluated at the *raw*
        sampling interval ``dt`` (time measured from the start of the
        window), i.e. the quantity subtracted from the data before the
        recursion descends (Eq. 8, first term).
        """
        if n_timesteps is None:
            n_timesteps = self.n_snapshots
        if self.n_modes == 0 or n_timesteps <= 0:
            return np.zeros((self.n_features, max(n_timesteps, 0)))
        t = np.arange(n_timesteps) * self.dt
        dynamics = self.amplitudes[:, None] * np.exp(np.outer(self.omega, t))
        return np.real(self.modes @ dynamics)

    def local_reconstruction_range(self, offset: int, length: int) -> np.ndarray:
        """Slow-mode contribution over ``[offset, offset + length)`` snapshots.

        ``offset`` is measured from the start of this node's window (i.e.
        local, not absolute).  Used when only part of the window should
        contribute to a summed reconstruction (see ``contribution_start``).
        """
        if length <= 0:
            return np.zeros((self.n_features, 0))
        if self.n_modes == 0:
            return np.zeros((self.n_features, length))
        t = (np.arange(length) + offset) * self.dt
        dynamics = self.amplitudes[:, None] * np.exp(np.outer(self.omega, t))
        return np.real(self.modes @ dynamics)

    @property
    def contribution_window(self) -> tuple[int, int]:
        """Absolute ``[start, end)`` range this node contributes to sums."""
        lo = self.start if self.contribution_start is None else max(self.start, self.contribution_start)
        hi = self.end if self.contribution_end is None else min(self.end, self.contribution_end)
        return (lo, max(lo, hi))

    def copy_with(self, **overrides) -> "MrDMDNode":
        """Return a shallow copy with selected fields replaced."""
        fields = dict(
            level=self.level,
            bin_index=self.bin_index,
            start=self.start,
            n_snapshots=self.n_snapshots,
            dt=self.dt,
            step=self.step,
            rho=self.rho,
            modes=self.modes,
            eigenvalues=self.eigenvalues,
            amplitudes=self.amplitudes,
            svd_rank=self.svd_rank,
            contribution_start=self.contribution_start,
            contribution_end=self.contribution_end,
        )
        fields.update(overrides)
        return MrDMDNode(**fields)


@dataclass
class ModeTable:
    """Flat spectrum table of every mode in a tree (one row per mode).

    Produced by :meth:`MrDMDTree.mode_table` and consumed by the spectrum
    (Figs. 5/7) and the power-quantile threshold.  The four columns share
    one length:

    * ``frequencies`` — oscillation frequency in Hz (Eq. 9);
    * ``power`` — mrDMD power ``||phi_i||_2^2`` (Eq. 10);
    * ``amplitudes`` — amplitude magnitude ``|a_i|``;
    * ``levels`` — level of the mode's node (1 = slowest).

    The columns are read-only views.  Mode shapes, growth rates and window
    positions stay on the tree's nodes.
    """

    frequencies: np.ndarray
    power: np.ndarray
    amplitudes: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            setattr(self, name, column)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays are writable; a table from a process worker
        # keeps the same contract as a local one.
        self.__dict__.update(state)
        self.__post_init__()

    def __len__(self) -> int:
        return int(self.frequencies.size)

    def filter(self, mask: np.ndarray) -> "ModeTable":
        """Return a new table restricted to rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        return ModeTable(
            frequencies=self.frequencies[mask],
            power=self.power[mask],
            amplitudes=self.amplitudes[mask],
            levels=self.levels[mask],
        )


class MrDMDTree:
    """Container of :class:`MrDMDNode` objects covering one timeline.

    Nodes are stored in insertion order and never removed; the tree is
    *not* required to be a perfect binary tree — the incremental update
    deliberately produces an uneven split at the append point (Fig. 1(c)).
    """

    def __init__(self, dt: float, n_features: int) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features!r}")
        self.dt = float(dt)
        self.n_features = int(n_features)
        # Narrowest node width this tree accepts: the row count before any
        # add_features topology event.  Trees that never grew keep the
        # strict width check (a too-narrow node is a bug, not a
        # pre-topology-event survivor).
        self._min_node_features = int(n_features)
        self._nodes: list[MrDMDNode] = []
        self._revision = 0
        # Contribution window [lo, hi) of every node, in insertion order:
        # windowed reconstruct selects the overlapping nodes with one
        # vectorised compare.  Node windows are fixed once added.
        self._bounds = GrowableMatrix(2, dtype=np.int64)
        # Revision of the last edit that touched every column (see
        # touched_since).
        self._reset_revision = 0
        self._total_modes = 0
        self._reset_table()

    # ------------------------------------------------------------------ #
    # Pickling: the mode-table rows are derived state — leave them out so
    # process-pool payloads and checkpoints stay compact.
    # ------------------------------------------------------------------ #
    def _reset_table(self) -> None:
        """Empty the mode-table rows: frequency, power and |amplitude| of
        every mode of ``_nodes[:_table_nodes]``, one column per mode."""
        self._table_rows = GrowableMatrix(3)
        self._table_nodes = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_table_rows"], state["_table_nodes"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_table()

    @property
    def revision(self) -> int:
        """Counter bumped on every structural edit (add/shift/add_features).

        Derived products (e.g. the pipeline's power-quantile threshold)
        key their caches on this value so they recompute only when the
        tree actually changed.
        """
        return self._revision

    def touched_since(self, revision: int, n_nodes: int) -> int | None:
        """Earliest column whose reconstruction an edit may have changed
        since the tree was at ``revision`` with ``n_nodes`` nodes (``None``
        when no edit did).

        :meth:`add` touches from the node's contribution start,
        :meth:`add_features` from column 0, and
        :meth:`shift_levels` touches nothing (levels do not enter the
        summed reconstruction).  An incremental update only adds nodes
        over the appended chunk, so consumers that keep a reconstruction
        of older columns need to recompute only from here on.
        """
        if self._reset_revision > revision:
            return 0
        if n_nodes >= len(self._nodes):
            return None
        return int(self._bounds.view()[0, n_nodes:].min())

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def add(self, node: MrDMDNode) -> None:
        """Append a node (validating its feature dimension).

        Nodes *narrower* than the tree are legal only down to the width
        the tree had before its first :meth:`add_features` topology event:
        such nodes predate the event and implicitly contribute zero to the
        rows that did not exist when their window was decomposed.  On a
        tree that never grew the check stays exact.
        """
        minimum = getattr(self, "_min_node_features", self.n_features)
        if not minimum <= node.n_features <= self.n_features:
            raise ValueError(
                f"node has {node.n_features} features, tree expects "
                f"{self.n_features}"
                + (
                    f" (or down to {minimum} for pre-topology-event nodes)"
                    if minimum < self.n_features
                    else ""
                )
            )
        self._nodes.append(node)
        self._bounds.append(np.array(node.contribution_window, dtype=np.int64))
        self._total_modes += node.n_modes
        self._revision += 1

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[MrDMDNode]:
        return iter(self._nodes)

    def __getitem__(self, idx: int) -> MrDMDNode:
        return self._nodes[idx]

    @property
    def nodes(self) -> list[MrDMDNode]:
        """All nodes in insertion order."""
        return list(self._nodes)

    @property
    def n_levels(self) -> int:
        """Deepest level present (0 for an empty tree)."""
        return max((n.level for n in self._nodes), default=0)

    @property
    def n_snapshots(self) -> int:
        """Total timeline length covered (max node end index)."""
        return max((n.end for n in self._nodes), default=0)

    @property
    def total_modes(self) -> int:
        """Total number of slow modes stored in the tree."""
        return self._total_modes

    def nodes_at_level(self, level: int) -> list[MrDMDNode]:
        """Nodes at the given 1-based level, ordered by window start."""
        return sorted(
            (n for n in self._nodes if n.level == level), key=lambda n: n.start
        )

    def levels(self) -> list[int]:
        """Sorted list of distinct levels present."""
        return sorted({n.level for n in self._nodes})

    # ------------------------------------------------------------------ #
    # Structural edits used by the incremental update
    # ------------------------------------------------------------------ #
    def shift_levels(self, offset: int = 1) -> None:
        """Increment every node's level by ``offset`` in place.

        This is the level re-indexing step of Fig. 1(c): after an
        incremental append, the previous level-1 node describes only the
        left part of the new, longer timeline and therefore becomes a
        level-2 node, and so on down the tree.
        """
        if offset < 0:
            raise ValueError("offset must be non-negative")
        for node in self._nodes:
            node.level += offset
        self._revision += 1

    def add_features(self, n_new: int) -> None:
        """Widen the row space by ``n_new`` features (elastic topology).

        Existing nodes are *not* touched: they keep their birth-time
        width, and :meth:`reconstruct` zero-extends them on the fly —
        sensors that join mid-stream contribute nothing to windows
        decomposed before they existed.  That makes the topology event
        O(1) in the tree size, so onboarding cost stays independent of how
        long the stream has been running (the node count grows with the
        timeline).  Bumps the revision and touches from column 0 (see
        :meth:`touched_since`) so every derived product (reconstruction
        buffers, baselines keyed on the revision) invalidates.  Mode
        powers are unchanged: the new rows of an old mode are zero.
        """
        if n_new < 0:
            raise ValueError(f"n_new must be non-negative, got {n_new!r}")
        if n_new == 0:
            return
        self.n_features += n_new
        self._revision += 1
        self._reset_revision = self._revision

    # ------------------------------------------------------------------ #
    # Analysis products
    # ------------------------------------------------------------------ #
    def mode_table(self) -> ModeTable:
        """Every mode's frequency, power, |amplitude| and level.

        The tree is append-only, and no edit changes an existing mode's
        frequency, power or |amplitude| (:meth:`add_features` zero-pads,
        which leaves power unchanged).  Those rows therefore live in one
        growable buffer, and a read appends only the modes of the nodes
        added since the last read: O(new modes).  Levels are read from the
        nodes, because :meth:`shift_levels` renumbers them.  The returned
        table is read-only, and later edits do not change it.
        """
        blocks = [
            np.vstack((node.frequencies, node.power, np.abs(node.amplitudes)))
            for node in self._nodes[self._table_nodes :]
            if node.n_modes
        ]
        if blocks:
            self._table_rows.append(np.hstack(blocks))
        self._table_nodes = len(self._nodes)
        rows = self._table_rows.frozen_view()
        per_node = np.array(
            [(node.level, node.n_modes) for node in self._nodes], dtype=int
        ).reshape(-1, 2)
        return ModeTable(
            frequencies=rows[0],
            power=rows[1],
            amplitudes=rows[2],
            levels=np.repeat(per_node[:, 0], per_node[:, 1]),
        )

    def reconstruct(
        self,
        n_snapshots: int | None = None,
        *,
        time_range: tuple[int, int] | None = None,
        levels: list[int] | None = None,
        frequency_range: tuple[float, float] | None = None,
        min_power: float = 0.0,
    ) -> np.ndarray:
        """Sum the slow-mode contributions of (a subset of) nodes (Eq. 7).

        Parameters
        ----------
        n_snapshots:
            Length of the output timeline; defaults to the tree's span.
        time_range:
            Optional absolute ``(start, stop)`` snapshot window.  Only
            modes overlapping the window are expanded and the returned
            array has ``stop - start`` columns (after clamping to
            ``[0, n_snapshots)``) — column ``j`` equals column
            ``start + j`` of the full reconstruction.  This is what keeps
            recent-window queries (z-scores over the last chunk, rack
            views) from paying O(full timeline) per call.
        levels:
            Restrict the sum to these levels (``None`` = all levels).
        frequency_range:
            When given, only modes whose frequency (Hz) lies in
            ``[low, high]`` contribute — this is the "frequency isolation"
            used in the case studies (0-60 Hz in case study 1).
        min_power:
            Drop modes with power below this value (high-power filtering
            from the mrDMD spectrum).
        """
        total = self.n_snapshots if n_snapshots is None else int(n_snapshots)
        if time_range is None:
            window_lo, window_hi = 0, total
        else:
            start, stop = time_range
            if stop < start:
                raise ValueError(f"time_range must be (start, stop), got {time_range!r}")
            window_lo = min(max(int(start), 0), total)
            window_hi = min(max(int(stop), 0), total)
        out = np.zeros((self.n_features, window_hi - window_lo), dtype=float)
        if not self._nodes or window_hi <= window_lo:
            return out
        bounds = self._bounds.view()
        lo_all = np.maximum(bounds[0], window_lo)
        hi_all = np.minimum(bounds[1], window_hi)
        level_set = set(levels) if levels is not None else None
        # Overlapping nodes in insertion order, so the sum is the same
        # whichever window asked for a column.
        for index in np.flatnonzero(hi_all > lo_all).tolist():
            node = self._nodes[index]
            if level_set is not None and node.level not in level_set:
                continue
            lo, hi = int(lo_all[index]), int(hi_all[index])
            use = node
            if frequency_range is not None or min_power > 0.0:
                mask = np.ones(node.n_modes, dtype=bool)
                if frequency_range is not None:
                    f_lo, f_hi = frequency_range
                    f = node.frequencies
                    mask &= (f >= f_lo) & (f <= f_hi)
                if min_power > 0.0:
                    mask &= node.power >= min_power
                if not np.any(mask):
                    continue
                use = node.copy_with(
                    modes=node.modes[:, mask],
                    eigenvalues=node.eigenvalues[mask],
                    amplitudes=node.amplitudes[mask],
                )
            offset = lo - node.start
            # Nodes predating a topology event are narrower than the tree:
            # their contribution lands in the leading rows (row order is
            # append-only) and the newer rows stay zero over their window.
            out[: use.n_features, lo - window_lo : hi - window_lo] += (
                use.local_reconstruction_range(offset, hi - lo)
            )
        return out

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise to plain NumPy containers (for npz export).

        Node fields are stacked into a few arrays (``node_ints``,
        ``node_floats`` and the raveled, concatenated mode arrays) rather
        than one dict of small arrays per node: a long stream's tree holds
        hundreds of nodes, and every array is one more member for a
        checkpoint to copy, hash and write.  The arrays are fresh and
        read-only, so a checkpoint capture shares them.
        """
        nodes = self._nodes
        payload = {
            "dt": self.dt,
            "n_features": self.n_features,
            "node_ints": np.array([_packed_row(n) for n in nodes], dtype=np.int64)
            .reshape(len(nodes), len(_INT_FIELDS) + 5),
            "node_floats": np.array([(n.dt, n.rho) for n in nodes], dtype=float)
            .reshape(len(nodes), 2),
        }
        stacked = {
            # order="A" ravels a Fortran-only array column-major (_fortran).
            "modes": [n.modes.ravel(order="A") for n in nodes],
            "eigenvalues": [n.eigenvalues for n in nodes],
            "amplitudes": [n.amplitudes for n in nodes],
        }
        for name, parts in stacked.items():
            payload[name] = np.concatenate(parts) if parts else np.zeros(0, dtype=complex)
        for value in payload.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return payload

    @staticmethod
    def _node_records(payload: dict) -> list[dict]:
        """Per-node field dicts of a :meth:`to_dict` payload."""
        if "nodes" in payload:
            # The per-node layout of checkpoints written before to_dict
            # stacked its arrays.
            return list(payload["nodes"])
        records = []
        offsets = dict.fromkeys(("modes", "eigenvalues", "amplitudes"), 0)
        table = zip(payload["node_ints"].tolist(), payload["node_floats"].tolist())
        for ints, floats in table:
            record = dict(zip(_INT_FIELDS, ints))
            record["dt"], record["rho"] = floats
            for key in ("contribution_start", "contribution_end"):
                if record[key] < 0:
                    record[key] = None
            rows, cols, fortran, n_eig, n_amp = ints[len(_INT_FIELDS):]
            sizes = {"modes": rows * cols, "eigenvalues": n_eig, "amplitudes": n_amp}
            for name, size in sizes.items():
                lo = offsets[name]
                record[name] = payload[name][lo : lo + size]
                offsets[name] = lo + size
            record["modes"] = record["modes"].reshape(
                rows, cols, order="F" if fortran else "C"
            )
            records.append(record)
        return records

    @classmethod
    def from_dict(cls, payload: dict) -> "MrDMDTree":
        """Inverse of :meth:`to_dict` (also reads the older per-node layout)."""
        tree = cls(dt=float(payload["dt"]), n_features=int(payload["n_features"]))
        records = cls._node_records(payload)
        # A serialised elastic tree may hold nodes narrower than its
        # current width (they predate growth events); accept the narrowest
        # stored width as the floor while rebuilding.
        widths = [np.asarray(nd["modes"]).shape[0] for nd in records]
        if widths:
            tree._min_node_features = min(widths)
        for nd in records:
            tree.add(
                MrDMDNode(
                    level=int(nd["level"]),
                    bin_index=int(nd["bin_index"]),
                    start=int(nd["start"]),
                    n_snapshots=int(nd["n_snapshots"]),
                    dt=float(nd["dt"]),
                    step=int(nd["step"]),
                    rho=float(nd["rho"]),
                    modes=np.array(nd["modes"], dtype=complex),
                    eigenvalues=np.array(nd["eigenvalues"], dtype=complex),
                    amplitudes=np.array(nd["amplitudes"], dtype=complex),
                    svd_rank=int(nd.get("svd_rank", 0)),
                    contribution_start=nd.get("contribution_start"),
                    contribution_end=nd.get("contribution_end"),
                )
            )
        return tree

    def summary(self) -> str:
        """Human-readable multi-line description (levels, windows, modes)."""
        lines = [
            f"MrDMDTree: {len(self)} nodes, {self.n_levels} levels, "
            f"{self.total_modes} modes, {self.n_snapshots} snapshots @ dt={self.dt}s"
        ]
        for level in self.levels():
            nodes = self.nodes_at_level(level)
            modes = sum(n.n_modes for n in nodes)
            lines.append(f"  level {level}: {len(nodes)} windows, {modes} slow modes")
        return "\n".join(lines)
