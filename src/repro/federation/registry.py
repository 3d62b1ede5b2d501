"""Named-machine registry: the directory layer above per-machine monitors.

A federation watches *N machines*, each with its own
:class:`~repro.service.monitor.FleetMonitor` — its own sharding policy,
pipeline config and executor backend.  The registry is the authoritative
membership list: machines register under a stable name (used to stamp
alerts, key federated products and lay out checkpoint directories) and can
deregister at any time.  The
:class:`~repro.federation.monitor.FederatedMonitor` reads the registry on
every call, so a change takes effect at the next round; other machines'
executors are never touched.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping

from ..service.monitor import FleetMonitor

__all__ = ["MachineRegistry"]

#: Machine names become alert stamps, product keys (``machine/shard``) and
#: checkpoint subdirectories, so they must be path- and key-safe.
_MACHINE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class MachineRegistry:
    """Ordered mapping of machine name -> :class:`FleetMonitor`.

    Registration order is preserved (it defines the deterministic round
    and product ordering of the federated monitor).  Each monitor keeps
    full ownership of its own shard partition, pipeline config and
    executor backend — the registry never inspects them.
    """

    def __init__(self, monitors: Mapping[str, FleetMonitor] | None = None) -> None:
        self._monitors: dict[str, FleetMonitor] = {}
        if monitors:
            for name, monitor in monitors.items():
                self.register(name, monitor)

    # ------------------------------------------------------------------ #
    @property
    def names(self) -> tuple[str, ...]:
        """Registered machine names, in registration order."""
        return tuple(self._monitors)

    @property
    def n_machines(self) -> int:
        return len(self._monitors)

    # ------------------------------------------------------------------ #
    def register(self, name: str, monitor: FleetMonitor) -> FleetMonitor:
        """Add a machine under ``name``; returns the monitor for chaining.

        Names must be unique and path-safe (letters, digits, ``.``, ``_``,
        ``-``; no leading punctuation) — they become alert stamps and
        checkpoint subdirectory names.
        """
        if not isinstance(name, str) or not _MACHINE_NAME_RE.match(name):
            raise ValueError(
                f"invalid machine name {name!r}: use letters, digits, '.', '_' "
                f"or '-' (no leading punctuation)"
            )
        if name in self._monitors:
            raise ValueError(f"machine {name!r} is already registered")
        if not isinstance(monitor, FleetMonitor):
            raise TypeError(
                f"machine {name!r} must be backed by a FleetMonitor, "
                f"got {type(monitor).__name__}"
            )
        self._monitors[name] = monitor
        return monitor

    def deregister(self, name: str) -> FleetMonitor:
        """Remove and return a machine's monitor (it is *not* closed —
        the caller may keep using or re-register it)."""
        try:
            monitor = self._monitors.pop(name)
        except KeyError:
            raise KeyError(f"unknown machine {name!r}") from None
        return monitor

    # ------------------------------------------------------------------ #
    def monitors(self) -> dict[str, FleetMonitor]:
        """Name -> monitor snapshot (a copy; mutating it changes nothing)."""
        return dict(self._monitors)

    def get(self, name: str) -> FleetMonitor:
        try:
            return self._monitors[name]
        except KeyError:
            raise KeyError(f"unknown machine {name!r}") from None

    def __getitem__(self, name: str) -> FleetMonitor:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._monitors

    def __iter__(self) -> Iterator[str]:
        return iter(self._monitors)

    def __len__(self) -> int:
        return len(self._monitors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MachineRegistry n={len(self)} machines={list(self._monitors)}>"

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every registered monitor's executor (idempotent).

        Every monitor is closed even when an earlier one raises (say, a
        :class:`~repro.util.parallel.ShardTaskError` after one of its
        workers died), so no machine's worker processes outlive the call;
        the first error is re-raised afterwards.
        """
        first_error: BaseException | None = None
        for monitor in self._monitors.values():
            try:
                monitor.close()
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
