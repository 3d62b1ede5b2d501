"""Multi-machine fleet federation: registry, routed alerts, rotating checkpoints.

``repro.service`` monitors one machine; this package turns N of those
monitors into a single queryable, alert-routing system:

* :mod:`repro.federation.registry` — :class:`MachineRegistry`, the named
  membership list (one :class:`~repro.service.FleetMonitor` per machine,
  each with its own sharding policy, config and executor backend);
* :mod:`repro.federation.monitor` — :class:`FederatedMonitor`, running
  each machine's round in turn (every machine parallelises its own
  shards on its own executor; the federation owns no pool) and merging
  per-machine products into federated ones;
* :mod:`repro.federation.routing` — :class:`AlertRouter` (machine
  stamping, cross-machine cooldown/dedup, global + per-machine sinks) and
  :class:`FleetWideRule` (>= k machines drifting within a window);
* :mod:`repro.federation.checkpoint` — whole-federation checkpoints
  (manifest + one service checkpoint per machine) with step-stamped
  rotation and bit-for-bit restore;
* :mod:`repro.federation.scenario` — the ``federated-fleet`` catalog
  workload and its runner.
"""

from .checkpoint import (
    FederatedCheckpointInfo,
    compact_federated_checkpoint,
    load_federated_checkpoint,
    read_federated_manifest,
    save_federated_checkpoint,
)
from .chunklog import ChunkLog, ChunkLogEntry
from .monitor import FederatedMonitor, FederatedSnapshot, FederatedSpectrum
from .registry import MachineRegistry
from .routing import (
    AlertRouter,
    FederatedAlertContext,
    FleetWideRule,
    FleetWideZScoreRule,
)
from .scenario import (
    FEDERATED_SCENARIOS,
    FederatedScenario,
    FederatedScenarioResult,
    FederatedScenarioRunner,
    federated_fleet,
    get_federated_scenario,
)

__all__ = [
    "AlertRouter",
    "FederatedAlertContext",
    "FleetWideRule",
    "FleetWideZScoreRule",
    "ChunkLog",
    "ChunkLogEntry",
    "MachineRegistry",
    "FederatedMonitor",
    "FederatedSnapshot",
    "FederatedSpectrum",
    "FederatedCheckpointInfo",
    "save_federated_checkpoint",
    "compact_federated_checkpoint",
    "load_federated_checkpoint",
    "read_federated_manifest",
    "FEDERATED_SCENARIOS",
    "FederatedScenario",
    "FederatedScenarioResult",
    "FederatedScenarioRunner",
    "federated_fleet",
    "get_federated_scenario",
]
