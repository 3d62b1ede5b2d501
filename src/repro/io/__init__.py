"""Persistence of logs, telemetry and decomposition results."""

from .delta import (
    AsyncCheckpointWriter,
    BlockStore,
    CheckpointWriteError,
    state_digest,
)
from .storage import (
    load_hardware_log,
    load_job_log,
    load_state,
    load_telemetry,
    load_tree,
    save_hardware_log,
    save_job_log,
    save_state,
    save_telemetry,
    save_tree,
)

__all__ = [
    "AsyncCheckpointWriter",
    "BlockStore",
    "CheckpointWriteError",
    "state_digest",
    "load_hardware_log",
    "load_job_log",
    "load_state",
    "load_telemetry",
    "load_tree",
    "save_hardware_log",
    "save_job_log",
    "save_state",
    "save_telemetry",
    "save_tree",
]
