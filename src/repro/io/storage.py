"""On-disk formats for telemetry, job/hardware logs, and mrDMD trees.

A deployed monitoring pipeline has to persist two very different things:

* the *raw-ish* inputs (telemetry matrices, job records, hardware events) —
  stored here as compressed ``.npz`` (numeric) and JSON-lines (records), the
  formats a facility's collectors most easily produce; and
* the *analysis state* — the mrDMD mode tree, which is the paper's
  "terabytes to megabytes" compressed summary and the thing an operator
  would archive per analysis window — and the service checkpoint state
  (:func:`save_state`), stored uncompressed because it is rewritten on
  the ingest machine's cores.

All functions take/return the in-memory objects used throughout the package,
round-trip exactly (asserted by the tests), and avoid any dependency beyond
NumPy and the standard library.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from ..core.tree import MrDMDTree
from ..hwlog.events import HardwareEvent, HardwareEventType, HardwareLog
from ..joblog.jobs import JobLog, JobRecord
from ..telemetry.generator import TelemetryStream
from ..telemetry.machine import MachineDescription

__all__ = [
    "save_telemetry",
    "load_telemetry",
    "save_job_log",
    "load_job_log",
    "save_hardware_log",
    "load_hardware_log",
    "save_tree",
    "load_tree",
    "save_state",
    "load_state",
]


# --------------------------------------------------------------------------- #
# Telemetry (.npz)
# --------------------------------------------------------------------------- #
def save_telemetry(path: str, stream: TelemetryStream) -> str:
    """Write a telemetry stream to a compressed ``.npz`` file.

    The machine description is stored as its layout-spec string plus the
    handful of fields the loader needs to rebuild an equivalent (not
    necessarily identical) :class:`MachineDescription`; sensor suites are
    not serialised (they are code, not data).
    """
    np.savez_compressed(
        path,
        values=stream.values,
        dt=np.array([stream.dt]),
        sensor_names=np.asarray(stream.sensor_names, dtype=str),
        node_indices=stream.node_indices,
        start_step=np.array([stream.start_step]),
        machine_name=np.array([stream.machine.name]),
        machine_layout=np.array([stream.machine.layout_spec()]),
        machine_n_nodes=np.array([stream.machine.n_nodes]),
    )
    return path


def load_telemetry(path: str, machine: MachineDescription) -> TelemetryStream:
    """Load a telemetry stream saved by :func:`save_telemetry`.

    ``machine`` must be supplied by the caller (the file stores only the
    layout string for cross-checking); a mismatch in node count raises.
    """
    with np.load(path, allow_pickle=False) as payload:
        n_nodes = int(payload["machine_n_nodes"][0])
        if n_nodes != machine.n_nodes:
            raise ValueError(
                f"file was generated for a {n_nodes}-node machine, "
                f"got a {machine.n_nodes}-node description"
            )
        return TelemetryStream(
            values=payload["values"],
            dt=float(payload["dt"][0]),
            sensor_names=payload["sensor_names"].astype(object),
            node_indices=payload["node_indices"],
            machine=machine,
            utilization=None,
            start_step=int(payload["start_step"][0]),
        )


# --------------------------------------------------------------------------- #
# Job log (JSON lines)
# --------------------------------------------------------------------------- #
def save_job_log(path: str, joblog: JobLog) -> str:
    """Write a job log as JSON lines (one record per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in joblog:
            handle.write(json.dumps({
                "job_id": record.job_id,
                "project": record.project,
                "user": record.user,
                "nodes": list(record.nodes),
                "submit_step": record.submit_step,
                "start_step": record.start_step,
                "end_step": record.end_step,
                "requested_steps": record.requested_steps,
                "exit_status": record.exit_status,
            }) + "\n")
    return path


def load_job_log(path: str) -> JobLog:
    """Load a job log written by :func:`save_job_log`."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            records.append(JobRecord(
                job_id=int(raw["job_id"]),
                project=str(raw["project"]),
                user=str(raw["user"]),
                nodes=tuple(int(n) for n in raw["nodes"]),
                submit_step=int(raw["submit_step"]),
                start_step=int(raw["start_step"]),
                end_step=None if raw["end_step"] is None else int(raw["end_step"]),
                requested_steps=int(raw["requested_steps"]),
                exit_status=int(raw["exit_status"]),
            ))
    return JobLog(records)


# --------------------------------------------------------------------------- #
# Hardware log (JSON lines)
# --------------------------------------------------------------------------- #
def save_hardware_log(path: str, hwlog: HardwareLog) -> str:
    """Write a hardware-event log as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in hwlog:
            handle.write(json.dumps({
                "node": event.node,
                "event_type": event.event_type.value,
                "start_step": event.start_step,
                "end_step": event.end_step,
                "severity": event.severity,
                "message": event.message,
            }) + "\n")
    return path


def load_hardware_log(path: str) -> HardwareLog:
    """Load a hardware-event log written by :func:`save_hardware_log`."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            events.append(HardwareEvent(
                node=int(raw["node"]),
                event_type=HardwareEventType(raw["event_type"]),
                start_step=int(raw["start_step"]),
                end_step=int(raw["end_step"]),
                severity=int(raw["severity"]),
                message=str(raw.get("message", "")),
            ))
    return HardwareLog(events)


# --------------------------------------------------------------------------- #
# Generic nested state (.npz) — the service checkpoint format
# --------------------------------------------------------------------------- #
def _flatten_state(obj, arrays: dict[str, np.ndarray]):
    """JSON-safe mirror of ``obj`` with arrays swapped for ``.npz`` keys."""
    if isinstance(obj, np.ndarray):
        key = f"array_{len(arrays)}"
        arrays[key] = obj
        return {"__array__": key}
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, tuple):
        return {"__tuple__": [_flatten_state(v, arrays) for v in obj]}
    if isinstance(obj, list):
        return [_flatten_state(v, arrays) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"state dict keys must be strings, got {key!r}")
            if key.startswith("__"):
                raise ValueError(f"state dict keys must not start with '__': {key!r}")
            out[key] = _flatten_state(value, arrays)
        return out
    raise TypeError(f"cannot serialise object of type {type(obj).__name__} in state")


def _unflatten_state(obj, arrays):
    if isinstance(obj, dict):
        if "__array__" in obj:
            return arrays[obj["__array__"]]
        if "__tuple__" in obj:
            return tuple(_unflatten_state(v, arrays) for v in obj["__tuple__"])
        return {key: _unflatten_state(value, arrays) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_unflatten_state(v, arrays) for v in obj]
    return obj


def save_state(path: str, state: dict) -> str:
    """Write an arbitrarily nested state dict to one uncompressed ``.npz``.

    ``state`` may mix NumPy arrays (any dtype, stored losslessly) with
    JSON-representable scalars, ``None``, lists, tuples and string-keyed
    dicts.  This is the container format for every service checkpoint
    artifact (per-shard pipeline state, iSVD factors, baselines); tuples
    survive the round trip, unlike a plain JSON dump.

    Members are stored, not deflated.  Checkpoint state is mostly
    floating-point noise that deflate shrinks only 1.3-1.6x, for 11-16x
    the CPU of a stored write, and that CPU is taken from the shard
    workers by the asynchronous checkpoint writer.  Each member's zip
    CRC-32 still detects a damaged block on load.

    Returns the path actually written: ``np.savez`` appends ``.npz`` when
    the suffix is missing, and the return value reflects that, so
    ``load_state(save_state(path, state))`` always works.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    arrays: dict[str, np.ndarray] = {}
    structure = _flatten_state(state, arrays)
    arrays["state_json"] = np.array([json.dumps(structure)])
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for key, value in arrays.items():
            with archive.open(key + ".npy", "w", force_zip64=True) as handle:
                np.lib.format.write_array(handle, np.asanyarray(value), allow_pickle=False)
    return path


def load_state(path: str) -> dict:
    """Inverse of :func:`save_state` (arrays come back bit-for-bit).

    Also reads the deflated containers that earlier releases wrote.
    """
    with np.load(path, allow_pickle=False) as payload:
        structure = json.loads(str(payload["state_json"][0]))
        arrays = {key: payload[key] for key in payload.files if key != "state_json"}
    return _unflatten_state(structure, arrays)


# --------------------------------------------------------------------------- #
# mrDMD tree (.npz)
# --------------------------------------------------------------------------- #
def save_tree(path: str, tree: MrDMDTree) -> str:
    """Write an mrDMD tree to a compressed ``.npz`` file.

    This is the "megabytes instead of terabytes" artifact: the modes,
    eigenvalues and amplitudes of every node, plus the window metadata,
    from which the denoised signal can be reconstructed at any time.
    """
    arrays: dict[str, np.ndarray] = {
        "dt": np.array([tree.dt]),
        "n_features": np.array([tree.n_features]),
        "n_nodes": np.array([len(tree)]),
    }
    meta = []
    for i, node in enumerate(tree):
        arrays[f"modes_{i}"] = node.modes
        arrays[f"eigenvalues_{i}"] = node.eigenvalues
        arrays[f"amplitudes_{i}"] = node.amplitudes
        meta.append({
            key: getattr(node, key)
            for key in ("level", "bin_index", "start", "n_snapshots", "dt", "step",
                        "rho", "svd_rank", "contribution_start", "contribution_end")
        })
    arrays["meta_json"] = np.array([json.dumps(meta)])
    np.savez_compressed(path, **arrays)
    return path


def load_tree(path: str) -> MrDMDTree:
    """Load an mrDMD tree written by :func:`save_tree`."""
    with np.load(path, allow_pickle=False) as payload:
        meta = json.loads(str(payload["meta_json"][0]))
        nodes = []
        for i, node_meta in enumerate(meta):
            node = dict(node_meta)
            node["modes"] = payload[f"modes_{i}"]
            node["eigenvalues"] = payload[f"eigenvalues_{i}"]
            node["amplitudes"] = payload[f"amplitudes_{i}"]
            nodes.append(node)
        return MrDMDTree.from_dict({
            "dt": float(payload["dt"][0]),
            "n_features": int(payload["n_features"][0]),
            "nodes": nodes,
        })
