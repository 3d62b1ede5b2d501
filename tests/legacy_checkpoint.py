"""Test-only writer for the retired version-1/2 checkpoint layout.

The library no longer writes this layout but still reads it: checkpoints
left on disk by earlier releases are outside input.  This helper produces
one the way those releases did — one ``save_state`` container per shard
inside the checkpoint directory and a manifest listing them as
``shard_files`` — including the retired ``keep_data`` flag those
releases stored next to ``retain_data``, so the fixtures exercise the
readers' legacy paths end to end.
"""

from __future__ import annotations

import json
import os

from repro.io import save_state
from repro.service import FleetMonitor
from repro.service.checkpoint import MANIFEST_NAME, _capture_manifest


def _legacy_retention(payload: dict) -> None:
    """Spell retention the pre-fold way: ``keep_data`` plus
    ``retain_data=None`` whenever the flag alone expressed the policy."""
    policy = payload["retain_data"]
    payload["keep_data"] = policy == "all"
    if policy in ("all", "none"):
        payload["retain_data"] = None


def save_legacy_checkpoint(
    directory: str, monitor: FleetMonitor, *, version: int = 1
) -> str:
    """Write ``monitor`` as a v1 (or, with rows added mid-stream, v2)
    checkpoint under ``directory``; returns the directory."""
    os.makedirs(directory, exist_ok=True)
    shard_files = []
    for index, spec in enumerate(monitor.shards):
        state = dict(monitor.shard_state_dict(spec.shard_id))
        state["config"] = dict(state["config"])
        _legacy_retention(state["config"])
        state["model"] = dict(state["model"])
        state["model"]["keep_data"] = state["model"]["retain_data"] == "all"
        name = f"shard_{index}.npz"
        save_state(os.path.join(directory, name), state)
        shard_files.append(name)
    manifest = {"version": version, **_capture_manifest(monitor)}
    _legacy_retention(manifest["config"])
    manifest["shard_files"] = shard_files
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return directory
