"""Test-only writer for the retired version-1/2 checkpoint layout.

The library no longer writes this layout but still reads it: checkpoints
left on disk by earlier releases are outside input.  This helper produces
one the way those releases did — one ``save_state`` container per shard
inside the checkpoint directory and a manifest listing them as
``shard_files`` — including the retired keys those releases stored:
``keep_data`` next to ``retain_data``, ``level1_path``/``baseline_refit``
in pipeline configs, ``level1_path``/``lazy_vh`` in model states,
``lazy_rotation`` in iSVD states and the row-policing ``extra_rows`` mode
in the manifest, so the fixtures exercise the readers' legacy paths end
to end.
"""

from __future__ import annotations

import json
import os

from repro.io import save_state
from repro.service import FleetMonitor
from repro.service.checkpoint import MANIFEST_NAME, _capture_manifest


def _legacy_config(payload: dict) -> None:
    """Spell a pipeline config the old way: the retired level-1 and
    baseline-refit knobs at their defaults, and retention as ``keep_data``
    plus ``retain_data=None`` whenever the flag alone expressed the
    policy."""
    payload["level1_path"] = "projected"
    payload["baseline_refit"] = "stale"
    policy = payload["retain_data"]
    payload["keep_data"] = policy == "all"
    if policy in ("all", "none"):
        payload["retain_data"] = None


def _legacy_model(state: dict) -> dict:
    """A model state with the retired flags its writers stored."""
    state = dict(state)
    state["keep_data"] = state["retain_data"] == "all"
    state["level1_path"], state["lazy_vh"] = "projected", True
    if state["isvd"] is not None:
        state["isvd"] = {**state["isvd"], "lazy_rotation": True}
    return state


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
        _legacy_config(state["config"])
        state["model"] = _legacy_model(state["model"])
        name = f"shard_{index}.npz"
        save_state(os.path.join(directory, name), state)
        shard_files.append(name)
    manifest = {"version": version, "extra_rows": "raise", **_capture_manifest(monitor)}
    _legacy_config(manifest["config"])
    manifest["shard_files"] = shard_files
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return directory
