"""Test-only writers for retired checkpoint formats.

The library no longer writes these formats but still reads them:
checkpoints left on disk by earlier releases are outside input.

:func:`save_deflated_state` writes a state container the way earlier
releases' ``save_state`` did (``ZIP_DEFLATED`` members at level 1; the
library now stores them), and :func:`put_deflated_block` drops one into
a block store under its content digest.

:func:`save_legacy_checkpoint` produces a version-1/2 checkpoint the way
those releases did — one deflated state container per shard inside the
checkpoint directory and a manifest listing them as ``shard_files`` —
including the retired keys those releases stored:
``keep_data`` next to ``retain_data``, ``level1_path``/``baseline_refit``
in pipeline configs, ``level1_path``/``lazy_vh`` in model states,
``lazy_rotation`` in iSVD states and the row-policing ``extra_rows`` mode
in the manifest, so the fixtures exercise the readers' legacy paths end
to end.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from repro.io.delta import BlockStore, state_digest
from repro.io.storage import _flatten_state
from repro.service import FleetMonitor
from repro.service.checkpoint import MANIFEST_NAME, _capture_manifest

#: The deflate level earlier releases wrote state containers at.
LEGACY_COMPRESSLEVEL = 1


def save_deflated_state(path: str, state: dict) -> str:
    """Write ``state`` as earlier releases' ``save_state`` did: the same
    ``.npy`` members, deflated at :data:`LEGACY_COMPRESSLEVEL`."""
    arrays: dict[str, np.ndarray] = {}
    structure = _flatten_state(state, arrays)
    arrays["state_json"] = np.array([json.dumps(structure)])
    with zipfile.ZipFile(
        path, "w", zipfile.ZIP_DEFLATED, compresslevel=LEGACY_COMPRESSLEVEL
    ) as archive:
        for key, value in arrays.items():
            with archive.open(key + ".npy", "w", force_zip64=True) as handle:
                np.lib.format.write_array(handle, np.asanyarray(value), allow_pickle=False)
    return path


def put_deflated_block(store: BlockStore, state: dict) -> str:
    """Place an earlier release's (deflated) block for ``state`` in
    ``store``; returns its digest."""
    digest = state_digest(state)
    os.makedirs(store.root, exist_ok=True)
    save_deflated_state(store.path(digest), state)
    return digest


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
        save_deflated_state(os.path.join(directory, name), state)
        shard_files.append(name)
    manifest = {"version": version, "extra_rows": "raise", **_capture_manifest(monitor)}
    _legacy_config(manifest["config"])
    manifest["shard_files"] = shard_files
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return directory
