"""Checkpoint corruption regressions: damaged state must fail *clearly*.

A checkpoint that was truncated mid-write, bit-rotted on disk or edited by
hand must not surface as a bare ``KeyError``/``zipfile.BadZipFile`` three
frames deep in NumPy — every corruption mode raises
:class:`~repro.service.checkpoint.CheckpointError` naming the damaged file
and pointing at the recovery path (an older rotation entry).  Covered for
both the single-machine service checkpoint — in the block-store layout
every save writes and in the retired v1/v2 layout that still loads — and
the federated wrapper.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zipfile

import pytest

from repro.core import MrDMDConfig
from repro.federation import (
    AlertRouter,
    FederatedMonitor,
    MachineRegistry,
    load_federated_checkpoint,
    read_federated_manifest,
    save_federated_checkpoint,
)
from repro.io.delta import CheckpointWriteError
from repro.pipeline import PipelineConfig
from repro.service import (
    AlertEngine,
    CheckpointError,
    FleetMonitor,
    RackSharding,
    default_rules,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.service.checkpoint import MANIFEST_NAME, read_manifest
from repro.telemetry import MachineDescription, TelemetryGenerator
from repro.telemetry.sensors import xc40_sensor_suite

from legacy_checkpoint import save_legacy_checkpoint

CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
    power_quantile=0.0,
)


def small_machine() -> MachineDescription:
    return MachineDescription(
        name="xc40",
        n_rows=1,
        racks_per_row=2,
        cabinets_per_rack=1,
        slots_per_cabinet=2,
        blades_per_slot=1,
        nodes_per_blade=4,
        sensors=xc40_sensor_suite(),
        dt_seconds=15.0,
    )


def _build_monitor(seed: int) -> FleetMonitor:
    stream = TelemetryGenerator(
        small_machine(), seed=seed, utilization_target=0.3
    ).generate(240, sensors=["cpu_temp"])
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=AlertEngine(rules=default_rules(), cooldown=100),
    )
    monitor.ingest(stream.values)
    return monitor


@pytest.fixture(scope="module")
def pristine_checkpoint(tmp_path_factory):
    """A known-good legacy (v1) checkpoint the corruption tests copy and
    damage."""
    path = tmp_path_factory.mktemp("ckpt") / "good"
    return save_legacy_checkpoint(str(path), _build_monitor(seed=31))


@pytest.fixture(scope="module")
def pristine_federated(tmp_path_factory):
    registry = MachineRegistry(
        {"east": _build_monitor(seed=32), "west": _build_monitor(seed=33)}
    )
    federated = FederatedMonitor(registry, router=AlertRouter())
    path = tmp_path_factory.mktemp("fed") / "good"
    save_federated_checkpoint(str(path), federated)
    return str(path)


def _damaged_copy(source: str, destination) -> str:
    target = str(destination / "damaged")
    shutil.copytree(source, target)
    return target


def _shard_path(directory: str, index: int) -> str:
    """The file holding shard ``index``'s state, in either layout."""
    with open(os.path.join(directory, MANIFEST_NAME), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if "shard_blocks" in manifest:
        name = manifest["shard_blocks"][index] + ".npz"
        return os.path.join(directory, manifest["blocks_dir"], name)
    return os.path.join(directory, manifest["shard_files"][index])


def _edit_manifest(directory: str, mutate) -> None:
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    mutate(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


class TestServiceCheckpointCorruption:
    """Damage to a legacy v1 checkpoint (``shard_files`` layout)."""

    #: The manifest entry listing the shards' state files.
    SHARD_LIST = "shard_files"

    def test_error_type_is_a_value_error(self):
        # Callers that guarded with `except ValueError` keep working.
        assert issubclass(CheckpointError, ValueError)

    def test_truncated_shard_npz(self, pristine_checkpoint, tmp_path):
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        path = _shard_path(target, 0)
        with open(path, "rb") as fh:
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(payload[: len(payload) // 3])
        with pytest.raises(CheckpointError, match="corrupt or unreadable") as err:
            load_checkpoint(target, rules=default_rules())
        assert os.path.basename(path) in str(err.value)
        assert "older rotation entry" in str(err.value)

    def test_garbage_shard_npz(self, pristine_checkpoint, tmp_path):
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        path = _shard_path(target, 1)
        with open(path, "wb") as fh:
            fh.write(b"this was never a zip archive" * 64)
        with pytest.raises(CheckpointError, match="corrupt or unreadable") as err:
            load_checkpoint(target, rules=default_rules())
        assert os.path.basename(path) in str(err.value)

    def test_missing_shard_file(self, pristine_checkpoint, tmp_path):
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        path = _shard_path(target, 0)
        os.remove(path)
        with pytest.raises(CheckpointError, match="missing") as err:
            load_checkpoint(target, rules=default_rules())
        assert os.path.basename(path) in str(err.value)

    @pytest.mark.parametrize("key", ["shards", "shard_files", "dt", "step"])
    def test_missing_manifest_entry(self, pristine_checkpoint, tmp_path, key):
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        _edit_manifest(target, lambda m: m.pop(key))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(target, rules=default_rules())

    def test_shard_file_count_mismatch(self, pristine_checkpoint, tmp_path):
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        _edit_manifest(target, lambda m: m[self.SHARD_LIST].pop())
        kind = self.SHARD_LIST.replace("_", " ")  # "shard files" / "shard blocks"
        with pytest.raises(CheckpointError, match=kind):
            load_checkpoint(target, rules=default_rules())

    def test_manifest_not_json(self, pristine_checkpoint, tmp_path):
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        with open(os.path.join(target, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            fh.write("{ truncated mid-wri")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_manifest(target)

    def test_manifest_not_an_object(self, pristine_checkpoint, tmp_path):
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        with open(os.path.join(target, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(["not", "a", "manifest"], fh)
        with pytest.raises(CheckpointError, match="JSON object"):
            read_manifest(target)

    def test_pristine_copy_still_loads(self, pristine_checkpoint, tmp_path):
        # The damage helpers themselves must not be the reason tests pass.
        target = _damaged_copy(pristine_checkpoint, tmp_path)
        monitor = load_checkpoint(target, rules=default_rules())
        assert monitor.step == 240


class TestBlockStoreCheckpointCorruption(TestServiceCheckpointCorruption):
    """The same damage to a checkpoint written in place (version 3, its
    blocks inside it), so copying the directory copies everything."""

    SHARD_LIST = "shard_blocks"

    @pytest.fixture(scope="class")
    def pristine_checkpoint(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ckpt") / "good")
        save_checkpoint(path, _build_monitor(seed=31))
        return path

    @pytest.mark.parametrize(
        "key", ["shards", "shard_blocks", "blocks_dir", "dt", "step"]
    )
    def test_missing_manifest_entry(self, pristine_checkpoint, tmp_path, key):
        super().test_missing_manifest_entry(pristine_checkpoint, tmp_path, key)


class TestDeltaCheckpointCorruption:
    """Delta entries and the async writer under damage and crashes."""

    @staticmethod
    def _delta_checkpoint(tmp_path, seed: int = 34):
        monitor = _build_monitor(seed=seed)
        root = str(tmp_path / "delta")
        save_checkpoint(root, monitor, keep_last=2, format="delta")
        return monitor, root

    @staticmethod
    def _shard_reprs(monitor):
        return {
            spec.shard_id: repr(monitor.shard_state_dict(spec.shard_id))
            for spec in monitor.shards
        }

    def test_missing_delta_block(self, tmp_path):
        monitor, root = self._delta_checkpoint(tmp_path)
        entry = list_checkpoints(root)[0]
        digest = read_manifest(entry.path)["shard_blocks"][0]
        os.remove(os.path.join(root, "blocks", f"{digest}.npz"))
        with pytest.raises(CheckpointError, match="missing") as err:
            load_checkpoint(root, rules=default_rules())
        assert digest[:16] in str(err.value)
        monitor.close()

    def test_corrupt_delta_block(self, tmp_path):
        monitor, root = self._delta_checkpoint(tmp_path)
        entry = list_checkpoints(root)[0]
        digest = read_manifest(entry.path)["shard_blocks"][0]
        with open(os.path.join(root, "blocks", f"{digest}.npz"), "wb") as fh:
            fh.write(b"\x00" * 64)
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            load_checkpoint(root, rules=default_rules())
        monitor.close()

    def test_flipped_byte_in_a_stored_block(self, tmp_path):
        """Blocks are stored, not deflated, so no deflate stream trips over
        a damaged byte: the member's zip CRC-32 is what catches it."""
        monitor, root = self._delta_checkpoint(tmp_path)
        entry = list_checkpoints(root)[0]
        digest = read_manifest(entry.path)["shard_blocks"][0]
        path = os.path.join(root, "blocks", f"{digest}.npz")
        with zipfile.ZipFile(path) as archive:
            member = max(archive.infolist(), key=lambda info: info.file_size)
        assert member.compress_type == zipfile.ZIP_STORED
        with open(path, "r+b") as fh:
            # Local file header: 30 fixed bytes, then the name and extra
            # field, whose lengths sit at offset 26.
            fh.seek(member.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            data_start = member.header_offset + 30 + name_len + extra_len
            # The member's last byte is array data, past the .npy header.
            offset = data_start + member.file_size - 1
            fh.seek(offset)
            flipped = fh.read(1)[0] ^ 0xFF
            fh.seek(offset)
            fh.write(bytes([flipped]))
        with pytest.raises(CheckpointError, match="corrupt or unreadable") as err:
            load_checkpoint(root, rules=default_rules())
        assert isinstance(err.value.__cause__, zipfile.BadZipFile)
        assert "CRC" in str(err.value.__cause__)
        monitor.close()

    def test_crash_mid_async_write_keeps_previous_entry(
        self, tmp_path, monkeypatch
    ):
        """A writer-thread crash surfaces on flush and loses nothing.

        The failed save never publishes a rotation entry (tmp + rename),
        so the previous entry stays the newest and restores bit-for-bit.
        """
        import repro.service.checkpoint as ckpt_module

        monitor, root = self._delta_checkpoint(tmp_path)
        good = self._shard_reprs(monitor)

        stream = TelemetryGenerator(
            small_machine(), seed=35, utilization_target=0.3
        ).generate(80, sensors=["cpu_temp"])
        monitor.ingest(stream.values)

        real_commit = ckpt_module._commit

        def crashing_commit(*args, **kwargs):
            raise OSError("disk full during checkpoint write")

        monkeypatch.setattr(ckpt_module, "_commit", crashing_commit)
        save_checkpoint(root, monitor, keep_last=2, format="delta", mode="async")
        with pytest.raises(CheckpointWriteError, match="disk full"):
            monitor.flush_checkpoints()
        monkeypatch.setattr(ckpt_module, "_commit", real_commit)

        # The rotation still holds exactly the pre-crash entry and it
        # restores the pre-crash state, bit-for-bit.
        entries = list_checkpoints(root)
        assert len(entries) == 1
        restored = load_checkpoint(root, rules=default_rules())
        assert self._shard_reprs(restored) == good
        restored.close()

        # The monitor recovers: the next save goes through and captures
        # the post-crash state.
        save_checkpoint(root, monitor, keep_last=2, format="delta", mode="async")
        monitor.flush_checkpoints()
        recovered = load_checkpoint(root, rules=default_rules())
        assert self._shard_reprs(recovered) == self._shard_reprs(monitor)
        recovered.close()
        monitor.close()

    def test_interrupted_entry_directory_is_ignored(self, tmp_path):
        """A half-written tmp entry (crash before rename) is invisible."""
        monitor, root = self._delta_checkpoint(tmp_path)
        fake_tmp = os.path.join(root, ".tmp-step_000000999999")
        os.makedirs(fake_tmp)
        with open(os.path.join(fake_tmp, MANIFEST_NAME), "w") as fh:
            fh.write("{ half-writ")
        entries = list_checkpoints(root)
        assert len(entries) == 1
        restored = load_checkpoint(root, rules=default_rules())
        assert self._shard_reprs(restored) == self._shard_reprs(monitor)
        restored.close()
        monitor.close()


class TestFederatedCheckpointCorruption:
    def test_federated_manifest_not_json(self, pristine_federated, tmp_path):
        target = _damaged_copy(pristine_federated, tmp_path)
        with open(os.path.join(target, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_federated_manifest(target)

    def test_missing_machine_directory(self, pristine_federated, tmp_path):
        target = _damaged_copy(pristine_federated, tmp_path)
        shutil.rmtree(os.path.join(target, "machines", "west"))
        with pytest.raises(CheckpointError, match="'west'") as err:
            load_federated_checkpoint(target, rules=default_rules())
        assert "older rotation entry" in str(err.value)

    def test_corrupt_machine_shard(self, pristine_federated, tmp_path):
        target = _damaged_copy(pristine_federated, tmp_path)
        machine_dir = os.path.join(target, "machines", "east")
        with open(_shard_path(machine_dir, 0), "wb") as fh:
            fh.write(b"\x00" * 100)
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            load_federated_checkpoint(target, rules=default_rules())

    def test_machine_manifest_missing_entry(self, pristine_federated, tmp_path):
        target = _damaged_copy(pristine_federated, tmp_path)
        _edit_manifest(
            os.path.join(target, "machines", "west"), lambda m: m.pop("shards")
        )
        with pytest.raises(CheckpointError, match="shards"):
            load_federated_checkpoint(target, rules=default_rules())

    def test_pristine_federated_still_loads(self, pristine_federated, tmp_path):
        target = _damaged_copy(pristine_federated, tmp_path)
        federated = load_federated_checkpoint(target, rules=default_rules())
        assert set(federated.machines) == {"east", "west"}
