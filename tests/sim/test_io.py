"""Tests of the serial driver's checkpoints: one-rank epochs of the one
checkpoint format, and checkpoint/resume equivalence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import PMConfig, SimulationConfig, TreeConfig, TreePMConfig
from repro.sim import checkpoint as _ckpt
from repro.sim.checkpoint import (
    CheckpointError,
    atomic_write,
    load_distributed_checkpoint,
)
from repro.sim.serial import SerialSimulation
from repro.utils.integrity import array_digest


def _state(rng, n=32):
    return rng.random((n, 3)), rng.standard_normal((n, 3)), np.full(n, 1.0 / n)


def _cfg():
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.5, group_size=32),
            pm=PMConfig(mesh_size=16),
            softening=5e-3,
        ),
    )


class TestSnapshotRoundtrip:
    def test_arrays_and_header_preserved(self, tmp_path, rng):
        pos, mom, mass = _state(rng)
        sim = SerialSimulation(_cfg(), pos, mom, mass)
        sim.steps_taken = 7
        step_dir = sim.save_checkpoint(
            tmp_path, 0.25, extra={"seed": 42, "label": "test"}
        )
        assert step_dir == tmp_path / "step_00007"
        back, manifest = SerialSimulation.from_checkpoint(_cfg(), tmp_path)
        np.testing.assert_array_equal(back.pos, pos)
        np.testing.assert_array_equal(back.mom, mom)
        np.testing.assert_array_equal(back.mass, mass)
        assert back.steps_taken == 7
        assert manifest["time"] == 0.25
        assert manifest["n_ranks"] == 1
        assert manifest["total_particles"] == 32
        assert (manifest["seed"], manifest["label"]) == (42, "test")
        arrays, _ = _ckpt.read_rank_file(step_dir / _ckpt.rank_filename(0, 1))
        assert sorted(arrays) == ["ids", "mass", "mom", "pos"]
        np.testing.assert_array_equal(arrays["ids"], np.arange(32))

    def test_length_mismatch_rejected(self, tmp_path, rng):
        """A manifest whose particle count disagrees with its rank
        files does not load."""
        pos, mom, mass = _state(rng)
        step_dir = SerialSimulation(_cfg(), pos, mom, mass).save_checkpoint(
            tmp_path, 0.0
        )
        manifest = json.loads((step_dir / _ckpt.MANIFEST_NAME).read_text())
        manifest["total_particles"] = 99
        (step_dir / _ckpt.MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="manifest says 99"):
            load_distributed_checkpoint(step_dir)

    def test_suffix_tolerance(self, tmp_path, rng):
        """The checkpoint root may end in ``.npz``: ``save_checkpoint``
        then ``from_checkpoint`` on ``.../checkpoint.npz`` round-trips
        the state bitwise (the benchmark probe's contract)."""
        pos, mom, mass = _state(rng)
        sim = SerialSimulation(_cfg(), pos, mom, mass)
        sim.run(0.0, 0.02, n_steps=1)
        path = tmp_path / "checkpoint.npz"
        sim.save_checkpoint(path, 0.02)
        back, manifest = SerialSimulation.from_checkpoint(sim.config, path)
        for name in ("pos", "mom", "mass"):
            np.testing.assert_array_equal(getattr(back, name), getattr(sim, name))
        assert manifest["steps_taken"] == 1

    def test_missing_snapshot_with_suffix(self, tmp_path):
        with pytest.raises(CheckpointError, match="nope.npz"):
            SerialSimulation.from_checkpoint(_cfg(), tmp_path / "nope.npz")


class TestSnapshotIntegrity:
    def test_corrupted_array_detected(self, tmp_path, rng):
        """Tampering with an array after the write must not load, even
        when the manifest digest is forged to match the new file."""
        pos, mom, mass = _state(rng)
        step_dir = SerialSimulation(_cfg(), pos, mom, mass).save_checkpoint(
            tmp_path, 0.0
        )
        path = step_dir / _ckpt.rank_filename(0, 1)
        with np.load(path) as data:
            contents = {name: data[name] for name in data.files}
        tampered = contents["mom"].copy()
        tampered[0, 0] += 1e-9
        contents["mom"] = tampered
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **contents)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            SerialSimulation.from_checkpoint(_cfg(), tmp_path)
        manifest = json.loads((step_dir / _ckpt.MANIFEST_NAME).read_text())
        manifest["files"][0]["sha256"] = _ckpt.file_digest(path)
        (step_dir / _ckpt.MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(
            CheckpointError, match="checksum mismatch for array 'mom'"
        ):
            SerialSimulation.from_checkpoint(_cfg(), tmp_path)

    def test_atomic_write_replaces_and_cleans_up(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        atomic_write(path, lambda fh: fh.write(b"new contents"))
        assert path.read_bytes() == b"new contents"
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_atomic_write_failure_preserves_original(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")

        def exploding_writer(fh):
            fh.write(b"half-written")
            raise OSError("disk on fire")

        with pytest.raises(OSError, match="disk on fire"):
            atomic_write(path, exploding_writer)
        assert path.read_bytes() == b"old contents"
        assert list(tmp_path.iterdir()) == [path]

    def test_array_digest_sensitive_to_shape_and_dtype(self):
        a = np.arange(6, dtype=np.float64)
        assert array_digest(a) != array_digest(a.reshape(2, 3))
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) == array_digest(a.copy())


class TestSerialCheckpointApi:
    def test_save_and_from_checkpoint_roundtrip(self, tmp_path, rng):
        cfg = _cfg()
        pos, mom, mass = _state(rng, 64)
        sim = SerialSimulation(cfg, pos, mom, mass)
        sim.run(0.0, 0.1, n_steps=2)
        path = tmp_path / "ck"
        sim.save_checkpoint(path, 0.1)
        sim2, manifest = SerialSimulation.from_checkpoint(cfg, path)
        assert sim2.steps_taken == 2
        assert manifest["time"] == pytest.approx(0.1)
        np.testing.assert_array_equal(sim2.pos, sim.pos)
        np.testing.assert_array_equal(sim2.mom, sim.mom)

    def test_from_checkpoint_rejects_config_mismatch(self, tmp_path, rng):
        cfg = _cfg()
        pos, mom, mass = _state(rng, 32)
        sim = SerialSimulation(cfg, pos, mom, mass)
        sim.save_checkpoint(tmp_path / "ck", 0.0)
        other = SimulationConfig(
            treepm=TreePMConfig(
                tree=TreeConfig(opening_angle=0.5, group_size=32),
                pm=PMConfig(mesh_size=16),
                softening=1e-2,
            ),
        )
        with pytest.raises(CheckpointError, match="different"):
            SerialSimulation.from_checkpoint(other, tmp_path / "ck")

    def test_run_writes_rolling_checkpoint(self, tmp_path, rng):
        cfg = _cfg()
        pos, mom, mass = _state(rng, 64)
        path = tmp_path / "rolling"

        straight = SerialSimulation(cfg, pos, mom, mass)
        straight.run(0.0, 0.2, n_steps=4)

        sim = SerialSimulation(cfg, pos, mom, mass)
        sim.run(0.0, 0.2, n_steps=4, checkpoint_every=2, checkpoint_path=path)
        assert [p.name for p in _ckpt.list_checkpoints(path)] == [
            "step_00002", "step_00004",
        ]
        _, manifest = SerialSimulation.from_checkpoint(cfg, path)
        assert manifest["steps_taken"] == 4  # last write is after the final step
        assert manifest["schedule"] == {
            "t_start": 0.0, "t_end": 0.2, "n_steps": 4, "next_step": 4,
        }

        # resume from the mid-run (step-2) epoch: bit-for-bit
        resumed, manifest = SerialSimulation.from_checkpoint(
            cfg, path / "step_00002"
        )
        resumed.run(0.0, 0.2, n_steps=4, first_step=manifest["steps_taken"])
        np.testing.assert_array_equal(resumed.pos, straight.pos)
        np.testing.assert_array_equal(resumed.mom, straight.mom)


class TestCheckpointResume:
    def test_resume_reproduces_trajectory(self, tmp_path, rng):
        """Run 4 steps straight vs 2 steps + checkpoint + 2 steps."""
        cfg = _cfg()
        pos, mom, mass = _state(rng, 64)

        straight = SerialSimulation(cfg, pos, mom, mass)
        straight.run(0.0, 0.2, n_steps=4)

        first = SerialSimulation(cfg, pos, mom, mass)
        first.run(0.0, 0.1, n_steps=2)
        first.save_checkpoint(tmp_path / "ckpt", 0.1)

        resumed, manifest = SerialSimulation.from_checkpoint(cfg, tmp_path / "ckpt")
        resumed.run(manifest["time"], 0.2, n_steps=2)

        np.testing.assert_allclose(resumed.pos, straight.pos, atol=1e-12)
        np.testing.assert_allclose(resumed.mom, straight.mom, atol=1e-12)
