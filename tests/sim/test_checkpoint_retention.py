"""Checkpoint retention and at-rest integrity: ``prune_checkpoints``
(keep the newest N epochs, never the one ``LATEST`` names),
``scrub_checkpoints`` (full digest re-verification of every retained
epoch), the restore-time bit-rot skip of the one restore path
(``BuddyStore.restore_source`` over a checkpoint directory) and the
``keep_last`` wiring through the distributed checkpoint writer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreePMConfig,
)
from repro.mpi.backend import SelfComm
from repro.mpi.faults import flip_file_bits
from repro.mpi.recovery import BuddyStore, RecoveryError
from repro.sim import checkpoint as _ckpt

pytestmark = pytest.mark.timeout(120)


def _make_epoch(root, step, n_ranks=1, point_latest=True):
    """Write a minimal but fully valid checkpoint epoch."""
    step_dir = root / _ckpt.step_dirname(step)
    step_dir.mkdir(parents=True)
    files = []
    for r in range(n_ranks):
        name = _ckpt.rank_filename(r, n_ranks)
        digest = _ckpt.write_rank_file(
            step_dir / name,
            {"pos": np.full((4, 3), float(step)), "ids": np.arange(4)},
            {"rank": r, "size": n_ranks},
        )
        files.append(
            {"rank": r, "name": name, "sha256": digest, "n_particles": 4}
        )
    _ckpt.write_manifest(
        step_dir,
        {
            "version": _ckpt.CHECKPOINT_VERSION,
            "n_ranks": n_ranks,
            "steps_taken": step,
            "schedule": {"next_step": step},
            "config_hash": "test",
            "files": files,
        },
    )
    if point_latest:
        _ckpt.update_latest(root, step_dir.name)
    return step_dir


def _restore_source(root):
    """The epoch a recovery with nothing in memory restores from
    ``root``, and the newer disk files it passed over."""
    return BuddyStore().restore_source(SelfComm(), SimulationConfig(), root)


class TestPrune:
    def test_keeps_newest_n(self, tmp_path):
        for s in range(5):
            _make_epoch(tmp_path, s)
        deleted = _ckpt.prune_checkpoints(tmp_path, keep_last=2)
        assert [p.name for p in deleted] == [
            "step_00000", "step_00001", "step_00002"
        ]
        assert [p.name for p in _ckpt.list_checkpoints(tmp_path)] == [
            "step_00003", "step_00004"
        ]
        # survivors still validate
        for step_dir in _ckpt.list_checkpoints(tmp_path):
            _ckpt.validate_checkpoint(step_dir)

    def test_never_deletes_latest_pointer_target(self, tmp_path):
        for s in range(4):
            _make_epoch(tmp_path, s)
        # the pointer still names epoch 1: a newer pointer flip that
        # never committed must not cost the restart point
        _ckpt.update_latest(tmp_path, _ckpt.step_dirname(1))
        _ckpt.prune_checkpoints(tmp_path, keep_last=1)
        names = [p.name for p in _ckpt.list_checkpoints(tmp_path)]
        assert "step_00001" in names and "step_00003" in names

    def test_noop_when_under_budget(self, tmp_path):
        _make_epoch(tmp_path, 0)
        assert _ckpt.prune_checkpoints(tmp_path, keep_last=3) == []

    def test_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError):
            _ckpt.prune_checkpoints(tmp_path, keep_last=0)


class TestScrubAndNewestValid:
    def test_scrub_all_clean(self, tmp_path):
        for s in range(3):
            _make_epoch(tmp_path, s)
        reports = _ckpt.scrub_checkpoints(tmp_path)
        assert len(reports) == 3
        assert all(r["ok"] for r in reports)

    def test_scrub_names_the_rotted_epoch(self, tmp_path):
        for s in range(3):
            _make_epoch(tmp_path, s)
        victim = tmp_path / "step_00001" / _ckpt.rank_filename(0, 1)
        flip_file_bits(victim, nbits=1, seed=9)
        reports = _ckpt.scrub_checkpoints(tmp_path)
        bad = [r for r in reports if not r["ok"]]
        assert len(bad) == 1
        assert "step_00001" in str(bad[0]["step_dir"])
        assert "digest mismatch" in bad[0]["error"]

    def test_newest_valid_skips_rotted_newest(self, tmp_path):
        for s in range(3):
            _make_epoch(tmp_path, s)
        flip_file_bits(
            tmp_path / "step_00002" / _ckpt.rank_filename(0, 1),
            nbits=1, seed=2,
        )
        good, rejected = _restore_source(tmp_path)
        assert good.step_dir.name == "step_00001" and good.from_disk
        assert rejected == ["step_00002/" + _ckpt.rank_filename(0, 1)]

    def test_newest_valid_raises_when_all_rotted(self, tmp_path):
        _make_epoch(tmp_path, 0)
        flip_file_bits(
            tmp_path / "step_00000" / _ckpt.rank_filename(0, 1),
            nbits=1, seed=2,
        )
        with pytest.raises(RecoveryError, match="step_00000"):
            _restore_source(tmp_path)

    def test_scrub_empty_dir(self, tmp_path):
        assert _ckpt.scrub_checkpoints(tmp_path) == []


class TestKeepLastWiring:
    def test_parallel_checkpoint_applies_retention(self, tmp_path):
        from repro.sim.parallel import run_parallel_simulation

        rng = np.random.default_rng(7)
        n = 64
        config = SimulationConfig(
            domain=DomainConfig(
                divisions=(2, 1, 1), sample_rate=0.3, cost_balance=False
            ),
            treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
        )
        run_parallel_simulation(
            config,
            rng.random((n, 3)),
            rng.normal(scale=0.01, size=(n, 3)),
            np.full(n, 1.0 / n),
            0.0, 0.04, 4,
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            backend="thread",
            keep_last=2,
        )
        names = [p.name for p in _ckpt.list_checkpoints(tmp_path)]
        assert len(names) == 2
        assert names[-1] == _ckpt.step_dirname(4)
        for step_dir in _ckpt.list_checkpoints(tmp_path):
            _ckpt.validate_checkpoint(step_dir)
