"""End-to-end fault tolerance: kill a rank mid-run, restart from the
last distributed checkpoint, and recover the uninterrupted trajectory.

``cost_balance=False`` keeps the sampling decomposition independent of
measured wall-clock, which is what makes same-rank-count resume
bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

from repro.config import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
)
from repro.mpi.faults import FaultPlan, InjectedFault
from repro.pp.plan import PlanExecutor
from repro.sim.checkpoint import (
    CheckpointError,
    MANIFEST_NAME,
    latest_checkpoint,
    load_distributed_checkpoint,
    rank_filename,
    validate_checkpoint,
)
from repro.sim.parallel import (
    resume_parallel_simulation,
    run_parallel_simulation,
)
from repro.tree import traversal

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

N = 96


def _cfg(divisions=(2, 1, 1)):
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.5, group_size=32),
            pm=PMConfig(mesh_size=16),
            softening=5e-3,
        ),
        domain=DomainConfig(
            divisions=divisions, sample_rate=0.3, cost_balance=False
        ),
    )


def _ics(seed=31, n=N):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    mom = 0.01 * rng.standard_normal((n, 3))
    mass = np.full(n, 1.0 / n)
    return pos, mom, mass


class TestKillAndResume:
    def test_rank_killed_then_resume_same_rank_count_bit_for_bit(self, tmp_path):
        pos, mom, mass = _ics()

        # reference: uninterrupted 4-step run
        p_ref, m_ref, _, _, _ = run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, 0.16, n_steps=4
        )

        # faulted run: rank 1 dies entering step 2; checkpoints at 1, 2
        ck = tmp_path / "ck"
        plan = FaultPlan().kill_rank(1, step=2)
        with pytest.raises(RuntimeError, match="rank 1") as ei:
            run_parallel_simulation(
                _cfg(), pos, mom, mass, 0.0, 0.16, n_steps=4,
                checkpoint_every=1, checkpoint_dir=ck, fault_plan=plan,
            )
        assert isinstance(ei.value.rank_errors[1], InjectedFault)

        # the last complete checkpoint is step 2 (written before the kill)
        step_dir = latest_checkpoint(ck)
        assert step_dir.name == "step_00002"
        validate_checkpoint(step_dir)

        # resume on the same rank count: bit-for-bit identical finish
        p_res, m_res, w_res, sims, _ = resume_parallel_simulation(_cfg(), ck)
        assert all(s.steps_taken == 4 for s in sims)
        assert np.array_equal(p_res, p_ref)
        assert np.array_equal(m_res, m_ref)
        np.testing.assert_array_equal(w_res, mass)

    def test_resume_on_different_rank_count(self, tmp_path, monkeypatch):
        # every rank sweeps with the float64 oracle (ranks are threads of
        # this process), so the re-decomposed run differs from the
        # reference by float64 roundoff only
        monkeypatch.setattr(
            traversal,
            "PlanExecutor",
            functools.partial(PlanExecutor, dtype=np.float64),
        )
        pos, mom, mass = _ics(seed=7)

        p_ref, m_ref, _, _, _ = run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, 0.16, n_steps=4
        )

        ck = tmp_path / "ck"
        plan = FaultPlan().kill_rank(0, step=2)
        with pytest.raises(RuntimeError, match="rank 0"):
            run_parallel_simulation(
                _cfg(), pos, mom, mass, 0.0, 0.16, n_steps=4,
                checkpoint_every=2, checkpoint_dir=ck, fault_plan=plan,
            )

        # written with 2 ranks, resumed with 4: merged state is
        # re-decomposed, so agreement is to float tolerance, not bits
        p_res, m_res, _, sims, _ = resume_parallel_simulation(
            _cfg(divisions=(2, 2, 1)), ck
        )
        assert len(sims) == 4
        d = np.abs(p_res - p_ref)
        d = np.minimum(d, 1.0 - d)  # periodic wrap
        assert d.max() < 1e-9
        np.testing.assert_allclose(m_res, m_ref, atol=1e-9)

    def test_resume_refuses_different_physics_config(self, tmp_path):
        pos, mom, mass = _ics(seed=5)
        ck = tmp_path / "ck"
        run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, 0.08, n_steps=2,
            checkpoint_every=1, checkpoint_dir=ck,
        )
        other = _cfg().with_(
            treepm=TreePMConfig(
                tree=TreeConfig(opening_angle=0.5, group_size=32),
                pm=PMConfig(mesh_size=16),
                softening=1e-2,
            )
        )
        with pytest.raises(RuntimeError, match="configuration"):
            resume_parallel_simulation(other, ck)


class TestCheckpointIntegrity:
    def _write_checkpoint(self, tmp_path, n_steps=2):
        pos, mom, mass = _ics(seed=11)
        ck = tmp_path / "ck"
        run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, 0.08, n_steps=n_steps,
            checkpoint_every=1, checkpoint_dir=ck,
        )
        return ck

    def test_corrupted_rank_file_detected(self, tmp_path):
        ck = self._write_checkpoint(tmp_path)
        step_dir = latest_checkpoint(ck)
        target = step_dir / rank_filename(1, 2)
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="corrupt"):
            validate_checkpoint(step_dir)
        with pytest.raises(RuntimeError, match="corrupt"):
            resume_parallel_simulation(_cfg(), ck)

    def test_torn_checkpoint_detected(self, tmp_path):
        ck = self._write_checkpoint(tmp_path)
        step_dir = latest_checkpoint(ck)
        (step_dir / rank_filename(0, 2)).unlink()
        with pytest.raises(CheckpointError, match="torn"):
            validate_checkpoint(step_dir)

    def test_incomplete_step_dir_not_selected_as_latest(self, tmp_path):
        """A step directory without a manifest (interrupted before the
        manifest write) must not shadow the last complete checkpoint."""
        ck = self._write_checkpoint(tmp_path)
        good = latest_checkpoint(ck)
        torn = ck / "step_00099"
        torn.mkdir()
        (torn / rank_filename(0, 2)).write_bytes(b"partial garbage")
        assert latest_checkpoint(ck) == good

    def test_manifest_contents(self, tmp_path):
        ck = self._write_checkpoint(tmp_path)
        step_dir = latest_checkpoint(ck)
        manifest = json.loads((step_dir / MANIFEST_NAME).read_text())
        assert manifest["n_ranks"] == 2
        assert manifest["total_particles"] == N
        assert manifest["schedule"]["next_step"] == 2
        assert len(manifest["files"]) == 2
        for entry in manifest["files"]:
            assert len(entry["sha256"]) == 64  # hex digest

    def test_load_distributed_checkpoint_merges_in_id_order(self, tmp_path):
        ck = self._write_checkpoint(tmp_path)
        merged = load_distributed_checkpoint(latest_checkpoint(ck))
        assert merged["pos"].shape == (N, 3)
        np.testing.assert_array_equal(merged["ids"], np.arange(N))


class TestNoCheckpointToResume:
    def test_missing_directory_raises_cleanly(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            resume_parallel_simulation(_cfg(), tmp_path / "nonexistent")
