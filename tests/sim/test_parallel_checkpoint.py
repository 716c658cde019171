"""Checkpoint/resume of the distributed simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
)
from repro.sim.checkpoint import latest_checkpoint, load_distributed_checkpoint
from repro.sim.parallel import run_parallel_simulation


def _cfg():
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.5, group_size=32),
            pm=PMConfig(mesh_size=16),
            softening=5e-3,
        ),
        domain=DomainConfig(divisions=(2, 1, 1), sample_rate=0.3),
    )


class TestParallelCheckpoint:
    def test_gather_save_resume(self, tmp_path):
        rng = np.random.default_rng(31)
        pos = rng.random((96, 3))
        mom = 0.01 * rng.standard_normal((96, 3))
        mass = np.full(96, 1.0 / 96)

        # straight run: 2 steps
        p_ref, m_ref, _, _, _ = run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, 0.08, n_steps=2
        )

        # 1 step with a checkpoint, merge it, 1 more step from the merge
        p1, m1, w1, _, _ = run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, 0.04, n_steps=1,
            checkpoint_every=1, checkpoint_dir=tmp_path,
        )
        merged = load_distributed_checkpoint(latest_checkpoint(tmp_path))
        # the merged checkpoint is the gathered state, id-ordered
        np.testing.assert_array_equal(merged["pos"], p1)
        np.testing.assert_array_equal(merged["mom"], m1)
        np.testing.assert_array_equal(merged["mass"], w1)
        assert merged["manifest"]["time"] == 0.04
        p_res, m_res, _, _, _ = run_parallel_simulation(
            _cfg(), merged["pos"], merged["mom"], merged["mass"],
            merged["manifest"]["time"], 0.08, n_steps=1,
        )

        # the resumed trajectory matches the straight one up to the
        # floating-point reordering of a fresh decomposition
        d = np.abs(p_res - p_ref)
        d = np.minimum(d, 1.0 - d)
        assert d.max() < 1e-6
        np.testing.assert_allclose(m_res, m_ref, atol=1e-5)

    def test_gathered_state_is_id_ordered(self):
        """gather_state returns the original global ordering, so
        checkpoints are rank-count independent."""
        rng = np.random.default_rng(32)
        pos = rng.random((64, 3))
        mom = np.zeros((64, 3))
        mass = np.full(64, 1.0 / 64)
        out = {}
        for div in ((2, 1, 1), (2, 2, 1)):
            cfg = _cfg().with_(
                domain=DomainConfig(divisions=div, sample_rate=0.3)
            )
            p, m, w, _, _ = run_parallel_simulation(
                cfg, pos, mom, mass, 0.0, 0.04, n_steps=1
            )
            out[div] = p
        d = np.abs(out[(2, 1, 1)] - out[(2, 2, 1)])
        d = np.minimum(d, 1.0 - d)
        assert d.max() < 1e-7
