"""Tests of the Barnes-modified traversal and tree force accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.forces.direct import direct_forces_cutoff, direct_forces_open
from repro.pp.plan import PlanExecutor
from repro.tree.traversal import TreeSolver, tree_forces


def _oracle_tree_forces(pos, mass, periodic=False, **kw):
    """``tree_forces`` swept by the float64 precision oracle: the tests
    of the theta -> 0 limit hold the tree to direct summation at float64
    roundoff, which the production single-precision sweep is not."""
    solver = TreeSolver(periodic=periodic, **kw)
    solver._executor = PlanExecutor(dtype=np.float64)
    return solver.forces(pos, mass)


def _rel_err(acc, ref):
    err = np.linalg.norm(acc - ref, axis=1)
    scale = np.linalg.norm(ref, axis=1)
    return err / np.maximum(scale, 1e-30)


class TestPureTree:
    def test_matches_direct_open(self, clustered_particles):
        pos, mass = clustered_particles
        acc, stats = tree_forces(pos, mass, theta=0.4, eps=1e-3)
        ref = direct_forces_open(pos, mass, eps=1e-3)
        assert np.percentile(_rel_err(acc, ref), 95) < 0.01
        assert stats.n_groups > 0

    def test_theta_zero_limit_is_exact(self, uniform_particles):
        """With a tiny theta every node is opened: exact direct sum."""
        pos, mass = uniform_particles
        acc, stats = _oracle_tree_forces(pos, mass, theta=1e-6, eps=1e-3)
        ref = direct_forces_open(pos, mass, eps=1e-3)
        np.testing.assert_allclose(acc, ref, rtol=1e-10, atol=1e-12)

    def test_error_grows_with_theta(self, clustered_particles):
        pos, mass = clustered_particles
        ref = direct_forces_open(pos, mass, eps=1e-3)
        errs = []
        for theta in (0.2, 0.5, 1.0):
            acc, _ = tree_forces(pos, mass, theta=theta, eps=1e-3)
            errs.append(np.sqrt((_rel_err(acc, ref) ** 2).mean()))
        assert errs[0] <= errs[1] <= errs[2]
        assert errs[0] < 1e-3

    def test_quadrupole_improves_accuracy(self, clustered_particles):
        pos, mass = clustered_particles
        ref = direct_forces_open(pos, mass, eps=1e-3)
        acc_m, _ = tree_forces(pos, mass, theta=0.7, eps=1e-3)
        acc_q, _ = tree_forces(
            pos, mass, theta=0.7, eps=1e-3, use_quadrupole=True
        )
        rms_m = np.sqrt((_rel_err(acc_m, ref) ** 2).mean())
        rms_q = np.sqrt((_rel_err(acc_q, ref) ** 2).mean())
        assert rms_q < rms_m

    def test_interaction_count_well_below_n_squared(self):
        rng = np.random.default_rng(9)
        pos = rng.random((1000, 3))
        mass = np.ones(1000) / 1000
        _, stats = tree_forces(pos, mass, theta=0.6, eps=1e-4, group_size=32)
        assert stats.interactions < 1000**2 / 2

    def test_group_size_tradeoff(self):
        """Larger groups -> fewer traversals but longer lists <Nj>:
        the trade-off of Barnes' modified algorithm (paper II)."""
        rng = np.random.default_rng(10)
        pos = rng.random((500, 3))
        mass = np.ones(500)
        _, s_small = tree_forces(pos, mass, theta=0.5, group_size=8)
        _, s_large = tree_forces(pos, mass, theta=0.5, group_size=128)
        assert s_large.n_groups < s_small.n_groups
        assert s_large.mean_list_length > s_small.mean_list_length


class TestTreeWithCutoff:
    def test_matches_direct_cutoff_periodic(self, clustered_particles):
        pos, mass = clustered_particles
        split = S2ForceSplit(rcut=0.15)
        acc, stats = tree_forces(
            pos, mass, theta=0.4, eps=1e-4, split=split, periodic=True
        )
        ref = direct_forces_cutoff(pos, mass, split, box=1.0, eps=1e-4)
        nonzero = np.linalg.norm(ref, axis=1) > 1e-8
        assert np.percentile(_rel_err(acc[nonzero], ref[nonzero]), 95) < 0.02

    def test_periodic_wrap_forces(self):
        """Particles across the box wall interact through the boundary."""
        split = S2ForceSplit(rcut=0.2)
        pos = np.array([[0.02, 0.5, 0.5], [0.98, 0.5, 0.5], [0.5, 0.5, 0.5]])
        mass = np.ones(3)
        acc, _ = tree_forces(
            pos, mass, theta=0.3, eps=1e-5, split=split, periodic=True
        )
        # pair (0, 1) separated by 0.04 through the wall
        assert acc[0, 0] < -1e2
        assert acc[1, 0] > 1e2

    def test_cutoff_culls_interactions(self):
        rng = np.random.default_rng(4)
        pos = rng.random((800, 3))
        mass = np.ones(800)
        split = S2ForceSplit(rcut=0.08)
        _, s_cut = tree_forces(pos, mass, theta=0.5, split=split, periodic=True)
        _, s_full = tree_forces(pos, mass, theta=0.5, periodic=False)
        assert s_cut.mean_list_length < s_full.mean_list_length

    def test_rcut_over_half_box_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            TreeSolver(split=S2ForceSplit(rcut=0.6), periodic=True)

    def test_exact_vs_kernel_traversal_invariance(self, clustered_particles):
        """The result must not depend on group size (same physics)."""
        pos, mass = clustered_particles
        split = S2ForceSplit(rcut=0.12)
        acc1, _ = _oracle_tree_forces(
            pos, mass, theta=1e-6, split=split, periodic=True, group_size=8
        )
        acc2, _ = _oracle_tree_forces(
            pos, mass, theta=1e-6, split=split, periodic=True, group_size=64
        )
        np.testing.assert_allclose(acc1, acc2, rtol=1e-9, atol=1e-12)


class TestStats:
    def test_mean_group_size_close_to_target(self):
        rng = np.random.default_rng(5)
        pos = rng.random((2000, 3))
        mass = np.ones(2000)
        _, stats = tree_forces(pos, mass, theta=0.5, group_size=64)
        # groups are tree cells with <= 64 particles; mean is below but
        # within a factor of a few of the target
        assert 8 < stats.mean_group_size <= 64

    def test_momentum_not_wildly_violated(self, clustered_particles):
        """Tree forces are not exactly antisymmetric, but the total
        momentum change must be small compared to the force scale."""
        pos, mass = clustered_particles
        acc, _ = tree_forces(pos, mass, theta=0.5, eps=1e-3)
        ptot = np.linalg.norm((mass[:, None] * acc).sum(axis=0))
        scale = np.abs(mass[:, None] * acc).sum()
        assert ptot < 0.01 * scale
