"""Tests of octree construction and node moments."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree.octree import Octree


class TestBuild:
    def test_root_covers_all(self, uniform_particles):
        pos, mass = uniform_particles
        tree = Octree(pos, mass)
        assert tree.node_lo[0] == 0
        assert tree.node_hi[0] == len(pos)

    def test_structure_valid(self, clustered_particles):
        pos, mass = clustered_particles
        tree = Octree(pos, mass, leaf_size=4)
        tree.validate()

    def test_leaf_size_respected(self, uniform_particles):
        pos, mass = uniform_particles
        tree = Octree(pos, mass, leaf_size=4)
        leaves = tree.leaves()
        counts = tree.node_hi[leaves] - tree.node_lo[leaves]
        assert np.all(counts <= 4)

    def test_single_particle(self):
        tree = Octree(np.array([[0.3, 0.3, 0.3]]), np.array([2.0]))
        assert tree.n_nodes == 1
        assert tree.node_is_leaf[0]
        assert tree.node_mass[0] == 2.0

    def test_coincident_particles_terminate(self):
        """Particles at identical positions cannot be separated; the
        MAX_DEPTH cap must terminate the recursion."""
        pos = np.tile(np.array([[0.5, 0.5, 0.5]]), (20, 1))
        tree = Octree(pos, np.ones(20), leaf_size=2)
        assert tree.n_nodes >= 1
        assert tree.node_mass[0] == 20.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Octree(np.zeros((0, 3)), np.zeros(0))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            Octree(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            Octree(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            Octree(np.zeros((2, 3)), np.ones(2), leaf_size=0)

    def test_children_geometry(self, uniform_particles):
        pos, mass = uniform_particles
        tree = Octree(pos, mass, leaf_size=4)
        for i in range(tree.n_nodes):
            for c in tree.node_children[i]:
                if c < 0:
                    continue
                assert tree.node_half[c] == pytest.approx(tree.node_half[i] / 2)
                off = tree.node_center[c] - tree.node_center[i]
                np.testing.assert_allclose(
                    np.abs(off), tree.node_half[i] / 2, rtol=1e-12
                )

    def test_particles_inside_their_nodes(self, clustered_particles):
        pos, mass = clustered_particles
        tree = Octree(pos, mass, leaf_size=4)
        for i in range(tree.n_nodes):
            lo, hi = tree.node_lo[i], tree.node_hi[i]
            p = tree.pos_sorted[lo:hi]
            c = tree.node_center[i]
            h = tree.node_half[i]
            assert np.all(np.abs(p - c) <= h * (1 + 1e-9))


class TestMoments:
    def test_root_mass_and_com(self, clustered_particles):
        pos, mass = clustered_particles
        tree = Octree(pos, mass)
        assert tree.node_mass[0] == pytest.approx(mass.sum())
        com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
        np.testing.assert_allclose(tree.node_com[0], com, rtol=1e-12)

    def test_children_moments_sum_to_parent(self, uniform_particles):
        pos, mass = uniform_particles
        tree = Octree(pos, mass, leaf_size=2)
        for i in range(tree.n_nodes):
            kids = tree.node_children[i][tree.node_children[i] >= 0]
            if len(kids) == 0:
                continue
            assert tree.node_mass[kids].sum() == pytest.approx(
                tree.node_mass[i], rel=1e-12
            )
            weighted = (
                tree.node_mass[kids, None] * tree.node_com[kids]
            ).sum(axis=0) / tree.node_mass[i]
            np.testing.assert_allclose(weighted, tree.node_com[i], rtol=1e-10)

    def test_quadrupole_traceless(self, clustered_particles):
        pos, mass = clustered_particles
        tree = Octree(pos, mass, compute_quadrupole=True)
        tr = np.trace(tree.node_quad, axis1=1, axis2=2)
        np.testing.assert_allclose(tr, 0.0, atol=1e-10)

    def test_quadrupole_symmetric(self, clustered_particles):
        pos, mass = clustered_particles
        tree = Octree(pos, mass, compute_quadrupole=True)
        np.testing.assert_allclose(
            tree.node_quad, np.swapaxes(tree.node_quad, 1, 2), atol=1e-12
        )

    def test_quadrupole_reference(self):
        """Root quadrupole against the textbook definition."""
        rng = np.random.default_rng(2)
        pos = rng.random((10, 3))
        mass = rng.random(10)
        tree = Octree(pos, mass, compute_quadrupole=True)
        com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
        d = pos - com
        q = np.zeros((3, 3))
        for k in range(10):
            q += mass[k] * (3 * np.outer(d[k], d[k]) - (d[k] @ d[k]) * np.eye(3))
        np.testing.assert_allclose(tree.node_quad[0], q, rtol=1e-10, atol=1e-12)

    def test_quadrupole_zero_for_single_particle(self):
        tree = Octree(
            np.array([[0.4, 0.4, 0.4]]), np.array([1.0]), compute_quadrupole=True
        )
        np.testing.assert_allclose(tree.node_quad[0], 0.0, atol=1e-15)


class TestGroups:
    def test_groups_partition_particles(self, clustered_particles):
        pos, mass = clustered_particles
        tree = Octree(pos, mass, leaf_size=4)
        groups = tree.group_nodes(16)
        ranges = sorted((tree.node_lo[g], tree.node_hi[g]) for g in groups)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(pos)
        for (l1, h1), (l2, h2) in zip(ranges[:-1], ranges[1:]):
            assert h1 == l2  # contiguous, non-overlapping

    def test_group_size_bound(self, clustered_particles):
        pos, mass = clustered_particles
        tree = Octree(pos, mass, leaf_size=4)
        for g in tree.group_nodes(16):
            assert tree.node_hi[g] - tree.node_lo[g] <= 16

    def test_group_size_one_gives_leaves(self, uniform_particles):
        pos, mass = uniform_particles
        tree = Octree(pos, mass, leaf_size=1)
        groups = tree.group_nodes(1)
        assert len(groups) == len(pos)

    def test_invalid_group_size(self, uniform_particles):
        pos, mass = uniform_particles
        tree = Octree(pos, mass)
        with pytest.raises(ValueError):
            tree.group_nodes(0)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=10)
    def test_property_partition(self, gsz):
        rng = np.random.default_rng(gsz)
        pos = rng.random((64, 3))
        tree = Octree(pos, np.ones(64), leaf_size=4)
        groups = tree.group_nodes(gsz)
        total = sum(int(tree.node_hi[g] - tree.node_lo[g]) for g in groups)
        assert total == 64


class TestBounds:
    """``node_bmin``/``node_bmax``: the exact extremes of every node's
    particles, which is what the traversal culls by."""

    @given(
        st.integers(1, 200),
        st.integers(1, 9),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_boxes_are_the_particle_extremes(self, n, leaf_size, periodic, seed):
        rng = np.random.default_rng(seed)
        pos = np.mod(0.5 + 0.1 * rng.standard_normal((n, 3)), 1.0)
        if periodic:
            tree = Octree(pos, np.ones(n), leaf_size=leaf_size)
        else:
            lo = pos.min(axis=0)
            size = float(np.ptp(pos, axis=0).max()) * (1 + 1e-12) + 1e-300
            tree = Octree(pos, np.ones(n), size=size, origin=lo, leaf_size=leaf_size)
        x = tree.pos_sorted
        for i in range(tree.n_nodes):
            part = x[tree.node_lo[i]:tree.node_hi[i]]
            assert np.array_equal(tree.node_bmin[i], part.min(axis=0))
            assert np.array_equal(tree.node_bmax[i], part.max(axis=0))
