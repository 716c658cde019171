"""Tests of the cell-list machinery and the P3M short-range baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.forces.direct import direct_forces_cutoff
from repro.pp.celllist import CellList, p3m_short_range_forces
from repro.pp.kernel import InteractionCounter


class TestCellList:
    def test_all_particles_binned(self, rng):
        pos = rng.random((100, 3))
        cl = CellList(pos, rcut=0.2)
        assert cl.occupancy().sum() == 100

    def test_cell_members_consistent(self, rng):
        pos = rng.random((200, 3))
        cl = CellList(pos, rcut=0.25)
        n = cl.n_cells
        seen = []
        for cx in range(n):
            for cy in range(n):
                for cz in range(n):
                    seen.extend(cl.cell_members(cx, cy, cz).tolist())
        assert sorted(seen) == list(range(200))

    def test_members_in_their_cell(self, rng):
        pos = rng.random((100, 3))
        cl = CellList(pos, rcut=0.2)
        w = 1.0 / cl.n_cells
        for cx in range(cl.n_cells):
            members = cl.cell_members(cx, 0, 0)
            if len(members):
                assert np.all(pos[members, 0] >= cx * w)
                assert np.all(pos[members, 0] < (cx + 1) * w)

    def test_neighborhood_covers_cutoff(self, rng):
        """Every pair within rcut appears in some cell's neighborhood."""
        pos = rng.random((80, 3))
        rcut = 0.2
        cl = CellList(pos, rcut)
        from repro.utils.periodic import minimum_image

        for i in range(len(pos)):
            c = np.minimum(
                (pos[i] * cl.n_cells).astype(int), cl.n_cells - 1
            )
            neigh = set(cl.neighborhood_members(*c).tolist())
            d = minimum_image(pos - pos[i])
            close = np.flatnonzero(np.sqrt((d**2).sum(axis=1)) <= rcut)
            assert set(close.tolist()) <= neigh

    def test_periodic_neighborhood_wraps(self):
        pos = np.array([[0.01, 0.5, 0.5], [0.99, 0.5, 0.5]])
        cl = CellList(pos, rcut=0.2)
        neigh = cl.neighborhood_members(0, 2, 2)
        assert 1 in set(neigh.tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            CellList(np.zeros((1, 3)), rcut=0.0)
        with pytest.raises(ValueError):
            CellList(np.zeros((1, 3)), rcut=0.7)

    def test_cost_estimate_uniform(self, rng):
        """Uniform occupancy: cost ~ N * 27 * N/cells."""
        pos = rng.random((1000, 3))
        cl = CellList(pos, rcut=0.1)
        per_cell = 1000 / cl.n_cells**3
        expected = 1000 * 27 * per_cell
        assert cl.cost_estimate() == pytest.approx(expected, rel=0.3)

    def test_cost_estimate_quadratic_in_clustering(self, rng):
        """The paper's argument: piling particles into one cell makes
        the P3M cost quadratic (1000x density -> 10^6x cost)."""
        n = 2000
        uniform = rng.random((n, 3))
        clustered = 0.05 * rng.random((n, 3))  # all inside one cell
        c_u = CellList(uniform, rcut=0.1).cost_estimate()
        c_c = CellList(clustered, rcut=0.1).cost_estimate()
        assert c_c > 20 * c_u
        assert c_c == pytest.approx(n * n, rel=0.5)


class TestP3MShortRange:
    def test_matches_direct_cutoff(self, clustered_particles):
        pos, mass = clustered_particles
        split = S2ForceSplit(rcut=0.15)
        acc = p3m_short_range_forces(pos, mass, split, eps=1e-4)
        ref = direct_forces_cutoff(pos, mass, split, box=1.0, eps=1e-4)
        np.testing.assert_allclose(acc, ref, atol=1e-10)

    def test_matches_tree_short_range(self, clustered_particles):
        """P3M and the (exactly opened) tree compute the same physics, to
        float64 roundoff when the tree is swept by the float64 oracle."""
        from repro.pp.plan import PlanExecutor
        from repro.tree.traversal import TreeSolver

        pos, mass = clustered_particles
        split = S2ForceSplit(rcut=0.12)
        acc_p3m = p3m_short_range_forces(pos, mass, split, eps=1e-4)
        tree = TreeSolver(theta=1e-6, split=split, eps=1e-4, periodic=True)
        tree._executor = PlanExecutor(dtype=np.float64)
        acc_tree, _ = tree.forces(pos, mass)
        np.testing.assert_allclose(acc_p3m, acc_tree, rtol=1e-9, atol=1e-11)

    def test_interaction_count_matches_cost_estimate(self, rng):
        pos = rng.random((300, 3))
        mass = np.ones(300)
        split = S2ForceSplit(rcut=0.2)
        counter = InteractionCounter()
        p3m_short_range_forces(pos, mass, split, counter=counter)
        cl = CellList(pos, split.cutoff_radius)
        assert counter.interactions == cl.cost_estimate()
