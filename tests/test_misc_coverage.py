"""Final coverage bundle: behaviors not exercised elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.runtime import MPIRuntime, run_spmd


class TestOctreeStats:
    def test_uniform_tree_statistics(self, rng):
        from repro.tree.octree import Octree

        pos = rng.random((512, 3))
        tree = Octree(pos, np.ones(512), leaf_size=8)
        s = tree.stats()
        assert s["n_leaves"] > 0
        assert s["n_nodes"] == s["n_leaves"] + (~tree.node_is_leaf).sum()
        assert 1 <= s["max_leaf_occupancy"] <= 8
        assert 1.0 < s["mean_branching"] <= 8.0
        # the rule of thumb the memory model uses: ~0.3-0.6 nodes/particle
        assert 0.1 < s["nodes_per_particle"] < 1.5

    def test_clustered_deeper_than_uniform(self, rng):
        from repro.tree.octree import Octree

        uniform = rng.random((1000, 3))
        clustered = np.mod(0.5 + 0.01 * rng.standard_normal((1000, 3)), 1.0)
        s_u = Octree(uniform, np.ones(1000), leaf_size=8).stats()
        s_c = Octree(clustered, np.ones(1000), leaf_size=8).stats()
        assert s_c["max_depth"] > s_u["max_depth"]


class TestRuntimeBehavior:
    def test_results_ordered_by_rank(self):
        out = run_spmd(5, lambda comm: comm.rank * 11)
        assert out == [0, 11, 22, 33, 44]

    def test_args_kwargs_passthrough(self):
        def fn(comm, a, b=0):
            return a + b + comm.rank

        assert MPIRuntime(2).run(fn, 5, b=7) == [12, 13]


class TestInterlacedPotential:
    def test_potential_at_ignores_interlace_by_design(self, rng):
        """potential_at uses the plain pipeline; forces() uses the
        interlaced density — both stay finite and consistent."""
        from repro.mesh.poisson import PMSolver

        solver = PMSolver(16, interlace=True)
        pos = rng.random((20, 3))
        mass = np.ones(20)
        phi = solver.potential_at(pos, mass)
        acc = solver.forces(pos, mass)
        assert np.all(np.isfinite(phi))
        assert np.all(np.isfinite(acc))


class TestDegenerateTrees:
    def test_open_boundary_coincident_points(self):
        from repro.tree.traversal import tree_forces

        pos = np.tile([[0.5, 0.5, 0.5]], (10, 1))
        acc, stats = tree_forces(pos, np.ones(10), eps=0.01, periodic=False)
        np.testing.assert_array_equal(acc, 0.0)

    def test_open_boundary_collinear_points(self):
        from repro.tree.traversal import tree_forces

        pos = np.zeros((8, 3))
        pos[:, 0] = np.linspace(0.0, 1.0, 8)
        acc, _ = tree_forces(pos, np.ones(8), theta=0.3, eps=1e-3,
                             periodic=False)
        assert np.all(np.isfinite(acc))
        # symmetric chain: end particles pulled inward
        assert acc[0, 0] > 0 and acc[-1, 0] < 0


class TestFofCorners:
    def test_single_particle_catalog(self):
        from repro.analysis.fof import halo_catalog

        halos = halo_catalog(
            np.array([[0.5, 0.5, 0.5]]), np.array([1.0]), 0.1, min_members=1
        )
        assert len(halos) == 1
        assert halos[0].n_particles == 1


class TestRelayModelSummary:
    def test_summary_keys(self):
        from repro.perf.relaymodel import MeshExchangeModel

        m = MeshExchangeModel.calibrated_to_paper()
        s = m.summary(2)
        assert set(s) == {
            "forward_seconds",
            "backward_seconds",
            "senders_per_slab",
            "sends_per_holder",
        }
        assert all(v > 0 for v in s.values())


class TestCliStatic:
    def test_static_snapshots(self, tmp_path):
        from repro.cli import run_from_config
        from repro.sim.checkpoint import load_distributed_checkpoint

        summary = run_from_config(
            {
                "kind": "static",
                "n_particles": 32,
                "mesh_size": 16,
                "end": 0.04,
                "n_steps": 2,
                "snapshots": [0.02, 0.04],
                "output_dir": str(tmp_path),
            },
            log=lambda *a: None,
        )
        assert len(summary["snapshots"]) == 2
        manifest = load_distributed_checkpoint(summary["snapshots"][0])["manifest"]
        assert manifest["run_config"]["kind"] == "static"
        assert manifest["time"] == pytest.approx(0.02)


class TestMortonEdge:
    def test_bits_parameter_coarsens_keys(self):
        from repro.tree.morton import morton_keys

        pos = np.array([[0.1, 0.2, 0.3], [0.100001, 0.2, 0.3]])
        fine = morton_keys(pos, bits=21)
        coarse = morton_keys(pos, bits=4)
        assert fine[0] != fine[1]
        assert coarse[0] == coarse[1]
