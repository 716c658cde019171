"""Integration tests: TreePM total force against the Ewald reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PMConfig, TreeConfig, TreePMConfig
from repro.forces.ewald import EwaldSummation
from repro.treepm.solver import TreePMSolver
from repro.utils.timer import TimingLedger


def _config(mesh=16, rcut_cells=4.0, theta=0.3, eps=1e-4, split="s2"):
    return TreePMConfig(
        tree=TreeConfig(opening_angle=theta, leaf_size=8, group_size=32),
        pm=PMConfig(mesh_size=mesh),
        rcut_mesh_units=rcut_cells,
        softening=eps,
        split=split,
    )


@pytest.fixture(scope="module")
def ewald():
    return EwaldSummation()


class TestTreePMAgainstEwald:
    def test_random_particles(self, ewald):
        rng = np.random.default_rng(42)
        pos = rng.random((64, 3))
        mass = np.full(64, 1.0 / 64)
        eps = 1e-4
        solver = TreePMSolver(_config(eps=eps))
        result = solver.forces(pos, mass)
        ref = ewald.forces(pos, mass, eps=eps)
        err = np.linalg.norm(result.total - ref, axis=1)
        scale = np.linalg.norm(ref, axis=1).mean()
        assert np.sqrt((err**2).mean()) / scale < 0.03

    def test_clustered_particles(self, ewald, clustered_particles):
        pos, mass = clustered_particles
        eps = 1e-4
        solver = TreePMSolver(_config(eps=eps))
        result = solver.forces(pos, mass)
        ref = ewald.forces(pos, mass, eps=eps)
        err = np.linalg.norm(result.total - ref, axis=1)
        scale = np.linalg.norm(ref, axis=1).mean()
        assert np.sqrt((err**2).mean()) / scale < 0.03

    def test_gaussian_split_also_accurate(self, ewald):
        rng = np.random.default_rng(43)
        pos = rng.random((48, 3))
        mass = np.full(48, 1.0 / 48)
        eps = 1e-4
        solver = TreePMSolver(_config(eps=eps, split="gaussian"))
        result = solver.forces(pos, mass)
        ref = ewald.forces(pos, mass, eps=eps)
        err = np.linalg.norm(result.total - ref, axis=1)
        scale = np.linalg.norm(ref, axis=1).mean()
        assert np.sqrt((err**2).mean()) / scale < 0.05

    def test_fast_rsqrt_negligible_error(self):
        rng = np.random.default_rng(44)
        pos = rng.random((48, 3))
        mass = np.full(48, 1.0 / 48)
        exact = TreePMSolver(_config()).forces(pos, mass).total
        fast = TreePMSolver(_config(), use_fast_rsqrt=True).forces(pos, mass).total
        err = np.linalg.norm(fast - exact, axis=1)
        assert err.max() < 1e-5 * np.linalg.norm(exact, axis=1).max()


class TestTreePMStructure:
    def test_components_sum(self, uniform_particles):
        pos, mass = uniform_particles
        result = TreePMSolver(_config()).forces(pos, mass)
        np.testing.assert_allclose(
            result.total, result.short_range + result.long_range, atol=0
        )

    def test_forces_is_its_two_halves(self, uniform_particles):
        """``forces`` is ``long_range`` + ``short_range`` on one ledger —
        the same two methods the serial driver hands its integrator."""
        pos, mass = uniform_particles
        solver = TreePMSolver(_config())
        result = solver.forces(pos, mass)
        ledger = TimingLedger()
        a_long = solver.long_range(pos, mass, ledger)
        a_short = solver.short_range(pos, mass, ledger)
        np.testing.assert_array_equal(result.long_range, a_long)
        np.testing.assert_array_equal(result.short_range, a_short)
        np.testing.assert_array_equal(result.total, a_short + a_long)
        assert set(ledger.as_dict()) == set(result.timing.as_dict())
        assert solver.last_stats.interactions == result.stats.interactions

    def test_timing_ledger_has_paper_phases(self, uniform_particles):
        pos, mass = uniform_particles
        result = TreePMSolver(_config()).forces(pos, mass)
        t = result.timing.as_dict()
        for phase in (
            "PM/density assignment",
            "PM/FFT",
            "PM/acceleration on mesh",
            "PM/force interpolation",
            "PP/tree construction",
            "PP/tree traversal",
            "PP/force calculation",
        ):
            assert phase in t

    def test_stats_populated(self, uniform_particles):
        pos, mass = uniform_particles
        result = TreePMSolver(_config()).forces(pos, mass)
        assert result.stats.interactions > 0
        assert result.stats.mean_group_size > 0

    def test_short_range_locality(self):
        """Short-range force on an isolated pair beyond rcut is zero."""
        solver = TreePMSolver(_config(mesh=16, rcut_cells=3.0))
        pos = np.array([[0.2, 0.5, 0.5], [0.8, 0.5, 0.5]])
        mass = np.ones(2)
        result = solver.forces(pos, mass)
        np.testing.assert_allclose(result.short_range, 0.0, atol=1e-12)
        # but the total force is not zero: the PM part carries it
        assert np.abs(result.total[0, 0]) > 0.1

    def test_momentum_conservation(self, clustered_particles):
        pos, mass = clustered_particles
        result = TreePMSolver(_config()).forces(pos, mass)
        ptot = np.linalg.norm((mass[:, None] * result.total).sum(axis=0))
        scale = np.abs(mass[:, None] * result.total).sum()
        assert ptot < 0.01 * scale


class TestTreePMPotential:
    def test_potential_energy_negative(self, clustered_particles):
        pos, mass = clustered_particles
        solver = TreePMSolver(_config())
        phi = solver.potential(pos, mass)
        # a bound clustered system has negative total potential energy
        assert (mass * phi).sum() < 0

    def test_potential_consistent_with_force(self):
        """Numerical gradient of the TreePM potential ~ the force."""
        solver = TreePMSolver(_config(mesh=16))
        rng = np.random.default_rng(7)
        pos = rng.random((32, 3))
        mass = np.full(32, 1.0 / 32)
        probe = np.array([0.52, 0.48, 0.5])
        h = 1e-4

        def phi_at(p):
            all_pos = np.vstack([pos, p])
            all_mass = np.concatenate([mass, [0.0]])
            return solver.potential(all_pos, all_mass)[-1]

        grad = np.zeros(3)
        for d in range(3):
            pp, pm = probe.copy(), probe.copy()
            pp[d] += h
            pm[d] -= h
            grad[d] = (phi_at(pp) - phi_at(pm)) / (2 * h)

        all_pos = np.vstack([pos, probe])
        all_mass = np.concatenate([mass, [0.0]])
        acc = TreePMSolver(_config(mesh=16)).forces(all_pos, all_mass).total[-1]
        np.testing.assert_allclose(acc, -grad, rtol=0.15, atol=0.05)
