"""Tests of the serial simulation driver, including the plane-wave
(Zel'dovich) linear-growth validation of the whole stack."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
    ValidationConfig,
)
from repro.cosmology.params import EINSTEIN_DE_SITTER
from repro.integrate.stepper import CosmoStepper, StaticStepper
from repro.ic.zeldovich import particle_mass
from repro.integrate.leapfrog import TwoLevelKDK
from repro.sim.serial import SerialSimulation
from repro.treepm.solver import TreePMSolver
from repro.utils.timer import TimingLedger


def _config(mesh=16, softening=2e-3, theta=0.4):
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=theta, group_size=32),
            pm=PMConfig(mesh_size=mesh),
            rcut_mesh_units=3.0,
            softening=softening,
        ),
        pp_subcycles=2,
    )


class TestSerialBasics:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            SerialSimulation(
                _config(), np.zeros((2, 3)), np.zeros((1, 3)), np.ones(2)
            )

    def test_run_advances_steps(self, uniform_particles):
        pos, mass = uniform_particles
        sim = SerialSimulation(_config(), pos, np.zeros_like(pos), mass)
        sim.run(0.0, 0.02, n_steps=2)
        assert sim.steps_taken == 2

    def test_positions_stay_in_box(self, uniform_particles):
        pos, mass = uniform_particles
        rng = np.random.default_rng(0)
        mom = 0.1 * rng.standard_normal(pos.shape)
        sim = SerialSimulation(_config(), pos, mom, mass)
        sim.run(0.0, 0.1, n_steps=3)
        assert np.all((sim.pos >= 0) & (sim.pos < 1))

    def test_momentum_nearly_conserved(self, clustered_particles):
        pos, mass = clustered_particles
        sim = SerialSimulation(_config(), pos, np.zeros_like(pos), mass)
        sim.run(0.0, 0.05, n_steps=3)
        ptot = np.abs((mass[:, None] * sim.mom).sum(axis=0)).max()
        pscale = np.abs(mass[:, None] * sim.mom).sum()
        assert ptot < 0.02 * max(pscale, 1e-30)

    def test_timing_rows_accumulate(self, uniform_particles):
        pos, mass = uniform_particles
        sim = SerialSimulation(_config(), pos, np.zeros_like(pos), mass)
        sim.run(0.0, 0.01, n_steps=1)
        t = sim.timing.as_dict()
        assert t["PM/FFT"] > 0
        assert t["PP/force calculation"] > 0
        assert t["PP/tree construction"] > 0

    @pytest.mark.parametrize("policy", ["off", "warn"])
    def test_step_is_the_integrator_over_the_solver_halves(
        self, clustered_particles, policy
    ):
        """The driver owns no force code: two steps equal a hand-driven
        ``TwoLevelKDK`` over ``solver.long_range``/``short_range``."""
        pos, mass = clustered_particles
        mom = 0.05 * np.random.default_rng(3).standard_normal(pos.shape)
        cfg = replace(_config(), validation=ValidationConfig(policy=policy))
        edges = [(0.0, 0.01), (0.01, 0.02)]

        sim = SerialSimulation(cfg, pos, mom, mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the guardrails stay silent
            for t1, t2 in edges:
                sim.step(t1, t2)
        assert (sim.solver.validator is sim.validator) == (policy == "warn")

        solver = TreePMSolver(cfg.treepm)
        ledger = TimingLedger()
        kdk = TwoLevelKDK(
            lambda p: solver.long_range(p, mass, ledger),
            lambda p: solver.short_range(p, mass, ledger),
            StaticStepper(),
            n_sub=cfg.pp_subcycles,
            ledger=ledger,
        )
        p, m = pos, mom
        for t1, t2 in edges:
            p, m = kdk.step(p, m, t1, t2)
        np.testing.assert_array_equal(sim.pos, p)
        np.testing.assert_array_equal(sim.mom, m)
        rows = set(sim.timing.as_dict())
        assert set(ledger.as_dict()) == rows - {
            "Domain Decomposition/position update"
        }
        assert sim.last_stats.interactions == solver.last_stats.interactions

    def test_energy_roughly_conserved_static(self, rng):
        """Static Newtonian run from cold uniform initial conditions:
        the energy drift stays a small fraction of the kinetic energy
        the collapse generates.  (TreePM forces are not exact
        gradients, so the bound is approximate, not machine-level.)"""
        pos = rng.random((64, 3))
        mass = np.full(64, 1.0 / 64)
        sim = SerialSimulation(_config(softening=2e-2), pos, np.zeros_like(pos), mass)
        e0 = sim.total_energy()
        sim.run(0.0, 0.5, n_steps=40)
        drift = abs(sim.total_energy() - e0)
        assert drift < 0.15 * sim.kinetic_energy()


class TestPlaneWaveGrowth:
    """The canonical cosmological validation: a single Zel'dovich
    plane wave must grow with the linear growth factor (exactly a in
    EdS) until shell crossing.  This exercises ICs, the TreePM force,
    the comoving integrator and the cosmology modules together."""

    def _setup(self, a_init, amplitude=0.004):
        npd = 8
        g = (np.arange(npd) + 0.5) / npd
        q = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        # displacement psi = A cos(2 pi q_x) x_hat (normalized to D=1
        # at a=1; EdS: D(a) = a)
        psi = np.zeros_like(q)
        psi[:, 0] = amplitude * np.cos(2 * np.pi * q[:, 0])
        pos = np.mod(q + a_init * psi, 1.0)
        # p = a^2 dD/dt psi = a^2 (aH) psi / a ... EdS: p = a^1.5 psi
        mom = a_init**1.5 * psi
        mass = np.full(len(q), particle_mass(EINSTEIN_DE_SITTER, len(q)))
        return q, psi, pos, mom, mass

    def test_linear_growth_rate(self):
        a0, a1 = 0.02, 0.04
        q, psi, pos, mom, mass = self._setup(a0)
        cfg = _config(mesh=16, softening=1e-3, theta=0.3)
        sim = SerialSimulation(
            cfg, pos, mom, mass, stepper=CosmoStepper(EINSTEIN_DE_SITTER)
        )
        sim.run(a0, a1, n_steps=8)
        disp = sim.pos - q
        disp -= np.round(disp)
        expected = a1 * psi
        # the displacement doubled (D = a in EdS): compare projections
        got = (disp * psi).sum() / (psi * psi).sum()
        want = (expected * psi).sum() / (psi * psi).sum()
        assert got == pytest.approx(want, rel=0.05)

    def test_transverse_motion_stays_zero(self):
        a0 = 0.02
        q, psi, pos, mom, mass = self._setup(a0)
        cfg = _config(mesh=16, softening=1e-3, theta=0.3)
        sim = SerialSimulation(
            cfg, pos, mom, mass, stepper=CosmoStepper(EINSTEIN_DE_SITTER)
        )
        sim.run(a0, 0.04, n_steps=4)
        disp = sim.pos - q
        disp -= np.round(disp)
        long_amp = np.abs(disp[:, 0]).max()
        trans_amp = np.abs(disp[:, 1:]).max()
        assert trans_amp < 0.05 * long_amp
