"""Tests of the distributed simulation driver.

The headline property: the parallel driver reproduces the serial
TreePM integration — domain decomposition, ghost exchange and relay
mesh are all physics-neutral.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.config import (
    DomainConfig,
    PMConfig,
    RelayMeshConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
)
from repro.pp.plan import PlanExecutor
from repro.sim.parallel import run_parallel_simulation
from repro.sim.serial import SerialSimulation
from repro.tree import traversal


def _config(divisions=(2, 1, 1), n_groups=1, mesh=16):
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.4, group_size=32),
            pm=PMConfig(mesh_size=mesh),
            rcut_mesh_units=3.0,
            softening=5e-3,
        ),
        domain=DomainConfig(divisions=divisions, sample_rate=0.3),
        relay=RelayMeshConfig(n_groups=n_groups),
        pp_subcycles=2,
    )


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(77)
    pos = rng.random((128, 3))
    mom = 0.02 * rng.standard_normal((128, 3))
    mass = np.full(128, 1.0 / 128)
    return pos, mom, mass


def float64_sweep(mp: pytest.MonkeyPatch) -> None:
    """Sweep every solver built from here on (every rank's, since ranks
    are threads of this process) with the float64 precision oracle."""
    mp.setattr(
        traversal,
        "PlanExecutor",
        functools.partial(PlanExecutor, dtype=np.float64),
    )


def _serial(particles):
    pos, mom, mass = particles
    sim = SerialSimulation(_config((1, 1, 1)), pos, mom, mass)
    sim.run(0.0, 0.08, n_steps=2)
    return sim.pos, sim.mom


@pytest.fixture(scope="module")
def serial_result(particles):
    with pytest.MonkeyPatch.context() as mp:
        float64_sweep(mp)
        return _serial(particles)


@pytest.fixture(scope="module")
def serial_result_single(particles):
    return _serial(particles)


class TestParallelMatchesSerial:
    @pytest.mark.parametrize(
        "divisions,n_groups",
        [((1, 1, 1), 1), ((2, 1, 1), 1), ((2, 2, 1), 1), ((4, 1, 1), 2)],
    )
    def test_final_state_agrees(
        self, particles, serial_result, divisions, n_groups, monkeypatch
    ):
        # both sides sweep with the float64 oracle, so what differs is
        # float64 roundoff, and a dropped or doubled pair shows
        float64_sweep(monkeypatch)
        pos, mom, mass = particles
        cfg = _config(divisions, n_groups)
        p_pos, p_mom, p_mass, sims, _ = run_parallel_simulation(
            cfg, pos, mom, mass, 0.0, 0.08, n_steps=2
        )
        s_pos, s_mom = serial_result
        # identical physics; differences are roundoff amplified by two
        # steps of nonlinear dynamics
        d = np.abs(p_pos - s_pos)
        d = np.minimum(d, 1.0 - d)  # periodic metric
        assert d.max() < 1e-6
        np.testing.assert_allclose(p_mom, s_mom, atol=1e-5)
        np.testing.assert_allclose(np.sort(p_mass), np.sort(mass), atol=0)

    def test_final_state_agrees_single_precision(
        self, particles, serial_result_single
    ):
        """The production sweep: a rank's groups, and so their origins,
        differ from the serial tree's, so the two agree to
        single-precision roundoff amplified by two steps."""
        pos, mom, mass = particles
        p_pos, p_mom, _, _, _ = run_parallel_simulation(
            _config((4, 1, 1), 2), pos, mom, mass, 0.0, 0.08, n_steps=2
        )
        s_pos, s_mom = serial_result_single
        d = np.abs(p_pos - s_pos)
        d = np.minimum(d, 1.0 - d)
        assert d.max() < 1e-6  # measured 6.8e-7
        np.testing.assert_allclose(p_mom, s_mom, atol=1e-4)  # measured 2.5e-5

    def test_mass_and_count_conserved(self, particles):
        pos, mom, mass = particles
        p_pos, p_mom, p_mass, sims, _ = run_parallel_simulation(
            _config((2, 2, 1)), pos, mom, mass, 0.0, 0.04, n_steps=1
        )
        assert len(p_pos) == len(pos)
        assert p_mass.sum() == pytest.approx(mass.sum())


class TestTable1Accounting:
    def test_all_rows_present(self, particles):
        pos, mom, mass = particles
        _, _, _, sims, _ = run_parallel_simulation(
            _config((2, 1, 1)), pos, mom, mass, 0.0, 0.04, n_steps=1
        )
        rows = sims[0].table1_rows()
        for key in (
            "PM/density assignment",
            "PM/communication",
            "PM/FFT",
            "PM/acceleration on mesh",
            "PM/force interpolation",
            "PP/local tree",
            "PP/communication",
            "PP/tree construction",
            "PP/tree traversal",
            "PP/force calculation",
            "Domain Decomposition/position update",
            "Domain Decomposition/sampling method",
            "Domain Decomposition/particle exchange",
        ):
            assert key in rows, key
            assert rows[key] >= 0.0

    def test_interaction_statistics_collected(self, particles):
        pos, mom, mass = particles
        _, _, _, sims, _ = run_parallel_simulation(
            _config((2, 1, 1)), pos, mom, mass, 0.0, 0.04, n_steps=1
        )
        total = sum(s.stats.interactions for s in sims)
        assert total > 0
        assert sims[0].stats.mean_group_size > 0
        assert sims[0].stats.mean_list_length > 0

    def test_traffic_phases_logged(self, particles):
        pos, mom, mass = particles
        _, _, _, _, runtime = run_parallel_simulation(
            _config((2, 2, 1)), pos, mom, mass, 0.0, 0.04, n_steps=1
        )
        assert runtime.traffic.merged(["pp:ghosts"]).total_bytes > 0
        assert runtime.traffic.merged(["pm:mesh_to_slab"]).n_messages > 0


class TestValidation:
    def test_division_rank_mismatch(self, particles):
        from repro.mpi.runtime import run_spmd
        from repro.sim.parallel import ParallelSimulation

        pos, mom, mass = particles

        def fn(comm):
            ParallelSimulation(comm, _config((4, 1, 1)), pos, mom, mass)

        with pytest.raises(RuntimeError, match="divisions"):
            run_spmd(2, fn)
