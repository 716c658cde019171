"""End-to-end runtime validation: guardrails catch injected corruption.

The PR-1 fault machinery and the invariant guardrails close a loop
here: a :class:`FaultPlan` silently corrupting exchanged momenta is
*invisible* to an unvalidated run (the damaged floats stay finite) but
is caught by the momentum-conservation check at ``decomp/exchange``,
which under the ``dump`` policy writes a loadable diagnostic checkpoint
naming the corrupted stage before aborting.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
    ValidationConfig,
)
from repro.mpi.faults import FaultPlan
from repro.sim.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    load_distributed_checkpoint,
    read_rank_file,
    validate_checkpoint,
)
from repro.sim.parallel import run_parallel_simulation
from repro.sim.serial import SerialSimulation
from repro.validate import InvariantViolation, InvariantWarning

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

N = 96


def _cfg(policy="off", divisions=(2, 1, 1), **vkw):
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.5, group_size=32),
            pm=PMConfig(mesh_size=16),
            softening=5e-3,
        ),
        domain=DomainConfig(
            divisions=divisions, sample_rate=0.3, cost_balance=False
        ),
        validation=ValidationConfig(policy=policy, **vkw),
    )


def _ics(seed=31, n=N):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    mom = 0.01 * rng.standard_normal((n, 3))
    mass = np.full(n, 1.0 / n)
    return pos, mom, mass


def _corruption_plan():
    """Corrupt the momentum field of every rank0 -> rank1 particle
    exchange payload (silent data corruption: the floats stay finite)."""
    return FaultPlan(seed=3).corrupt_messages(
        src=0, dst=1, count=10**6, key="mom"
    )


class TestCleanRuns:
    def test_clean_run_passes_under_abort(self):
        pos, mom, mass = _ics()
        p, m, w, sims, _ = run_parallel_simulation(
            _cfg("abort"), pos, mom, mass, 0.0, 0.08, n_steps=2
        )
        assert all(s.steps_taken == 2 for s in sims)
        assert np.isfinite(p).all()

    def test_validation_off_is_default_and_inert(self):
        cfg = _cfg()
        assert not cfg.validation.enabled


class TestCorruptionDetection:
    def test_corrupted_run_completes_silently_without_validation(self):
        pos, mom, mass = _ics()
        p, m, w, sims, _ = run_parallel_simulation(
            _cfg("off"), pos, mom, mass, 0.0, 0.02, n_steps=2,
            fault_plan=_corruption_plan(),
        )
        # the whole point: silent corruption really is silent
        assert all(s.steps_taken == 2 for s in sims)

    def test_abort_policy_names_stage_and_rank(self):
        pos, mom, mass = _ics()
        with pytest.raises(RuntimeError) as ei:
            run_parallel_simulation(
                _cfg("abort"), pos, mom, mass, 0.0, 0.02, n_steps=2,
                fault_plan=_corruption_plan(),
            )
        violations = [
            e for e in ei.value.rank_errors.values()
            if isinstance(e, InvariantViolation)
        ]
        assert violations, f"no InvariantViolation in {ei.value.rank_errors}"
        v = violations[0]
        assert v.check == "momentum_conservation"
        assert v.stage == "decomp/exchange"
        assert v.step is not None and v.rank is not None

    def test_dump_policy_writes_loadable_diagnostic_checkpoint(self, tmp_path):
        pos, mom, mass = _ics()
        dump_dir = tmp_path / "diag"
        with pytest.raises(RuntimeError) as ei:
            run_parallel_simulation(
                _cfg("abort", dump_dir=str(dump_dir)),
                pos, mom, mass, 0.0, 0.02, n_steps=2,
                fault_plan=_corruption_plan(),
            )
        violations = [
            e for e in ei.value.rank_errors.values()
            if isinstance(e, InvariantViolation)
        ]
        assert violations and violations[0].dump_path is not None

        # the dump is a complete, strictly-loadable checkpoint set whose
        # manifest names the corrupted stage
        step_dir = latest_checkpoint(dump_dir)
        manifest = validate_checkpoint(step_dir)
        assert manifest["violation"]["check"] == "momentum_conservation"
        assert manifest["violation"]["stage"] == "decomp/exchange"
        merged = load_distributed_checkpoint(step_dir, strict=True)
        assert len(merged["ids"]) == N

    def test_warn_policy_completes_with_warning(self):
        pos, mom, mass = _ics()
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            p, m, w, sims, _ = run_parallel_simulation(
                _cfg("warn"), pos, mom, mass, 0.0, 0.02, n_steps=2,
                fault_plan=_corruption_plan(),
            )
        assert all(s.steps_taken == 2 for s in sims)
        hits = [r for r in rec if issubclass(r.category, InvariantWarning)]
        assert hits and "momentum" in str(hits[0].message)


class TestStrictCheckpointLoad:
    def test_hand_corrupted_rank_file_rejected_in_strict_mode(self, tmp_path):
        pos, mom, mass = _ics()
        ck = tmp_path / "ck"
        run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, 0.02, n_steps=2,
            checkpoint_every=2, checkpoint_dir=ck,
        )
        step_dir = latest_checkpoint(ck)
        # rewrite one rank file with a NaN momentum but valid checksums
        name = sorted(p.name for p in step_dir.glob("rank_*.npz"))[0]
        arrays, meta = read_rank_file(step_dir / name)
        arrays = {k: np.array(v) for k, v in arrays.items()}
        arrays["mom"][0, 0] = np.nan
        from repro.sim.checkpoint import write_rank_file

        write_rank_file(step_dir / name, arrays, meta)

        # default load (no strict) passes the per-array checksums
        read_rank_file(step_dir / name)
        # strict load rejects, naming the array
        with pytest.raises(CheckpointError, match="mom"):
            read_rank_file(step_dir / name, strict=True)
        with pytest.raises(CheckpointError, match="mom"):
            load_distributed_checkpoint(step_dir, verify=False, strict=True)

    def test_resume_refuses_nan_position(self, tmp_path):
        """A state written with a NaN checksums perfectly; resuming it
        must fail naming the array, not integrate garbage."""
        pos, mom, mass = _ics()
        sim = SerialSimulation(_cfg(), pos, mom, mass)
        sim.pos[3, 1] = np.nan
        sim.save_checkpoint(tmp_path, 0.0)
        with pytest.raises(CheckpointError, match="pos"):
            SerialSimulation.from_checkpoint(_cfg(), tmp_path)


class TestSerialMonitors:
    def _sim(self, policy="abort", n=128, **vkw):
        rng = np.random.default_rng(7)
        pos = rng.random((n, 3))
        cfg = SimulationConfig(
            treepm=TreePMConfig(pm=PMConfig(mesh_size=16), softening=5e-3),
            validation=ValidationConfig(policy=policy, **vkw),
        )
        return SerialSimulation(
            cfg, pos, np.zeros((n, 3)), np.full(n, 1.0 / n)
        )

    def test_energy_monitor_clean_run(self):
        sim = self._sim(energy_interval=1)
        sim.run(0.0, 0.005, n_steps=4)  # modest steps: drift stays tiny
        assert sim.steps_taken == 4
        assert sim.energy_monitor.e0 is not None

    def test_energy_monitor_trips_on_pathological_timestep(self):
        sim = self._sim(energy_interval=1)
        with pytest.raises(InvariantViolation) as ei:
            sim.run(0.0, 0.8, n_steps=4)  # wildly too large steps
        assert ei.value.check == "energy_drift"

    def test_energy_monitor_off_by_default(self):
        sim = self._sim()  # energy_interval defaults to 0
        sim.run(0.0, 0.8, n_steps=2)
        assert sim.energy_monitor.e0 is None

    def test_serial_dump_writes_snapshot(self, tmp_path):
        """A serial dump is a one-rank checkpoint epoch under dump_dir."""
        dump = tmp_path / "diag"
        sim = self._sim(policy="abort", energy_interval=1, dump_dir=str(dump))
        with pytest.raises(InvariantViolation) as ei:
            sim.run(0.0, 0.8, n_steps=4)
        assert ei.value.dump_path is not None
        assert latest_checkpoint(dump) == Path(ei.value.dump_path)
        merged = load_distributed_checkpoint(ei.value.dump_path, strict=True)
        assert merged["manifest"]["violation"]["check"] == "energy_drift"
        assert merged["manifest"]["n_ranks"] == 1

    def test_energy_monitor_clean_cosmological_run(self):
        """A Zel'dovich plane wave in EdS integrates cleanly under
        ``abort`` with the energy monitor on at default tolerance."""
        from repro.cosmology.params import EINSTEIN_DE_SITTER
        from repro.ic.zeldovich import particle_mass
        from repro.integrate.stepper import CosmoStepper

        npd = 8
        g = (np.arange(npd) + 0.5) / npd
        q = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        psi = np.zeros_like(q)
        psi[:, 0] = 0.004 * np.cos(2 * np.pi * q[:, 0])
        a0, a1 = 0.02, 0.04
        cfg = SimulationConfig(
            treepm=TreePMConfig(
                tree=TreeConfig(opening_angle=0.3),
                pm=PMConfig(mesh_size=16),
                softening=1e-3,
            ),
            validation=ValidationConfig(policy="abort", energy_interval=1),
        )
        sim = SerialSimulation(
            cfg,
            np.mod(q + a0 * psi, 1.0),
            a0**1.5 * psi,
            np.full(len(q), particle_mass(EINSTEIN_DE_SITTER, len(q))),
            stepper=CosmoStepper(EINSTEIN_DE_SITTER),
        )
        sim.run(a0, a1, n_steps=8)
        assert sim.steps_taken == 8
        assert sim.energy_monitor.tracker.n_samples == 8
        assert sim.energy_monitor.tracker.relative_violation() < 0.25

    def test_octree_satellite_zero_mass_fallback_only(self):
        # zero-mass nodes still get the geometric-center fallback
        from repro.tree.octree import Octree

        rng = np.random.default_rng(5)
        pos = rng.random((32, 3))
        tree = Octree(pos, np.zeros(32))
        assert np.isfinite(tree.node_com).all()
        # but a NaN mass on a massive node surfaces as a violation
        mass = np.ones(32)
        mass[3] = np.nan
        with pytest.raises(InvariantViolation) as ei:
            Octree(pos, mass)
        assert ei.value.check == "octree_moments"
        assert ei.value.stage == "tree/moments"
