"""Unit tests for the silent-data-corruption auditor: cadence, the
live-state fingerprint audit, the ABFT force spot-check (including the
serial TreePM solver hookup), and the policy engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    PMConfig,
    SdcConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
)
from repro.mpi.faults import flip_array_bits
from repro.sim.serial import SerialSimulation
from repro.treepm.solver import TreePMSolver
from repro.validate.sdc import (
    SdcAuditor,
    SdcEvent,
    SdcViolation,
    SdcWarning,
)

pytestmark = pytest.mark.timeout(120)


class _SoloComm:
    """Single-rank communicator stub for collective audit calls."""

    size = 1
    rank = 0
    world_rank = 0

    def allgather(self, value):
        return [value]

    def allreduce(self, arr, op="sum"):
        return np.asarray(arr)


def _system(n=48, seed=4):
    rng = np.random.default_rng(seed)
    return (
        rng.random((n, 3)),
        np.full(n, 1.0 / n),
        np.arange(n, dtype=np.int64),
    )


def _solver(sdc=None, group_size=8):
    return TreePMSolver(
        config=TreePMConfig(
            tree=TreeConfig(group_size=group_size),
            pm=PMConfig(mesh_size=8),
        ),
        sdc=sdc,
    )


class TestCadence:
    def test_disabled_policy_never_due(self):
        aud = SdcAuditor(config=SdcConfig(policy="off"))
        assert not aud.enabled
        assert not aud.due(1)

    def test_audit_every(self):
        aud = SdcAuditor(config=SdcConfig(policy="warn", audit_every=3))
        assert [s for s in range(10) if aud.due(s)] == [3, 6, 9]

    def test_step_zero_not_due(self):
        aud = SdcAuditor(config=SdcConfig(policy="heal", audit_every=1))
        assert not aud.due(0)
        assert aud.due(1)


class TestFingerprintAudit:
    def test_clean_state_passes(self):
        _, mass, ids = _system()
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        comm = _SoloComm()
        aud.set_reference(comm, ids, mass)
        assert aud.fingerprint_audit(comm, ids, mass, step=1) is None
        assert aud.events == []

    def test_first_call_freezes_reference(self):
        _, mass, ids = _system()
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        comm = _SoloComm()
        assert aud.fingerprint_audit(comm, ids, mass, step=0) is None
        assert aud._reference_fp is not None

    @pytest.mark.parametrize("which", ["mass", "ids"])
    def test_single_bit_flip_detected(self, which):
        _, mass, ids = _system()
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        comm = _SoloComm()
        aud.set_reference(comm, ids, mass)
        if which == "mass":
            flip_array_bits(mass, nbits=1, seed=7)
        else:
            flip_array_bits(ids, nbits=1, seed=7)
        ev = aud.fingerprint_audit(comm, ids, mass, step=2)
        assert ev is not None
        assert ev.kind == "fingerprint" and ev.attribution == "live"
        assert ev.step == 2 and not ev.healed
        assert aud.events == [ev]

    def test_lost_particle_detected(self):
        _, mass, ids = _system()
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        comm = _SoloComm()
        aud.set_reference(comm, ids, mass)
        ev = aud.fingerprint_audit(comm, ids[:-1], mass[:-1], step=1)
        assert ev is not None and "count" in ev.detail

    def test_disabled_returns_none(self):
        _, mass, ids = _system()
        aud = SdcAuditor(config=SdcConfig(policy="off"))
        assert aud.fingerprint_audit(_SoloComm(), ids, mass, step=1) is None


class TestSpotCheck:
    def test_clean_sweep_passes(self):
        aud = SdcAuditor(
            config=SdcConfig(policy="heal", spot_check_groups=999)
        )
        solver = _solver(sdc=aud)
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        assert aud.events == []
        assert aud.audits_run >= 1

    def test_corrupted_sweep_detected_and_native_disabled(self):
        aud = SdcAuditor(
            config=SdcConfig(policy="heal", spot_check_groups=999)
        )
        solver = _solver()
        solver.tree.retain_last_sweep = True
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        solver.tree.last_sweep["acc_sorted"][0, 0] += 1.0
        ev = aud.spot_check(solver.tree, step=3)
        assert ev is not None
        assert ev.kind == "spot_check" and ev.attribution == "compute"
        assert "differ from the" in ev.detail
        assert solver.tree._executor.use_native is False

    def test_no_retained_sweep_is_a_noop(self):
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        solver = _solver()
        assert aud.spot_check(solver.tree, step=1) is None

    def test_zero_groups_disables(self):
        aud = SdcAuditor(
            config=SdcConfig(policy="heal", spot_check_groups=0)
        )
        solver = _solver(sdc=aud)
        assert solver.tree.retain_last_sweep is False
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        assert aud.events == []


def _sabotage_once(solver):
    """Corrupt the retained copy of the solver's next sweep."""
    orig = solver.tree.forces
    fired = []

    def wrapped(pos, mass, **kw):
        acc, stats = orig(pos, mass, **kw)
        if not fired:
            fired.append(True)
            solver.tree.last_sweep["acc_sorted"][0, 0] *= -1.0
        return acc, stats

    solver.tree.forces = wrapped


class TestSerialSolverIntegration:
    """The TreePMSolver runs the spot-check inline and, under ``heal``,
    returns forces recomputed through the reference pipeline."""

    def test_heal_resweeps_through_reference(self):
        pos, mass, _ = _system()
        clean = _solver().forces(pos, mass)
        aud = SdcAuditor(
            config=SdcConfig(policy="heal", spot_check_groups=999)
        )
        solver = _solver(sdc=aud)
        _sabotage_once(solver)
        healed = solver.forces(pos, mass)
        (ev,) = aud.events
        assert ev.kind == "spot_check" and ev.healed
        assert "healed by reference re-sweep" in ev.detail
        np.testing.assert_array_equal(healed.total, clean.total)

    def test_abort_raises(self):
        pos, mass, _ = _system()
        aud = SdcAuditor(
            config=SdcConfig(policy="abort", spot_check_groups=999)
        )
        solver = _solver(sdc=aud)
        _sabotage_once(solver)
        with pytest.raises(SdcViolation):
            solver.forces(pos, mass)

    def test_warn_records_and_continues(self):
        pos, mass, _ = _system()
        aud = SdcAuditor(
            config=SdcConfig(policy="warn", spot_check_groups=999)
        )
        solver = _solver(sdc=aud)
        _sabotage_once(solver)
        with pytest.warns(SdcWarning):
            solver.forces(pos, mass)
        (ev,) = aud.events
        assert not ev.healed
        # warn must not touch the production path
        assert solver.tree._executor.use_native is True

    def test_audit_every_skips_calls(self):
        aud = SdcAuditor(
            config=SdcConfig(
                policy="warn", audit_every=2, spot_check_groups=999
            )
        )
        solver = _solver(sdc=aud)
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        assert aud.audits_run == 0  # first call: 1 % 2 != 0
        solver.forces(pos, mass)
        assert aud.audits_run == 1


class TestSerialSimulationIntegration:
    """``SerialSimulation`` hands ``config.sdc`` to its solver, so the
    sweeps of a serial *step* are audited, not only bare ``forces``."""

    @staticmethod
    def _sim(**sdc):
        pos, mass, _ = _system()
        config = SimulationConfig(
            treepm=TreePMConfig(
                tree=TreeConfig(group_size=8), pm=PMConfig(mesh_size=8)
            ),
            sdc=SdcConfig(**sdc),
        )
        return SerialSimulation(config, pos, np.zeros_like(pos), mass)

    def test_step_audits_under_warn_and_heals_under_heal(self):
        off = self._sim()  # default policy
        off.step(0.0, 0.01)
        assert off.solver.sdc is None
        assert off.solver.tree.retain_last_sweep is False
        assert off.solver.tree.last_sweep is None

        warn = self._sim(policy="warn", spot_check_groups=999)
        _sabotage_once(warn.solver)
        with pytest.warns(SdcWarning):
            warn.step(0.0, 0.01)
        (ev,) = warn.solver.sdc.events
        assert ev.kind == "spot_check" and not ev.healed

        heal = self._sim(policy="heal", spot_check_groups=999)
        _sabotage_once(heal.solver)
        heal.step(0.0, 0.01)
        (ev,) = heal.solver.sdc.events
        assert ev.healed
        assert heal.solver.sdc.audits_run == 3  # a first step's PP sweeps

        for sim in (warn, heal):  # auditing never moves a bit
            np.testing.assert_array_equal(sim.pos, off.pos)
            np.testing.assert_array_equal(sim.mom, off.mom)


class TestPolicyEngine:
    def _event(self, healed=False):
        return SdcEvent(step=1, kind="snapshot", array="mass", healed=healed)

    def test_off_ignores(self):
        aud = SdcAuditor(config=SdcConfig(policy="off"))
        aud.apply_policy(_SoloComm(), [self._event()])

    def test_warn_warns_per_event(self):
        aud = SdcAuditor(config=SdcConfig(policy="warn"))
        with pytest.warns(SdcWarning):
            aud.apply_policy(_SoloComm(), [self._event()])

    def test_heal_passes_healed_events(self):
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        aud.apply_policy(_SoloComm(), [self._event(healed=True)])

    def test_heal_raises_on_unhealed(self):
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        with pytest.raises(SdcViolation) as info:
            aud.apply_policy(_SoloComm(), [self._event()])
        assert len(info.value.events) == 1

    def test_abort_raises_even_when_healed(self):
        aud = SdcAuditor(config=SdcConfig(policy="abort"))
        with pytest.raises(SdcViolation):
            aud.apply_policy(_SoloComm(), [self._event(healed=True)])

    def test_none_comm_is_local_verdict(self):
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        with pytest.raises(SdcViolation):
            aud.apply_policy(None, [self._event()])

    def test_mark_rolled_back(self):
        aud = SdcAuditor(config=SdcConfig(policy="heal"))
        ev = self._event()
        aud.mark_rolled_back([ev], boundary=4)
        assert ev.healed and "healed by rollback to step 4" in ev.detail

    def test_event_summary_roundtrips_to_json(self):
        import json

        ev = SdcEvent(step=2, kind="transport", array="shm_frame")
        assert json.loads(json.dumps(ev.summary()))["kind"] == "transport"
