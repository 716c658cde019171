"""Unit tests for the silent-data-corruption auditor: cadence, the
live-state fingerprint audit, the ABFT force spot-check (including the
serial TreePM solver hookup), and their routing through the one guard
router."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
    ValidationConfig,
)
from repro.mpi.faults import flip_array_bits
from repro.sim.serial import SerialSimulation
from repro.treepm.solver import TreePMSolver
from repro.validate import (
    GuardEvent,
    InvariantViolation,
    InvariantWarning,
    SdcAuditor,
    Validator,
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


def _guard(policy, **kw):
    """A guard running only the SDC audits, at ``policy``."""
    return Validator(ValidationConfig(overrides={"sdc": policy}, **kw))


def _auditor(policy, **kw):
    return SdcAuditor(_guard(policy, **kw))


def _solver(guard=None, group_size=8):
    return TreePMSolver(
        config=TreePMConfig(
            tree=TreeConfig(group_size=group_size),
            pm=PMConfig(mesh_size=8),
        ),
        validator=guard,
    )


class TestCadence:
    def test_disabled_policy_never_due(self):
        aud = _auditor("off")
        assert not aud.enabled
        assert not aud.due(1)

    def test_audit_every(self):
        aud = _auditor("warn", interval=3)
        assert [s for s in range(10) if aud.due(s)] == [3, 6, 9]

    def test_step_zero_not_due(self):
        aud = _auditor("recover", interval=1)
        assert not aud.due(0)
        assert aud.due(1)


class TestFingerprintAudit:
    def test_clean_state_passes(self):
        _, mass, ids = _system()
        aud = _auditor("recover")
        comm = _SoloComm()
        aud.set_reference(comm, ids, mass)
        assert aud.fingerprint_audit(comm, ids, mass, step=1) is None
        assert aud.events == []

    def test_first_call_freezes_reference(self):
        _, mass, ids = _system()
        aud = _auditor("recover")
        comm = _SoloComm()
        assert aud.fingerprint_audit(comm, ids, mass, step=0) is None
        assert aud._reference_fp is not None

    @pytest.mark.parametrize("which", ["mass", "ids"])
    def test_single_bit_flip_detected(self, which):
        _, mass, ids = _system()
        aud = _auditor("recover")
        comm = _SoloComm()
        aud.set_reference(comm, ids, mass)
        if which == "mass":
            flip_array_bits(mass, nbits=1, seed=7)
        else:
            flip_array_bits(ids, nbits=1, seed=7)
        ev = aud.fingerprint_audit(comm, ids, mass, step=2)
        assert ev is not None
        assert ev.kind == "fingerprint" and ev.data["attribution"] == "live"
        assert ev.check == "sdc"
        assert ev.step == 2 and not ev.healed
        assert aud.events == [ev]

    def test_lost_particle_detected(self):
        _, mass, ids = _system()
        aud = _auditor("recover")
        comm = _SoloComm()
        aud.set_reference(comm, ids, mass)
        ev = aud.fingerprint_audit(comm, ids[:-1], mass[:-1], step=1)
        assert ev is not None and "count" in ev.detail

    def test_disabled_returns_none(self):
        _, mass, ids = _system()
        aud = _auditor("off")
        assert aud.fingerprint_audit(_SoloComm(), ids, mass, step=1) is None


class TestSpotCheck:
    def test_clean_sweep_passes(self):
        solver = _solver(_guard("recover", spot_check_groups=999))
        aud = solver.sdc
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        assert aud.events == []
        assert aud.audits_run >= 1

    def test_corrupted_sweep_detected_and_native_disabled(self):
        aud = _auditor("recover", spot_check_groups=999)
        solver = _solver()
        solver.tree.retain_last_sweep = True
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        solver.tree.last_sweep["acc_sorted"][0, 0] += 1.0
        ev = aud.spot_check(solver.tree, step=3)
        assert ev is not None
        assert ev.kind == "spot_check" and ev.data["attribution"] == "compute"
        assert "differ from the" in ev.detail
        # detection alone leaves the production path alone; the recover
        # remedy stops trusting it
        assert solver.tree._executor.use_native is True
        assert aud.heal(_SoloComm(), None, solver.tree, [ev]) == [ev]
        assert solver.tree._executor.use_native is False

    def test_no_retained_sweep_is_a_noop(self):
        aud = _auditor("recover")
        solver = _solver()
        assert aud.spot_check(solver.tree, step=1) is None

    def test_zero_groups_disables(self):
        solver = _solver(_guard("recover", spot_check_groups=0))
        assert solver.tree.retain_last_sweep is False
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        assert solver.sdc.events == []


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
    """The TreePMSolver runs the spot-check inline and, under
    ``recover``, returns forces recomputed through the reference
    pipeline."""

    def test_heal_resweeps_through_reference(self):
        pos, mass, _ = _system()
        clean = _solver().forces(pos, mass)
        solver = _solver(_guard("recover", spot_check_groups=999))
        _sabotage_once(solver)
        healed = solver.forces(pos, mass)
        (ev,) = solver.validator.events
        assert ev.kind == "spot_check" and ev.healed
        assert "healed by reference re-sweep" in ev.detail
        assert solver.tree._executor.use_native is False
        np.testing.assert_array_equal(healed.total, clean.total)

    def test_abort_raises(self):
        pos, mass, _ = _system()
        solver = _solver(_guard("abort", spot_check_groups=999))
        _sabotage_once(solver)
        with pytest.raises(InvariantViolation) as info:
            solver.forces(pos, mass)
        assert info.value.check == "sdc"
        assert info.value.stage == "sdc/spot_check"

    def test_warn_records_and_continues(self):
        pos, mass, _ = _system()
        solver = _solver(_guard("warn", spot_check_groups=999))
        _sabotage_once(solver)
        with pytest.warns(InvariantWarning):
            solver.forces(pos, mass)
        (ev,) = solver.sdc.events
        assert not ev.healed
        # warn must not touch the production path
        assert solver.tree._executor.use_native is True

    def test_audit_every_skips_calls(self):
        solver = _solver(_guard("warn", interval=2, spot_check_groups=999))
        aud = solver.sdc
        pos, mass, _ = _system()
        solver.forces(pos, mass)
        assert aud.audits_run == 0  # first call: 1 % 2 != 0
        solver.forces(pos, mass)
        assert aud.audits_run == 1


class TestSerialSimulationIntegration:
    """``SerialSimulation`` hands its guard to its solver, so the sweeps
    of a serial *step* are audited, not only bare ``forces``."""

    @staticmethod
    def _sim(policy="off", **kw):
        pos, mass, _ = _system()
        config = SimulationConfig(
            treepm=TreePMConfig(
                tree=TreeConfig(group_size=8), pm=PMConfig(mesh_size=8)
            ),
            validation=ValidationConfig(overrides={"sdc": policy}, **kw),
        )
        return SerialSimulation(config, pos, np.zeros_like(pos), mass)

    def test_step_audits_under_warn_and_heals_under_heal(self):
        off = self._sim()  # default policy
        off.step(0.0, 0.01)
        assert off.solver.sdc is None
        assert off.solver.tree.retain_last_sweep is False
        assert off.solver.tree.last_sweep is None

        warn = self._sim("warn", spot_check_groups=999)
        _sabotage_once(warn.solver)
        with pytest.warns(InvariantWarning):
            warn.step(0.0, 0.01)
        (ev,) = warn.validator.events
        assert ev.kind == "spot_check" and not ev.healed

        heal = self._sim("recover", spot_check_groups=999)
        _sabotage_once(heal.solver)
        heal.step(0.0, 0.01)
        (ev,) = heal.solver.sdc.events
        assert ev.healed
        assert heal.solver.sdc.audits_run == 3  # a first step's PP sweeps

        for sim in (warn, heal):  # auditing never moves a bit
            np.testing.assert_array_equal(sim.pos, off.pos)
            np.testing.assert_array_equal(sim.mom, off.mom)


class TestPolicyEngine:
    """An audit round's findings go through the one router: ``warn``
    warns, ``recover`` hands back to the remedy what nothing healed,
    ``abort`` raises."""

    def _event(self, aud, healed=False):
        return aud.record(
            "snapshot", 1, 0, "role=owner", {"array": "mass"}, healed=healed
        )

    def test_off_ignores(self):
        aud = _auditor("off")
        assert not aud.guard.handle_collective(
            _SoloComm(), aud.violation([self._event(aud)])
        )

    def test_warn_warns_per_event(self):
        aud = _auditor("warn")
        with pytest.warns(InvariantWarning, match="sdc"):
            assert not aud.guard.handle_collective(
                _SoloComm(), aud.violation([self._event(aud)])
            )

    def test_heal_passes_healed_events(self):
        aud = _auditor("recover")
        assert aud.violation([self._event(aud, healed=True)]) is None
        assert not aud.guard.handle_collective(_SoloComm(), None)

    def test_heal_raises_on_unhealed(self):
        aud = _auditor("recover")
        violation = aud.violation([self._event(aud)])
        assert violation.check == "sdc" and violation.stage == "sdc/snapshot"
        # the router hands the finding to the remedy instead of raising
        assert aud.guard.handle_collective(_SoloComm(), violation)

    def test_abort_raises_even_when_healed(self):
        aud = _auditor("abort")
        ev = self._event(aud)
        violation = aud.violation([ev])
        aud.mark_healed(ev)
        with pytest.raises(InvariantViolation):
            aud.guard.handle_collective(_SoloComm(), violation)

    def test_none_comm_is_local_verdict(self):
        aud = _auditor("abort")
        with pytest.raises(InvariantViolation):
            aud.guard.handle(aud.violation([self._event(aud)]))

    def test_mark_rolled_back(self):
        aud = _auditor("recover")
        self._event(aud)
        aud.mark_rolled_back(boundary=4)
        (ev,) = aud.events
        assert ev.healed and "healed by rollback to step 4" in ev.detail

    def test_event_summary_roundtrips_to_json(self):
        import json

        ev = GuardEvent(step=2, rank=0, check="sdc", kind="transport",
                        data={"array": "shm_frame"})
        row = json.loads(json.dumps(ev.as_dict()))
        assert row["kind"] == "transport" and row["check"] == "sdc"
