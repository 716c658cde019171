"""End-to-end SDC injection matrix for the elastic runner.

Every corruption kind the fault plan can schedule — in-memory bit
flips against the live arrays or the frozen rollback copies, SHM
transport frame corruption, on-disk checkpoint bit-rot — must be
*detected*, *attributed* and *healed* (in place where a clean copy
survives, by rollback or disk restore otherwise), and the run must
still finish its schedule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreePMConfig,
    ValidationConfig,
)
from repro.mpi.backend import SelfComm
from repro.mpi.faults import FaultPlan
from repro.mpi.recovery import BuddyStore
from repro.sim import checkpoint as _ckpt
from repro.sim.elastic import run_elastic_simulation
from repro.validate import InvariantViolation, InvariantWarning

pytestmark = [pytest.mark.faults, pytest.mark.timeout(300)]

N = 96
N_STEPS = 4
T_END = 0.04


def _cfg(n_ranks=2, policy="recover", audit_every=1, spot=2):
    """``policy`` is the SDC audits'; the other checks stay off."""
    return SimulationConfig(
        domain=DomainConfig(
            divisions=(n_ranks, 1, 1), sample_rate=0.3, cost_balance=False
        ),
        treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
        validation=ValidationConfig(
            overrides={"sdc": policy},
            interval=audit_every,
            spot_check_groups=spot,
        ),
    )


def _system(seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.random((N, 3)),
        rng.normal(scale=0.01, size=(N, 3)),
        np.full(N, 1.0 / N),
    )


def _run(plan, policy="recover", backend="thread", ckpt=None, every=None,
         keep_last=0, audit_every=1):
    pos, mom, mass = _system()
    return run_elastic_simulation(
        _cfg(policy=policy, audit_every=audit_every),
        pos, mom, mass, 0.0, T_END, N_STEPS,
        fault_plan=plan,
        buddy_every=1,
        checkpoint_dir=ckpt,
        checkpoint_every=every,
        recv_timeout=10.0,
        backend=backend,
        keep_last=keep_last,
    )


def _events(runner):
    """The SDC rows of a runner's (or a rank report's) guard log."""
    return [ev for ev in runner.guard_events if ev["check"] == "sdc"]


class TestSnapshotFlipHealing:
    """Flips against the frozen rollback copies: detected by the digest
    cross-check, attributed by the two-out-of-three vote, healed in
    place — no shrink, no rollback."""

    def test_self_copy_flip_attributed_to_owner(self):
        plan = FaultPlan(seed=1).flip_bits(
            0, "mass", step=1, target="self_copy"
        )
        p, m, w, runners, _ = _run(plan)
        assert len(p) == N
        for r in runners:
            assert r.events == []  # healed in place: zero recoveries
            snap = [e for e in _events(r) if e["kind"] == "snapshot"]
            assert len(snap) == 1
            assert snap[0]["data"]["attribution"] == "owner"
            assert snap[0]["rank"] == 0
            assert snap[0]["healed"]

    def test_peer_copy_flip_attributed_to_buddy(self):
        plan = FaultPlan(seed=1).flip_bits(
            1, "mass", step=1, target="peer_copy"
        )
        p, m, w, runners, _ = _run(plan)
        for r in runners:
            assert r.events == []
            snap = [e for e in _events(r) if e["kind"] == "snapshot"]
            assert len(snap) == 1
            assert snap[0]["data"]["attribution"] == "buddy"
            assert snap[0]["healed"]

    def test_healed_run_matches_fault_free_run(self):
        plan = FaultPlan(seed=1).flip_bits(
            0, "pos", step=1, target="self_copy"
        )
        p0, m0, w0, _, _ = _run(None)
        p1, m1, w1, _, _ = _run(plan)
        # the live trajectory never saw the corruption: bit-identical
        order0, order1 = np.lexsort(p0.T), np.lexsort(p1.T)
        np.testing.assert_array_equal(p0[order0], p1[order1])
        np.testing.assert_array_equal(m0[order0], m1[order1])

    def test_clean_run_has_no_events(self):
        _, _, _, runners, _ = _run(None)
        for r in runners:
            assert _events(r) == []


class TestLiveFlipRollback:
    """Flips against the live conserved arrays: the fingerprint audit
    detects them, and the only heal is a rollback to the last verified
    boundary."""

    def test_mass_flip_detected_and_rolled_back(self):
        plan = FaultPlan(seed=1).flip_bits(0, "mass", step=1, target="live")
        p, m, w, runners, _ = _run(plan)
        assert len(p) == N
        assert w.sum() == pytest.approx(1.0, rel=1e-13)
        for r in runners:
            assert [e.mode for e in r.events] == ["rollback"]
            fp = [e for e in _events(r) if e["kind"] == "fingerprint"]
            assert len(fp) == 1
            assert fp[0]["data"]["attribution"] == "live"
            assert fp[0]["healed"]
            assert "healed by rollback" in fp[0]["detail"]

    def test_warn_policy_records_without_recovering(self):
        plan = FaultPlan(seed=1).flip_bits(0, "mass", step=1, target="live")
        with pytest.warns(InvariantWarning, match="sdc"):
            p, m, w, runners, _ = _run(plan, policy="warn")
        assert len(p) == N
        for r in runners:
            assert r.events == []
            fp = [e for e in _events(r) if e["kind"] == "fingerprint"]
            assert fp and not fp[0]["healed"]

    def test_abort_policy_terminates_the_run(self):
        plan = FaultPlan(seed=1).flip_bits(0, "mass", step=1, target="live")
        with pytest.raises(RuntimeError) as info:
            _run(plan, policy="abort")
        errors = info.value.rank_errors
        assert errors and all(
            isinstance(e, InvariantViolation) and e.check == "sdc"
            for e in errors.values()
        )

    def test_off_policy_sees_nothing(self):
        plan = FaultPlan(seed=1).flip_bits(0, "mass", step=1, target="live")
        p, m, w, runners, _ = _run(plan, policy="off")
        for r in runners:
            assert _events(r) == []
            assert r.events == []


class TestRollbackBitwise:
    """A same-rank-count rollback reloads every rank's checkpoint
    payload (force accumulators and decomposer state included) through
    the reader a same-count disk resume uses, so the healed run replays
    the fault-free trajectory bit for bit."""

    STEPS = 5

    def _final(self, plan, backend="thread"):
        pos, mom, mass = _system()
        p, m, _, runners, _ = run_elastic_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, self.STEPS,
            fault_plan=plan, buddy_every=1, recv_timeout=10.0,
            backend=backend,
        )
        return p, m, runners

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_live_flip_rollback_matches_fault_free_run(self, step):
        p0, m0, _ = self._final(None)
        plan = FaultPlan(seed=1).flip_bits(0, "mass", step=step, target="live")
        p1, m1, runners = self._final(plan)
        for r in runners:
            assert [e.mode for e in r.events] == ["rollback"]
            assert r.events[0].resumed_step == step - 1
        np.testing.assert_array_equal(p1, p0)
        np.testing.assert_array_equal(m1, m0)

    def test_multiprocess_rollback_matches_fault_free_run(self):
        p0, m0, _ = self._final(None, backend="multiprocess")
        plan = FaultPlan(seed=1).flip_bits(0, "mass", step=2, target="live")
        p1, m1, reports = self._final(plan, backend="multiprocess")
        for r in reports:
            assert [e.mode for e in r.events] == ["rollback"]
        np.testing.assert_array_equal(p1, p0)
        np.testing.assert_array_equal(m1, m0)


class TestKillAnywhereSdcProperty:
    """A single bit flip — any detectable array, any copy, any step —
    must be detected within one audit interval and healed, and the run
    must finish the full schedule with the particle count intact."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rank=st.integers(min_value=0, max_value=1),
        step=st.integers(min_value=1, max_value=N_STEPS - 1),
        data=st.data(),
    )
    def test_flip_detected_and_healed(self, rank, step, data):
        target = data.draw(
            st.sampled_from(["live", "self_copy", "peer_copy"])
        )
        # live pos/mom are not conserved quantities: only ids/mass are
        # fingerprint-detectable (a documented limitation)
        array = data.draw(
            st.sampled_from(
                ["ids", "mass"]
                if target == "live"
                else ["pos", "mom", "mass", "ids"]
            )
        )
        plan = FaultPlan(seed=3).flip_bits(rank, array, step=step, target=target)
        p, m, w, runners, _ = _run(plan)
        assert len(p) == N
        detected = [e for r in runners for e in _events(r)]
        assert detected, f"flip of {array} ({target}) at step {step} missed"
        assert all(e["healed"] for e in detected)
        if target != "live":
            for r in runners:
                assert r.events == []  # in-place heal, no recovery round


class TestCheckpointRotMatrix:
    def test_rot_detected_by_scrub_and_skipped_on_restore(self, tmp_path):
        plan = FaultPlan(seed=1).rot_checkpoint(0, step=2)
        p, m, w, runners, _ = _run(
            plan, ckpt=tmp_path, every=1, keep_last=3
        )
        assert len(p) == N
        reports = _ckpt.scrub_checkpoints(tmp_path)
        assert len(reports) == 3  # keep_last retention applied
        bad = [r for r in reports if not r["ok"]]
        assert len(bad) == 1
        assert "step_00002" in str(bad[0]["step_dir"])
        # restore-time defense: the rotted epoch is skipped
        good, _ = BuddyStore().restore_source(SelfComm(), _cfg(1), tmp_path)
        assert "step_00002" not in str(good.step_dir)

    def test_rot_disk_fallback_restores_older_epoch(self, tmp_path):
        # rot the final epoch, then force a disk restore by also
        # flipping live state after the last buddy refresh window
        plan = (
            FaultPlan(seed=2)
            .rot_checkpoint(0, step=2)
            .rot_checkpoint(1, step=2)
        )
        p, m, w, runners, _ = _run(plan, ckpt=tmp_path, every=1, keep_last=4)
        reports = _ckpt.scrub_checkpoints(tmp_path)
        assert sum(not r["ok"] for r in reports) == 1


class TestMultiprocessTransportCorruption:
    def test_shm_burst_heals_through_disk_fallback(self, tmp_path):
        from repro.mpi.mp_backend import MultiprocessBackend

        plan = FaultPlan(seed=5).corrupt_shm(src=0, dst=1, nth=1, count=4)
        backend = MultiprocessBackend(
            2,
            fault_plan=plan,
            recv_timeout=2.0,
            elastic=True,
            shm_threshold=1,
        )
        p, m, w, reports, _ = _run(
            plan, backend=backend, ckpt=tmp_path, every=2
        )
        assert len(p) == N
        modes = {e.mode for r in reports for e in r.events}
        assert "disk" in modes or "rollback" in modes
        transport = [
            e
            for r in reports
            for e in _events(r)
            if e["kind"] == "transport"
        ]
        assert transport
        assert all(e["data"]["attribution"] == "transport" for e in transport)
        assert all(e["healed"] for e in transport)
