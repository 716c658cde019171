"""End-to-end gray-failure tolerance: straggler eviction, graceful
degradation, and disk-pressure-safe checkpointing.

The acceptance scenario from the health layer's design: inject
``slow_rank(factor=10)`` into an elastic run and require (a) with the
straggler guard at ``recover`` a cooperative drain — detect, drain,
shrink with *zero replayed steps*, no hard-timeout kill of a beating
rank, and a conserved post-eviction trajectory; (b) at ``warn`` the
same run completes *degraded* instead of deadlocking or shrinking; (c)
at ``abort`` every rank raises together.
Disk-full injection must leave ``LATEST`` on the last complete set and
keep the run alive.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import (
    DomainConfig,
    PMConfig,
    RelayMeshConfig,
    SimulationConfig,
    TreePMConfig,
    ValidationConfig,
)
from repro.meshcomm.parallel_pm import ParallelPM
from repro.mpi.faults import FaultPlan
from repro.sim import checkpoint as _ckpt
from repro.sim.checkpoint import CheckpointSpaceError
from repro.sim.elastic import ElasticRunner, run_elastic_simulation
from repro.sim.parallel import run_parallel_simulation
from repro.validate import InvariantViolation, InvariantWarning

pytestmark = [pytest.mark.faults, pytest.mark.timeout(300)]

N = 96
N_STEPS = 6
T_END = 0.06


def _cfg(n_ranks=3, policy="off", **guard_kw):
    """``policy`` is the straggler guard's; the other checks stay off."""
    guard_kw.setdefault("straggler_factor", 3.0)
    guard_kw.setdefault("straggler_patience", 2)
    return SimulationConfig(
        domain=DomainConfig(
            divisions=(n_ranks, 1, 1), sample_rate=0.3, cost_balance=False
        ),
        treepm=TreePMConfig(pm=PMConfig(mesh_size=16)),
        validation=ValidationConfig(
            overrides={"straggler": policy} if policy != "off" else {},
            **guard_kw,
        ),
    )


def _system(seed=5):
    rng = np.random.default_rng(seed)
    return (
        rng.random((N, 3)),
        rng.normal(scale=0.01, size=(N, 3)),
        np.full(N, 1.0 / N),
    )


def _assert_conserved(pos0, mom0, mass0, p, m, w):
    assert len(p) == len(pos0)
    assert w.sum() == pytest.approx(mass0.sum(), rel=1e-13)
    p_before = (mass0[:, None] * mom0).sum(axis=0)
    p_after = (w[:, None] * m).sum(axis=0)
    np.testing.assert_allclose(p_after, p_before, atol=1e-6)


def _slow_plan(rank=2, factor=10.0):
    return FaultPlan().slow_rank(rank, factor=factor, base=0.05)


class TestStragglerEviction:
    def test_confirmed_straggler_is_proactively_evicted(self):
        """The tentpole acceptance run: detect -> drain -> shrink with
        zero replayed steps, trajectory conserved afterwards."""
        pos, mom, mass = _system()
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(policy="recover"), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=_slow_plan(), recv_timeout=10.0, buddy_every=1,
        )
        assert runtime.dead_ranks == [2]
        live = [r for r in runners if r is not None]
        assert [r.comm.size for r in live] == [2, 2]
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        (event,) = live[0].events
        assert event.mode == "buddy"
        assert event.trigger == "eviction"
        # the drain flushed the replica at the eviction boundary: the
        # shrink resumes exactly where the fleet stopped
        assert event.resumed_step == event.failed_step
        _assert_conserved(pos, mom, mass, p, m, w)

    @pytest.mark.parametrize("start_step", [0, 2], ids=["early", "late"])
    def test_eviction_at_any_phase(self, start_step):
        """The straggler may turn slow at any point in the schedule;
        the drain must still land before the hard deadline."""
        pos, mom, mass = _system()
        plan = FaultPlan().slow_rank(
            2, factor=10.0, base=0.05, start_step=start_step
        )
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(policy="recover"), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=10.0, buddy_every=1,
        )
        assert runtime.dead_ranks == [2]
        live = [r for r in runners if r is not None]
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        (event,) = live[0].events
        assert event.trigger == "eviction"
        assert event.failed_step > start_step
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_eviction_event_log_records_detect_drain_shrink(self):
        pos, mom, mass = _system()
        _, _, _, runners, _ = run_elastic_simulation(
            _cfg(policy="recover"), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=_slow_plan(), recv_timeout=10.0, buddy_every=1,
        )
        live = [r for r in runners if r is not None]
        kinds = [ev["kind"] for ev in live[0].guard_events]
        for required in (
            "straggler_suspect", "straggler_confirmed", "drain",
            "evict_shrink",
        ):
            assert required in kinds, f"missing {required!r} in {kinds}"
        assert kinds.index("straggler_suspect") < kinds.index(
            "straggler_confirmed"
        ) < kinds.index("drain") < kinds.index("evict_shrink")
        shrink = next(
            ev for ev in live[0].guard_events
            if ev["kind"] == "evict_shrink"
        )
        assert shrink["rank"] == 2
        assert "zero steps replayed" in shrink["detail"]

    def test_survivor_logs_identical_verdicts(self):
        pos, mom, mass = _system()
        _, _, _, runners, _ = run_elastic_simulation(
            _cfg(policy="recover"), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=_slow_plan(), recv_timeout=10.0, buddy_every=1,
        )
        live = [r for r in runners if r is not None]
        verdicts = [
            [
                (ev["kind"], ev["rank"]) for ev in r.guard_events
                if ev["kind"].startswith("straggler")
            ]
            for r in live
        ]
        assert verdicts[0] == verdicts[1]  # collective by construction


class TestGracefulDegradation:
    def test_eviction_disabled_completes_degraded(self):
        """Same injected straggler at ``warn``: nobody dies, nobody
        deadlocks, the fleet sheds load instead."""
        pos, mom, mass = _system()
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(policy="warn"), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=_slow_plan(), recv_timeout=10.0, buddy_every=1,
        )
        assert runtime.dead_ranks == []
        live = [r for r in runners if r is not None]
        assert len(live) == 3  # full fleet survived
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        assert all(r.events == [] for r in live)  # no shrink happened
        assert live[0].degrade.level >= 1
        assert live[0].degrade.audit_stretch >= 2
        kinds = [ev["kind"] for ev in live[0].guard_events]
        assert "straggler_confirmed" in kinds
        assert "degrade_enter" in kinds and "audit_stretch" in kinds
        _assert_conserved(pos, mom, mass, p, m, w)

    @pytest.mark.parametrize("start_step", [0, 2], ids=["early", "late"])
    def test_degrade_at_any_phase(self, start_step):
        pos, mom, mass = _system()
        plan = FaultPlan().slow_rank(
            2, factor=10.0, base=0.05, start_step=start_step
        )
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(policy="warn"), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=10.0, buddy_every=1,
        )
        assert runtime.dead_ranks == []
        live = [r for r in runners if r is not None]
        assert len(live) == 3
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        assert live[0].degrade.level >= 1
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_warn_policy_keeps_the_fleet_whole(self):
        pos, mom, mass = _system()
        with pytest.warns(InvariantWarning, match="straggler"):
            _, _, _, runners, runtime = run_elastic_simulation(
                _cfg(policy="warn"), pos, mom, mass, 0.0, T_END, N_STEPS,
                fault_plan=_slow_plan(), recv_timeout=10.0, buddy_every=1,
            )
        assert runtime.dead_ranks == []
        live = [r for r in runners if r is not None]
        assert len(live) == 3
        assert all(r.comm.size == 3 and r.events == [] for r in live)
        kinds = [ev["kind"] for ev in live[0].guard_events]
        assert "straggler_confirmed" in kinds
        assert "drain" not in kinds and "evict" not in kinds

    def test_health_off_run_matches_plain_run_bitwise(self):
        """A healthy fleet under the straggler guard must follow the
        plain run's trajectory bit for bit."""
        pos, mom, mass = _system()
        p_ref, m_ref, w_ref, _, _ = run_parallel_simulation(
            _cfg(), pos, mom, mass, 0.0, T_END, N_STEPS
        )
        p, m, w, runners, _ = run_elastic_simulation(
            _cfg(policy="recover"), pos, mom, mass, 0.0, T_END, N_STEPS,
            recv_timeout=10.0,
        )
        np.testing.assert_array_equal(p, p_ref)
        np.testing.assert_array_equal(m, m_ref)
        np.testing.assert_array_equal(w, w_ref)
        live = [r for r in runners if r is not None]
        assert all(
            ev["kind"] == "deadline_widen"
            for r in live for ev in r.guard_events
        )  # healthy fleet: at most deadline adjustments, no verdicts


class _DegradeInsidePM(FaultPlan):
    """``degrade_collective`` rules that bite only while rank 0 is inside
    ``ParallelPM.forces``.  Every collective the PM cycle issues is also
    issued earlier in a step on the world communicator, and a rule fires
    once per step, so an ungated rule never reaches the PM cycle."""

    inside = False

    def collective_delay(self, rank, op, step):
        return super().collective_delay(rank, op, step) if self.inside else 0.0


class TestWaitInsideThePMSolver:
    """Time blocked in the PM solver's split communicators is waiting,
    not work: each ``Comm`` counts only its own waits, and the health
    layer must read all of them."""

    DELAY = 0.5

    def _run(self, monkeypatch):
        # two relay groups on two ranks: rank 0 alone holds the slabs and
        # collects rank 1's partial density over ``comm_reduce``; a
        # congested link delays it there while rank 1 waits at the world
        # barrier that ends the FFT phase
        cfg = dataclasses.replace(
            _cfg(2, policy="warn", straggler_factor=1.8),
            relay=RelayMeshConfig(n_groups=2),
        )
        plan = _DegradeInsidePM().degrade_collective("reduce", self.DELAY, rank=0)
        forces = ParallelPM.forces

        def forces_on_a_congested_link(pm, *args, **kwargs):
            if pm.comm.world_rank != 0:
                return forces(pm, *args, **kwargs)
            plan.inside = True
            try:
                return forces(pm, *args, **kwargs)
            finally:
                plan.inside = False

        monkeypatch.setattr(ParallelPM, "forces", forces_on_a_congested_link)
        seen = []
        tick = ElasticRunner._health_tick

        def spy(runner, step, work_seconds, wall_seconds, n_steps):
            seen.append((runner.comm.world_rank, work_seconds, wall_seconds))
            return tick(runner, step, work_seconds, wall_seconds, n_steps)

        monkeypatch.setattr(ElasticRunner, "_health_tick", spy)
        pos, mom, mass = _system()
        _, _, _, runners, runtime = run_elastic_simulation(
            cfg, pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=10.0, buddy_every=1,
        )
        assert runtime.dead_ranks == []
        return seen, runners

    def test_delay_inside_the_pm_cycle_is_wait_not_work(self, monkeypatch):
        seen, runners = self._run(monkeypatch)
        assert len(seen) == 2 * N_STEPS
        for rank, work_seconds, wall_seconds in seen:
            assert wall_seconds >= self.DELAY  # both ranks sat through it
            assert work_seconds <= wall_seconds - 0.9 * self.DELAY, rank
        sim = runners[0].sim
        assert sim.pm.comm_reduce.wait_seconds >= 0.9 * self.DELAY * N_STEPS
        assert sim.wait_seconds() >= (
            sim.comm.wait_seconds + sim.pm.comm_reduce.wait_seconds
        )

    def test_no_straggler_verdict_against_the_delayed_rank(self, monkeypatch):
        _, runners = self._run(monkeypatch)
        # on two ranks a factor of 1.8 over the median means nine times
        # the other rank's work: the delay is that, jitter is not
        kinds = [ev["kind"] for ev in runners[0].guard_events]
        assert "straggler_confirmed" not in kinds, runners[0].guard_events


class TestDiskPressure:
    def test_injected_disk_full_leaves_latest_on_last_complete_set(
        self, tmp_path
    ):
        """Satellite regression: ENOSPC mid-epoch must not flip LATEST,
        must remove the partial step directory, and must not kill the
        run — the writer degrades (stretched cadence) and retries at
        the next boundary."""
        pos, mom, mass = _system()
        plan = FaultPlan().disk_full(path="step_00003", after_bytes=64)
        p, m, w, runners, runtime = run_elastic_simulation(
            _cfg(policy="warn"), pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=10.0, buddy_every=1,
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        assert runtime.dead_ranks == []
        live = [r for r in runners if r is not None]
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        kinds = [ev["kind"] for ev in live[0].guard_events]
        assert "checkpoint_skipped" in kinds
        assert "degrade_enter" in kinds  # disk pressure escalates
        # the poisoned epoch is gone; LATEST names a complete one
        assert not (tmp_path / "step_00003").exists()
        latest = _ckpt.latest_checkpoint(tmp_path)
        assert latest is not None and latest.name != "step_00003"
        _ckpt.validate_checkpoint(latest)
        _assert_conserved(pos, mom, mass, p, m, w)

    def test_preflight_rejects_epoch_that_cannot_fit(
        self, tmp_path, monkeypatch
    ):
        """A statvfs that reports less free space than the previous
        epoch needed fails the checkpoint *before* any bytes hit disk."""
        import os

        pos, mom, mass = _system()
        # first run writes a complete epoch to size the preflight
        run_elastic_simulation(
            _cfg(policy="warn"), pos, mom, mass, 0.0, T_END, N_STEPS,
            recv_timeout=10.0, checkpoint_dir=tmp_path,
            checkpoint_every=N_STEPS,
        )
        latest_before = _ckpt.latest_checkpoint(tmp_path)
        assert latest_before is not None
        need = _ckpt.checkpoint_size(latest_before)
        assert need > 0

        real_statvfs = os.statvfs

        class Starved:
            def __init__(self, st):
                self.f_bavail = 0
                self.f_frsize = st.f_frsize

        monkeypatch.setattr(
            os, "statvfs", lambda p: Starved(real_statvfs(p))
        )
        with pytest.raises(CheckpointSpaceError, match="free"):
            _ckpt.check_free_space(tmp_path, need)
        monkeypatch.undo()
        # and the full-run wiring: a starved preflight skips the epoch
        # but the run itself survives
        monkeypatch.setattr(
            os, "statvfs", lambda p: Starved(real_statvfs(p))
        )
        _, _, _, runners, runtime = run_elastic_simulation(
            _cfg(policy="warn"), pos, mom, mass, 0.0, T_END, N_STEPS,
            recv_timeout=10.0, checkpoint_dir=tmp_path,
            checkpoint_every=N_STEPS,
        )
        assert runtime.dead_ranks == []
        live = [r for r in runners if r is not None]
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        kinds = [ev["kind"] for ev in live[0].guard_events]
        assert "checkpoint_skipped" in kinds
        assert _ckpt.latest_checkpoint(tmp_path) == latest_before


class TestOneGuardLayer:
    """The straggler verdict and the SDC audits share one router and one
    log; ``abort`` stops every rank at the same step."""

    def test_straggler_abort_raises_on_every_rank_at_one_step(self):
        pos, mom, mass = _system()
        with pytest.raises(RuntimeError) as info:
            run_elastic_simulation(
                _cfg(policy="abort"), pos, mom, mass, 0.0, T_END, N_STEPS,
                fault_plan=_slow_plan(), recv_timeout=10.0, buddy_every=1,
            )
        errors = info.value.rank_errors
        assert sorted(errors) == [0, 1, 2]
        assert all(isinstance(e, InvariantViolation) for e in errors.values())
        assert {e.check for e in errors.values()} == {"straggler"}
        assert {e.rank for e in errors.values()} == {2}
        assert len({e.step for e in errors.values()}) == 1

    def test_composed_eviction_and_rollback_in_one_log(self):
        """``warn`` everywhere, ``recover`` for both the SDC audits and
        the straggler verdict: one run evicts the slow rank and rolls
        back a live bit flip, and each survivor's one log holds both."""
        pos, mom, mass = _system()
        config = dataclasses.replace(
            _cfg(),
            validation=ValidationConfig(
                policy="warn",
                overrides={"sdc": "recover", "straggler": "recover"},
                straggler_patience=2,
            ),
        )
        plan = _slow_plan().flip_bits(0, "mass", step=1, target="live")
        p, m, w, runners, runtime = run_elastic_simulation(
            config, pos, mom, mass, 0.0, T_END, N_STEPS,
            fault_plan=plan, recv_timeout=10.0, buddy_every=1,
        )
        assert runtime.dead_ranks == [2]
        live = [r for r in runners if r is not None]
        assert all(r.sim.steps_taken == N_STEPS for r in live)
        for r in live:
            assert [e.trigger for e in r.events] == ["failure", "eviction"]
            assert r.events[0].mode == "rollback"
            log = r.guard_events
            assert [ev["step"] for ev in log] == sorted(ev["step"] for ev in log)
            (flip,) = [ev for ev in log if ev["check"] == "sdc"]
            assert flip["kind"] == "fingerprint" and flip["healed"]
            kinds = [ev["kind"] for ev in log if ev["check"] == "straggler"]
            assert "straggler_confirmed" in kinds and "evict_shrink" in kinds
        _assert_conserved(pos, mom, mass, p, m, w)
