"""Gray-failure health layer: monitor verdicts, adaptive deadlines,
degradation policy, gray fault injection, and jittered backoff.

All monitor tests feed explicit (rank, work-seconds) samples — the unit
under test is the pure verdict function, not the timing source — and
assert that verdicts are deterministic across independently constructed
monitors (detection must be collective without an agreement round).
"""

from __future__ import annotations

import errno
from dataclasses import replace

import numpy as np
import pytest

from repro.config import ValidationConfig
from repro.mpi.faults import FaultPlan, backoff_delays, retry_with_backoff
from repro.mpi.health import (
    AdaptiveDeadline,
    DegradationPolicy,
    HealthMonitor,
    StragglerEvicted,
)
from repro.mpi.faults import RankDeath
from repro.validate import GuardEvent, Validator


def _cfg(rank=0, **kw):
    """A guard running only the straggler check, at ``warn``."""
    base = dict(
        overrides={"straggler": "warn"},
        straggler_factor=3.0,
        straggler_patience=2,
    )
    base.update(kw)
    return Validator(ValidationConfig(**base), rank=rank)


def _fleet(slow_rank=None, slow=1.0, n=4, base=0.1):
    """One step's (rank, work-seconds) samples."""
    return [
        (r, slow if r == slow_rank else base) for r in range(n)
    ]


class TestHealthConfig:
    """The straggler guard's settings live in ``ValidationConfig``."""

    def test_rejects_unknown_policy(self):
        for old in ("panic", "monitor", "evict", "degrade"):
            with pytest.raises(ValueError):
                ValidationConfig(overrides={"straggler": old})

    def test_enabled_property(self):
        assert not Validator(ValidationConfig()).runs("straggler")
        assert _cfg().runs("straggler")
        assert Validator(ValidationConfig(policy="warn")).runs("straggler")

    def test_excluded_from_config_hash(self):
        from repro.config import SimulationConfig

        a = SimulationConfig()
        b = SimulationConfig(
            validation=ValidationConfig(overrides={"straggler": "recover"})
        )
        assert a.config_hash() == b.config_hash()


class TestHealthMonitor:
    def test_suspect_then_confirm_after_patience(self):
        mon = HealthMonitor(_cfg())
        assert mon.observe(1, _fleet(slow_rank=2, slow=1.0)) is None
        kinds = [ev.kind for ev in mon.events]
        assert kinds == ["straggler_suspect"]
        assert mon.observe(2, _fleet(slow_rank=2, slow=1.0)) == 2
        kinds = [ev.kind for ev in mon.events]
        assert kinds == ["straggler_suspect", "straggler_confirmed"]
        assert all(ev.rank == 2 for ev in mon.events)

    def test_healthy_fleet_never_confirms(self):
        mon = HealthMonitor(_cfg())
        for step in range(1, 20):
            assert mon.observe(step, _fleet()) is None
        assert mon.events == []

    def test_streak_resets_on_healthy_step(self):
        mon = HealthMonitor(_cfg(straggler_patience=3))
        mon.observe(1, _fleet(slow_rank=1, slow=1.0))
        mon.observe(2, _fleet(slow_rank=1, slow=1.0))
        mon.observe(3, _fleet())  # back under threshold: streak resets
        assert "recovered" in [ev.kind for ev in mon.events]
        assert mon.observe(4, _fleet(slow_rank=1, slow=1.0)) is None

    def test_no_repeat_confirmation_while_still_slow(self):
        mon = HealthMonitor(_cfg())
        mon.observe(1, _fleet(slow_rank=0, slow=1.0))
        assert mon.observe(2, _fleet(slow_rank=0, slow=1.0)) == 0
        for step in range(3, 8):
            assert mon.observe(step, _fleet(slow_rank=0, slow=1.0)) is None

    def test_lowest_rank_wins_when_two_confirm_together(self):
        mon = HealthMonitor(_cfg())
        samples = [(0, 0.1), (1, 5.0), (2, 0.1), (3, 5.0), (4, 0.1)]
        mon.observe(1, samples)
        assert mon.observe(2, samples) == 1

    def test_verdicts_deterministic_across_ranks(self):
        mons = [HealthMonitor(_cfg(rank=r)) for r in range(3)]
        for step in range(1, 5):
            verdicts = {
                m.observe(step, _fleet(slow_rank=2, slow=1.0)) for m in mons
            }
            assert len(verdicts) == 1  # identical on every rank
        a, b, c = ([ev.as_dict() for ev in m.events] for m in mons)
        assert a == b == c

    def test_events_land_in_the_guard_log(self):
        guard = _cfg()
        mon = HealthMonitor(guard)
        mon.observe(1, _fleet(slow_rank=1, slow=1.0))
        assert mon.events is guard.events
        (ev,) = guard.events
        assert ev.check == "straggler" and ev.kind == "straggler_suspect"


class TestAdaptiveDeadline:
    def test_none_until_min_samples(self):
        dl = AdaptiveDeadline(min_samples=3)
        dl.observe(0.1)
        dl.observe(0.1)
        assert dl.deadline() is None
        dl.observe(0.1)
        assert dl.deadline() is not None

    def test_scales_with_observed_distribution(self):
        dl = AdaptiveDeadline(min_samples=2)
        for _ in range(8):
            dl.observe(0.5)
        assert dl.deadline() == pytest.approx(AdaptiveDeadline.FACTOR * 0.5)

    def test_clamped_to_floor_and_ceil(self):
        dl = AdaptiveDeadline(min_samples=1)
        dl.observe(1e-6)
        assert dl.deadline() == AdaptiveDeadline.FLOOR
        for _ in range(64):
            dl.observe(1e6)
        assert dl.deadline() == AdaptiveDeadline.CEIL


class TestDegradationPolicy:
    def test_stretch_grows_within_declared_bound(self):
        pol = DegradationPolicy(_cfg())
        assert DegradationPolicy.AUDIT_STRETCH_MAX == 4
        assert pol.audit_stretch == 1 and pol.level == 0
        pol.escalate(1, 0, "pressure")
        assert pol.audit_stretch == 2
        pol.escalate(2, 0, "pressure")
        assert pol.audit_stretch == 4
        pol.escalate(3, 0, "pressure")
        assert pol.audit_stretch == 4  # bounded, never "disable audits"

    def test_skip_derived_at_level_two(self):
        pol = DegradationPolicy(_cfg())
        pol.escalate(1, 0, "x")
        assert not pol.skip_derived
        pol.escalate(2, 0, "x")
        assert pol.skip_derived

    def test_level_never_falls(self):
        pol = DegradationPolicy(_cfg())
        levels = []
        for step in range(1, 12):
            pol.escalate(step, 0, "x")
            levels.append(pol.level)
        assert levels == sorted(levels)
        assert pol.level == DegradationPolicy.MAX_LEVEL
        assert not hasattr(pol, "relax")

    def test_transitions_emit_structured_events(self):
        pol = DegradationPolicy(_cfg(rank=1))
        pol.escalate(5, 3, "tolerating straggler")
        kinds = [ev.kind for ev in pol.events]
        assert kinds[:2] == ["degrade_enter", "audit_stretch"]
        assert pol.events[0].step == 5 and pol.events[0].rank == 3
        row = pol.events[0].as_dict()
        assert row["kind"] == "degrade_enter" and row["data"]["level"] == 1.0

    @staticmethod
    def _break_self_test(monkeypatch, stage):
        """Swap the stage's gate for a copy whose self-test now fails
        (the session's verified gate comes back on teardown)."""
        from repro.native import build

        broken = replace(build._gates[stage], self_test=lambda lib: False)
        monkeypatch.setitem(build._gates, stage, broken)

    def test_failing_kernel_emits_native_fallback(self, monkeypatch):
        from repro.native import update

        if not update.available():
            pytest.skip("native update kernel unavailable")
        self._break_self_test(monkeypatch, "update")
        pol = DegradationPolicy(_cfg())
        results = pol.recheck_kernels(7)
        assert results.get("update") is False
        assert update.get_lib() is None  # gate flipped: numpy fallback
        falls = [ev for ev in pol.events if ev.kind == "native_fallback"]
        assert len(falls) == 1 and "update" in falls[0].detail
        pol.recheck_kernels(8)  # only reported once
        assert len(
            [ev for ev in pol.events if ev.kind == "native_fallback"]
        ) == 1
        monkeypatch.undo()
        assert update.available()

    def test_failing_sweep_falls_back_to_numpy(self, monkeypatch):
        """The PP sweep is re-verified like every other stage: a sweep
        that starts failing its self-test mid-run is reported once and
        the next force evaluation runs — bitwise — on the numpy
        executor."""
        from repro.forces.cutoff import S2ForceSplit
        from repro.pp import native as pp_native
        from repro.tree.traversal import TreeSolver

        if not pp_native.available():
            pytest.skip("native plan-sweep kernel unavailable")
        rng = np.random.default_rng(17)
        pos, mass = rng.random((600, 3)), np.full(600, 1.0 / 600)
        kw = dict(periodic=True, split=S2ForceSplit(3.0 / 32), eps=1e-3)
        with monkeypatch.context() as pinned:
            pinned.setenv("REPRO_NO_NATIVE_PP", "1")
            want, _ = TreeSolver(**kw).forces(pos, mass)

        self._break_self_test(monkeypatch, "pp")
        pol = DegradationPolicy(_cfg())
        results = pol.recheck_kernels(7)
        assert results["pp"] is False
        falls = [ev for ev in pol.events if ev.kind == "native_fallback"]
        assert len(falls) == 1 and "pp" in falls[0].detail
        solver = TreeSolver(**kw)
        got, _ = solver.forces(pos, mass)
        assert solver._executor.native_runs == 0
        assert np.array_equal(got, want)
        monkeypatch.undo()
        assert pp_native.available()


class TestStragglerEvicted:
    def test_is_announced_rank_death(self):
        assert issubclass(StragglerEvicted, RankDeath)


class TestGrayFaultInjection:
    def test_slow_rank_delay_window_and_one_shot(self):
        plan = FaultPlan().slow_rank(2, factor=10.0, duration=2,
                                     start_step=3, base=0.05)
        assert plan.slow_delay(1, 3) == 0.0
        assert plan.slow_delay(2, 2) == 0.0
        assert plan.slow_delay(2, 3) == pytest.approx(0.45)
        assert plan.slow_delay(2, 3) == 0.0  # one-shot: replay pays nothing
        assert plan.slow_delay(2, 4) == pytest.approx(0.45)
        assert plan.slow_delay(2, 5) == 0.0  # window closed

    def test_degrade_collective_matches_op_and_rank(self):
        plan = FaultPlan().degrade_collective("allreduce", 0.2, rank=1)
        assert plan.collective_delay(0, "allreduce", 1) == 0.0
        assert plan.collective_delay(1, "bcast", 1) == 0.0
        assert plan.collective_delay(1, "allreduce", 1) == pytest.approx(0.2)
        assert plan.collective_delay(1, "allreduce", 1) == 0.0  # one-shot

    def test_disk_full_raises_enospc_once_per_rank(self):
        plan = FaultPlan().disk_full(path="ckpt", after_bytes=100)
        plan.check_disk(0, "/tmp/ckpt/a", 60)
        with pytest.raises(OSError) as exc_info:
            plan.check_disk(0, "/tmp/ckpt/b", 60)
        assert exc_info.value.errno == errno.ENOSPC
        plan.check_disk(0, "/tmp/ckpt/c", 10**9)  # transient: cleared
        plan.check_disk(1, "/tmp/other/a", 10**9)  # path filter

    def test_describe_lists_gray_rules(self):
        plan = (
            FaultPlan()
            .slow_rank(1, factor=4.0)
            .degrade_collective("*", 0.1)
            .disk_full(after_bytes=10)
        )
        text = plan.describe()
        assert "slow" in text and "degrade" in text and "disk" in text


class TestBackoffJitter:
    def test_deterministic_per_seed(self):
        a = backoff_delays(6, 0.01, 2.0, 1.0, True, seed=(0, 7))
        b = backoff_delays(6, 0.01, 2.0, 1.0, True, seed=(0, 7))
        assert a == b

    def test_schedules_diverge_across_ranks(self):
        """Regression: N ranks retrying the same transient must not
        sleep in lock-step (retry storms re-collide otherwise)."""
        schedules = [
            backoff_delays(6, 0.01, 2.0, 1.0, True, seed=(rank, 3))
            for rank in range(4)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert schedules[i] != schedules[j]

    def test_max_delay_cap_holds(self):
        for delays in (
            backoff_delays(50, 0.01, 2.0, 0.25, True, seed=1),
            backoff_delays(50, 0.01, 2.0, 0.25, False),
        ):
            assert all(d <= 0.25 + 1e-12 for d in delays)
            assert all(d >= 0.0 for d in delays)

    def test_unjittered_schedule_is_exponential(self):
        assert backoff_delays(4, 0.1, 2.0, 10.0, False) == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
        ]

    def test_retry_with_backoff_uses_seeded_schedule(self, monkeypatch):
        import repro.mpi.faults as faults_mod

        slept = []
        monkeypatch.setattr(faults_mod.time, "sleep", slept.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                raise RuntimeError("transient")
            return "ok"

        out = retry_with_backoff(
            flaky, retries=5, base_delay=0.01, seed=(2, 9),
            exceptions=(RuntimeError,),
        )
        assert out == "ok"
        assert slept == backoff_delays(5, 0.01, seed=(2, 9))[: len(slept)]
        assert len(slept) == 3

    def test_exhausted_retries_reraise(self):
        def always_fails():
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            retry_with_backoff(
                always_fails, retries=2, base_delay=0.0,
                exceptions=(RuntimeError,),
            )


class TestHealthEvent:
    def test_as_dict_round_trip(self):
        ev = GuardEvent(step=3, rank=1, check="straggler", kind="drain",
                        detail="d", data={"x": 1.0})
        assert ev.as_dict() == {
            "step": 3, "rank": 1, "check": "straggler", "kind": "drain",
            "detail": "d", "healed": False, "data": {"x": 1.0},
        }
