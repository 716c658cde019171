"""Tests of the Validator policy engine and drift monitors."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.config import ValidationConfig
from repro.mpi.runtime import run_spmd
from repro.validate import (
    DRIVER_CHECKS,
    POLICIES,
    EnergyDriftMonitor,
    InvariantViolation,
    InvariantWarning,
    MomentumDriftMonitor,
    Validator,
    refuse_unrun_checks,
)


def _violation(check="finite_fields", **kw):
    return InvariantViolation("boom", check=check, stage="s", **kw)


class TestValidationConfig:
    def test_defaults_off(self):
        cfg = ValidationConfig()
        assert cfg.policy == "off" and not cfg.enabled

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            ValidationConfig(policy="explode")
        with pytest.raises(ValueError):
            ValidationConfig(overrides={"finite_fields": "explode"})
        with pytest.raises(ValueError):
            ValidationConfig(interval=0)
        with pytest.raises(ValueError):
            ValidationConfig(energy_tol=-1.0)

    def test_overrides_enable(self):
        cfg = ValidationConfig(policy="off", overrides={"finite_fields": "warn"})
        assert cfg.enabled

    def test_round_trips_through_dict(self):
        from repro.config import SimulationConfig

        cfg = SimulationConfig(
            validation=ValidationConfig(
                policy="warn", interval=3, overrides={"energy_drift": "off"}
            )
        )
        back = SimulationConfig.from_dict(cfg.to_dict())
        assert back.validation == cfg.validation

    def test_excluded_from_config_hash(self):
        from repro.config import SimulationConfig

        a = SimulationConfig()
        b = SimulationConfig(validation=ValidationConfig(policy="abort"))
        assert a.config_hash() == b.config_hash()


class TestGating:
    def test_off_never_active(self):
        v = Validator(ValidationConfig())
        assert not v.enabled
        assert not v.active(0)
        assert not v.check_enabled("finite_fields", 0)

    def test_interval_sampling(self):
        v = Validator(ValidationConfig(policy="abort", interval=3))
        assert v.active(0) and v.active(3)
        assert not v.active(1) and not v.active(2)

    def test_begin_step_default(self):
        v = Validator(ValidationConfig(policy="abort", interval=2))
        v.begin_step(1)
        assert not v.active()
        v.begin_step(2)
        assert v.active()

    def test_per_check_override(self):
        v = Validator(
            ValidationConfig(policy="abort", overrides={"energy_drift": "warn"})
        )
        assert v.policy_for("finite_fields") == "abort"
        assert v.policy_for("energy_drift") == "warn"


class TestSerialHandling:
    def test_none_is_noop(self):
        Validator(ValidationConfig(policy="abort")).handle(None)

    def test_warn_emits_warning(self):
        v = Validator(ValidationConfig(policy="warn"))
        with pytest.warns(InvariantWarning, match="boom"):
            v.handle(_violation())

    def test_abort_raises(self):
        v = Validator(ValidationConfig(policy="abort"))
        with pytest.raises(InvariantViolation):
            v.handle(_violation())

    def test_override_off_suppresses(self):
        v = Validator(
            ValidationConfig(policy="abort", overrides={"finite_fields": "off"})
        )
        v.handle(_violation())  # no raise

    def test_dump_invokes_hook_and_raises(self):
        seen = []

        def dump(violation):
            seen.append(violation)
            return "/tmp/dump"

        v = Validator(
            ValidationConfig(policy="abort", dump_dir="diag"), dump_fn=dump
        )
        with pytest.raises(InvariantViolation) as exc:
            v.handle(_violation())
        assert seen and exc.value.dump_path == "/tmp/dump"


class _SoloComm:
    def allgather(self, value):
        return [value]


class TestOneRouter:
    """Every check under every policy goes through the one router."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("check", ValidationConfig._CHECKS)
    @pytest.mark.parametrize("collective", [False, True])
    def test_policy_table(self, check, policy, collective):
        dumps = []
        v = Validator(
            ValidationConfig(overrides={check: policy}, dump_dir="diag"),
            dump_fn=lambda viol: dumps.append(viol) or "diag/step_00001",
        )
        violation = _violation(check)

        def route():
            if collective:
                return v.handle_collective(_SoloComm(), violation)
            return v.handle(violation)

        if policy in ("off", "warn"):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert route() is False
            assert len(seen) == (policy == "warn")
        elif policy == "recover" and check in ("sdc", "straggler"):
            assert route() is True  # the caller applies the remedy
        else:  # abort, and recover on a check without a remedy
            with pytest.raises(InvariantViolation):
                route()
            assert dumps == [violation]
            assert violation.dump_path == "diag/step_00001"
        if dumps == []:
            assert violation.dump_path is None

    def test_abort_without_dump_dir_writes_nothing(self):
        dumps = []
        v = Validator(ValidationConfig(policy="abort"), dump_fn=dumps.append)
        with pytest.raises(InvariantViolation):
            v.handle(_violation())
        assert dumps == []

    def test_unknown_override_refused(self):
        with pytest.raises(ValueError, match="unknown check"):
            ValidationConfig(overrides={"finite_field": "warn"})

    def test_catalogue_is_what_the_drivers_run(self):
        ran = {c for checks in DRIVER_CHECKS.values() for c in checks}
        assert ran == set(ValidationConfig._CHECKS)

    @pytest.mark.parametrize("driver", sorted(DRIVER_CHECKS))
    def test_driver_refuses_checks_it_does_not_run(self, driver):
        for check in ValidationConfig._CHECKS:
            cfg = ValidationConfig(overrides={check: "warn"})
            if check in DRIVER_CHECKS[driver]:
                refuse_unrun_checks(cfg, driver)
            else:
                with pytest.raises(ValueError, match=check):
                    refuse_unrun_checks(cfg, driver)
        # the global policy is not an override: every driver takes it
        refuse_unrun_checks(ValidationConfig(policy="abort"), driver)


class TestCollectiveHandling:
    def test_all_clean_no_raise(self):
        def spmd(comm):
            v = Validator(ValidationConfig(policy="abort"), rank=comm.rank)
            v.handle_collective(comm, None)
            return True

        assert all(run_spmd(2, spmd))

    def test_one_rank_detects_all_raise(self):
        def spmd(comm):
            v = Validator(ValidationConfig(policy="abort"), rank=comm.rank)
            local = _violation(step=1, rank=comm.rank) if comm.rank == 1 else None
            try:
                v.handle_collective(comm, local)
            except InvariantViolation as e:
                return (e.check, e.rank)  # origin metadata everywhere
            return None

        results = run_spmd(2, spmd)
        assert results == [("finite_fields", 1), ("finite_fields", 1)]

    def test_dump_hook_runs_on_every_rank(self):
        def spmd(comm):
            calls = []
            v = Validator(
                ValidationConfig(policy="abort", dump_dir="diag"),
                rank=comm.rank,
                dump_fn=lambda viol: calls.append(viol) or f"d{comm.rank}",
            )
            local = _violation() if comm.rank == 0 else None
            with pytest.raises(InvariantViolation) as exc:
                v.handle_collective(comm, local)
            return len(calls), exc.value.dump_path

        assert run_spmd(2, spmd) == [(1, "d0"), (1, "d1")]

    def test_warn_policy_never_raises(self):
        # catch_warnings is process-global, so under threaded SPMD we
        # only assert the contract that matters: warn never aborts
        def spmd(comm):
            v = Validator(ValidationConfig(policy="warn"), rank=comm.rank)
            local = _violation() if comm.rank == 0 else None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v.handle_collective(comm, local)
            return True

        assert run_spmd(2, spmd) == [True, True]


class TestMonitors:
    def test_energy_fires_beyond_tolerance(self):
        mon = EnergyDriftMonitor(tol=0.1)
        assert mon.update(-1.0, step=0) is None
        assert mon.update(-1.05, step=1) is None
        v = mon.update(-2.0, step=2)
        assert v is not None and v.check == "energy_drift"
        assert v.stats["e0"] == -1.0

    def test_energy_nonfinite(self):
        mon = EnergyDriftMonitor(tol=0.1)
        assert mon.update(np.nan, step=0) is not None

    def test_momentum_drift(self):
        mon = MomentumDriftMonitor(tol=0.01)
        p0 = np.array([0.0, 0.0, 0.0])
        assert mon.update(p0, 1.0, step=0) is None
        assert mon.update(p0 + 1e-4, 1.0, step=1) is None
        v = mon.update(p0 + 0.5, 1.0, step=2)
        assert v is not None and v.check == "momentum_drift"

    def test_layzer_irvine_clean_eds(self):
        # analytic EdS check: for K = C/a (cold, decaying peculiar
        # velocities, negligible W) the residual is not zero, so use
        # the trivially conserved case instead: K = 0, W_c = const
        # => a(K + W) = W_c constant, int K da = 0.
        from repro.validate import LayzerIrvineMonitor

        mon = LayzerIrvineMonitor(tol=0.05)
        for i, a in enumerate(np.linspace(0.1, 0.5, 5)):
            assert mon.update(a, 0.0, -2.0, step=i) is None

    def test_layzer_irvine_trips_on_broken_integration(self):
        from repro.validate import LayzerIrvineMonitor

        mon = LayzerIrvineMonitor(tol=0.05)
        assert mon.update(0.1, 1.0, -0.2, step=0) is None
        # kinetic energy exploding with no compensating work breaks
        # the energy equation immediately
        v = mon.update(0.2, 50.0, -0.2, step=1)
        assert v is not None and v.check == "energy_drift"
        assert "Layzer-Irvine" in str(v)

    def test_layzer_irvine_nonfinite(self):
        from repro.validate import LayzerIrvineMonitor

        mon = LayzerIrvineMonitor(tol=0.05)
        v = mon.update(0.1, np.nan, -1.0, step=0)
        assert v is not None and v.check == "energy_drift"

    def test_rejects_nonpositive_tolerance(self):
        from repro.validate import LayzerIrvineMonitor

        with pytest.raises(ValueError):
            EnergyDriftMonitor(0.0)
        with pytest.raises(ValueError):
            MomentumDriftMonitor(-0.1)
        with pytest.raises(ValueError):
            LayzerIrvineMonitor(0.0)
