"""Tests of the configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import (
    DomainConfig,
    MachineConfig,
    PMConfig,
    RelayMeshConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
    ValidationConfig,
)


class TestTreeConfig:
    def test_defaults_valid(self):
        cfg = TreeConfig()
        assert 0 < cfg.opening_angle < 2

    @pytest.mark.parametrize("theta", [0.0, -0.5, 2.0, 5.0])
    def test_invalid_opening_angle(self, theta):
        with pytest.raises(ValueError):
            TreeConfig(opening_angle=theta)

    def test_invalid_leaf_and_group(self):
        with pytest.raises(ValueError):
            TreeConfig(leaf_size=0)
        with pytest.raises(ValueError):
            TreeConfig(group_size=0)


class TestPMConfig:
    def test_assignment_validation(self):
        with pytest.raises(ValueError, match="assignment"):
            PMConfig(assignment="cloud")

    def test_differencing_validation(self):
        with pytest.raises(ValueError, match="differencing"):
            PMConfig(differencing="six_point")

    def test_mesh_size_minimum(self):
        with pytest.raises(ValueError):
            PMConfig(mesh_size=2)


class TestTreePMConfig:
    def test_rcut_derived_from_mesh(self):
        cfg = TreePMConfig(pm=PMConfig(mesh_size=64), rcut_mesh_units=3.0)
        assert cfg.rcut == pytest.approx(3.0 / 64)

    def test_paper_rcut_value(self):
        """The paper: rcut = 3/4096 ~ 7.32e-4 of the box."""
        cfg = TreePMConfig(pm=PMConfig(mesh_size=4096), softening=1e-6)
        assert cfg.rcut == pytest.approx(7.32e-4, rel=1e-3)

    def test_softening_must_be_below_rcut(self):
        with pytest.raises(ValueError, match="softening"):
            TreePMConfig(pm=PMConfig(mesh_size=64), softening=0.1)

    def test_split_validation(self):
        with pytest.raises(ValueError, match="split"):
            TreePMConfig(split="spline")


class TestDomainConfig:
    def test_n_domains(self):
        assert DomainConfig(divisions=(2, 3, 4)).n_domains == 24

    def test_invalid_divisions(self):
        with pytest.raises(ValueError):
            DomainConfig(divisions=(0, 1, 1))

    def test_sample_rate_range(self):
        with pytest.raises(ValueError):
            DomainConfig(sample_rate=0.0)
        with pytest.raises(ValueError):
            DomainConfig(sample_rate=1.5)

    def test_smoothing_window(self):
        with pytest.raises(ValueError):
            DomainConfig(smoothing_window=0)


class TestRelayMeshConfig:
    def test_groups_minimum(self):
        assert RelayMeshConfig(n_groups=1).n_groups == 1
        with pytest.raises(ValueError):
            RelayMeshConfig(n_groups=0)


class TestMachineConfig:
    def test_k_computer_defaults(self):
        """Default machine is the full K computer of the paper."""
        m = MachineConfig()
        assert m.nodes == 82944
        assert m.peak_per_core == pytest.approx(16.0e9)
        assert m.peak_per_node == pytest.approx(128.0e9)
        assert m.peak_total == pytest.approx(10.6e15, rel=0.01)

    def test_torus_shape_must_match_nodes(self):
        with pytest.raises(ValueError, match="torus_shape"):
            MachineConfig(nodes=100, torus_shape=(4, 5, 6))

    def test_partial_system(self):
        m = MachineConfig(nodes=24576, torus_shape=(32, 24, 32))
        assert m.peak_total == pytest.approx(24576 * 128.0e9)


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert cfg.pp_subcycles == 2  # the paper's step structure

    def test_with_replacement(self):
        cfg = SimulationConfig().with_(n_particles=100)
        assert cfg.n_particles == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_particles=0)
        with pytest.raises(ValueError):
            SimulationConfig(pp_subcycles=0)

    def test_dict_roundtrip(self):
        import json

        cfg = SimulationConfig(
            treepm=TreePMConfig(
                tree=TreeConfig(opening_angle=0.3, group_size=128),
                pm=PMConfig(mesh_size=32, assignment="cic"),
                rcut_mesh_units=4.0,
                softening=1e-3,
                split="gaussian",
            ),
            domain=DomainConfig(divisions=(2, 3, 1), sample_rate=0.2),
            relay=RelayMeshConfig(n_groups=3),
            pp_subcycles=4,
            seed=99,
        )
        # via JSON to prove serializability
        data = json.loads(json.dumps(cfg.to_dict()))
        back = SimulationConfig.from_dict(data)
        assert back == cfg

    def test_from_dict_validates(self):
        bad = SimulationConfig().to_dict()
        bad["treepm"]["pm"]["mesh_size"] = 2
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(bad)


class TestSdcConfig:
    """The SDC audits are configured by the one guard config: check
    name ``sdc`` in ``overrides``, the shared ``interval``, and
    ``spot_check_groups``."""

    def test_defaults_disabled(self):
        cfg = ValidationConfig()
        assert cfg.policy == "off" and not cfg.enabled
        assert cfg.interval == 1 and cfg.spot_check_groups == 4

    @pytest.mark.parametrize("policy", ["warn", "recover", "abort"])
    def test_enabled_policies(self, policy):
        assert ValidationConfig(overrides={"sdc": policy}).enabled

    def test_validation(self):
        for old in ("retry", "heal", "dump"):
            with pytest.raises(ValueError):
                ValidationConfig(overrides={"sdc": old})
        with pytest.raises(ValueError, match="unknown check"):
            ValidationConfig(overrides={"sdc_audit": "warn"})
        with pytest.raises(ValueError):
            ValidationConfig(interval=0)
        with pytest.raises(ValueError):
            ValidationConfig(spot_check_groups=-1)

    def test_roundtrip_through_dict(self):
        import json

        cfg = SimulationConfig(
            validation=ValidationConfig(
                overrides={"sdc": "recover"}, interval=2, spot_check_groups=3
            )
        )
        back = SimulationConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        )
        assert back.validation == cfg.validation

    def test_config_hash_ignores_sdc(self):
        # audit policy is an operational knob, not physics: two runs
        # that differ only in SDC settings are the same simulation
        # (checkpoints must remain mutually restorable)
        a = SimulationConfig()
        b = SimulationConfig(
            validation=ValidationConfig(
                overrides={"sdc": "recover"}, interval=5
            )
        )
        assert a.config_hash() == b.config_hash()

    def test_config_hash_pinned(self):
        # folding the guard configs must not move the physics
        # fingerprint: existing checkpoints keep loading (re-pinned when
        # TreeConfig.plan_float32 went: the single-precision sweep is
        # the only one, and a checkpoint written with the float64 sweep
        # is refused as another physics configuration)
        assert SimulationConfig().config_hash() == (
            "19ccedbfcf6dffdd579b10c3f94bcb902305bf332ec6a603316d39d238e7e414"
        )

    def test_ten_guard_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(ValidationConfig)] == [
            "policy", "overrides", "interval", "energy_interval",
            "energy_tol", "momentum_tol", "dump_dir", "spot_check_groups",
            "straggler_factor", "straggler_patience",
        ]
        names = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert "validation" in names and not {"sdc", "health"} & names
