"""Run-configuration dataclasses.

Every top-level component of the framework is configured through one of
the frozen dataclasses defined here.  They validate their fields eagerly
so that a mis-configured simulation fails at construction time rather
than deep inside a force loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _check_power_of_two(name: str, value: int) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value!r}")


@dataclass(frozen=True)
class TreeConfig:
    """Parameters of the Barnes-Hut tree used for the short-range part.

    Attributes
    ----------
    opening_angle:
        Multipole acceptance criterion theta.  A node of size ``s`` at
        distance ``d`` is accepted when ``s < opening_angle * d``.
    leaf_size:
        Maximum number of particles in a leaf cell.
    group_size:
        Most particles a traversal group of Barnes' modified algorithm
        may hold: a group is the largest tree node with at most this
        many particles, so the mean group size ``<Ni>`` comes out well
        below it (17.8 at 64 on the clustered benchmark input; the
        paper finds ``<Ni>`` ~ 100 optimal on K).
    use_quadrupole:
        Whether node moments include the quadrupole term.
    """

    opening_angle: float = 0.5
    leaf_size: int = 8
    group_size: int = 64
    use_quadrupole: bool = False

    def __post_init__(self) -> None:
        _check_positive("opening_angle", self.opening_angle)
        if self.opening_angle >= 2.0:
            raise ValueError("opening_angle >= 2 gives divergent force errors")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")


@dataclass(frozen=True)
class PMConfig:
    """Parameters of the particle-mesh (long-range) solver.

    Attributes
    ----------
    mesh_size:
        Number of PM grid points per dimension (``N_PM^(1/3)``).
    assignment:
        Mass-assignment scheme: ``"ngp"``, ``"cic"`` or ``"tsc"``
        (the paper uses TSC, a 27-point kernel).
    deconvolve:
        Whether to deconvolve the assignment window (applied twice:
        once for assignment, once for interpolation).
    differencing:
        Gradient scheme on the mesh: ``"four_point"`` (the paper) or
        ``"two_point"`` or ``"spectral"``.
    fft_backend:
        Distributed FFT layout: ``"slab"`` (the paper's 1-D FFTW-style
        decomposition, limited to ``mesh_size`` processes) or
        ``"pencil"`` (the 2-D decomposition of the paper's future-work
        section, scaling to ``mesh_size^2``).
    """

    mesh_size: int = 64
    assignment: str = "tsc"
    deconvolve: bool = True
    differencing: str = "four_point"
    fft_backend: str = "slab"

    _ASSIGNMENTS = ("ngp", "cic", "tsc")
    _DIFFERENCING = ("two_point", "four_point", "spectral")
    _FFT_BACKENDS = ("slab", "pencil")

    def __post_init__(self) -> None:
        if self.mesh_size < 4:
            raise ValueError("mesh_size must be >= 4")
        if self.assignment not in self._ASSIGNMENTS:
            raise ValueError(
                f"assignment must be one of {self._ASSIGNMENTS}, got {self.assignment!r}"
            )
        if self.differencing not in self._DIFFERENCING:
            raise ValueError(
                f"differencing must be one of {self._DIFFERENCING}, "
                f"got {self.differencing!r}"
            )
        if self.fft_backend not in self._FFT_BACKENDS:
            raise ValueError(
                f"fft_backend must be one of {self._FFT_BACKENDS}, "
                f"got {self.fft_backend!r}"
            )


@dataclass(frozen=True)
class TreePMConfig:
    """Parameters of the combined TreePM force solver.

    Attributes
    ----------
    tree:
        Short-range tree configuration.
    pm:
        Long-range PM configuration.
    rcut_mesh_units:
        Cutoff radius of the short-range force in units of the PM mesh
        spacing.  The paper uses ``rcut = 3 / N_PM^(1/3)``, i.e. 3.
    softening:
        Plummer softening length epsilon in box units (must be << rcut).
    split:
        Force-splitting shape: ``"s2"`` (P3M / the paper) or
        ``"gaussian"`` (GADGET-style baseline).
    """

    tree: TreeConfig = field(default_factory=TreeConfig)
    pm: PMConfig = field(default_factory=PMConfig)
    rcut_mesh_units: float = 3.0
    softening: float = 1.0e-4
    split: str = "s2"

    _SPLITS = ("s2", "gaussian")

    def __post_init__(self) -> None:
        _check_positive("rcut_mesh_units", self.rcut_mesh_units)
        _check_positive("softening", self.softening)
        if self.split not in self._SPLITS:
            raise ValueError(f"split must be one of {self._SPLITS}, got {self.split!r}")
        if self.softening >= self.rcut:
            raise ValueError(
                f"softening ({self.softening}) must be much smaller than "
                f"rcut ({self.rcut})"
            )

    @property
    def rcut(self) -> float:
        """Cutoff radius in box units."""
        return self.rcut_mesh_units / self.pm.mesh_size


@dataclass(frozen=True)
class DomainConfig:
    """Parameters of the dynamic 3-D multisection domain decomposition.

    Attributes
    ----------
    divisions:
        Number of domains along each axis; ``prod(divisions)`` must
        equal the number of MPI processes.
    sample_rate:
        Baseline fraction of particles sampled by the sampling method.
    smoothing_window:
        Number of past steps entering the linear weighted moving
        average of domain boundaries (the paper uses 5).
    cost_balance:
        If true, the per-domain sampling rate is scaled by the measured
        force-calculation cost (the paper's load balancing); if false
        the decomposition balances raw particle counts.
    """

    divisions: Tuple[int, int, int] = (2, 2, 2)
    sample_rate: float = 0.05
    smoothing_window: int = 5
    cost_balance: bool = True

    def __post_init__(self) -> None:
        if len(self.divisions) != 3 or any(d < 1 for d in self.divisions):
            raise ValueError(f"divisions must be three integers >= 1, got {self.divisions!r}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if self.smoothing_window < 1:
            raise ValueError("smoothing_window must be >= 1")

    @property
    def n_domains(self) -> int:
        return self.divisions[0] * self.divisions[1] * self.divisions[2]


@dataclass(frozen=True)
class RelayMeshConfig:
    """Parameters of the relay mesh communication algorithm.

    Attributes
    ----------
    n_groups:
        Number of relay groups the processes are divided into.  One
        group (the *root group*) contains the FFT processes.  With
        ``n_groups = 1`` the method degenerates to the straightforward
        global all-to-all conversion.
    """

    n_groups: int = 1

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")


@dataclass(frozen=True)
class ValidationConfig:
    """Policy of the one guard layer (``repro.validate``): runtime
    invariants, silent-data-corruption audits and straggler health.

    Attributes
    ----------
    policy:
        What happens when a check finds something: ``"off"`` (the check
        never runs), ``"warn"`` (emit an ``InvariantWarning``, keep
        running), ``"recover"`` (apply the check's own remedy; a check
        without one aborts) or ``"abort"`` (raise the
        ``InvariantViolation``, after writing a diagnostic checkpoint
        epoch when ``dump_dir`` is set).
    overrides:
        Per-check policies, e.g. ``{"energy_drift": "warn", "sdc":
        "recover"}``.  Keys come from one catalogue: the invariant
        names, ``"sdc"`` for the three corruption audits and
        ``"straggler"`` for the health verdict (see
        ``docs/validation.md``); an unknown key is refused.
    interval:
        Sampling interval: invariants are checked and the SDC audits
        run every this many steps, so ``warn`` stays cheap enough to
        leave on.
    energy_interval:
        Evaluate the energy monitor every this many steps; ``0``
        disables it (the total potential is an O(N^2) diagnostic).
    energy_tol:
        Relative total-energy drift tolerance of the per-step monitor.
        Loose by default: cosmological energy is not strictly conserved,
        so the monitor targets integrator blow-ups, not secular drift.
    momentum_tol:
        Relative total-momentum drift tolerance (against the largest
        momentum scale seen so far).
    dump_dir:
        When set, an ``abort`` first writes a diagnostic checkpoint
        epoch here, with the violation in its manifest.
    spot_check_groups:
        Interaction-plan groups re-swept through the reference kernel
        per SDC audit (ABFT force spot-check); ``0`` disables it.
    straggler_factor:
        A rank is suspect when its step work time exceeds the fleet
        median by this factor.
    straggler_patience:
        Consecutive suspect steps before a straggler is confirmed
        (debounces one-off hiccups such as a GC pause).
    """

    policy: str = "off"
    overrides: Mapping[str, str] = field(default_factory=dict)
    interval: int = 1
    energy_interval: int = 0
    energy_tol: float = 0.25
    momentum_tol: float = 0.25
    dump_dir: Optional[str] = None
    spot_check_groups: int = 4
    straggler_factor: float = 3.0
    straggler_patience: int = 3

    _POLICIES = ("off", "warn", "recover", "abort")
    #: every check a policy override may name
    _CHECKS = (
        "finite_fields",
        "mass_conservation",
        "momentum_conservation",
        "octree_moments",
        "octree_com_bounds",
        "domain_partition",
        "domain_containment",
        "energy_drift",
        "momentum_drift",
        "sdc",
        "straggler",
    )

    def __post_init__(self) -> None:
        if self.policy not in self._POLICIES:
            raise ValueError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )
        for check, policy in dict(self.overrides).items():
            if check not in self._CHECKS:
                raise ValueError(
                    f"unknown check {check!r} in overrides; checks are "
                    f"{self._CHECKS}"
                )
            if policy not in self._POLICIES:
                raise ValueError(
                    f"override policy for {check!r} must be one of "
                    f"{self._POLICIES}, got {policy!r}"
                )
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.energy_interval < 0:
            raise ValueError("energy_interval must be >= 0")
        _check_positive("energy_tol", self.energy_tol)
        _check_positive("momentum_tol", self.momentum_tol)
        if self.spot_check_groups < 0:
            raise ValueError("spot_check_groups must be >= 0")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.straggler_patience < 1:
            raise ValueError("straggler_patience must be >= 1")
        # normalize to a private dict copy (value semantics; asdict-safe)
        object.__setattr__(self, "overrides", dict(self.overrides))

    @property
    def enabled(self) -> bool:
        return self.policy != "off" or any(
            p != "off" for p in self.overrides.values()
        )


@dataclass(frozen=True)
class MachineConfig:
    """Analytic machine model for performance projection.

    Default values describe one node of the K computer as reported in
    the paper (SPARC64 VIIIfx: 8 cores at 2 GHz with 4 FMA units).

    Attributes
    ----------
    nodes:
        Number of nodes.
    cores_per_node:
        Cores per node.
    clock_hz:
        Core clock in Hz.
    fma_units:
        FMA pipelines per core.
    link_bandwidth:
        Point-to-point link bandwidth of the interconnect in bytes/s
        (Tofu: 5 GB/s per link per direction).
    link_latency:
        Per-message latency in seconds.
    torus_shape:
        Logical 3-D torus shape used by the network congestion model;
        ``prod(torus_shape)`` must equal ``nodes``.
    """

    nodes: int = 82944
    cores_per_node: int = 8
    clock_hz: float = 2.0e9
    fma_units: int = 4
    link_bandwidth: float = 5.0e9
    link_latency: float = 1.0e-6
    torus_shape: Tuple[int, int, int] = (32, 54, 48)

    def __post_init__(self) -> None:
        _check_positive("nodes", self.nodes)
        _check_positive("cores_per_node", self.cores_per_node)
        _check_positive("clock_hz", self.clock_hz)
        _check_positive("fma_units", self.fma_units)
        _check_positive("link_bandwidth", self.link_bandwidth)
        _check_positive("link_latency", self.link_latency)
        if math.prod(self.torus_shape) != self.nodes:
            raise ValueError(
                f"prod(torus_shape)={math.prod(self.torus_shape)} must equal "
                f"nodes={self.nodes}"
            )

    @property
    def peak_per_core(self) -> float:
        """LINPACK peak flop/s per core (FMA units x 2 flops x clock)."""
        return self.fma_units * 2.0 * self.clock_hz

    @property
    def peak_per_node(self) -> float:
        return self.peak_per_core * self.cores_per_node

    @property
    def peak_total(self) -> float:
        return self.peak_per_node * self.nodes


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration of a parallel TreePM simulation."""

    n_particles: int = 4096
    treepm: TreePMConfig = field(default_factory=TreePMConfig)
    domain: DomainConfig = field(default_factory=DomainConfig)
    relay: RelayMeshConfig = field(default_factory=RelayMeshConfig)
    #: The guard layer (``repro.validate``): invariants, SDC audits and
    #: straggler health; diagnostics only — never part of the physics
    #: fingerprint.
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    #: Number of PP + domain-decomposition sub-cycles per PM step
    #: (the paper: "one simulation step was composed by a cycle of the
    #: PM and two cycles of the PP and the domain decomposition").
    pp_subcycles: int = 2
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.pp_subcycles < 1:
            raise ValueError("pp_subcycles must be >= 1")

    def with_(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-serializable representation (checkpoints, CLI)."""
        from dataclasses import asdict

        return asdict(self)

    def config_hash(self) -> str:
        """sha256 fingerprint of the physics configuration.

        Checkpoint manifests store it, so a restore can refuse a state
        written by other physics.  The ``domain`` and ``relay`` fields
        are excluded: they describe the process layout, and a
        checkpoint may legitimately be resumed on a different rank
        count or driver.  The ``validation`` policy is excluded too:
        guards are diagnostics, and a checkpoint written with guards
        off must be loadable with guards on (that is how a diagnostic
        dump is replayed).
        """
        import hashlib
        import json

        d = self.to_dict()
        for key in ("validation", "domain", "relay"):
            d.pop(key, None)
        return hashlib.sha256(
            json.dumps(d, sort_keys=True, default=str).encode()
        ).hexdigest()

    @staticmethod
    def from_dict(data: dict) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`; validates on construction."""
        d = dict(data)
        tp = dict(d.pop("treepm", {}))
        tree = TreeConfig(**tp.pop("tree", {}))
        pm = PMConfig(**tp.pop("pm", {}))
        treepm = TreePMConfig(tree=tree, pm=pm, **tp)
        domain = d.pop("domain", {})
        if isinstance(domain, dict):
            if "divisions" in domain:
                domain = {**domain, "divisions": tuple(domain["divisions"])}
            domain = DomainConfig(**domain)
        relay = d.pop("relay", {})
        if isinstance(relay, dict):
            relay = RelayMeshConfig(**relay)
        validation = d.pop("validation", {})
        if isinstance(validation, dict):
            validation = ValidationConfig(**validation)
        return SimulationConfig(
            treepm=treepm,
            domain=domain,
            relay=relay,
            validation=validation,
            **d,
        )


__all__ = [
    "TreeConfig",
    "PMConfig",
    "TreePMConfig",
    "DomainConfig",
    "RelayMeshConfig",
    "MachineConfig",
    "ValidationConfig",
    "SimulationConfig",
]
