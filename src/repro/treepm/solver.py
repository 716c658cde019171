"""Single-process TreePM solver.

This is the serial reference for the distributed GreeM-style driver in
:mod:`repro.sim`: identical physics, no domain decomposition.  The force
on a particle is the sum of

* the PP part: tree-evaluated short-range forces with the cutoff
  ``g_P3M(2 r / rcut)`` (paper eq. 2-3), and
* the PM part: mesh-evaluated long-range forces through the S2-shaped
  Green's function (paper eq. 1),

which together reconstruct the exact periodic force (the Ewald sum)
within the method's approximation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import TreePMConfig
from repro.forces.cutoff import get_split
from repro.mesh.poisson import PMSolver
from repro.tree.traversal import TraversalStats, TreeSolver
from repro.utils.timer import TimingLedger
from repro.validate.checks import check_finite, check_mesh_mass, check_octree
from repro.validate.sdc import SdcAuditor

__all__ = ["TreePMSolver", "TreePMForces"]


@dataclass
class TreePMForces:
    """Result of a TreePM force evaluation."""

    total: np.ndarray
    short_range: np.ndarray
    long_range: np.ndarray
    stats: TraversalStats
    timing: TimingLedger


class TreePMSolver:
    """Serial TreePM force solver for a periodic cube.

    Parameters
    ----------
    config:
        A :class:`repro.config.TreePMConfig`; its ``pm.mesh_size``,
        ``rcut_mesh_units``, ``softening``, tree parameters and split
        choice fully determine the solver.
    box:
        Periodic box size.
    G:
        Gravitational constant.
    use_fast_rsqrt:
        Use the emulated HPC-ACE fast-rsqrt PP path.
    validator:
        Optional :class:`repro.validate.Validator`, the one guard
        consulted by both force halves.  When it runs the ``sdc``
        check, every ``interval``-th :meth:`short_range` call re-sweeps
        a sampled subset of the interaction plan through the reference
        pipeline and compares bitwise; under ``recover`` a miscomputed
        sweep is redone in full through the reference path before the
        result is returned.
    """

    def __init__(
        self,
        config: Optional[TreePMConfig] = None,
        box: float = 1.0,
        G: float = 1.0,
        use_fast_rsqrt: bool = False,
        validator=None,
    ) -> None:
        self.config = config if config is not None else TreePMConfig()
        self.box = float(box)
        self.G = float(G)
        #: optional repro.validate.Validator consulted by both force halves
        self.validator = validator
        #: ABFT spot-checks of the PP sweeps (findings in validator.events)
        self.sdc = (
            SdcAuditor(validator)
            if validator is not None and validator.runs("sdc")
            else None
        )
        self._sdc_evals = 0
        #: traversal statistics of the latest :meth:`short_range` call
        self.last_stats: Optional[TraversalStats] = None
        cfg = self.config
        self.split = get_split(cfg.split, cfg.rcut * box)
        self.pm = PMSolver(
            cfg.pm.mesh_size,
            box=box,
            split=self.split,
            G=G,
            assignment=cfg.pm.assignment,
            deconvolve=2 if cfg.pm.deconvolve else 0,
            differencing=cfg.pm.differencing,
        )
        self.tree = TreeSolver(
            box=box,
            theta=cfg.tree.opening_angle,
            leaf_size=cfg.tree.leaf_size,
            group_size=cfg.tree.group_size,
            split=self.split,
            eps=cfg.softening * box,
            G=G,
            periodic=True,
            use_quadrupole=cfg.tree.use_quadrupole,
            use_fast_rsqrt=use_fast_rsqrt,
        )
        if self.sdc is not None and validator.config.spot_check_groups > 0:
            self.tree.retain_last_sweep = True

    @property
    def rcut(self) -> float:
        """Short-range cutoff radius in length units of the box."""
        return self.config.rcut * self.box

    def long_range(
        self, pos: np.ndarray, mass: np.ndarray, timing: TimingLedger
    ) -> np.ndarray:
        """PM accelerations; the four mesh stages are charged to
        ``timing`` under the paper's Table I row names."""
        v = self.validator
        with timing.phase("PM/density assignment"):
            rho = self.pm.density_mesh(pos, mass)
        if v is not None and v.check_enabled("mass_conservation"):
            cell_vol = (self.box / self.pm.n) ** 3
            v.handle(
                check_mesh_mass(
                    float(rho.sum() * cell_vol), float(mass.sum()),
                    stage="mesh/assignment", step=v.step,
                )
            )
        with timing.phase("PM/FFT"):
            phi = self.pm.potential_mesh(rho)
        with timing.phase("PM/acceleration on mesh"):
            amesh = self.pm.acceleration_mesh(phi)
        with timing.phase("PM/force interpolation"):
            acc = self.pm.interpolate(amesh, pos)
        if v is not None and v.check_enabled("finite_fields"):
            v.handle(check_finite("pm_acc", acc, stage="treepm/pm", step=v.step))
        return acc

    def short_range(
        self, pos: np.ndarray, mass: np.ndarray, timing: TimingLedger
    ) -> np.ndarray:
        """Tree (PP) accelerations; construction, traversal and the
        sweep are charged to ``timing``, the traversal statistics are
        left in :attr:`last_stats`."""
        v = self.validator
        with timing.phase("PP/tree construction"):
            tree = self.tree.build(pos, mass)
        if v is not None and v.check_enabled("octree_moments"):
            v.handle(check_octree(tree, step=v.step))
        acc, self.last_stats = self.tree.forces(
            pos, mass, tree=tree, ledger=timing
        )
        sdc = self.sdc
        if sdc is not None:
            self._sdc_evals += 1
            if sdc.due(self._sdc_evals):
                ev = sdc.spot_check(self.tree, step=self._sdc_evals)
                if v.handle(sdc.violation([ev])):
                    # recover: stop trusting the native path and redo
                    # the whole sweep through the reference pipeline, so
                    # the returned forces are clean
                    self.tree._executor.use_native = False
                    acc, self.last_stats = self.tree.forces(
                        pos, mass, tree=tree, ledger=timing
                    )
                    sdc.mark_healed(ev, "healed by reference re-sweep")
        if v is not None and v.check_enabled("finite_fields"):
            v.handle(check_finite("pp_acc", acc, stage="treepm/pp", step=v.step))
        return acc

    def forces(self, pos: np.ndarray, mass: np.ndarray) -> TreePMForces:
        """Evaluate total TreePM accelerations.

        Returns a :class:`TreePMForces` carrying the two components,
        traversal statistics (``<Ni>``, ``<Nj>``, interaction counts)
        and a per-phase timing ledger using the paper's Table I names.
        """
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        timing = TimingLedger()
        a_long = self.long_range(pos, mass, timing)
        a_short = self.short_range(pos, mass, timing)
        return TreePMForces(
            total=a_short + a_long,
            short_range=a_short,
            long_range=a_long,
            stats=self.last_stats,
            timing=timing,
        )

    def potential(self, pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """Total (long + short) potential at the particle positions.

        The short-range part is evaluated by direct summation through
        the tree kernel machinery; intended for energy diagnostics on
        modest N.
        """
        from repro.pp.kernel import PPKernel

        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        phi_long = self.pm.potential_at(pos, mass)
        kern = PPKernel(
            split=self.split,
            eps=self.config.softening * self.box,
            G=self.G,
            box=self.box,
        )
        phi_short = np.empty(len(pos))
        chunk = 512
        for lo in range(0, len(pos), chunk):
            hi = min(lo + chunk, len(pos))
            phi_short[lo:hi] = kern.potential(pos[lo:hi], pos, mass)
        return phi_long + phi_short

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreePMSolver(config={self.config!r}, box={self.box})"
