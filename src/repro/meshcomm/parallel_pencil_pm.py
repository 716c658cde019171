"""Distributed PM with the pencil-decomposed FFT (future-work path).

The drop-in alternative to :class:`repro.meshcomm.parallel_pm.ParallelPM`
for the paper's stated next step: because pencils admit up to ``n^2``
FFT processes, the PM long-range solve keeps scaling past the 1-D slab
cap that froze Table I's FFT row.  The mesh conversions use the generic
region redistribution (3-D local windows <-> 2-D pencil grid).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mesh.assignment import assign_mass_local
from repro.mesh.greens import build_greens_function
from repro.meshcomm.parallel_pm import (
    DENSITY_GHOST,
    POTENTIAL_GHOST,
    mesh_accelerations,
)
from repro.meshcomm.pencil_fft import PencilFFT
from repro.meshcomm.regions import redistribute
from repro.meshcomm.slab import LocalMeshRegion
from repro.utils.timer import TimingLedger

__all__ = ["ParallelPencilPM"]


class ParallelPencilPM:
    """Long-range solver over a 2-D pencil FFT grid.

    Parameters
    ----------
    comm:
        World communicator.
    n:
        Global PM mesh size.
    grid:
        Pencil process grid ``(py, pz)``; ``py * pz`` ranks (a prefix
        of the communicator) perform the FFT.  Unlike the slab path,
        ``py * pz`` may exceed ``n`` (up to ``n^2``).
    """

    def __init__(
        self,
        comm,
        n: int,
        box: float = 1.0,
        split=None,
        G: float = 1.0,
        grid: Optional[Tuple[int, int]] = None,
        assignment: str = "tsc",
        deconvolve: Optional[int] = None,
        differencing: str = "four_point",
    ) -> None:
        self.comm = comm
        self.n = int(n)
        self.box = float(box)
        self.split = split
        self.G = float(G)
        self.assignment = assignment
        self.differencing = differencing
        if deconvolve is None:
            deconvolve = 2 if split is not None else 1
        if grid is None:
            py = int(np.floor(np.sqrt(comm.size)))
            while comm.size % py:
                py -= 1
            grid = (py, comm.size // py)
        py, pz = grid
        if py * pz > comm.size:
            raise ValueError("pencil grid larger than the communicator")
        if py > n or pz > n:
            raise ValueError("grid dimensions cannot exceed the mesh size")
        self.grid = (int(py), int(pz))

        in_grid = comm.rank < py * pz
        self.comm_fft = comm.split(color=0 if in_grid else None)
        self.is_fft_rank = in_grid
        if in_grid:
            self.fft = PencilFFT(self.comm_fft, self.n, self.grid)
            greens_full = build_greens_function(
                self.n,
                box=self.box,
                split=split,
                G=G,
                assignment=assignment,
                deconvolve=deconvolve,
                rfft=False,
            )
            self.greens_pencil = self.fft.greens_slice(greens_full)
            (xa, xb), (ya, yb), (za, zb) = self.fft.real_ranges()
            self.pencil_region = LocalMeshRegion(
                n=self.n,
                lo=(xa, ya, za),
                shape=(xb - xa, yb - ya, zb - za),
                ghost=0,
            )
        else:
            self.fft = None
            self.greens_pencil = None
            self.pencil_region = None

    @property
    def split_comms(self) -> tuple:
        """The communicators this rank holds besides the world's (each
        ``Comm`` keeps its own traffic and wait counters)."""
        if self.fft is None:
            return ()
        return (self.comm_fft, self.fft.comm_row, self.fft.comm_col)

    # -- regions ---------------------------------------------------------------

    def density_region(self, dom_lo, dom_hi) -> LocalMeshRegion:
        return LocalMeshRegion.from_domain(
            self.n, dom_lo, dom_hi, self.box, DENSITY_GHOST
        )

    def potential_region(self, dom_lo, dom_hi) -> LocalMeshRegion:
        return LocalMeshRegion.from_domain(
            self.n, dom_lo, dom_hi, self.box, POTENTIAL_GHOST
        )

    # -- the PM cycle -----------------------------------------------------------

    def forces(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        dom_lo,
        dom_hi,
        timing: Optional[TimingLedger] = None,
        validator=None,
    ) -> np.ndarray:
        """Long-range accelerations for this rank's particles.

        ``validator`` enables mass-conservation and finite-field checks
        (collective: every rank must pass the same validator or none).
        """
        timing = timing if timing is not None else TimingLedger()
        rho_region = self.density_region(dom_lo, dom_hi)
        pot_region = self.potential_region(dom_lo, dom_hi)
        cell_vol = (self.box / self.n) ** 3

        pos = np.asarray(pos, dtype=np.float64)
        center = 0.5 * (np.asarray(dom_lo) + np.asarray(dom_hi))
        pos = pos - self.box * np.round((pos - center) / self.box)

        with timing.phase("PM/density assignment"):
            local_rho = assign_mass_local(
                pos, mass, rho_region, self.box, self.assignment
            )
            local_rho /= cell_vol

        check_mass = validator is not None and validator.check_enabled(
            "mass_conservation"
        )
        if check_mass:
            from repro.validate.checks import check_mesh_mass

            totals = self.comm.allreduce(
                np.array([local_rho.sum() * cell_vol, mass.sum()]), op="sum"
            )
            validator.handle(
                check_mesh_mass(
                    float(totals[0]),
                    float(totals[1]),
                    stage="mesh/assignment",
                    step=validator.step,
                    rank=self.comm.rank,
                )
            )

        self.comm.traffic_phase("pm:mesh_to_pencil")
        with timing.phase("PM/communication"):
            pencil_rho = redistribute(
                self.comm, local_rho, rho_region, self.pencil_region, combine="add"
            )
        if check_mass:
            pencil_sum = (
                float(pencil_rho.sum()) * cell_vol if self.is_fft_rank else 0.0
            )
            totals = self.comm.allreduce(
                np.array([pencil_sum, mass.sum()]), op="sum"
            )
            validator.handle(
                check_mesh_mass(
                    float(totals[0]),
                    float(totals[1]),
                    stage="meshcomm/convert",
                    step=validator.step,
                    rank=self.comm.rank,
                )
            )

        self.comm.traffic_phase("pm:fft")
        with timing.phase("PM/FFT"):
            pencil_phi = None
            if self.is_fft_rank:
                pencil_phi = self.fft.convolve(
                    pencil_rho.astype(complex), self.greens_pencil
                )
            self.comm.barrier()

        self.comm.traffic_phase("pm:pencil_to_mesh")
        with timing.phase("PM/communication"):
            local_phi = redistribute(
                self.comm,
                pencil_phi,
                self.pencil_region if self.is_fft_rank else None,
                pot_region,
                combine="replace",
            )
        self.comm.traffic_phase("pm:done")

        acc = mesh_accelerations(
            local_phi, pos, pot_region, self.box,
            self.assignment, self.differencing, timing,
        )
        if validator is not None and validator.check_enabled("finite_fields"):
            from repro.validate.checks import check_finite

            validator.handle_collective(
                self.comm,
                check_finite(
                    "pm_acc", acc, stage="treepm/pm",
                    step=validator.step, rank=self.comm.rank,
                ),
            )
        return acc
