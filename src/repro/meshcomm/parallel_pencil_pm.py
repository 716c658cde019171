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

from repro.meshcomm.parallel_pm import ParallelPM
from repro.meshcomm.pencil_fft import PencilFFT
from repro.meshcomm.regions import redistribute
from repro.meshcomm.slab import LocalMeshRegion

__all__ = ["ParallelPencilPM"]


class ParallelPencilPM(ParallelPM):
    """Long-range solver over a 2-D pencil FFT grid: the PM cycle of
    :meth:`ParallelPM.forces` with steps 2-4 in the pencil layout.

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

    layout = "pencil"

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
        self._configure(
            comm, n, box, split, G, assignment, deconvolve, differencing
        )
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
            self.greens_pencil = self._greens_block()
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

    # -- steps 2-4 in the pencil layout -----------------------------------------

    def density_to_fft_layout(self, local_rho, region):
        return redistribute(
            self.comm, local_rho, region, self.pencil_region, combine="add"
        )

    def convolve(self, rho_pencil):
        return self.fft.convolve(rho_pencil.astype(complex), self.greens_pencil)

    def potential_to_local(self, phi_pencil, region):
        return redistribute(
            self.comm, phi_pencil, self.pencil_region, region, combine="replace"
        )
