"""2-D (pencil) decomposed parallel FFT — the paper's future work.

"The current bottleneck is FFT ... the combination of our novel relay
mesh method and a 3-D parallel FFT library will significantly improve
the performance and the scalability.  We aim to achieve peak
performance higher than 5 Pflops on the full system."

A pencil decomposition splits the mesh over a 2-D process grid
``(py, pz)``: in real space each rank owns full-x pencils
``(n, ny_i, nz_j)``, so up to ``n^2`` processes can participate —
lifting the 1-D slab FFT's ``n`` cap that pinned the paper's FFT time
constant between 24576 and 82944 nodes.

The transform runs three local 1-D FFTs with two block transposes, each
an alltoall *within one row or column* of the process grid (built with
``Comm_split``, like the relay mesh communicators):

    x-pencils --FFT_x--> (transpose in rows)  --> y-pencils --FFT_y-->
    (transpose in cols) --> z-pencils --FFT_z--> k-space

Complex transforms throughout (simplicity over the rfft memory saving);
the inverse reverses the pipeline.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.mesh.greens import build_greens_function
from repro.meshcomm.slab import SlabDecomposition

__all__ = ["PencilFFT"]


class PencilFFT:
    """Distributed 3-D FFT over a ``py x pz`` process grid.

    Parameters
    ----------
    comm:
        Communicator holding exactly ``py * pz`` ranks; rank
        ``r = i * pz + j`` sits at grid position (i, j).
    n:
        Global mesh points per dimension.
    grid:
        Process grid shape ``(py, pz)``; both must be <= n.
    """

    def __init__(self, comm, n: int, grid: Tuple[int, int]) -> None:
        py, pz = grid
        if py * pz != comm.size:
            raise ValueError("grid must multiply to the communicator size")
        if py > n or pz > n:
            raise ValueError("grid dimensions cannot exceed the mesh size")
        self.comm = comm
        self.n = int(n)
        self.py, self.pz = int(py), int(pz)
        self.row_id = comm.rank // self.pz  # position along y-split
        self.col_id = comm.rank % self.pz  # position along z-split
        self.ydec = SlabDecomposition(n, self.py)
        self.zdec = SlabDecomposition(n, self.pz)
        # x is split over rows during the y-pencil stage, and y over
        # columns during the z-pencil stage
        self.xdec = SlabDecomposition(n, self.py)
        self.y2dec = SlabDecomposition(n, self.pz)
        # row communicator: same col_id varies? rows share row_id
        self.comm_row = comm.split(color=self.col_id, key=self.row_id)
        self.comm_col = comm.split(color=self.row_id, key=self.col_id)

    # -- layout queries ---------------------------------------------------------

    def real_shape(self) -> Tuple[int, int, int]:
        """This rank's x-pencil shape (n, ny_local, nz_local)."""
        ya, yb = self.ydec.range_of(self.row_id)
        za, zb = self.zdec.range_of(self.col_id)
        return (self.n, yb - ya, zb - za)

    def kspace_shape(self) -> Tuple[int, int, int]:
        """This rank's z-pencil (k-space) shape (nx_local, ny_local, n)."""
        xa, xb = self.xdec.range_of(self.row_id)
        ya, yb = self.y2dec.range_of(self.col_id)
        return (xb - xa, yb - ya, self.n)

    def real_ranges(self):
        return (
            (0, self.n),
            self.ydec.range_of(self.row_id),
            self.zdec.range_of(self.col_id),
        )

    def kspace_ranges(self):
        return (
            self.xdec.range_of(self.row_id),
            self.y2dec.range_of(self.col_id),
            (0, self.n),
        )

    # -- transposes ----------------------------------------------------------------

    # Blocks go out as strided views of ``work``: the transport packs
    # each one once (see SlabFFT), so none is staged contiguous here.

    def _swap(self, work, split, join):
        """One alltoall within a row (x <-> y) or a column (y <-> z) of
        the grid: axis ``split`` of ``work``, whole, becomes this rank's
        block of it, and axis ``join``, split, becomes whole."""
        row = 2 not in (split, join)
        comm, me = (self.comm_row, self.row_id) if row else (self.comm_col, self.col_id)
        dec = {0: self.xdec, 1: self.ydec} if row else {1: self.y2dec, 2: self.zdec}

        def cut(axis, bounds):
            idx = [slice(None)] * 3
            idx[axis] = slice(*bounds)
            return tuple(idx)

        received = comm.alltoallv(
            [work[cut(split, dec[split].range_of(r))] for r in range(comm.size)]
        )
        shape = list(work.shape)
        a, b = dec[split].range_of(me)
        shape[split], shape[join] = b - a, self.n
        out = np.empty(shape, dtype=np.complex128)
        for r, block in enumerate(received):
            out[cut(join, dec[join].range_of(r))] = block
        return out

    # -- transforms ------------------------------------------------------------------

    def forward(self, pencil: np.ndarray) -> np.ndarray:
        """Real (or complex) x-pencil -> complex z-pencil in k-space."""
        if pencil.shape != self.real_shape():
            raise ValueError("pencil shape mismatch")
        work = np.fft.fft(pencil, axis=0)
        work = self._swap(work, 0, 1)
        np.fft.fft(work, axis=1, out=work)
        work = self._swap(work, 1, 2)
        return np.fft.fft(work, axis=2, out=work)

    def inverse(self, kpencil: np.ndarray) -> np.ndarray:
        """Complex z-pencil -> real x-pencil (imaginary parts dropped).
        Its first pass runs in place: ``kpencil`` is overwritten."""
        if kpencil.shape != self.kspace_shape():
            raise ValueError("k-pencil shape mismatch")
        np.fft.ifft(kpencil, axis=2, out=kpencil)
        work = self._swap(kpencil, 2, 1)
        np.fft.ifft(work, axis=1, out=work)
        work = self._swap(work, 1, 0)
        return np.real(np.fft.ifft(work, axis=0, out=work))

    # -- convolution -------------------------------------------------------------------

    def greens_slice(self, **greens) -> np.ndarray:
        """This rank's k-space window of the full (non-rfft) Green's
        function, built for its own x- and y-planes only (``greens``:
        the keyword arguments of
        :func:`~repro.mesh.greens.build_greens_function`)."""
        x_range, y_range, _ = self.kspace_ranges()
        return build_greens_function(
            self.n, rfft=False, x_range=x_range, y_range=y_range, **greens
        )

    def convolve(self, pencil: np.ndarray, greens_pencil: np.ndarray) -> np.ndarray:
        kdata = self.forward(pencil)
        kdata *= greens_pencil
        return self.inverse(kdata)
