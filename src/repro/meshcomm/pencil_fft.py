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

    def _transpose_x_to_y(self, work: np.ndarray) -> np.ndarray:
        """(n, ny, nz) -> (nx, n, nz): alltoall within the row comm
        (ranks sharing col_id), swapping which of x/y is split."""
        sends = []
        for r in range(self.comm_row.size):
            xa, xb = self.xdec.range_of(r)
            sends.append(work[xa:xb])
        received = self.comm_row.alltoallv(sends)
        xa, xb = self.xdec.range_of(self.row_id)
        out = np.empty(
            (xb - xa, self.n, work.shape[2]), dtype=np.complex128
        )
        for r, block in enumerate(received):
            ya, yb = self.ydec.range_of(r)
            out[:, ya:yb, :] = block
        return out

    def _transpose_y_to_x(self, work: np.ndarray) -> np.ndarray:
        sends = []
        for r in range(self.comm_row.size):
            ya, yb = self.ydec.range_of(r)
            sends.append(work[:, ya:yb, :])
        received = self.comm_row.alltoallv(sends)
        ya, yb = self.ydec.range_of(self.row_id)
        out = np.empty((self.n, yb - ya, work.shape[2]), dtype=np.complex128)
        for r, block in enumerate(received):
            xa, xb = self.xdec.range_of(r)
            out[xa:xb] = block
        return out

    def _transpose_y_to_z(self, work: np.ndarray) -> np.ndarray:
        """(nx, n, nz) -> (nx, ny, n): alltoall within the column comm
        (ranks sharing row_id), swapping which of y/z is split."""
        sends = []
        for r in range(self.comm_col.size):
            ya, yb = self.y2dec.range_of(r)
            sends.append(work[:, ya:yb, :])
        received = self.comm_col.alltoallv(sends)
        ya, yb = self.y2dec.range_of(self.col_id)
        out = np.empty((work.shape[0], yb - ya, self.n), dtype=np.complex128)
        for r, block in enumerate(received):
            za, zb = self.zdec.range_of(r)
            out[:, :, za:zb] = block
        return out

    def _transpose_z_to_y(self, work: np.ndarray) -> np.ndarray:
        sends = []
        for r in range(self.comm_col.size):
            za, zb = self.zdec.range_of(r)
            sends.append(work[:, :, za:zb])
        received = self.comm_col.alltoallv(sends)
        za, zb = self.zdec.range_of(self.col_id)
        out = np.empty(
            (work.shape[0], self.n, zb - za), dtype=np.complex128
        )
        for r, block in enumerate(received):
            ya, yb = self.y2dec.range_of(r)
            out[:, ya:yb, :] = block
        return out

    # -- transforms ------------------------------------------------------------------

    def forward(self, pencil: np.ndarray) -> np.ndarray:
        """Real (or complex) x-pencil -> complex z-pencil in k-space."""
        if pencil.shape != self.real_shape():
            raise ValueError("pencil shape mismatch")
        work = np.fft.fft(pencil, axis=0)
        work = self._transpose_x_to_y(work)
        work = np.fft.fft(work, axis=1)
        work = self._transpose_y_to_z(work)
        return np.fft.fft(work, axis=2)

    def inverse(self, kpencil: np.ndarray) -> np.ndarray:
        """Complex z-pencil -> real x-pencil (imaginary parts dropped)."""
        if kpencil.shape != self.kspace_shape():
            raise ValueError("k-pencil shape mismatch")
        work = np.fft.ifft(kpencil, axis=2)
        work = self._transpose_z_to_y(work)
        work = np.fft.ifft(work, axis=1)
        work = self._transpose_y_to_x(work)
        return np.real(np.fft.ifft(work, axis=0))

    # -- convolution -------------------------------------------------------------------

    def greens_slice(self, greens_full: np.ndarray) -> np.ndarray:
        """This rank's k-space window of a full (non-rfft) Green's
        function mesh ``(n, n, n)``."""
        (xa, xb), (ya, yb), _ = self.kspace_ranges()
        return greens_full[xa:xb, ya:yb, :]

    def convolve(self, pencil: np.ndarray, greens_pencil: np.ndarray) -> np.ndarray:
        kdata = self.forward(pencil)
        kdata *= greens_pencil
        return self.inverse(kdata)
