"""1-D slab-decomposed parallel FFT (the FFTW-MPI substitute).

Forward transform of an x-slab-decomposed real mesh:

1. per-slab ``rfft`` along z and ``fft`` along y (local),
2. transpose x-slabs -> y-slabs (one ``alltoallv`` inside COMM_FFT),
3. ``fft`` along x (local; the full x extent is now resident).

These are the passes of ``np.fft.rfftn`` in its order, so the result is
bitwise that of the serial transform; every complex pass writes over
its input (``out=``) instead of into a fresh array.

The k-space data stays y-slab-decomposed; pointwise convolution with a
Green's function is local.  The inverse reverses the three steps.  Only
the transpose communicates — the same property that pins the paper's
FFT process count to at most ``N_PM^(1/3)`` ranks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mesh.greens import build_greens_function
from repro.meshcomm.slab import SlabDecomposition

__all__ = ["SlabFFT"]

#: what a rank "sends" to itself in the transposes
_NO_BLOCK = np.empty((0, 0, 0), dtype=np.complex128)


class SlabFFT:
    """Distributed FFT over the first ``n_slabs`` ranks of ``comm_fft``.

    Parameters
    ----------
    comm_fft:
        Communicator containing exactly the FFT processes (the paper's
        COMM_FFT, built with ``Comm_split`` so that FFT ranks sit close
        together on the physical network).
    n:
        Global mesh size per dimension.

    Notes
    -----
    ``comm_fft.size`` slabs along x for real-space data and along y for
    k-space data; both use the same :class:`SlabDecomposition`.
    """

    def __init__(self, comm_fft, n: int) -> None:
        self.comm = comm_fft
        self.n = int(n)
        self.slabs = SlabDecomposition(n, comm_fft.size)
        self.nz_r = self.n // 2 + 1  # rfft length along z

    # -- layout helpers ----------------------------------------------------------

    @property
    def x_range(self):
        """[start, stop) of x-planes this rank owns in real space."""
        return self.slabs.range_of(self.comm.rank)

    @property
    def y_range(self):
        """[start, stop) of y-planes this rank owns in k space."""
        return self.slabs.range_of(self.comm.rank)

    def kspace_shape(self):
        a, b = self.y_range
        return (self.n, b - a, self.nz_r)

    # -- transforms ---------------------------------------------------------------

    def forward(self, slab: np.ndarray) -> np.ndarray:
        """Real x-slab ``(nx_local, n, n)`` -> complex y-slab
        ``(n, ny_local, n//2+1)``."""
        a, b = self.x_range
        if slab.shape != (b - a, self.n, self.n):
            raise ValueError("slab shape mismatch")
        work = np.fft.rfft(slab, axis=2)
        np.fft.fft(work, axis=1, out=work)
        work = self._transpose_x_to_y(work)
        return np.fft.fft(work, axis=0, out=work)

    def inverse(self, kslab: np.ndarray) -> np.ndarray:
        """Complex y-slab -> real x-slab (inverse of :meth:`forward`).

        Its first pass runs in place: ``kslab`` is overwritten.
        """
        if kslab.shape != self.kspace_shape():
            raise ValueError("k-slab shape mismatch")
        np.fft.ifft(kslab, axis=0, out=kslab)
        work = self._transpose_y_to_x(kslab)
        np.fft.ifft(work, axis=1, out=work)
        return np.fft.irfft(work, n=self.n, axis=2)

    # -- transposes ------------------------------------------------------------------

    # The block a rank keeps for itself never enters the exchange (an
    # empty placeholder holds its slot): it is assigned straight from
    # ``work`` instead of being staged, copied by alltoall and copied
    # again into ``out``.  The other blocks go out as strided views of
    # ``work``: the transport packs each one once, into its shared-memory
    # segment or its in-process copy, so staging it here would only add
    # a pass over the block.

    def _transpose_x_to_y(self, work: np.ndarray) -> np.ndarray:
        """(nx_local, n, nz_r) -> (n, ny_local, nz_r) via alltoallv."""
        me = self.comm.rank
        sends = []
        for j in range(self.comm.size):
            ya, yb = self.slabs.range_of(j)
            sends.append(_NO_BLOCK if j == me else work[:, ya:yb, :])
        received = self.comm.alltoallv(sends)
        ya, yb = self.y_range
        out = np.empty((self.n, yb - ya, self.nz_r), dtype=np.complex128)
        for i, block in enumerate(received):
            xa, xb = self.slabs.range_of(i)
            out[xa:xb] = work[:, ya:yb, :] if i == me else block
        return out

    def _transpose_y_to_x(self, work: np.ndarray) -> np.ndarray:
        """(n, ny_local, nz_r) -> (nx_local, n, nz_r) via alltoallv."""
        me = self.comm.rank
        sends = []
        for j in range(self.comm.size):
            xa, xb = self.slabs.range_of(j)
            sends.append(_NO_BLOCK if j == me else work[xa:xb, :, :])
        received = self.comm.alltoallv(sends)
        xa, xb = self.x_range
        out = np.empty((xb - xa, self.n, self.nz_r), dtype=np.complex128)
        for i, block in enumerate(received):
            ya, yb = self.slabs.range_of(i)
            out[:, ya:yb, :] = work[xa:xb] if i == me else block
        return out

    # -- convolution -------------------------------------------------------------------

    def greens_slice(self, **greens) -> np.ndarray:
        """This rank's y-slab of the rfft Green's function, built for
        its own planes only (``greens``: the keyword arguments of
        :func:`~repro.mesh.greens.build_greens_function`)."""
        return build_greens_function(self.n, y_range=self.y_range, **greens)

    def convolve(self, slab: np.ndarray, greens_slab: np.ndarray) -> np.ndarray:
        """Real slab -> real slab convolved with the Green's function."""
        kdata = self.forward(slab)
        kdata *= greens_slab
        return self.inverse(kdata)
