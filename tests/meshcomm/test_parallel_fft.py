"""Tests of the slab-decomposed parallel FFT against numpy's rfftn.

The slab passes are rfftn's passes in rfftn's order, so every
comparison here is bitwise (``np.array_equal``), at 5 ranks on uneven
slabs too."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.mesh.greens import build_greens_function
from repro.mesh.poisson import PMSolver
from repro.meshcomm.parallel_fft import SlabFFT
from repro.meshcomm.slab import SlabDecomposition
from repro.mpi.runtime import run_spmd

N = 16


def _run_slab_fft(n_ranks, work):
    """Drive `work(fft, my_slab, slabs)` on n_ranks with a shared field."""
    rng = np.random.default_rng(99)
    glob = rng.random((N, N, N))
    slabs = SlabDecomposition(N, n_ranks)

    def fn(comm):
        fft = SlabFFT(comm, N)
        a, b = slabs.range_of(comm.rank)
        return work(fft, glob[a:b].copy(), comm)

    return glob, run_spmd(n_ranks, fn)


class TestForward:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 5])
    def test_matches_numpy_rfftn(self, n_ranks):
        glob, out = _run_slab_fft(
            n_ranks, lambda fft, slab, comm: fft.forward(slab)
        )
        ref = np.fft.rfftn(glob)
        slabs = SlabDecomposition(N, n_ranks)
        for r in range(n_ranks):
            ya, yb = slabs.range_of(r)
            assert np.array_equal(out[r], ref[:, ya:yb, :])

    def test_shape_validation(self):
        def work(fft, slab, comm):
            with pytest.raises(ValueError):
                fft.forward(np.zeros((1, 2, 3)))
            return True

        _, out = _run_slab_fft(2, work)
        assert all(out)


class TestRoundtrip:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_inverse_of_forward(self, n_ranks):
        def work(fft, slab, comm):
            return fft.inverse(fft.forward(slab))

        glob, out = _run_slab_fft(n_ranks, work)
        slabs = SlabDecomposition(N, n_ranks)
        for r in range(n_ranks):
            a, b = slabs.range_of(r)
            np.testing.assert_allclose(out[r], glob[a:b], atol=1e-12)

    def test_kslab_shape_validation(self):
        def work(fft, slab, comm):
            with pytest.raises(ValueError):
                fft.inverse(np.zeros((2, 2, 2), dtype=complex))
            return True

        _, out = _run_slab_fft(2, work)
        assert all(out)


class TestConvolve:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 5])
    def test_matches_serial_poisson_solve(self, n_ranks):
        """Distributed convolution with the S2 Green's function equals
        the serial solve bit for bit: ``PMSolver.potential_mesh`` and
        the rfftn/irfftn formula it replaced."""
        pm = PMSolver(N, split=S2ForceSplit(3.0 / N), deconvolve=2)

        def work(fft, slab, comm):
            return fft.convolve(slab, fft.greens_slice(split=pm.split, deconvolve=2))

        glob, out = _run_slab_fft(n_ranks, work)
        ref = pm.potential_mesh(glob)
        formula = np.fft.irfftn(
            np.fft.rfftn(glob) * pm.greens, s=glob.shape, axes=(0, 1, 2)
        )
        assert np.array_equal(ref, formula)
        slabs = SlabDecomposition(N, n_ranks)
        for r in range(n_ranks):
            a, b = slabs.range_of(r)
            assert np.array_equal(out[r], ref[a:b])

    def test_convolve_keeps_its_input_and_inverse_overwrites_kslab(self):
        """``forward``/``convolve`` leave their slab alone; ``inverse``
        runs its first pass in place and so overwrites ``kslab``."""

        def work(fft, slab, comm):
            before = slab.copy()
            greens = np.ones(fft.kspace_shape())
            fft.convolve(slab, greens)
            kslab = fft.forward(slab)
            kcopy = kslab.copy()
            fft.inverse(kslab)
            return (
                np.array_equal(slab, before),
                np.array_equal(kslab, kcopy),
                np.array_equal(fft.inverse(kcopy.copy()), fft.inverse(kcopy)),
            )

        _, out = _run_slab_fft(2, work)
        assert out == [(True, False, True)] * 2

    def test_transpose_traffic_stays_within_comm_fft(self):
        """The FFT transposes must be all-to-all among FFT ranks only."""
        from repro.mpi.runtime import MPIRuntime

        rt = MPIRuntime(4)
        slabs = SlabDecomposition(N, 2)
        rng = np.random.default_rng(1)
        glob = rng.random((N, N, N))

        def fn(comm):
            fft_comm = comm.split(color=0 if comm.rank < 2 else None)
            comm.traffic_phase("fft")
            if fft_comm is not None:
                fft = SlabFFT(fft_comm, N)
                a, b = slabs.range_of(fft_comm.rank)
                fft.forward(glob[a:b].copy())
            comm.barrier()

        rt.run(fn)
        ph = rt.traffic.phase("fft")
        ranks_involved = {m.src for m in ph.messages} | {
            m.dst for m in ph.messages
        }
        assert ranks_involved <= {0, 1}
