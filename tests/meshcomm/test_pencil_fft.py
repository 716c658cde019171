"""Tests of the pencil-decomposed parallel FFT (paper future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.mesh.greens import build_greens_function
from repro.meshcomm.pencil_fft import PencilFFT
from repro.mpi.runtime import run_spmd

N = 8

GRIDS = [(1, 1), (1, 2), (2, 2), (2, 3), (4, 2), (8, 8)]


def _run(grid, work):
    rng = np.random.default_rng(31)
    glob = rng.random((N, N, N))

    def fn(comm):
        fft = PencilFFT(comm, N, grid)
        (xa, xb), (ya, yb), (za, zb) = fft.real_ranges()
        return work(fft, glob[xa:xb, ya:yb, za:zb].astype(complex), comm)

    return glob, run_spmd(grid[0] * grid[1], fn)


class TestForward:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_matches_numpy_fftn(self, grid):
        glob, out = _run(grid, lambda fft, pencil, comm: (fft, fft.forward(pencil)))
        ref = np.fft.fftn(glob)
        for fft, kp in out:
            (xa, xb), (ya, yb), _ = fft.kspace_ranges()
            np.testing.assert_allclose(kp, ref[xa:xb, ya:yb, :], atol=1e-10)

    def test_max_processes_is_n_squared(self):
        """The headline scalability gain over the 1-D slab FFT: a full
        n x n grid of processes works (n^2 = 64 ranks for n = 8)."""
        glob, out = _run((8, 8), lambda fft, pencil, comm: fft.forward(pencil))
        ref = np.fft.fftn(glob)
        assert len(out) == 64
        for r, kp in enumerate(out):
            assert kp.shape == (1, 1, N)

    def test_shape_validation(self):
        def work(fft, pencil, comm):
            with pytest.raises(ValueError):
                fft.forward(np.zeros((1, 1, 1), dtype=complex))
            return True

        _, out = _run((2, 2), work)
        assert all(out)


class TestRoundtrip:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (2, 4)])
    def test_inverse_of_forward(self, grid):
        def work(fft, pencil, comm):
            return fft.inverse(fft.forward(pencil))

        glob, out = _run(grid, work)
        for r, back in enumerate(out):
            i, j = r // grid[1], r % grid[1]
            ya = N * i // grid[0]
            yb = N * (i + 1) // grid[0]
            za = N * j // grid[1]
            zb = N * (j + 1) // grid[1]
            np.testing.assert_allclose(back, glob[:, ya:yb, za:zb], atol=1e-12)


class TestConvolve:
    @pytest.mark.parametrize("grid", [(2, 2), (4, 2)])
    def test_matches_serial_poisson(self, grid):
        split = S2ForceSplit(3.0 / N)
        greens = build_greens_function(N, split=split, deconvolve=2, rfft=False)

        def work(fft, pencil, comm):
            return fft, fft.convolve(pencil, fft.greens_slice(split=split, deconvolve=2))

        glob, out = _run(grid, work)
        ref = np.real(np.fft.ifftn(np.fft.fftn(glob) * greens))
        for fft, phi in out:
            (xa, xb), (ya, yb), (za, zb) = fft.real_ranges()
            np.testing.assert_allclose(
                phi, ref[xa:xb, ya:yb, za:zb], atol=1e-11
            )


class TestValidation:
    def test_grid_must_match_comm(self):
        def fn(comm):
            PencilFFT(comm, N, (2, 2))

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)

    def test_grid_within_mesh(self):
        def fn(comm):
            PencilFFT(comm, 2, (4, 1))

        with pytest.raises(RuntimeError):
            run_spmd(4, fn)
