"""Each FFT rank builds only its own block of the Green's function.

A slab rank's y-range block and a pencil rank's (x, y)-range block are
computed element by element with the operations of the full build, so
they equal the corresponding slices of the full mesh bit for bit —
including meshes that do not divide evenly among the ranks."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.mesh.greens import build_greens_function
from repro.meshcomm.parallel_fft import SlabFFT
from repro.meshcomm.pencil_fft import PencilFFT
from repro.meshcomm.slab import SlabDecomposition
from repro.mpi.runtime import run_spmd

RANKS = (1, 2, 3, 4, 5, 7)


def _greens(n: int, rfft: bool, **ranges) -> np.ndarray:
    return build_greens_function(
        n, split=S2ForceSplit(3.0 / n), deconvolve=2, rfft=rfft, **ranges
    )


@lru_cache(maxsize=2)
def _full(n: int, rfft: bool) -> np.ndarray:
    return _greens(n, rfft)


@pytest.mark.parametrize("n", [30, 32, 128])
@pytest.mark.parametrize("ranks", RANKS)
def test_slab_blocks_equal_slices_of_the_full_build(n, ranks):
    full = _full(n, True)
    slabs = SlabDecomposition(n, ranks)
    for r in range(ranks):
        ya, yb = slabs.range_of(r)
        block = _greens(n, True, y_range=(ya, yb))
        assert np.array_equal(block, full[:, ya:yb])


def _grids(ranks: int):
    """``(py, pz)`` process grids of ``ranks`` FFT processes: both 1-D
    extremes and the square one where it exists."""
    grids = {(ranks, 1), (1, ranks)}
    root = int(np.sqrt(ranks))
    if root * root == ranks:
        grids.add((root, root))
    return sorted(grids)


@pytest.mark.parametrize("n", [30, 32, 128])
@pytest.mark.parametrize("ranks", RANKS)
def test_pencil_blocks_equal_slices_of_the_full_build(n, ranks):
    full = _full(n, False)
    for py, pz in _grids(ranks):
        xdec, ydec = SlabDecomposition(n, py), SlabDecomposition(n, pz)
        for i in range(py):
            xa, xb = xdec.range_of(i)
            for j in range(pz):
                ya, yb = ydec.range_of(j)
                block = _greens(n, False, x_range=(xa, xb), y_range=(ya, yb))
                assert np.array_equal(block, full[xa:xb, ya:yb])


def test_fft_ranks_build_their_own_blocks():
    """``greens_slice`` on live slab and pencil ranks returns exactly
    the rank's window of the full mesh."""
    n = 30
    split = S2ForceSplit(3.0 / n)

    def slab(comm):
        fft = SlabFFT(comm, n)
        return fft.y_range, fft.greens_slice(split=split, deconvolve=2)

    def pencil(comm):
        fft = PencilFFT(comm, n, (2, 2))
        (xa, xb), (ya, yb), _ = fft.kspace_ranges()
        return (xa, xb, ya, yb), fft.greens_slice(split=split, deconvolve=2)

    for (ya, yb), block in run_spmd(3, slab):
        assert np.array_equal(block, _full(n, True)[:, ya:yb])
    for (xa, xb, ya, yb), block in run_spmd(4, pencil):
        assert np.array_equal(block, _full(n, False)[xa:xb, ya:yb])
