"""Tests of the local<->slab mesh conversions (paper Fig. 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.meshcomm import convert
from repro.meshcomm.convert import local_to_slab, slab_to_local
from repro.meshcomm.slab import LocalMeshRegion, SlabDecomposition
from repro.mpi.runtime import run_spmd
from repro.native import meshops

N = 8  # global mesh


def _x_decomp_regions(n_ranks, ghost):
    """1-D x decomposition of the global mesh into n_ranks regions."""
    slabs = SlabDecomposition(N, n_ranks)
    regions = []
    for r in range(n_ranks):
        a, b = slabs.range_of(r)
        regions.append(
            LocalMeshRegion(n=N, lo=(a, 0, 0), shape=(b - a, N, N), ghost=ghost)
        )
    return regions


def _global_field(rng=None):
    if rng is None:
        rng = np.random.default_rng(123)
    return rng.random((N, N, N))


def _fill_local_from_global(region, glob):
    """Local array whose every cell holds the global value (as a
    complete potential would)."""
    ix = region.wrapped_indices(0)
    iy = region.wrapped_indices(1)
    iz = region.wrapped_indices(2)
    return glob[np.ix_(ix, iy, iz)].astype(float)


class TestLocalToSlab:
    @pytest.mark.parametrize("n_ranks,n_fft", [(1, 1), (2, 2), (4, 2), (4, 4), (6, 3)])
    def test_sums_partition_of_unity(self, n_ranks, n_fft):
        """Each rank contributes its interior slice of a known global
        field; slabs must reassemble the field exactly."""
        glob = _global_field()
        regions = _x_decomp_regions(n_ranks, ghost=2)
        slabs = SlabDecomposition(N, n_fft)

        def fn(comm):
            reg = regions[comm.rank]
            local = reg.allocate()
            # contribute only the interior (ghosts zero): a disjoint
            # partition of the global mesh
            g = reg.ghost
            local[g:-g, g:-g, g:-g] = _fill_local_from_global(reg, glob)[
                g:-g, g:-g, g:-g
            ]
            return local_to_slab(comm, local, reg, slabs)

        out = run_spmd(n_ranks, fn)
        for i in range(n_fft):
            a, b = slabs.range_of(i)
            np.testing.assert_allclose(out[i], glob[a:b], atol=1e-13)
        assert all(o is None for o in out[n_fft:])

    def test_ghost_contributions_fold_periodically(self):
        """Mass placed in a ghost cell lands in the wrapped global cell."""
        regions = _x_decomp_regions(2, ghost=1)
        slabs = SlabDecomposition(N, 2)

        def fn(comm):
            reg = regions[comm.rank]
            local = reg.allocate()
            if comm.rank == 0:
                # ghost plane at unwrapped x = -1 -> global x = N-1
                local[0, 1, 1] = 7.0  # local y index 1 -> global y 0
            return local_to_slab(comm, local, reg, slabs)

        out = run_spmd(2, fn)
        # global x = 7 belongs to slab 1 (range 4..8)
        assert out[1][3, 0, 0] == pytest.approx(7.0)
        assert out[0].sum() == 0.0

    def test_overlapping_contributions_sum(self):
        """Two ranks adding to the same global cell must sum."""
        regions = _x_decomp_regions(2, ghost=1)
        slabs = SlabDecomposition(N, 1)

        def fn(comm):
            reg = regions[comm.rank]
            local = reg.allocate()
            if comm.rank == 0:
                local[-1, 1, 1] = 1.0  # ghost at unwrapped x=4
            else:
                local[1, 1, 1] = 2.0  # interior at x=4
            return local_to_slab(comm, local, reg, slabs)

        out = run_spmd(2, fn)
        assert out[0][4, 0, 0] == pytest.approx(3.0)

    def test_rank_without_mesh(self):
        slabs = SlabDecomposition(N, 1)
        reg = LocalMeshRegion(n=N, lo=(0, 0, 0), shape=(N, N, N), ghost=0)
        glob = _global_field()

        def fn(comm):
            if comm.rank == 1:
                return local_to_slab(comm, None, None, slabs)
            return local_to_slab(comm, glob.copy(), reg, slabs)

        out = run_spmd(2, fn)
        np.testing.assert_allclose(out[0], glob)
        assert out[1] is None

    def test_shape_mismatch_rejected(self):
        slabs = SlabDecomposition(N, 1)
        reg = LocalMeshRegion(n=N, lo=(0, 0, 0), shape=(4, N, N), ghost=1)

        def fn(comm):
            return local_to_slab(comm, np.zeros((3, 3, 3)), reg, slabs)

        with pytest.raises(RuntimeError, match="does not match"):
            run_spmd(1, fn)


class TestSlabToLocal:
    @pytest.mark.parametrize("n_ranks,n_fft", [(1, 1), (2, 2), (4, 2), (4, 4), (6, 3)])
    @pytest.mark.parametrize("ghost", [0, 2, 3])
    def test_local_windows_reassembled(self, n_ranks, n_fft, ghost):
        glob = _global_field()
        regions = _x_decomp_regions(n_ranks, ghost=ghost)
        slabs = SlabDecomposition(N, n_fft)

        def fn(comm):
            reg = regions[comm.rank]
            slab = None
            if comm.rank < n_fft:
                a, b = slabs.range_of(comm.rank)
                slab = glob[a:b].copy()
            return slab_to_local(comm, slab, reg, slabs)

        out = run_spmd(n_ranks, fn)
        for r in range(n_ranks):
            expected = _fill_local_from_global(regions[r], glob)
            np.testing.assert_allclose(out[r], expected, atol=0)

    def test_3d_regions_with_wraparound(self):
        """A region hanging off the box corner (all dims wrap)."""
        glob = _global_field()
        reg = LocalMeshRegion(n=N, lo=(6, 6, 6), shape=(4, 4, 4), ghost=2)
        slabs = SlabDecomposition(N, 2)

        def fn(comm):
            slab = None
            if comm.rank < 2:
                a, b = slabs.range_of(comm.rank)
                slab = glob[a:b].copy()
            return slab_to_local(comm, slab, reg if comm.rank == 2 else None, slabs)

        out = run_spmd(3, fn)
        expected = _fill_local_from_global(reg, glob)
        np.testing.assert_allclose(out[2], expected, atol=0)
        assert out[0] is None

    def test_roundtrip_local_slab_local(self):
        """local (complete field) -> slab -> local returns the field."""
        glob = _global_field()
        regions = _x_decomp_regions(4, ghost=2)
        slabs = SlabDecomposition(N, 2)

        def fn(comm):
            reg = regions[comm.rank]
            local = reg.allocate()
            g = reg.ghost
            local[g:-g, g:-g, g:-g] = _fill_local_from_global(reg, glob)[
                g:-g, g:-g, g:-g
            ]
            slab = local_to_slab(comm, local, reg, slabs)
            return slab_to_local(comm, slab, reg, slabs)

        out = run_spmd(4, fn)
        for r in range(4):
            np.testing.assert_allclose(
                out[r], _fill_local_from_global(regions[r], glob), atol=1e-13
            )

    def test_missing_slab_rejected(self):
        slabs = SlabDecomposition(N, 1)
        reg = LocalMeshRegion(n=N, lo=(0, 0, 0), shape=(N, N, N), ghost=0)

        def fn(comm):
            return slab_to_local(comm, None, reg, slabs)

        with pytest.raises(RuntimeError, match="slab"):
            run_spmd(1, fn)


# -- the block loops behind both conversions ----------------------------------
#
# Receivers sum with ``_block_add`` and senders cut with ``_block_take``;
# each is a native kernel with the numpy expression it replaced as the
# reference and the fallback.  Every case runs in both modes.


def _wrapped(lo, hi):
    """Wrapped global indices of the unwrapped planes [lo, hi)."""
    return np.arange(lo, hi) % N


class TestBlockLoops:
    def test_add_matches_add_at_with_duplicated_wrapped_indices(self, mesh_kernels):
        """A region wider than the mesh names cells twice (y) and three
        times (z); a second message then lands on the same cells.  The
        sums must come out in ``np.add.at``'s order, bit for bit."""
        rng = np.random.default_rng(7)
        y_idx, z_idx = _wrapped(-3, N + 3), _wrapped(-N, 2 * N)
        ref = np.zeros((4, N, N))
        got = np.zeros_like(ref)
        for x0, nx in ((1, 3), (0, 4), (2, 1)):
            # values of very different magnitude make the order matter
            block = rng.standard_normal((nx, len(y_idx), len(z_idx)))
            block *= 10.0 ** rng.integers(-8, 8, block.shape)
            convert._block_add_numpy(ref, x0, y_idx, z_idx, block)
            convert._block_add(got, x0, y_idx, z_idx, block)
            assert np.array_equal(got, ref)

    def test_take_matches_fancy_indexing(self, mesh_kernels):
        slab = _global_field()[:5]
        y_idx, z_idx = _wrapped(-3, N + 3), _wrapped(4, 9)
        got = convert._block_take(slab, 1, 3, y_idx, z_idx)
        ref = slab[
            np.arange(1, 4)[:, None, None], y_idx[None, :, None], z_idx[None, None, :]
        ]
        assert got.shape == (3, len(y_idx), len(z_idx))
        assert got.flags["C_CONTIGUOUS"] and got.base is None
        assert np.array_equal(got, ref)

    def test_empty_block(self, mesh_kernels):
        slab = np.ones((2, N, N))
        empty = np.empty(0, dtype=np.int64)
        assert convert._block_take(slab, 0, 2, empty, _wrapped(0, 3)).shape == (2, 0, 3)
        convert._block_add(slab, 0, empty, _wrapped(0, 3), np.empty((2, 0, 3)))
        assert np.array_equal(slab, np.ones((2, N, N)))

    @pytest.mark.parametrize(
        "make_slab,make_block",
        [
            (lambda: np.zeros((3, N, N), dtype=np.float32), lambda: np.ones((2, N, N))),
            (lambda: np.zeros((N, N, 3)).transpose(2, 0, 1), lambda: np.ones((2, N, N))),
            (lambda: np.zeros((3, N, N)), lambda: np.ones((2, N, N), dtype=np.float32)),
            (lambda: np.zeros((3, N, N)), lambda: np.ones((N, N, 2)).transpose(2, 0, 1)),
            (
                lambda: np.zeros((3, N, N), dtype=complex),
                lambda: np.ones((2, N, N), dtype=complex),
            ),
        ],
        ids=["slab-f32", "slab-strided", "block-f32", "block-strided", "complex"],
    )
    def test_out_of_contract_arrays_fall_back(self, mesh_kernels, make_slab, make_block):
        slab, block = make_slab(), make_block()
        idx = _wrapped(0, N)
        assert not meshops.block_add(slab, 1, idx, idx, block)
        assert not slab.any()
        convert._block_add(slab, 1, idx, idx, block)
        assert np.array_equal(slab[1:], np.ones((2, N, N)))
        assert np.array_equal(convert._block_take(slab, 1, 2, idx, idx), slab[1:])

    @pytest.mark.parametrize(
        "x0,y_idx",
        [
            (2, _wrapped(0, N)),  # x0 + nx runs past the slab
            (-1, _wrapped(0, N)),
            (0, np.arange(1, N + 1)),  # y index N is out of range
            (0, np.arange(-1, N - 1)),
            (0, _wrapped(0, N).astype(np.int32)),
            (0, list(range(N))),
        ],
    )
    def test_kernels_never_see_unvalidated_indices(self, mesh_kernels, x0, y_idx):
        """Out-of-range or non-int64 indices are refused in Python; the
        numpy path then decides (raising where numpy raises)."""
        slab = np.zeros((3, N, N))
        block = np.ones((2, N, N))
        assert not meshops.block_add(slab, x0, y_idx, _wrapped(0, N), block)
        assert meshops.block_take(slab, x0, 2, y_idx, _wrapped(0, N)) is None

    def test_out_of_range_plane_still_raises(self, mesh_kernels):
        slab = np.zeros((3, N, N))
        idx = _wrapped(0, N)
        with pytest.raises(IndexError):
            convert._block_add(slab, 2, idx, idx, np.ones((2, N, N)))
        with pytest.raises(IndexError):
            convert._block_take(slab, 2, 2, idx, idx)


def test_conversions_identical_under_opt_out(monkeypatch):
    """local -> slab -> local over a region that wraps in every
    dimension: same bits with the kernels on and off."""
    rng = np.random.default_rng(11)
    regions = [
        LocalMeshRegion(n=N, lo=(-1, -1, -1), shape=(5, N + 3, N + 3), ghost=2),
        LocalMeshRegion(n=N, lo=(3, 5, 6), shape=(6, 4, 4), ghost=3),
    ]
    locals_ = [rng.standard_normal(r.array_shape) for r in regions]
    slabs = SlabDecomposition(N, 2)

    def fn(comm):
        reg = regions[comm.rank]
        slab = local_to_slab(comm, locals_[comm.rank], reg, slabs)
        return slab, slab_to_local(comm, slab, reg, slabs)

    native = run_spmd(2, fn)
    monkeypatch.setenv("REPRO_NO_NATIVE_MESH", "1")
    numpy_ = run_spmd(2, fn)
    for (slab_a, local_a), (slab_b, local_b) in zip(native, numpy_):
        assert np.array_equal(slab_a, slab_b)
        assert np.array_equal(local_a, local_b)
