"""Mesh-layout conversions: 3-D local rectangles <-> 1-D slabs.

These are the communication steps 2 and 4 of the paper's PM cycle: the
density assigned on each process's local mesh must reach the FFT
processes as complete x-slabs (receivers *sum* overlapping
contributions), and the slab potential must come back as each process's
local window (receivers *assemble*, every cell having exactly one
owner).

Both directions run over a single ``alltoall`` on the given
communicator, so the same code serves the straightforward global method
(communicator = world) and the within-group stage of the relay mesh
method (communicator = COMM_SMALLA2A).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.meshcomm.slab import LocalMeshRegion, SlabDecomposition
from repro.native import meshops as _native_mesh

__all__ = ["local_to_slab", "slab_to_local"]


def _block_add_numpy(slab, x0, y_idx, z_idx, block) -> None:
    """Reference receive-side sum (also the native kernel's self-test
    oracle): ``np.add.at`` visits the block in C order, so cells named
    more than once by the wrapped indices get their addends in turn."""
    ix = x0 + np.arange(block.shape[0])
    np.add.at(
        slab,
        (ix[:, None, None], y_idx[None, :, None], z_idx[None, None, :]),
        block,
    )


def _block_take_numpy(slab, x0, nx, y_idx, z_idx) -> np.ndarray:
    """Reference send-side cut (native self-test oracle)."""
    ix = x0 + np.arange(nx)
    return slab[ix[:, None, None], y_idx[None, :, None], z_idx[None, None, :]]


def _block_add(slab, x0, y_idx, z_idx, block) -> None:
    """Sum through the native kernel when available, else numpy."""
    if not _native_mesh.block_add(slab, x0, y_idx, z_idx, block):
        _block_add_numpy(slab, x0, y_idx, z_idx, block)


def _block_take(slab, x0, nx, y_idx, z_idx) -> np.ndarray:
    """Cut through the native kernel when available, else numpy."""
    block = _native_mesh.block_take(slab, x0, nx, y_idx, z_idx)
    if block is not None:
        return block
    return _block_take_numpy(slab, x0, nx, y_idx, z_idx)


def _x_overlaps(
    lo: int, hi: int, a: int, b: int, n: int
) -> List[Tuple[int, int, int]]:
    """Overlaps of the unwrapped interval [lo, hi) with the slab range
    [a, b) under periodic images; yields (start_unwrapped, stop_unwrapped,
    image_shift) with the overlap being [a+shift, b+shift) ∩ [lo, hi)."""
    out = []
    # wide ghosted regions can span up to three box lengths unwrapped:
    # shifts of up to +-3n cover every case the validation admits
    for t in (-3 * n, -2 * n, -n, 0, n, 2 * n, 3 * n):
        s, e = max(lo, a + t), min(hi, b + t)
        if s < e:
            out.append((s, e, t))
    return out


def local_to_slab(
    comm,
    local: Optional[np.ndarray],
    region: Optional[LocalMeshRegion],
    slabs: SlabDecomposition,
) -> Optional[np.ndarray]:
    """Convert 3-D-decomposed local meshes to summed 1-D slabs.

    Every rank of ``comm`` calls this; ranks ``0 .. slabs.n_slabs - 1``
    receive and return their (complete, within this communicator) slab;
    other ranks return ``None``.  Ranks with no local mesh pass
    ``local=None``.
    """
    n = slabs.n
    sends: List[list] = [[] for _ in range(comm.size)]
    if local is not None:
        if local.shape != region.array_shape:
            raise ValueError("local array does not match its region")
        xlo, xhi = region.unwrapped_range(0)
        y_idx = region.wrapped_indices(1)
        z_idx = region.wrapped_indices(2)
        for dst in range(slabs.n_slabs):
            a, b = slabs.range_of(dst)
            for s, e, t in _x_overlaps(xlo, xhi, a, b, n):
                block = local[s - xlo : e - xlo]
                # x indices inside the destination slab
                meta = (s - t - a, y_idx, z_idx)
                sends[dst].append((meta, block))

    # reliable: transient injected drops/delays are retransmitted
    # instead of failing the PM cycle
    received = comm.alltoall(sends, reliable=True)

    if comm.rank >= slabs.n_slabs:
        return None
    slab = slabs.allocate(comm.rank)
    for messages in received:
        for (x0, y_idx, z_idx), block in messages:
            _block_add(slab, x0, y_idx, z_idx, block)
    return slab


def slab_to_local(
    comm,
    slab: Optional[np.ndarray],
    region: Optional[LocalMeshRegion],
    slabs: SlabDecomposition,
) -> Optional[np.ndarray]:
    """Convert 1-D slabs back to each rank's 3-D local window.

    Slab owners (ranks ``0 .. n_slabs-1``) pass their ``slab``; every
    rank passes its ``region`` (or ``None`` for no local mesh) and gets
    its filled local array back.  All regions must be collectively known
    in advance, so regions are allgathered — matching GreeM, where the
    decomposition geometry is shared.
    """
    n = slabs.n
    all_regions = comm.allgather(region)

    sends: List[list] = [[] for _ in range(comm.size)]
    if comm.rank < slabs.n_slabs:
        if slab is None or slab.shape != slabs.shape_of(comm.rank):
            raise ValueError("slab owner must pass its slab array")
        a, b = slabs.range_of(comm.rank)
        for dst, reg in enumerate(all_regions):
            if reg is None:
                continue
            xlo, xhi = reg.unwrapped_range(0)
            y_idx = reg.wrapped_indices(1)
            z_idx = reg.wrapped_indices(2)
            for s, e, t in _x_overlaps(xlo, xhi, a, b, n):
                block = _block_take(slab, s - t - a, e - s, y_idx, z_idx)
                sends[dst].append((s - xlo, block))

    received = comm.alltoall(sends, reliable=True)

    if region is None:
        return None
    out = np.empty(region.array_shape)
    filled = np.zeros(region.array_shape[0], dtype=bool)
    for messages in received:
        for x_off, block in messages:
            out[x_off : x_off + block.shape[0]] = block
            filled[x_off : x_off + block.shape[0]] = True
    if not filled.all():
        raise RuntimeError("slab_to_local: some local x-planes not received")
    return out
