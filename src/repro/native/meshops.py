"""Bindings for the native PM mesh kernels.

:func:`scatter` and :func:`gather` replace the hot ``np.add.at`` /
fancy-index accumulation loops of :mod:`repro.mesh.assignment`; the
per-axis stencil indices and weights are still computed by the (shared)
numpy code, so the two paths agree bit for bit.
:func:`gather_gradient` is :func:`gather` over the finite-difference
gradient of a potential block, formed cell by cell inside the kernel
instead of being stored first; :func:`block_add` and :func:`block_take`
are the accumulate / copy loops of :mod:`repro.meshcomm.convert`.  All
return a falsy value when the kernel is unavailable or the inputs are
out of contract, and the caller falls back to the numpy code.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from repro.native import build as _build


def get_lib() -> Optional[ctypes.CDLL]:
    """The verified mesh-ops library, or ``None`` (checked per call)."""
    return _build.library("mesh")


def available() -> bool:
    """Whether the native mesh kernels can be used right now."""
    return get_lib() is not None


def _contract_ok(ix, iy, iz, wx, wy, wz) -> bool:
    return _build.c_arrays(np.int64, ix, iy, iz) and _build.c_arrays(
        np.float64, wx, wy, wz
    )


def _scatter_with(lib, out, ix, iy, iz, wx, wy, wz, mass) -> None:
    n, s = ix.shape
    lib.mesh_scatter(
        n, s, ix, iy, iz, wx, wy, wz, mass, out.shape[1], out.shape[2], out
    )


def scatter(out, ix, iy, iz, wx, wy, wz, mass) -> bool:
    """Accumulate stencil deposits into ``out``; False = fall back."""
    lib = get_lib()
    if lib is None or not _build.c_arrays(np.float64, out):
        return False
    if not _contract_ok(ix, iy, iz, wx, wy, wz):
        return False
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    _scatter_with(lib, out, ix, iy, iz, wx, wy, wz, mass)
    return True


def _gather_with(lib, mesh3, ncomp, ix, iy, iz, wx, wy, wz) -> np.ndarray:
    n, s = ix.shape
    out = np.zeros((n, ncomp))
    lib.mesh_gather(
        n, s, ix, iy, iz, wx, wy, wz,
        mesh3.shape[1], mesh3.shape[2], ncomp, mesh3, out,
    )
    return out


def gather(mesh, ix, iy, iz, wx, wy, wz) -> Optional[np.ndarray]:
    """Interpolated values ``(N,) + mesh.shape[3:]``; ``None`` = fall back.

    ``mesh`` may carry trailing component axes; they are flattened for
    the kernel and restored on the result.
    """
    lib = get_lib()
    if lib is None or not _build.c_arrays(np.float64, mesh):
        return None
    if not _contract_ok(ix, iy, iz, wx, wy, wz):
        return None
    tail = mesh.shape[3:]
    ncomp = 1
    for d in tail:
        ncomp *= d
    mesh3 = mesh.reshape(mesh.shape[:3] + (ncomp,))
    out = _gather_with(lib, mesh3, ncomp, ix, iy, iz, wx, wy, wz)
    return out.reshape((len(ix),) + tail)


#: differencing scheme -> (stencil half-width, divisor in units of h)
_DIFFERENCES = {"two_point": (1, 2.0), "four_point": (2, 12.0)}


def can_gather_gradient(phi, scheme, trim) -> bool:
    """Whether :func:`gather_gradient` accepts this potential block."""
    if scheme not in _DIFFERENCES or trim < _DIFFERENCES[scheme][0]:
        return False
    return (
        _build.c_arrays(np.float64, phi)
        and phi.ndim == 3
        and get_lib() is not None
    )


def _gather_gradient_with(
    lib, phi, h, scheme, trim, ix, iy, iz, wx, wy, wz
) -> np.ndarray:
    n, s = ix.shape
    out = np.zeros((n, 3))
    lib.mesh_gather_gradient(
        n, s, ix, iy, iz, wx, wy, wz,
        phi.shape[1], phi.shape[2], trim, scheme == "four_point",
        _DIFFERENCES[scheme][1] * h, phi, out,
    )
    return out


def gather_gradient(
    phi, h, scheme, trim, ix, iy, iz, wx, wy, wz
) -> Optional[np.ndarray]:
    """``gather(gradient_block(phi, h, scheme, trim), ...)`` without the
    block: ``(N, 3)`` interpolated gradients, or ``None`` = fall back.

    The indices address the block *after* trimming and must already be
    validated against it (``0 <= i < phi.shape[d] - 2 * trim``); with
    ``trim`` at least the stencil half-width every neighbour read then
    stays inside ``phi``.
    """
    if not can_gather_gradient(phi, scheme, trim):
        return None
    if not _contract_ok(ix, iy, iz, wx, wy, wz):
        return None
    return _gather_gradient_with(
        get_lib(), phi, float(h), scheme, int(trim), ix, iy, iz, wx, wy, wz
    )


def _block_contract_ok(slab, x0, y_idx, z_idx, block_shape) -> bool:
    """Slab/index/shape contract shared by block add and take; the
    range checks are what keeps the kernels inside ``slab``."""
    if not _build.c_arrays(np.float64, slab) or slab.ndim != 3:
        return False
    if len(block_shape) != 3 or not _build.c_arrays(np.int64, y_idx, z_idx):
        return False
    for idx, extent, count in (
        (y_idx, slab.shape[1], block_shape[1]),
        (z_idx, slab.shape[2], block_shape[2]),
    ):
        if idx.shape != (count,):
            return False
        if count and (idx.min() < 0 or idx.max() >= extent):
            return False
    return 0 <= x0 and x0 + block_shape[0] <= slab.shape[0]


def _block_call(fn, slab, x0, y_idx, z_idx, block) -> None:
    nx, ny, nz = block.shape
    fn(nx, ny, nz, x0, y_idx, z_idx, slab.shape[1], slab.shape[2], slab, block)


def block_add(slab, x0, y_idx, z_idx, block) -> bool:
    """``slab[x0 + a, y_idx[b], z_idx[c]] += block[a, b, c]`` in C
    order (``np.add.at`` order, duplicates included); False = fall back."""
    lib = get_lib()
    if lib is None or not _build.c_arrays(np.float64, block):
        return False
    if not _block_contract_ok(slab, x0, y_idx, z_idx, block.shape):
        return False
    _block_call(lib.mesh_block_add, slab, int(x0), y_idx, z_idx, block)
    return True


def block_take(slab, x0, nx, y_idx, z_idx) -> Optional[np.ndarray]:
    """``slab[x0 + a, y_idx[b], z_idx[c]]`` as a fresh ``(nx, ny, nz)``
    block; ``None`` = fall back."""
    lib = get_lib()
    if lib is None:
        return None
    shape = (int(nx), len(y_idx), len(z_idx))
    if not _block_contract_ok(slab, x0, y_idx, z_idx, shape):
        return None
    block = np.empty(shape)
    _block_call(lib.mesh_block_take, slab, int(x0), y_idx, z_idx, block)
    return block


# -- self-test ----------------------------------------------------------------


def _self_test(lib) -> bool:
    """Bitwise comparison against the numpy reference of every kernel."""
    from repro.mesh.assignment import _gather_numpy, _scatter_numpy, _weights_1d
    from repro.mesh.differentiate import gradient_block
    from repro.meshcomm.convert import _block_add_numpy, _block_take_numpy

    rng = np.random.default_rng(0xFACADE)
    n_mesh = 9
    box = 0.7
    h = box / n_mesh
    pos = rng.random((200, 3)) * box
    pos[0] = 0.0
    pos[1] = box  # exact upper edge: wraps to cell 0
    pos[2] = np.nextafter(box, 0.0)
    mass = rng.random(len(pos)) + 0.5
    u = pos / h
    for scheme in ("ngp", "cic", "tsc"):
        ix, wx = _weights_1d(scheme, u[:, 0])
        iy, wy = _weights_1d(scheme, u[:, 1])
        iz, wz = _weights_1d(scheme, u[:, 2])
        ix %= n_mesh
        iy %= n_mesh
        iz %= n_mesh
        ref = np.zeros((n_mesh, n_mesh, n_mesh))
        _scatter_numpy(ref, ix, iy, iz, wx, wy, wz, mass)
        got = np.zeros((n_mesh, n_mesh, n_mesh))
        _scatter_with(lib, got, ix, iy, iz, wx, wy, wz, mass)
        if not np.array_equal(ref, got):
            return False

        field = rng.standard_normal((n_mesh, n_mesh, n_mesh))
        ref_g = _gather_numpy(field, ix, iy, iz, wx, wy, wz)
        got_g = _gather_with(lib, field.reshape(field.shape + (1,)), 1,
                             ix, iy, iz, wx, wy, wz)[:, 0]
        if not np.array_equal(ref_g, got_g):
            return False

        vec = rng.standard_normal((n_mesh, n_mesh, n_mesh, 3))
        ref_v = _gather_numpy(vec, ix, iy, iz, wx, wy, wz)
        got_v = _gather_with(lib, vec, 3, ix, iy, iz, wx, wy, wz)
        if not np.array_equal(ref_v, got_v):
            return False

        # a ghosted potential block with unequal axes; the stencil
        # indices address it after the trim
        phi = rng.standard_normal((n_mesh + 4, n_mesh + 3, n_mesh + 2))
        trimmed = (ix, iy % (n_mesh - 1), iz % (n_mesh - 2))
        for diff in ("two_point", "four_point"):
            ref_d = _gather_numpy(
                gradient_block(phi, h, diff, trim=2), *trimmed, wx, wy, wz
            )
            got_d = _gather_gradient_with(
                lib, phi, h, diff, 2, *trimmed, wx, wy, wz
            )
            if not np.array_equal(ref_d, got_d):
                return False

    # slab conversion: wrapped ghost planes alias interior ones, and a
    # second message lands on cells the first already touched
    wrapped = np.arange(-2, n_mesh + 2) % n_mesh
    ref_s = np.zeros((4, n_mesh, n_mesh))
    got_s = np.zeros_like(ref_s)
    for x0, nx in ((1, 3), (0, 2)):
        block = rng.standard_normal((nx, len(wrapped), len(wrapped)))
        _block_add_numpy(ref_s, x0, wrapped, wrapped, block)
        _block_call(lib.mesh_block_add, got_s, x0, wrapped, wrapped, block)
        if not np.array_equal(ref_s, got_s):
            return False
        taken = np.full_like(block, np.nan)
        _block_call(lib.mesh_block_take, ref_s, x0, wrapped, wrapped, taken)
        if not np.array_equal(
            _block_take_numpy(ref_s, x0, nx, wrapped, wrapped), taken
        ):
            return False
    return True


__all__ = [
    "available",
    "block_add",
    "block_take",
    "can_gather_gradient",
    "gather",
    "gather_gradient",
    "get_lib",
    "scatter",
]
