"""Bindings for the native PM mesh scatter/gather kernels.

:func:`scatter` and :func:`gather` replace the hot ``np.add.at`` /
fancy-index accumulation loops of :mod:`repro.mesh.assignment`; the
per-axis stencil indices and weights are still computed by the (shared)
numpy code, so the two paths agree bit for bit.  Both return a falsy
value when the kernel is unavailable or the inputs are out of contract,
and the caller falls back to the numpy loops.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

import numpy as np

from repro.native import build as _build

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_meshops.c")

_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)


def _ptr(arr, ctype):
    return arr.ctypes.data_as(ctype)


def _declare(lib: ctypes.CDLL) -> None:
    lib.mesh_scatter.restype = None
    lib.mesh_scatter.argtypes = [
        ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, _I64P, _F64P, _F64P, _F64P, _F64P,
        ctypes.c_int64, ctypes.c_int64, _F64P,
    ]
    lib.mesh_gather.restype = None
    lib.mesh_gather.argtypes = [
        ctypes.c_int64, ctypes.c_int64,
        _I64P, _I64P, _I64P, _F64P, _F64P, _F64P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _F64P, _F64P,
    ]


def get_lib() -> Optional[ctypes.CDLL]:
    """The verified mesh-ops library, or ``None`` (checked per call)."""
    return _build.verified_library("mesh", _SRC, _declare, _self_test)


def available() -> bool:
    """Whether the native mesh kernels can be used right now."""
    return get_lib() is not None


def _contract_ok(ix, iy, iz, wx, wy, wz) -> bool:
    for arr in (ix, iy, iz):
        if arr.dtype != np.int64 or not arr.flags["C_CONTIGUOUS"]:
            return False
    for arr in (wx, wy, wz):
        if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
            return False
    return True


def _scatter_with(lib, out, ix, iy, iz, wx, wy, wz, mass) -> None:
    n, s = ix.shape
    lib.mesh_scatter(
        ctypes.c_int64(n), ctypes.c_int64(s),
        _ptr(ix, _I64P), _ptr(iy, _I64P), _ptr(iz, _I64P),
        _ptr(wx, _F64P), _ptr(wy, _F64P), _ptr(wz, _F64P),
        _ptr(mass, _F64P),
        ctypes.c_int64(out.shape[1]), ctypes.c_int64(out.shape[2]),
        _ptr(out, _F64P),
    )


def scatter(out, ix, iy, iz, wx, wy, wz, mass) -> bool:
    """Accumulate stencil deposits into ``out``; False = fall back."""
    lib = get_lib()
    if lib is None:
        return False
    if out.dtype != np.float64 or not out.flags["C_CONTIGUOUS"]:
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
        ctypes.c_int64(n), ctypes.c_int64(s),
        _ptr(ix, _I64P), _ptr(iy, _I64P), _ptr(iz, _I64P),
        _ptr(wx, _F64P), _ptr(wy, _F64P), _ptr(wz, _F64P),
        ctypes.c_int64(mesh3.shape[1]), ctypes.c_int64(mesh3.shape[2]),
        ctypes.c_int64(ncomp),
        _ptr(mesh3, _F64P), _ptr(out, _F64P),
    )
    return out


def gather(mesh, ix, iy, iz, wx, wy, wz) -> Optional[np.ndarray]:
    """Interpolated values ``(N,) + mesh.shape[3:]``; ``None`` = fall back.

    ``mesh`` may carry trailing component axes; they are flattened for
    the kernel and restored on the result.
    """
    lib = get_lib()
    if lib is None:
        return None
    if mesh.dtype != np.float64 or not mesh.flags["C_CONTIGUOUS"]:
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


# -- self-test ----------------------------------------------------------------


def _self_test(lib) -> bool:
    """Bitwise comparison against the numpy scatter/gather loops."""
    from repro.mesh.assignment import _gather_numpy, _scatter_numpy, _weights_1d

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
    return True


__all__ = ["available", "gather", "get_lib", "scatter"]
