"""Mass assignment and mesh interpolation kernels.

Implements the three classic Hockney & Eastwood assignment schemes:

* NGP (nearest grid point, order 1, 1 point),
* CIC (cloud in cell, order 2, 8 points),
* TSC (triangular shaped cloud, order 3, 27 points — used by GreeM:
  "a particle interacts with 27 grid points").

Assignment and interpolation use the *same* window so that the PM force
has no self-force on an isolated particle (to interpolation accuracy).
Grid points sit at ``i * h`` for ``i = 0 .. n-1`` with ``h = box / n``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.mesh.differentiate import gradient_block
from repro.native import meshops as _native_mesh

__all__ = [
    "assignment_order",
    "assign_mass",
    "assign_mass_local",
    "interpolate_mesh",
    "interpolate_local",
    "differences_at_gather",
    "window_ft",
]

_ORDERS = {"ngp": 1, "cic": 2, "tsc": 3}


def assignment_order(scheme: str) -> int:
    """Order p of the scheme (the window is a p-fold top-hat convolution)."""
    try:
        return _ORDERS[scheme]
    except KeyError:
        raise ValueError(f"unknown assignment scheme {scheme!r}") from None


def _weights_1d(scheme: str, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis stencil indices and weights.

    Parameters
    ----------
    u:
        Particle coordinate in grid units (``x / h``), shape (N,).

    Returns
    -------
    idx:
        Integer grid indices, shape (N, S) where S is the stencil size.
    w:
        Corresponding weights, shape (N, S); each row sums to 1.
    """
    if scheme == "ngp":
        base = np.floor(u + 0.5).astype(np.int64)
        return base[:, None], np.ones((len(u), 1))
    if scheme == "cic":
        base = np.floor(u).astype(np.int64)
        f = u - base
        idx = np.stack([base, base + 1], axis=1)
        w = np.stack([1.0 - f, f], axis=1)
        return idx, w
    if scheme == "tsc":
        base = np.floor(u + 0.5).astype(np.int64)  # nearest grid point
        d = u - base  # in [-0.5, 0.5)
        idx = np.stack([base - 1, base, base + 1], axis=1)
        w = np.stack(
            [
                0.5 * (0.5 - d) ** 2,
                0.75 - d * d,
                0.5 * (0.5 + d) ** 2,
            ],
            axis=1,
        )
        return idx, w
    raise ValueError(f"unknown assignment scheme {scheme!r}")


def _scatter_numpy(out, ix, iy, iz, wx, wy, wz, mass) -> None:
    """Reference deposit loops (also the native kernel's self-test
    oracle): ``np.add.at`` accumulates strictly sequentially, one
    stencil offset at a time."""
    s = ix.shape[1]
    for a in range(s):
        for b in range(s):
            wab = wx[:, a] * wy[:, b]
            ia = ix[:, a]
            ib = iy[:, b]
            for c in range(s):
                np.add.at(out, (ia, ib, iz[:, c]), mass * wab * wz[:, c])


def _gather_numpy(mesh, ix, iy, iz, wx, wy, wz) -> np.ndarray:
    """Reference interpolation loops (native self-test oracle)."""
    s = ix.shape[1]
    out = np.zeros((len(ix),) + mesh.shape[3:])
    for a in range(s):
        for b in range(s):
            wab = wx[:, a] * wy[:, b]
            ia = ix[:, a]
            ib = iy[:, b]
            for c in range(s):
                w = wab * wz[:, c]
                vals = mesh[ia, ib, iz[:, c]]
                if vals.ndim > 1:
                    out += w[:, None] * vals
                else:
                    out += w * vals
    return out


def _scatter(out, ix, iy, iz, wx, wy, wz, mass) -> None:
    """Deposit through the native kernel when available, else numpy."""
    if _native_mesh.scatter(out, ix, iy, iz, wx, wy, wz, mass):
        return
    _scatter_numpy(out, ix, iy, iz, wx, wy, wz, mass)


def _gather(mesh, ix, iy, iz, wx, wy, wz) -> np.ndarray:
    """Interpolate through the native kernel when available, else numpy."""
    out = _native_mesh.gather(mesh, ix, iy, iz, wx, wy, wz)
    if out is not None:
        return out
    return _gather_numpy(mesh, ix, iy, iz, wx, wy, wz)


def _gather_gradient(phi, h, scheme, trim, ix, iy, iz, wx, wy, wz) -> np.ndarray:
    """Interpolated finite-difference gradient of a potential block:
    differenced cell by cell inside the native gather when available,
    else by storing ``gradient_block`` and gathering from it."""
    out = _native_mesh.gather_gradient(phi, h, scheme, trim, ix, iy, iz, wx, wy, wz)
    if out is not None:
        return out
    return _gather(gradient_block(phi, h, scheme, trim), ix, iy, iz, wx, wy, wz)


def differences_at_gather(phi: np.ndarray, difference: str, trim: int) -> bool:
    """Whether ``interpolate_local(phi, ..., trim=trim,
    difference=difference)`` differences inside the native gather, i.e.
    without ever storing the ``phi.shape + (3,)`` gradient block.

    A solver that charges differencing and interpolation to separate
    ledger rows asks this first and, on ``False``, takes
    ``gradient_block`` itself under the differencing row.
    """
    return _native_mesh.can_gather_gradient(phi, difference, trim)


def _reimage_local(li, axis_len, n) -> np.ndarray:
    """Fold stencil indices that fell off the local mesh by a full
    period back inside.

    A particle sitting exactly at the box edge (or pushed there by the
    float rounding of ``x / h``, so that ``u == n``) lands its stencil
    one period off the provisioned ghost layers.  Shifting such an
    index by ``±n`` targets the same global cell — local cell ``i``
    means global cell ``(lo - ghost + i) mod n`` — so the fold is
    exact; anything still outside after one period is a genuine domain
    violation and raises as before.
    """
    low = li < 0
    high = li >= axis_len
    if low.any() or high.any():
        li = np.where(low & (li + n < axis_len), li + n, li)
        li = np.where(high & (li - n >= 0), li - n, li)
    return li


def assign_mass(
    pos: np.ndarray,
    mass: np.ndarray,
    n: int,
    box: float = 1.0,
    scheme: str = "tsc",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Assign particle masses to a periodic ``(n, n, n)`` mesh.

    Returns the *mass* mesh (sum of assigned masses per cell); divide by
    the cell volume ``(box/n)**3`` for density.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("pos must be (N, 3)")
    if out is None:
        out = np.zeros((n, n, n))
    elif out.shape != (n, n, n):
        raise ValueError("out has wrong shape")

    h = box / n
    u = pos / h
    ix, wx = _weights_1d(scheme, u[:, 0])
    iy, wy = _weights_1d(scheme, u[:, 1])
    iz, wz = _weights_1d(scheme, u[:, 2])
    ix %= n
    iy %= n
    iz %= n
    _scatter(out, ix, iy, iz, wx, wy, wz, mass)
    return out


def interpolate_mesh(
    mesh: np.ndarray,
    pos: np.ndarray,
    box: float = 1.0,
    scheme: str = "tsc",
) -> np.ndarray:
    """Interpolate a periodic mesh field at particle positions.

    ``mesh`` may have trailing component axes, e.g. ``(n, n, n)`` for a
    scalar field or ``(n, n, n, 3)`` for a force mesh; the result has
    shape ``(N,) + mesh.shape[3:]``.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = mesh.shape[0]
    if mesh.shape[:3] != (n, n, n):
        raise ValueError("mesh must be (n, n, n, ...)")
    h = box / n
    u = pos / h
    ix, wx = _weights_1d(scheme, u[:, 0])
    iy, wy = _weights_1d(scheme, u[:, 1])
    iz, wz = _weights_1d(scheme, u[:, 2])
    ix %= n
    iy %= n
    iz %= n
    return _gather(mesh, ix, iy, iz, wx, wy, wz)


def assign_mass_local(
    pos: np.ndarray,
    mass: np.ndarray,
    region,
    box: float = 1.0,
    scheme: str = "tsc",
) -> np.ndarray:
    """Assign masses onto a process-local (ghosted, unwrapped) mesh.

    ``region`` is a :class:`repro.meshcomm.slab.LocalMeshRegion`; all
    particles must lie inside the region's interior cells (their
    assignment stencil then fits within the ghost layers).  No periodic
    wrapping happens here — ghost contributions are folded in by the
    mesh conversion step.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    out = region.allocate()
    if len(pos) == 0:
        return out
    h = box / region.n
    u = pos / h
    origin = np.asarray(region.lo) - region.ghost
    idx_w = [_weights_1d(scheme, u[:, d]) for d in range(3)]
    locals_ = []
    for d, (idx, _) in enumerate(idx_w):
        li = _reimage_local(idx - origin[d], out.shape[d], region.n)
        if li.min() < 0 or li.max() >= out.shape[d]:
            raise ValueError(
                f"particle assignment stencil leaves the local mesh along "
                f"dim {d}; increase ghosts or fix the domain"
            )
        locals_.append(li)
    (_, wx), (_, wy), (_, wz) = idx_w
    lx, ly, lz = locals_
    _scatter(out, lx, ly, lz, wx, wy, wz, mass)
    return out


def interpolate_local(
    mesh: np.ndarray,
    pos: np.ndarray,
    region,
    box: float = 1.0,
    scheme: str = "tsc",
    trim: int = 0,
    difference: str | None = None,
) -> np.ndarray:
    """Interpolate a process-local mesh field at local particle positions.

    ``mesh`` has the region's array shape minus ``trim`` cells on every
    face (e.g. a force mesh computed from a ghosted potential).

    With ``difference`` (``"two_point"`` / ``"four_point"``) ``mesh`` is
    instead the ghosted *potential*, untrimmed, and the result is its
    interpolated finite-difference gradient, bit for bit
    ``interpolate_local(gradient_block(mesh, box / region.n, difference,
    trim), pos, region, box, scheme, trim)``.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if difference is None:
        shape, tail = mesh.shape[:3], mesh.shape[3:]
    else:
        if mesh.ndim != 3:
            raise ValueError("the potential to difference must be a 3-D block")
        shape, tail = tuple(s - 2 * trim for s in mesh.shape), (3,)
    if len(pos) == 0:
        return np.zeros((0,) + tail)
    h = box / region.n
    u = pos / h
    origin = np.asarray(region.lo) - region.ghost + trim
    idx_w = [_weights_1d(scheme, u[:, d]) for d in range(3)]
    locals_ = []
    for d, (idx, _) in enumerate(idx_w):
        li = _reimage_local(idx - origin[d], shape[d], region.n)
        if li.min() < 0 or li.max() >= shape[d]:
            raise ValueError(
                f"interpolation stencil leaves the local mesh along dim {d}"
            )
        locals_.append(li)
    (_, wx), (_, wy), (_, wz) = idx_w
    lx, ly, lz = locals_
    if difference is None:
        return _gather(mesh, lx, ly, lz, wx, wy, wz)
    return _gather_gradient(mesh, h, difference, trim, lx, ly, lz, wx, wy, wz)


def window_ft(scheme: str, k: np.ndarray, h: float) -> np.ndarray:
    """Fourier transform of the 1-D assignment window.

    ``W(k) = sinc(k h / 2) ** p`` with ``p`` the assignment order; used
    for the deconvolution correction in the PM Green's function.
    """
    p = assignment_order(scheme)
    arg = np.asarray(k) * h / 2.0
    # np.sinc(x) = sin(pi x)/(pi x)
    return np.sinc(arg / np.pi) ** p
