"""Finite-difference gradients on periodic meshes.

The paper obtains mesh forces "by the four point finite difference
algorithm from the potential"; the two-point scheme and an exact
spectral derivative are provided for comparison/ablation.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.fft import irfft3, rfft3

__all__ = ["gradient_mesh", "gradient_block"]


def _axis_diff_two_point(phi: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(phi, -1, axis=axis) - np.roll(phi, 1, axis=axis)) / (2.0 * h)


def _axis_diff_four_point(phi: np.ndarray, axis: int, h: float) -> np.ndarray:
    p1 = np.roll(phi, -1, axis=axis)
    m1 = np.roll(phi, 1, axis=axis)
    p2 = np.roll(phi, -2, axis=axis)
    m2 = np.roll(phi, 2, axis=axis)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


def gradient_mesh(
    phi: np.ndarray, box: float = 1.0, scheme: str = "four_point"
) -> np.ndarray:
    """Gradient of a periodic scalar mesh.

    Parameters
    ----------
    phi:
        ``(n, n, n)`` potential mesh.
    scheme:
        ``"two_point"``, ``"four_point"`` (the paper) or ``"spectral"``.

    Returns
    -------
    ``(n, n, n, 3)`` gradient mesh.  The *force* mesh is ``-gradient``.
    """
    n = phi.shape[0]
    if phi.shape != (n, n, n):
        raise ValueError("phi must be a cubic mesh")
    h = box / n
    if scheme == "two_point":
        diff = _axis_diff_two_point
    elif scheme == "four_point":
        diff = _axis_diff_four_point
    elif scheme == "spectral":
        return _spectral_gradient(phi, box)
    else:
        raise ValueError(f"unknown differencing scheme {scheme!r}")
    return np.stack([diff(phi, ax, h) for ax in range(3)], axis=-1)


def gradient_block(
    phi: np.ndarray, h: float, scheme: str = "four_point", trim: int = 2
) -> np.ndarray:
    """Gradient of a non-periodic (ghosted) block by slicing.

    The result covers the input minus ``trim`` cells on every face
    (``trim`` must be >= the stencil half-width: 1 for two-point, 2 for
    four-point).  Used on process-local ghosted potential meshes, where
    periodic wrapping is already encoded in the ghost layers.
    """
    need = {"two_point": 1, "four_point": 2}
    if scheme not in need:
        raise ValueError(f"unknown differencing scheme {scheme!r}")
    if trim < need[scheme]:
        raise ValueError(f"trim must be >= {need[scheme]} for {scheme}")
    t = trim
    core = tuple(slice(t, s - t) for s in phi.shape)
    out = np.empty(tuple(s - 2 * t for s in phi.shape) + (3,))
    for ax in range(3):
        def sl(off):
            idx = list(core)
            idx[ax] = slice(t + off, phi.shape[ax] - t + off)
            return phi[tuple(idx)]

        if scheme == "two_point":
            out[..., ax] = (sl(1) - sl(-1)) / (2.0 * h)
        else:
            out[..., ax] = (8.0 * (sl(1) - sl(-1)) - (sl(2) - sl(-2))) / (12.0 * h)
    return out


def _spectral_gradient(phi: np.ndarray, box: float) -> np.ndarray:
    n = phi.shape[0]
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=box / n)
    kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=box / n)
    ft = rfft3(phi)
    out = np.empty(phi.shape + (3,))
    for ax, k in enumerate(
        (k1[:, None, None], k1[None, :, None], kz[None, None, :])
    ):
        out[..., ax] = irfft3(1j * k * ft, n)
    return out
