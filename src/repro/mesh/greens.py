"""k-space Green's functions for the PM Poisson solver.

The potential of the long-range force component is, in Fourier space,

    phi(k) = -4 pi G / k^2 * S_split(k) * rho(k) / W(k)^2

where ``S_split`` is the force split's k-space factor (``S2(k rcut)^2``
for the paper's split, 1 for a plain PM solver) and ``W`` the assignment
window whose square deconvolves the smoothing applied once by mass
assignment and once by force interpolation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mesh.assignment import window_ft

__all__ = ["kvectors", "build_greens_function", "build_optimal_greens_function"]


def kvectors(n: int, box: float = 1.0, rfft: bool = True):
    """Angular wavenumbers of a cubic FFT mesh.

    Returns ``(kx, ky, kz)`` broadcastable to the (r)FFT mesh shape,
    each in physical units (``2 pi m / box``).
    """
    # fftfreq(n, d) returns cycles per unit length; multiply by 2 pi:
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=box / n)
    if rfft:
        kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=box / n)
    else:
        kz = k1
    return (
        k1[:, None, None],
        k1[None, :, None],
        kz[None, None, :],
    )


def build_greens_function(
    n: int,
    box: float = 1.0,
    split=None,
    G: float = 1.0,
    assignment: Optional[str] = "tsc",
    deconvolve: int = 2,
    rfft: bool = True,
    x_range: Optional[Tuple[int, int]] = None,
    y_range: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Precompute the Green's function mesh ``G(k)``.

    Multiplying the FFT of the mass-density mesh by this array yields
    the FFT of the long-range potential.  The DC (k = 0) mode is zero,
    which implements the neutralizing uniform background of periodic
    gravity.

    Parameters
    ----------
    split:
        Force split providing ``long_range_kspace_factor``; ``None``
        solves for the full ``1/r^2`` gravity (plain PM).
    assignment:
        Scheme whose window is deconvolved (``None`` disables).
    deconvolve:
        Power of the window divided out: 2 compensates assignment and
        interpolation (correct for TreePM, where the split factor
        suppresses the Nyquist modes that the division amplifies); 1 is
        the safe choice for a pure-PM solver (dividing twice without a
        k-space cutoff amplifies mesh-scale aliasing into visible
        ringing); 0 disables deconvolution.
    x_range, y_range:
        ``[start, stop)`` of the x- and y-planes to build (default: all
        ``n``).  A distributed FFT rank builds only the block it holds;
        every element is computed by the same operations as in the full
        mesh, so the block equals that slice of it bit for bit.
    """
    if deconvolve not in (0, 1, 2):
        raise ValueError("deconvolve must be 0, 1 or 2")
    xs = slice(*(x_range or (0, n)))
    ys = slice(*(y_range or (0, n)))
    kx, ky, kz = kvectors(n, box, rfft=rfft)
    kx, ky = kx[xs], ky[:, ys]
    k2 = kx**2 + ky**2 + kz**2
    # the split factor reads |k| before the division overwrites k2
    factor = None
    if split is not None:
        factor = split.long_range_kspace_factor(np.sqrt(k2))
    with np.errstate(divide="ignore", invalid="ignore"):
        gk = np.divide(-4.0 * np.pi * G, k2, out=k2)
    if xs.start == ys.start == 0:  # the block holds k = 0
        gk[0, 0, 0] = 0.0
    if factor is not None:
        gk *= factor

    if deconvolve and assignment is not None:
        h = box / n
        w = (
            window_ft(assignment, kx, h)
            * window_ft(assignment, ky, h)
            * window_ft(assignment, kz, h)
        )
        # the window never vanishes on the grid (|k h / 2| <= pi/2 < pi)
        w **= deconvolve
        gk /= w
    return gk


def _differencing_transfer(k1: np.ndarray, h: float, scheme: str) -> np.ndarray:
    """Effective wavenumber d(k) of the real-space gradient stencil
    (the force transfer is ``i d(k)``)."""
    if scheme == "two_point":
        return np.sin(k1 * h) / h
    if scheme == "four_point":
        return (8.0 * np.sin(k1 * h) - np.sin(2.0 * k1 * h)) / (6.0 * h)
    if scheme == "spectral":
        return k1
    raise ValueError(f"unknown differencing scheme {scheme!r}")


def build_optimal_greens_function(
    n: int,
    box: float = 1.0,
    split=None,
    G: float = 1.0,
    assignment: str = "tsc",
    differencing: str = "four_point",
    alias_range: int = 1,
) -> np.ndarray:
    """Hockney & Eastwood's optimal influence function.

    Minimizes the mean-square force error of the full mesh pipeline —
    assignment window, alias images, gradient stencil, interpolation —
    jointly, instead of naively deconvolving the window:

        G_opt(k) = -4 pi G *
            sum_m  W^2(k_m) (d(k).k_m) S^2(k_m) / k_m^2
            -----------------------------------------------
            |d(k)|^2 * ( sum_m W^2(k_m) )^2

    where ``k_m = k + 2 pi m n / box`` are the alias images
    (``|m|_inf <= alias_range``), W the assignment window, S the force
    split's k-space factor and ``i d(k)`` the transfer of the chosen
    differencing scheme.  In the alias-free, exact-derivative limit it
    reduces to the standard deconvolved Green's function.

    Use with :class:`repro.mesh.poisson.PMSolver` via
    ``greens_mode="optimal"``; the raw (non-deconvolved) density is the
    matching input.
    """
    if alias_range < 0:
        raise ValueError("alias_range must be >= 0")
    kx, ky, kz = kvectors(n, box, rfft=True)
    h = box / n
    dx = _differencing_transfer(kx, h, differencing)
    dy = _differencing_transfer(ky, h, differencing)
    dz = _differencing_transfer(kz, h, differencing)
    d2 = dx**2 + dy**2 + dz**2

    two_pi_n = 2.0 * np.pi * n / box
    numer = np.zeros(kx.shape[0:1] + ky.shape[1:2] + kz.shape[2:3])
    wsum = np.zeros_like(numer)
    shifts = range(-alias_range, alias_range + 1)
    for mx in shifts:
        kxm = kx + two_pi_n * mx
        wx2 = window_ft(assignment, kxm, h) ** 2
        for my in shifts:
            kym = ky + two_pi_n * my
            wy2 = window_ft(assignment, kym, h) ** 2
            for mz in shifts:
                kzm = kz + two_pi_n * mz
                wz2 = window_ft(assignment, kzm, h) ** 2
                w2 = wx2 * wy2 * wz2
                km2 = kxm**2 + kym**2 + kzm**2
                with np.errstate(divide="ignore", invalid="ignore"):
                    s2 = (
                        split.long_range_kspace_factor(np.sqrt(km2))
                        if split is not None
                        else 1.0
                    )
                    term = w2 * (dx * kxm + dy * kym + dz * kzm) * s2 / km2
                term = np.where(km2 > 0.0, term, 0.0)
                numer += term
                wsum += w2

    with np.errstate(divide="ignore", invalid="ignore"):
        gk = -4.0 * np.pi * G * numer / (d2 * wsum**2)
    gk[~np.isfinite(gk)] = 0.0
    gk[0, 0, 0] = 0.0
    return gk
