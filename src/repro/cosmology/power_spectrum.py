"""Linear matter power spectra.

The paper's initial condition is "the initial dark matter density
fluctuations with the power spectrum containing a sharp cutoff generated
by the free motion of dark matter particles (neutralino) with a mass of
100 GeV" [Green, Hofmann & Schwarz 2004].  We provide:

* the BBKS CDM transfer function with the Sugiyama shape parameter,
* the Green-Hofmann-Schwarz-style free-streaming cutoff
  ``T_fs(k) = (1 - 2/3 (k/k_fs)^2) exp(-(k/k_fs)^2)``,
* sigma8 normalization and growth scaling,

plus unit helpers to express the spectrum in simulation box units.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cosmology.growth import GrowthFactor
from repro.cosmology.params import CosmologyParams

__all__ = ["bbks_transfer", "free_streaming_cutoff", "PowerSpectrum"]


def bbks_transfer(k: np.ndarray, gamma: float) -> np.ndarray:
    """BBKS (1986) CDM transfer function.

    ``k`` in h/Mpc; ``gamma`` is the shape parameter (~ omega_m * h).
    """
    k = np.asarray(k, dtype=np.float64)
    q = np.where(k > 0, k / max(gamma, 1e-30), 1e-30)
    t = np.log(1.0 + 2.34 * q) / (2.34 * q)
    t *= (
        1.0
        + 3.89 * q
        + (16.1 * q) ** 2
        + (5.46 * q) ** 3
        + (6.71 * q) ** 4
    ) ** -0.25
    return np.where(k > 0, t, 1.0)


def free_streaming_cutoff(k: np.ndarray, k_fs: float) -> np.ndarray:
    """Neutralino free-streaming cutoff of the transfer function.

    Following the parametrization of Green, Hofmann & Schwarz (2004):
    damping ``(1 - 2/3 (k/k_fs)^2) exp(-(k/k_fs)^2)`` — a *sharp*
    small-scale cutoff (negative lobe clipped to an exponential tail so
    the power stays non-negative).
    """
    k = np.asarray(k, dtype=np.float64)
    x2 = (k / k_fs) ** 2
    t = (1.0 - (2.0 / 3.0) * x2) * np.exp(-x2)
    # beyond x^2 = 1.5 the prefactor goes negative; the physical
    # spectrum simply keeps damping
    return np.where(t > 0.0, t, np.exp(-x2) * 1e-8)


class PowerSpectrum:
    """Linear matter power spectrum P(k) with optional cutoff.

    Parameters
    ----------
    params:
        Cosmology; sets the transfer-function shape and sigma8.
    k_fs:
        Free-streaming cutoff wavenumber in h/Mpc (``None`` = pure CDM).
        The paper's 100 GeV neutralino corresponds to a comoving
        free-streaming scale of ~1 pc, i.e. ``k_fs ~ 1e6`` h/Mpc.
    transfer:
        Override transfer function ``T(k)``; default BBKS.

    ``P(k) = A k^n_s T(k)^2 T_fs(k)^2`` with A fixed by sigma8.
    """

    def __init__(
        self,
        params: CosmologyParams,
        k_fs: Optional[float] = None,
        transfer: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.params = params
        self.k_fs = k_fs
        if transfer is None:
            gamma = params.gamma_shape
            transfer = lambda k: bbks_transfer(k, gamma)
        self._transfer = transfer
        self.growth = GrowthFactor(params)
        self._amplitude = 1.0
        self._amplitude = (params.sigma8 / self.sigma_r(8.0)) ** 2

    def _shape(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        p = k**self.params.n_s * self._transfer(k) ** 2
        if self.k_fs is not None:
            p = p * free_streaming_cutoff(k, self.k_fs) ** 2
        return p

    def __call__(self, k: np.ndarray, z: float = 0.0) -> np.ndarray:
        """P(k) at redshift z, in (Mpc/h)^3; k in h/Mpc."""
        d = self.growth.D(1.0 / (1.0 + z)) if z != 0.0 else 1.0
        return self._amplitude * self._shape(k) * d**2

    def dimensionless(self, k: np.ndarray, z: float = 0.0) -> np.ndarray:
        """``Delta^2(k) = k^3 P(k) / (2 pi^2)``."""
        k = np.asarray(k, dtype=np.float64)
        return k**3 * self(k, z) / (2.0 * np.pi**2)

    def sigma_r(self, r: float, z: float = 0.0) -> float:
        """RMS linear fluctuation in top-hat spheres of radius r Mpc/h."""
        from scipy.integrate import quad

        def w(x):
            return 3.0 * (np.sin(x) - x * np.cos(x)) / x**3

        def integrand(lnk):
            k = np.exp(lnk)
            return self.dimensionless(k, z) * w(k * r) ** 2

        val, _ = quad(integrand, np.log(1e-5), np.log(1e3 / r), limit=200)
        return float(np.sqrt(val))

    def in_box_units(self, box_mpc_h: float) -> Callable[[np.ndarray], np.ndarray]:
        """P(k) as a function of k in box units (box length = 1).

        Wavenumbers convert as ``k_phys = k_box / L``; the power
        converts as ``P_box = P_phys / L^3`` so that the dimensionless
        variance is preserved.
        """
        if box_mpc_h <= 0:
            raise ValueError("box size must be positive")

        def p_box(k_box, z=0.0):
            k_phys = np.asarray(k_box, dtype=np.float64) / box_mpc_h
            return self(k_phys, z) / box_mpc_h**3

        return p_box
