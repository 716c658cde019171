"""FLRW expansion history.

Code units set ``H0 = 1`` (time unit = 1/H0); :class:`Expansion`
provides E(a), H(a) and the kick/drift time integrals the comoving
leapfrog integrator needs:

    drift(a1, a2) = int dt / a^2 = int da / (a^3 H),
    kick(a1, a2)  = int dt / a   = int da / (a^2 H).
"""

from __future__ import annotations

import numpy as np

from repro.cosmology.params import CosmologyParams

__all__ = ["Expansion"]


class Expansion:
    """Expansion kinematics for a parameter set (H0 = 1 units)."""

    def __init__(self, params: CosmologyParams) -> None:
        # scipy is imported when a run builds its background, inside
        # set-up: a static run, which builds none, never loads it
        from scipy.integrate import quad

        self.params = params
        self._quad = quad

    def E(self, a) -> np.ndarray:
        """Dimensionless Hubble rate ``H(a) / H0``."""
        a = np.asarray(a, dtype=np.float64)
        p = self.params
        return np.sqrt(p.omega_m / a**3 + p.omega_k / a**2 + p.omega_l)

    def H(self, a) -> np.ndarray:
        """Hubble rate in code units (H0 = 1)."""
        return self.E(a)

    def dtda(self, a) -> np.ndarray:
        """dt/da = 1 / (a H)."""
        a = np.asarray(a, dtype=np.float64)
        return 1.0 / (a * self.E(a))

    def drift_factor(self, a1: float, a2: float) -> float:
        """``int_{a1}^{a2} da / (a^3 H)`` — multiplies momentum in a drift."""
        val, _ = self._quad(lambda a: 1.0 / (a**3 * float(self.E(a))), a1, a2)
        return val

    def kick_factor(self, a1: float, a2: float) -> float:
        """``int_{a1}^{a2} da / (a^2 H)`` — multiplies force in a kick."""
        val, _ = self._quad(lambda a: 1.0 / (a**2 * float(self.E(a))), a1, a2)
        return val

    def time_between(self, a1: float, a2: float) -> float:
        """Cosmic time elapsed between scale factors (code units)."""
        val, _ = self._quad(lambda a: float(self.dtda(a)), a1, a2)
        return val

    def comoving_distance(self, z: float) -> float:
        """Comoving distance to redshift z (units of c / H0)."""
        if z < 0:
            raise ValueError("z must be non-negative")
        val, _ = self._quad(lambda zz: 1.0 / float(self.E(1.0 / (1.0 + zz))), 0.0, z)
        return val

    def lookback_time(self, z: float) -> float:
        """Lookback time to redshift z (units of 1/H0)."""
        if z < 0:
            raise ValueError("z must be non-negative")
        return self.time_between(1.0 / (1.0 + z), 1.0)

    @staticmethod
    def a_of_z(z) -> np.ndarray:
        return 1.0 / (1.0 + np.asarray(z, dtype=np.float64))

    @staticmethod
    def z_of_a(a) -> np.ndarray:
        return 1.0 / np.asarray(a, dtype=np.float64) - 1.0
