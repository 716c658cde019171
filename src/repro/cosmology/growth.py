"""Linear growth factor of matter perturbations.

Uses the standard integral solution (valid for Lambda-CDM, no
radiation):

    D(a) ~ H(a) * int_0^a da' / (a' H(a'))^3,

normalized so D(1) = 1, plus the logarithmic growth rate
``f = dlnD/dlna`` entering the Zel'dovich velocities.
"""

from __future__ import annotations

import numpy as np

from repro.cosmology.expansion import Expansion
from repro.cosmology.params import CosmologyParams

__all__ = ["GrowthFactor"]


class GrowthFactor:
    """Linear growth factor D(a), normalized to D(1) = 1."""

    def __init__(self, params: CosmologyParams) -> None:
        self.params = params
        self.expansion = Expansion(params)
        self._norm = 1.0
        self._norm = 1.0 / self._unnormalized(1.0)

    def _unnormalized(self, a: float) -> float:
        from scipy.integrate import quad

        E = self.expansion.E
        integral, _ = quad(
            lambda x: x ** (-3.0) * float(E(x)) ** (-3.0), 1e-8, float(a)
        )
        return 2.5 * self.params.omega_m * float(E(a)) * integral

    def D(self, a) -> np.ndarray:
        """Growth factor at scale factor(s) ``a``."""
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        out = np.array([self._unnormalized(x) * self._norm for x in a])
        return out if out.size > 1 else out[0]

    def f(self, a) -> np.ndarray:
        """Growth rate ``dlnD / dlna`` (numerical derivative)."""
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        h = 1e-5
        lo = np.maximum(a * (1 - h), 1e-8)
        hi = a * (1 + h)
        out = np.atleast_1d(
            (np.log(self.D(hi)) - np.log(self.D(lo))) / (np.log(hi) - np.log(lo))
        )
        return out if out.size > 1 else float(out[0])

    def D_ratio(self, a_from: float, a_to: float) -> float:
        """Linear growth between two epochs: D(a_to) / D(a_from)."""
        return float(self.D(a_to)) / float(self.D(a_from))
