"""Force-splitting shapes for the TreePM method.

The paper splits the density of a point mass into a PM part with the S2
profile of Hockney & Eastwood (a linearly decreasing sphere of diameter
``rcut``, eq. 1) and a PP part that is the residual.  By Newton's second
theorem the particle-particle interaction then vanishes beyond ``rcut``.

The short-range force between two particles is

    f = G m (r_j - r_i) / |r_j - r_i|^3 * g_P3M(2 |r_j - r_i| / rcut)

with the cutoff function ``g_P3M`` of eq. (3), a piecewise polynomial in
``xi = 2 r / rcut`` with a branch at ``xi = 1`` expressed through
``zeta = max(0, xi - 1)`` — the paper's FMA/SIMD-friendly form.

The long-range (PM) force is computed in Fourier space with the Green's
function ``-4 pi G / k^2 * S(k)^2`` where ``S`` is the S2 shape factor;
the product of the two pieces reconstructs exact ``1/r^2`` gravity,
which :class:`repro.forces.ewald.EwaldSummation` verifies.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "gp3m_cutoff",
    "gp3m_potential_cutoff",
    "s2_shape_factor",
    "gaussian_force_cutoff",
    "gaussian_shape_factor",
    "S2ForceSplit",
    "GaussianForceSplit",
    "get_split",
]

# Polynomial g_A(xi) = 1 - 8/5 xi^3 + 8/5 xi^5 - 1/2 xi^6 - 12/35 xi^7
#                      + 3/20 xi^8           (valid on 0 <= xi <= 1)
_GA_COEF = np.array(
    [1.0, 0.0, 0.0, -8.0 / 5.0, 0.0, 8.0 / 5.0, -0.5, -12.0 / 35.0, 3.0 / 20.0]
)
# Correction subtracted on 1 <= xi <= 2:
#   (xi - 1)^6 * (3/35 + 18/35 xi + 1/5 xi^2)
_ZETA6 = npoly.polypow([-1.0, 1.0], 6)
_QB_COEF = np.array([3.0 / 35.0, 18.0 / 35.0, 1.0 / 5.0])
_CORR_COEF = npoly.polymul(_ZETA6, _QB_COEF)


def gp3m_cutoff(xi: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The short-range force cutoff function ``g_P3M`` of eq. (3).

    Parameters
    ----------
    xi:
        Scaled separation ``2 r / rcut`` (array or scalar).
    dtype:
        Precision of the evaluation: every operation rounds to it.
        ``np.float32`` is the single-precision sweep's cutoff.

    Returns
    -------
    ``g_P3M(xi)``: 1 at xi=0, monotonically decreasing to 0 at xi=2,
    and exactly 0 for xi > 2.
    """
    xi = np.asarray(xi, dtype=dtype)
    scalar = xi.ndim == 0
    if scalar:
        xi = xi.reshape(1)
    # Horner evaluation of the paper's nested form (FMA-shaped), run
    # in-place on a handful of scratch arrays: this sits on the force
    # kernel's hot path and is otherwise allocation-bound.  The powers
    # are expanded into explicit multiply chains (xi2 = xi*xi,
    # xi3 = xi*xi2, zeta6 = (z2*z2)*z2) so the whole function is a
    # fixed sequence of individually rounded IEEE operations; in float32
    # it is the sequence the native plan-sweep kernel
    # (``_plansweep.c::gp3m_w``) replays bitwise.
    g = xi * (3.0 / 20.0)
    g += -12.0 / 35.0
    g *= xi
    g += -0.5
    g *= xi
    g += 8.0 / 5.0
    xi2 = xi * xi
    g *= xi2
    g += -8.0 / 5.0
    xi2 *= xi  # xi3
    g *= xi2
    g += 1.0
    q = xi * (1.0 / 5.0)
    q += 18.0 / 35.0
    q *= xi
    q += 3.0 / 35.0
    zeta = xi - 1.0
    np.maximum(zeta, 0.0, out=zeta)
    zeta *= zeta  # z2
    z6 = zeta * zeta
    z6 *= zeta
    q *= z6
    g -= q
    np.copyto(g, 0.0, where=xi >= 2.0)
    return g.reshape(()) if scalar else g


def _build_potential_pieces():
    """Exact antiderivatives for the short-range potential cutoff.

    The short-range potential is ``phi_s(r) = G m (2/rcut) * H(xi)`` with
    ``H(xi) = int_xi^2 g(u) / u^2 du``.  ``g/u^2`` is ``u^-2`` plus
    polynomials (and, on [1,2], also ``c1/u``), all integrable in closed
    form.  We precompute the polynomial antiderivatives once at import.
    """
    # Piece A on [0, 1]: g_A(u)/u^2 = u^-2 + polyA(u) where
    # polyA = (g_A - 1)/u^2, a polynomial starting at u^1.
    polyA = _GA_COEF[3:].copy()  # coefficients of u^1 .. u^6 after /u^2
    polyA = np.concatenate([[0.0], polyA])  # restore: degree array for u^0..
    intA = npoly.polyint(polyA)

    # Piece B on [1, 2]: additionally subtract corr(u)/u^2 where
    # corr = (u-1)^6 (3/35 + 18/35 u + 1/5 u^2), degree 8.
    # Split corr(u) = c0 + c1 u + u^2 * polyB(u):
    c0 = _CORR_COEF[0]
    c1 = _CORR_COEF[1]
    polyB = _CORR_COEF[2:]
    intB = npoly.polyint(polyB)
    return intA, c0, c1, intB


_INT_A, _C0, _C1, _INT_B = _build_potential_pieces()


def _FA(u):
    """Antiderivative of ``g_A(u) / u^2``."""
    return -1.0 / u + npoly.polyval(u, _INT_A)


def _FC(u):
    """Antiderivative of ``corr(u) / u^2`` (subtracted on [1, 2])."""
    return -_C0 / u + _C1 * np.log(u) + npoly.polyval(u, _INT_B)


def gp3m_potential_cutoff(xi: np.ndarray) -> np.ndarray:
    """Potential counterpart of :func:`gp3m_cutoff`.

    Returns ``h(xi)`` such that the short-range pair potential is
    ``phi_s(r) = -G m h(xi) / r`` with ``xi = 2 r / rcut``; ``h(0) = 1``
    (pure Newtonian) and ``h(xi) = 0`` for ``xi >= 2``.

    ``h(xi) = xi * int_xi^2 g(u)/u^2 du``; the ``1/u`` singularity of
    the antiderivative is multiplied out analytically so the expression
    stays stable down to ``xi = 0``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    xi_c = np.clip(xi, 0.0, 2.0)
    # on [0, 1]:  xi * (FA(1) - FA(xi)) = xi*FA(1) + 1 - xi*P(xi)
    # (the -1/u of FA cancels against the leading Newtonian 1/xi)
    below = np.clip(xi_c, None, 1.0)
    part1 = xi * _FA(np.float64(1.0)) + 1.0 - xi * npoly.polyval(below, _INT_A)
    part1 = np.where(xi_c >= 1.0, 0.0, part1)
    # on [max(xi,1), 2]: regular integrand, evaluate directly
    lower = np.maximum(xi_c, 1.0)
    part2 = (_FA(np.float64(2.0)) - _FA(lower)) - (
        _FC(np.float64(2.0)) - _FC(lower)
    )
    h = part1 + xi * part2
    return np.where(xi >= 2.0, 0.0, h)


def s2_shape_factor(x: np.ndarray) -> np.ndarray:
    """Fourier transform of the (unit-mass) S2 density shape of eq. (1).

    ``x = k * rcut`` (the profile's support radius is ``rcut / 2``):

        S(k) = 12 / u^4 * (2 - 2 cos u - u sin u),   u = k rcut / 2.

    ``S(0) = 1``; for small ``u`` a series expansion avoids catastrophic
    cancellation.  Verified in tests against direct quadrature of
    ``4 pi int r^2 rho_S2(r) sinc(k r) dr``.
    """
    u = np.asarray(x, dtype=np.float64) / 2.0
    small = np.abs(u) < 0.1
    us = np.where(small, 1.0, u)  # avoid division by ~0 in the exact branch
    exact = 12.0 / us**4 * (2.0 - 2.0 * np.cos(us) - us * np.sin(us))
    series = 1.0 - u**2 / 15.0 + u**4 / 560.0
    return np.where(small, series, exact)


# ---------------------------------------------------------------------------
# Gaussian (GADGET-style) split, provided as a baseline/ablation.
# ---------------------------------------------------------------------------

def gaussian_force_cutoff(r: np.ndarray, rs: float) -> np.ndarray:
    """Short-range force factor of the Gaussian split.

    ``f_short = G m / r^2 * [erfc(r / 2 rs) + (r / rs sqrt(pi)) exp(-r^2/4rs^2)]``
    """
    from scipy.special import erfc

    r = np.asarray(r, dtype=np.float64)
    u = r / (2.0 * rs)
    return erfc(u) + (2.0 / np.sqrt(np.pi)) * u * np.exp(-(u**2))


def gaussian_shape_factor(x: np.ndarray) -> np.ndarray:
    """k-space suppression of the Gaussian split: ``exp(-(k rs)^2)``.

    ``x = k * rs``.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-(x**2))


# ---------------------------------------------------------------------------
# Split objects: a uniform interface used by the PP kernel and the PM solver.
# ---------------------------------------------------------------------------

class S2ForceSplit:
    """The paper's S2/P3M force split with cutoff radius ``rcut``.

    Short range: multiply Newtonian pair force by
    ``gp3m_cutoff(2 r / rcut)``; identically zero beyond ``rcut``.
    Long range: multiply the k-space Green's function by
    ``s2_shape_factor(k rcut)^2``.
    """

    name = "s2"
    #: ``short_range_factor`` returns exactly 0.0 for any r past
    #: ``cutoff_radius`` — consumers may skip those pairs entirely
    #: without changing a bit of the result.
    exact_cutoff = True

    def __init__(self, rcut: float) -> None:
        if rcut <= 0:
            raise ValueError("rcut must be positive")
        self.rcut = float(rcut)

    def short_range_factor(self, r: np.ndarray) -> np.ndarray:
        """Dimensionless force factor g(r) multiplying G m / r^2."""
        return gp3m_cutoff(2.0 * np.asarray(r) / self.rcut)

    def short_range_potential_factor(self, r: np.ndarray) -> np.ndarray:
        """Dimensionless potential factor h(r) multiplying -G m / r."""
        return gp3m_potential_cutoff(2.0 * np.asarray(r) / self.rcut)

    def long_range_kspace_factor(self, k: np.ndarray) -> np.ndarray:
        """Multiplier of -4 pi G / k^2 in the PM Green's function."""
        return s2_shape_factor(np.asarray(k) * self.rcut) ** 2

    @property
    def cutoff_radius(self) -> float:
        """Radius beyond which the short-range force is exactly zero."""
        return self.rcut

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"S2ForceSplit(rcut={self.rcut})"


class GaussianForceSplit:
    """GADGET-style Gaussian force split with scale radius ``rs``.

    The short-range force is not compactly supported; ``cutoff_radius``
    reports the radius where the factor drops below ``tail_eps``.
    """

    name = "gaussian"
    #: the factor is clamped to exactly 0.0 beyond ``cutoff_radius``
    exact_cutoff = True

    def __init__(self, rs: float, tail_eps: float = 1.0e-5) -> None:
        if rs <= 0:
            raise ValueError("rs must be positive")
        self.rs = float(rs)
        self.tail_eps = float(tail_eps)
        self._rcut_eff = self._effective_cutoff()

    def _effective_cutoff(self) -> float:
        from scipy.optimize import brentq

        f = lambda r: gaussian_force_cutoff(np.float64(r), self.rs) - self.tail_eps
        return float(brentq(f, 1e-8 * self.rs, 50.0 * self.rs))

    def short_range_factor(self, r: np.ndarray) -> np.ndarray:
        g = gaussian_force_cutoff(np.asarray(r), self.rs)
        return np.where(np.asarray(r) > self._rcut_eff, 0.0, g)

    def short_range_potential_factor(self, r: np.ndarray) -> np.ndarray:
        from scipy.special import erfc

        r = np.asarray(r, dtype=np.float64)
        return erfc(r / (2.0 * self.rs))

    def long_range_kspace_factor(self, k: np.ndarray) -> np.ndarray:
        return gaussian_shape_factor(np.asarray(k) * self.rs)

    @property
    def cutoff_radius(self) -> float:
        return self._rcut_eff

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianForceSplit(rs={self.rs})"


def get_split(name: str, rcut: float):
    """Factory: build a force split by name.

    For ``"gaussian"`` the scale radius is chosen as ``rcut / 4.5`` so
    that the effective support roughly matches the S2 split's ``rcut``.
    """
    if name == "s2":
        return S2ForceSplit(rcut)
    if name == "gaussian":
        return GaussianForceSplit(rcut / 4.5)
    raise ValueError(f"unknown force split {name!r}")
