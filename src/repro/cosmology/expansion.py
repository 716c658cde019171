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

# QUADPACK dqk21 (Piessens et al. 1983): 10-point Gauss weights, then
# the 21-point Kronrod abscissae and weights, the centre last
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)
_TOL = 1.49e-8  # quad's default epsabs and epsrel


def _quad(f, a, b):
    """``scipy.integrate.quad(f, a, b)``, bit for bit, without scipy
    whenever quad would stop after its first pass.

    That pass is dqk21 in its own operation order, then dqagse's
    first-exit test.  A one-step interval of a smooth Friedmann
    integrand always passes; a2/a1 above about 4.9 falls back to quad.
    """
    if a == b:
        return 0.0, 0.0
    lo, hi = float(min(a, b)), float(max(a, b))
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = f(centr)
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv = [(0.0, 0.0)] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # dqk21's order: Gauss nodes first
        absc = hlgth * _XGK[j]
        fv[j] = fval1, fval2 = f(centr - absc), f(centr + absc)
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j, (fval1, fval2) in enumerate(fv):
        resasc = resasc + _WGK[j] * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs, resasc = resabs * abs(hlgth), resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    if (abserr <= max(_TOL, _TOL * abs(result)) and abserr != resasc) or abserr == 0.0:
        return (-result if b < a else result), abserr
    from scipy.integrate import quad

    return quad(f, a, b)


class Expansion:
    """Expansion kinematics for a parameter set (H0 = 1 units)."""

    def __init__(self, params: CosmologyParams) -> None:
        self.params = params

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
        val, _ = _quad(lambda a: 1.0 / (a**3 * float(self.E(a))), a1, a2)
        return val

    def kick_factor(self, a1: float, a2: float) -> float:
        """``int_{a1}^{a2} da / (a^2 H)`` — multiplies force in a kick."""
        val, _ = _quad(lambda a: 1.0 / (a**2 * float(self.E(a))), a1, a2)
        return val

    def time_between(self, a1: float, a2: float) -> float:
        """Cosmic time elapsed between scale factors (code units)."""
        val, _ = _quad(lambda a: float(self.dtda(a)), a1, a2)
        return val

    def comoving_distance(self, z: float) -> float:
        """Comoving distance to redshift z (units of c / H0)."""
        if z < 0:
            raise ValueError("z must be non-negative")
        val, _ = _quad(lambda zz: 1.0 / float(self.E(1.0 / (1.0 + zz))), 0.0, z)
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
