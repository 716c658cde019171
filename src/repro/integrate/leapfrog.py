"""Leapfrog integrators: plain KDK and the two-level TreePM hierarchy.

:class:`TwoLevelKDK` implements the paper's step: the long-range (PM)
force is applied in half-kicks bracketing the step, while the
short-range (PP) force runs ``n_sub`` (= 2 in the paper) inner KDK
cycles.  Forces are supplied by callables (the serial driver passes
``TreePMSolver.long_range`` / ``short_range`` bound to its masses and
ledger):

    K_PM(H/2) [ K_PP(h/2) D(h) K_PP(h/2) ] x n_sub  K_PM(H/2)

Both integrators are symplectic for fixed coefficients and second-order
accurate.

The particle state is copied once at step entry and then updated in
place — through the fused native kick-drift-wrap kernel when available
(:mod:`repro.native.update`), else with the identical in-place numpy
arithmetic.  Either way the element values match the historical
``mom + acc * c`` / ``wrap_positions(pos + mom * dc)`` expressions bit
for bit, and the returned arrays are new (inputs are never modified).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.native import update as _native_update
from repro.utils.periodic import wrap_positions

__all__ = ["LeapfrogIntegrator", "TwoLevelKDK"]

ForceFn = Callable[[np.ndarray], np.ndarray]

#: TimingLedger phase for the update arithmetic, alongside the PM/PP
#: force phases ("Update" is the paper's position/velocity update row).
UPDATE_PHASE = "Update/kick-drift"


def _kick_inplace(mom: np.ndarray, acc: np.ndarray, coeff: float) -> None:
    """``mom += acc * coeff`` (native kernel or identical numpy ops)."""
    if not _native_update.kick(mom, acc, coeff):
        np.add(mom, acc * coeff, out=mom)


def _kick_drift_wrap_inplace(
    pos: np.ndarray,
    mom: np.ndarray,
    acc: np.ndarray,
    kick_coeff: float,
    drift_coeff: float,
    box: float,
) -> None:
    """Fused kick + drift + periodic wrap, in place on ``pos``/``mom``."""
    if _native_update.kick_drift_wrap(pos, mom, acc, kick_coeff, drift_coeff, box):
        return
    np.add(mom, acc * kick_coeff, out=mom)
    np.add(pos, mom * drift_coeff, out=pos)
    np.mod(pos, box, out=pos)
    # np.mod can return exactly `box` for tiny negative inputs due to
    # rounding; fold those onto 0 (same rule as wrap_positions)
    pos[pos >= box] = 0.0


class LeapfrogIntegrator:
    """Single-level kick-drift-kick with one force callable.

    ``ledger`` (optional) receives the update arithmetic under the
    ``Update/kick-drift`` phase so the per-step accounting stays
    complete alongside the force phases.
    """

    def __init__(self, force: ForceFn, stepper, box: float = 1.0, ledger=None) -> None:
        self.force = force
        self.stepper = stepper
        self.box = float(box)
        self.ledger = ledger
        self._cached_force: Optional[np.ndarray] = None

    def _phase(self):
        if self.ledger is None:
            return _NULL_PHASE
        return self.ledger.phase(UPDATE_PHASE)

    def step(
        self, pos: np.ndarray, mom: np.ndarray, t1: float, t2: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance (pos, mom) from t1 to t2; returns new arrays."""
        st = self.stepper
        tm = 0.5 * (t1 + t2)
        g = self._cached_force
        if g is None:
            g = self.force(pos)
        pos = np.array(pos, dtype=np.float64)
        mom = np.array(mom, dtype=np.float64)
        with self._phase():
            _kick_drift_wrap_inplace(
                pos, mom, g, st.kick_coeff(t1, tm), st.drift_coeff(t1, t2), self.box
            )
        g = self.force(pos)
        with self._phase():
            _kick_inplace(mom, g, st.kick_coeff(tm, t2))
        self._cached_force = g
        return pos, mom

    def reset_cache(self) -> None:
        """Invalidate the carried end-of-step force (call after any
        external change to the particle set)."""
        self._cached_force = None


class TwoLevelKDK:
    """The paper's step: 1 PM cycle + ``n_sub`` PP/drift cycles.

    Parameters
    ----------
    pm_force, pp_force:
        Callables ``pos -> acc`` for the long- and short-range parts.
    stepper:
        Coefficient provider (:mod:`repro.integrate.stepper`).
    n_sub:
        PP subcycles per PM step (2 in the paper).
    ledger:
        Optional :class:`repro.utils.timer.TimingLedger` receiving the
        update arithmetic under the ``Update/kick-drift`` phase.
    """

    def __init__(
        self,
        pm_force: ForceFn,
        pp_force: ForceFn,
        stepper,
        n_sub: int = 2,
        box: float = 1.0,
        ledger=None,
    ) -> None:
        if n_sub < 1:
            raise ValueError("n_sub must be >= 1")
        self.pm_force = pm_force
        self.pp_force = pp_force
        self.stepper = stepper
        self.n_sub = int(n_sub)
        self.box = float(box)
        self.ledger = ledger
        self._pm_cache: Optional[np.ndarray] = None
        self._pp_cache: Optional[np.ndarray] = None

    def _phase(self):
        if self.ledger is None:
            return _NULL_PHASE
        return self.ledger.phase(UPDATE_PHASE)

    def step(
        self, pos: np.ndarray, mom: np.ndarray, t1: float, t2: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one full PM step from t1 to t2."""
        st = self.stepper
        tm = 0.5 * (t1 + t2)

        g_pm = self._pm_cache if self._pm_cache is not None else self.pm_force(pos)
        pos = np.array(pos, dtype=np.float64)
        mom = np.array(mom, dtype=np.float64)
        with self._phase():
            _kick_inplace(mom, g_pm, st.kick_coeff(t1, tm))

        sub_edges = np.linspace(t1, t2, self.n_sub + 1)
        for s in range(self.n_sub):
            s1, s2 = sub_edges[s], sub_edges[s + 1]
            sm = 0.5 * (s1 + s2)
            g_pp = self._pp_cache if self._pp_cache is not None else self.pp_force(pos)
            with self._phase():
                _kick_drift_wrap_inplace(
                    pos, mom, g_pp,
                    st.kick_coeff(s1, sm), st.drift_coeff(s1, s2), self.box,
                )
            g_pp = self.pp_force(pos)
            with self._phase():
                _kick_inplace(mom, g_pp, st.kick_coeff(sm, s2))
            self._pp_cache = g_pp

        g_pm = self.pm_force(pos)
        with self._phase():
            _kick_inplace(mom, g_pm, st.kick_coeff(tm, t2))
        self._pm_cache = g_pm
        return pos, mom

    def reset_cache(self) -> None:
        self._pm_cache = None
        self._pp_cache = None


class _NullPhase:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()
