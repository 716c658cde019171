"""Bindings for the native kick / kick-drift-wrap update kernels.

The integrators copy the particle state once per step and then update
in place through these entry points; each returns False when the kernel
is unavailable (or the stage is disabled) and the caller performs the
identical numpy arithmetic instead.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from repro.native import build as _build


def get_lib() -> Optional[ctypes.CDLL]:
    """The verified update library, or ``None`` (checked per call)."""
    return _build.library("update")


def available() -> bool:
    """Whether the native update kernels can be used right now."""
    return get_lib() is not None


def kick(mom: np.ndarray, acc: np.ndarray, coeff: float) -> bool:
    """``mom += acc * coeff`` in place; False = caller falls back."""
    lib = get_lib()
    if (
        lib is None
        or not _build.c_arrays(np.float64, mom, acc)
        or mom.shape != acc.shape
    ):
        return False
    lib.kick(mom.size, mom, acc, coeff)
    return True


def kick_drift_wrap(
    pos: np.ndarray,
    mom: np.ndarray,
    acc: np.ndarray,
    kick_coeff: float,
    drift_coeff: float,
    box: float,
) -> bool:
    """Fused ``mom += acc*kc; pos = wrap(pos + mom*dc)`` in place."""
    lib = get_lib()
    if (
        lib is None
        or not _build.c_arrays(np.float64, pos, mom, acc)
        or not (pos.shape == mom.shape == acc.shape)
    ):
        return False
    lib.kick_drift_wrap(pos.size, pos, mom, acc, kick_coeff, drift_coeff, box)
    return True


def drift_wrap(
    pos: np.ndarray, mom: np.ndarray, drift_coeff: float, box: float
) -> bool:
    """``pos = wrap(pos + mom * drift_coeff)`` in place."""
    lib = get_lib()
    if (
        lib is None
        or not _build.c_arrays(np.float64, pos, mom)
        or pos.shape != mom.shape
    ):
        return False
    lib.drift_wrap(pos.size, pos, mom, drift_coeff, box)
    return True


# -- self-test ----------------------------------------------------------------


def _self_test(lib) -> bool:
    """Bitwise comparison against the numpy update expressions."""
    from repro.utils.periodic import wrap_positions

    rng = np.random.default_rng(0xD1CE)
    for box in (1.0, 0.7, 62.5):
        pos = rng.random((257, 3)) * box
        # exercise the wrap: a band straddling each face, the exact
        # edge, and tiny negative excursions
        pos[0] = 0.0
        pos[1] = np.nextafter(box, 0.0)
        mom = 0.3 * box * rng.standard_normal((257, 3))
        acc = rng.standard_normal((257, 3))
        kc, dc = 0.37, 1.9

        ref_mom = mom + acc * kc
        ref_pos = wrap_positions(pos + ref_mom * dc, box)

        got_pos = pos.copy()
        got_mom = mom.copy()
        lib.kick_drift_wrap(got_pos.size, got_pos, got_mom, acc, kc, dc, box)
        if not (
            np.array_equal(got_mom, ref_mom) and np.array_equal(got_pos, ref_pos)
        ):
            return False

        k_mom = mom.copy()
        lib.kick(k_mom.size, k_mom, acc, kc)
        if not np.array_equal(k_mom, ref_mom):
            return False

        d_pos = pos.copy()
        lib.drift_wrap(d_pos.size, d_pos, mom, dc, box)
        if not np.array_equal(d_pos, wrap_positions(pos + mom * dc, box)):
            return False
    return True


__all__ = ["available", "drift_wrap", "get_lib", "kick", "kick_drift_wrap"]
