"""Ewald summation: the exact force reference for periodic gravity.

The TreePM force (PP with the g_P3M cutoff + PM with the S2 Green's
function) approximates the exact periodic gravitational force, i.e. the
sum over all infinite image boxes with a neutralizing uniform
background.  Ewald summation computes that sum to machine precision by
splitting it into a rapidly converging real-space sum (complementary
error function screening) and a rapidly converging k-space sum.

This module is the accuracy yardstick for `benchmarks/bench_accuracy.py`
and for the TreePM integration tests.  It is O(N^2 * (images + modes))
and intended for small N.
"""

from __future__ import annotations

import numpy as np

from repro.forces.softening import plummer_force_factor
from repro.utils.periodic import minimum_image

__all__ = ["EwaldSummation"]


class EwaldSummation:
    """Exact periodic gravity via Ewald summation.

    Parameters
    ----------
    box:
        Side length of the periodic cube.
    alpha:
        Ewald splitting parameter (in units of 1/box); ``2/box`` with
        ``nmax=3`` and ``kmax=8`` gives ~1e-10 relative force accuracy.
    nmax:
        Real-space images with ``|n|_inf <= nmax`` are summed.
    kmax:
        k-space modes with integer components ``|m|_inf <= kmax``
        (and ``|m|^2 <= kmax^2``) are summed.
    """

    def __init__(
        self,
        box: float = 1.0,
        alpha: float | None = None,
        nmax: int = 3,
        kmax: int = 8,
    ) -> None:
        if box <= 0:
            raise ValueError("box must be positive")
        self.box = float(box)
        self.alpha = (2.0 / box) if alpha is None else float(alpha)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        self.nmax = int(nmax)
        self.kmax = int(kmax)
        self._images = self._make_images()
        self._kvecs, self._kfac = self._make_kspace()

    def _make_images(self) -> np.ndarray:
        r = np.arange(-self.nmax, self.nmax + 1)
        n = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        return n.astype(np.float64) * self.box

    def _make_kspace(self):
        r = np.arange(-self.kmax, self.kmax + 1)
        m = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        m2 = np.sum(m * m, axis=1)
        keep = (m2 > 0) & (m2 <= self.kmax**2)
        m = m[keep].astype(np.float64)
        k = 2.0 * np.pi / self.box * m
        k2 = np.sum(k * k, axis=1)
        # (4 pi / L^3) exp(-k^2 / 4 alpha^2) / k^2
        kfac = (
            4.0
            * np.pi
            / self.box**3
            * np.exp(-k2 / (4.0 * self.alpha**2))
            / k2
        )
        return k, kfac

    # -- pairwise kernels ---------------------------------------------------

    def _real_space_acc(self, dx: np.ndarray) -> np.ndarray:
        """Real-space Ewald acceleration kernel for displacements dx.

        ``dx`` has shape (..., 3) = r_i - r_j; returns the acceleration
        contribution per unit G*m_j (pointing from i toward j).
        """
        from scipy.special import erfc

        # shape (..., images, 3)
        s = dx[..., None, :] + self._images
        r2 = np.einsum("...ik,...ik->...i", s, s)
        r = np.sqrt(r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = erfc(self.alpha * r) + (
                2.0 * self.alpha / np.sqrt(np.pi)
            ) * r * np.exp(-(self.alpha**2) * r2)
            kern = np.where(r2 > 0.0, w / (r2 * r), 0.0)
        return -np.einsum("...i,...ik->...k", kern, s)

    def _k_space_acc(self, dx: np.ndarray) -> np.ndarray:
        """k-space Ewald acceleration kernel per unit G*m_j."""
        phase = np.einsum("...k,mk->...m", dx, self._kvecs)
        sin_p = np.sin(phase)
        return -np.einsum("...m,m,mk->...k", sin_p, self._kfac, self._kvecs)

    def pair_acceleration(self, dx: np.ndarray) -> np.ndarray:
        """Exact periodic acceleration of a unit-G, unit-mass pair.

        ``dx = r_i - r_j``; the result points from i toward j (and all
        its images), including the neutralizing background.  The
        displacement is reduced to its minimum image first, which makes
        the result exactly periodic and keeps the truncated real-space
        image sum maximally converged.
        """
        dx = minimum_image(np.asarray(dx, dtype=np.float64), self.box)
        return self._real_space_acc(dx) + self._k_space_acc(dx)

    # -- N-body evaluation ----------------------------------------------------

    def forces(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        eps: float = 0.0,
        G: float = 1.0,
        chunk: int = 64,
        targets: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact periodic accelerations.

        If ``eps > 0`` a Plummer softening correction is applied to the
        *nearest image* of each pair (softening only matters at
        separations << box, where exactly one image dominates), making
        the result directly comparable to a softened TreePM force.

        ``targets`` (optional integer indices) restricts evaluation to
        a subset of particles — the O(N^2 * images) cost makes full
        evaluation impractical for large N, while a probe subset still
        yields converged error statistics.
        """
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        tgt_idx = (
            np.arange(len(pos)) if targets is None else np.asarray(targets)
        )
        tpos = pos[tgt_idx]
        n = len(tpos)
        acc = np.zeros((n, 3))
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            dx = tpos[lo:hi, None, :] - pos[None, :, :]  # (c, n, 3)
            a_pair = self.pair_acceleration(dx)
            # remove self-interaction (dx = 0 rows): real-space kernel
            # already drops the r=0 image, k-space sum of sin(0) = 0.
            if eps > 0.0:
                dmi = minimum_image(dx, self.box)
                r2 = np.einsum("ijk,ijk->ij", dmi, dmi)
                soft = plummer_force_factor(r2, eps)
                with np.errstate(divide="ignore"):
                    hard = np.where(r2 > 0.0, r2**-1.5, 0.0)
                soft = np.where(r2 > 0.0, soft, 0.0)
                a_pair = a_pair - (soft - hard)[..., None] * dmi
            acc[lo:hi] = G * np.einsum("j,ijk->ik", mass, a_pair)
        return acc

    # -- potential ---------------------------------------------------------------

    def _pair_potential(self, dx: np.ndarray) -> np.ndarray:
        """Ewald pair potential psi(dx) per unit G*m (background
        included); psi(0) is the interaction of a particle with its own
        periodic images (without the singular self term)."""
        from scipy.special import erfc

        dx = minimum_image(np.asarray(dx, dtype=np.float64), self.box)
        s = dx[..., None, :] + self._images
        r2 = np.einsum("...ik,...ik->...i", s, s)
        r = np.sqrt(r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            real = np.where(r > 0.0, erfc(self.alpha * r) / r, 0.0)
        real = real.sum(axis=-1)
        phase = np.einsum("...k,mk->...m", dx, self._kvecs)
        kpart = np.einsum("...m,m->...", np.cos(phase), self._kfac)
        background = np.pi / (self.alpha**2 * self.box**3)
        return -(real + kpart - background)

    def potential(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        eps: float = 0.0,
        G: float = 1.0,
        chunk: int = 64,
        targets: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact periodic potential (with neutralizing background).

        The diagonal self term ``+2 alpha G m / sqrt(pi)`` replaces the
        excluded singular image; a single unit-mass particle in a unit
        box then has ``phi = +2.837297...`` — the gravitational sign of
        the Ewald lattice constant (the potential is defined by
        ``lap phi = 4 pi G (rho - rho_mean)``, so relative to the bare
        ``-G m / r`` every pair carries a positive periodic offset, as
        the PM solver independently measures).  As in :meth:`forces`,
        ``eps > 0`` applies a Plummer correction to the nearest image
        of each pair.
        """
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        tgt_idx = np.arange(len(pos)) if targets is None else np.asarray(targets)
        tpos = pos[tgt_idx]
        phi = np.zeros(len(tpos))
        self_term = 2.0 * self.alpha / np.sqrt(np.pi)
        for lo in range(0, len(tpos), chunk):
            hi = min(lo + chunk, len(tpos))
            dx = tpos[lo:hi, None, :] - pos[None, :, :]
            psi = self._pair_potential(dx)
            if eps > 0.0:
                dmi = minimum_image(dx, self.box)
                r2 = np.einsum("ijk,ijk->ij", dmi, dmi)
                with np.errstate(divide="ignore"):
                    hard = np.where(r2 > 0.0, -(r2**-0.5), 0.0)
                soft = np.where(r2 > 0.0, -((r2 + eps * eps) ** -0.5), 0.0)
                psi = psi + (soft - hard)
            phi[lo:hi] = G * (psi @ mass)
            # diagonal (i == j) self correction: every target appears
            # once among the sources with its singular image excluded
            phi[lo:hi] += G * mass[tgt_idx[lo:hi]] * self_term
        return phi

    def total_energy(
        self, pos: np.ndarray, mass: np.ndarray, eps: float = 0.0, G: float = 1.0
    ) -> float:
        """Total potential energy ``1/2 sum_i m_i phi_i``."""
        return float(0.5 * np.sum(mass * self.potential(pos, mass, eps=eps, G=G)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EwaldSummation(box={self.box}, alpha={self.alpha}, "
            f"nmax={self.nmax}, kmax={self.kmax})"
        )
