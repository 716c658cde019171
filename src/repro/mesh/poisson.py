"""The serial PM solver: particles -> long-range forces.

This is the single-process reference implementation of the PM cycle the
paper describes (density assignment, FFT Poisson solve, finite-difference
acceleration mesh, force interpolation).  The distributed version in
:mod:`repro.meshcomm` reproduces these steps with slab-decomposed FFTs
and the relay mesh communication; both must agree bitwise on the same
density mesh, which the integration tests check.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mesh.assignment import assign_mass, interpolate_mesh
from repro.mesh.differentiate import gradient_mesh
from repro.mesh.fft import irfft3, rfft3
from repro.mesh.greens import build_greens_function

__all__ = ["PMSolver"]


class PMSolver:
    """FFT particle-mesh solver on an ``(n, n, n)`` periodic grid.

    Parameters
    ----------
    n:
        Mesh points per dimension.
    box:
        Periodic box size.
    split:
        Force split whose ``long_range_kspace_factor`` shapes the
        Green's function; ``None`` solves full gravity (pure PM code).
    G:
        Gravitational constant.
    assignment:
        ``"ngp" | "cic" | "tsc"``.
    deconvolve:
        Window-deconvolution power (0, 1 or 2); ``None`` selects 2 when
        a split is present (TreePM: the split factor suppresses the
        amplified Nyquist modes) and 1 for a pure-PM solver (dividing
        twice without a k-space cutoff produces mesh-scale ringing).
    differencing:
        Mesh gradient scheme (``"four_point"`` in the paper).
    interlace:
        Assign the density twice, the second pass with particles
        shifted by half a cell diagonal, and average in k space with
        the compensating phase.  Cancels the odd alias images of the
        assignment window — a standard refinement over the paper's
        plain TSC that roughly halves the PM force error.
    greens_mode:
        ``"standard"`` (deconvolved -4 pi G S^2 / k^2, the paper) or
        ``"optimal"`` (the Hockney-Eastwood influence function
        minimizing the mean-square force error of the whole pipeline;
        ``deconvolve`` is then ignored — the windows are folded in).
    """

    def __init__(
        self,
        n: int,
        box: float = 1.0,
        split=None,
        G: float = 1.0,
        assignment: str = "tsc",
        deconvolve: int | None = None,
        differencing: str = "four_point",
        interlace: bool = False,
        greens_mode: str = "standard",
    ) -> None:
        if n < 4:
            raise ValueError("mesh size must be >= 4")
        if deconvolve is None:
            deconvolve = 2 if split is not None else 1
        self.n = int(n)
        self.box = float(box)
        self.split = split
        self.G = float(G)
        self.assignment = assignment
        self.deconvolve = int(deconvolve)
        self.differencing = differencing
        self.interlace = bool(interlace)
        if greens_mode == "standard":
            self.greens = build_greens_function(
                n, box, split=split, G=G, assignment=assignment,
                deconvolve=deconvolve,
            )
        elif greens_mode == "optimal":
            from repro.mesh.greens import build_optimal_greens_function

            self.greens = build_optimal_greens_function(
                n, box, split=split, G=G, assignment=assignment,
                differencing=differencing,
            )
        else:
            raise ValueError("greens_mode must be 'standard' or 'optimal'")
        self.greens_mode = greens_mode
        if self.interlace:
            from repro.mesh.greens import kvectors

            kx, ky, kz = kvectors(n, box)
            half = 0.5 * box / n
            self._interlace_phase = np.exp(1j * (kx + ky + kz) * half)
        else:
            self._interlace_phase = None

    # -- pipeline stages ----------------------------------------------------

    def density_mesh(self, pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """Mass density on the mesh (mass per volume)."""
        cell_vol = (self.box / self.n) ** 3
        return assign_mass(
            pos, mass, self.n, self.box, scheme=self.assignment
        ) / cell_vol

    def density_k(self, pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """k-space mass density, interlaced when enabled."""
        rho_k = rfft3(self.density_mesh(pos, mass))
        if not self.interlace:
            return rho_k
        half = 0.5 * self.box / self.n
        from repro.utils.periodic import wrap_positions

        shifted = wrap_positions(np.asarray(pos) + half, self.box)
        rho2_k = rfft3(self.density_mesh(shifted, mass))
        # the shifted mesh's odd alias images carry the opposite sign
        # after the phase correction: averaging cancels them
        return 0.5 * (rho_k + rho2_k * self._interlace_phase)

    def potential_mesh(self, rho: np.ndarray) -> np.ndarray:
        """Solve the Poisson equation for the long-range potential.

        The k = 0 mode of the Green's function is zero, so the mean
        density (the neutralizing background) drops out automatically.
        """
        phi_k = rfft3(rho)
        phi_k *= self.greens
        return irfft3(phi_k, self.n)

    def potential_mesh_from_k(self, rho_k: np.ndarray) -> np.ndarray:
        """Potential from an already-transformed (e.g. interlaced)
        density; ``rho_k`` is left as it was."""
        return irfft3(rho_k * self.greens, self.n)

    def acceleration_mesh(self, phi: np.ndarray) -> np.ndarray:
        """Acceleration mesh ``-grad phi``, shape (n, n, n, 3)."""
        return -gradient_mesh(phi, self.box, scheme=self.differencing)

    def interpolate(self, mesh: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Interpolate a mesh field at target positions."""
        return interpolate_mesh(mesh, targets, self.box, scheme=self.assignment)

    # -- high-level API ------------------------------------------------------

    def forces(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        targets: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Long-range accelerations at ``targets`` (default: at ``pos``)."""
        if self.interlace:
            phi = self.potential_mesh_from_k(self.density_k(pos, mass))
        else:
            phi = self.potential_mesh(self.density_mesh(pos, mass))
        acc = self.acceleration_mesh(phi)
        tgt = pos if targets is None else np.asarray(targets, dtype=np.float64)
        return self.interpolate(acc, tgt)

    def potential_at(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        targets: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Long-range potential at ``targets`` (default: at ``pos``)."""
        rho = self.density_mesh(pos, mass)
        phi = self.potential_mesh(rho)
        tgt = pos if targets is None else np.asarray(targets, dtype=np.float64)
        return self.interpolate(phi, tgt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PMSolver(n={self.n}, box={self.box}, split={self.split!r}, "
            f"assignment={self.assignment!r})"
        )
