"""Tests of the interlaced (alias-cancelling) density assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.forces.direct import direct_forces_cutoff
from repro.forces.ewald import EwaldSummation
from repro.mesh.poisson import PMSolver
from repro.utils.periodic import wrap_positions


class TestDensityK:
    def test_matches_plain_without_interlacing(self, rng):
        solver = PMSolver(16, interlace=False)
        pos = rng.random((40, 3))
        mass = np.ones(40)
        dk = solver.density_k(pos, mass)
        np.testing.assert_allclose(
            dk, np.fft.rfftn(solver.density_mesh(pos, mass)), atol=0
        )

    def test_interlaced_path_bitwise_equals_rfftn_formula(self, rng):
        """Density in k space and potential of the interlaced path, with
        their in-place passes, against the rfftn/irfftn formula."""
        solver = PMSolver(16, split=S2ForceSplit(3.0 / 16), interlace=True)
        pos = rng.random((200, 3))
        mass = rng.random(200)
        shifted = wrap_positions(pos + 0.5 / 16)
        rho_k = np.fft.rfftn(solver.density_mesh(pos, mass))
        rho2_k = np.fft.rfftn(solver.density_mesh(shifted, mass))
        ref_k = 0.5 * (rho_k + rho2_k * solver._interlace_phase)
        ref_phi = np.fft.irfftn(
            ref_k * solver.greens, s=(16, 16, 16), axes=(0, 1, 2)
        )
        dk = solver.density_k(pos, mass)
        assert np.array_equal(dk, ref_k)
        assert np.array_equal(solver.potential_mesh_from_k(dk), ref_phi)
        assert np.array_equal(dk, ref_k)  # the k-space density is kept

    def test_dc_mode_preserved(self, rng):
        """Interlacing must not change the total mass (k = 0)."""
        solver = PMSolver(16, interlace=True)
        pos = rng.random((40, 3))
        mass = rng.random(40)
        dk = solver.density_k(pos, mass)
        cell_vol = (1.0 / 16) ** 3
        assert dk[0, 0, 0].real * cell_vol == pytest.approx(mass.sum(), rel=1e-12)
        assert abs(dk[0, 0, 0].imag) < 1e-10

    def test_low_k_modes_unchanged(self, rng):
        """Well-resolved modes are alias-free already: interlacing must
        leave them (nearly) untouched."""
        solver_p = PMSolver(32, interlace=False)
        solver_i = PMSolver(32, interlace=True)
        pos = rng.random((500, 3))
        mass = np.ones(500)
        dk_p = solver_p.density_k(pos, mass)
        dk_i = solver_i.density_k(pos, mass)
        # compare the lowest nonzero modes
        sel = (slice(0, 3), slice(0, 3), slice(0, 3))
        np.testing.assert_allclose(dk_i[sel], dk_p[sel], rtol=5e-3, atol=1e-6)

    def test_nyquist_plane_suppressed(self):
        """A particle pattern aliasing onto the Nyquist plane is
        cancelled by interlacing (the odd images flip sign)."""
        n = 8
        solver_p = PMSolver(n, interlace=False, assignment="cic")
        solver_i = PMSolver(n, interlace=True, assignment="cic")
        # particles exactly between grid points along x: maximum
        # aliasing configuration
        x = (np.arange(n) + 0.5) / n
        pos = np.stack(
            np.meshgrid(x, x[: n // 2] * 2, x[: n // 2] * 2, indexing="ij"), -1
        ).reshape(-1, 3)
        mass = np.ones(len(pos))
        dk_p = solver_p.density_k(pos, mass)
        dk_i = solver_i.density_k(pos, mass)
        nyq = np.abs(dk_i[n // 2]).max()
        assert nyq <= np.abs(dk_p[n // 2]).max() + 1e-9


class TestInterlacedForces:
    def test_p3m_consistency_still_holds(self, rng):
        """Interlaced PM + direct short range still matches Ewald."""
        n = 16
        split = S2ForceSplit(4.0 / n)
        solver = PMSolver(n, split=split, interlace=True)
        pos = rng.random((32, 3))
        mass = rng.random(32) / 32 + 0.01
        total = solver.forces(pos, mass) + direct_forces_cutoff(
            pos, mass, split, box=1.0
        )
        ref = EwaldSummation().forces(pos, mass)
        err = np.linalg.norm(total - ref, axis=1)
        scale = np.linalg.norm(ref, axis=1).mean()
        assert np.sqrt((err**2).mean()) / scale < 0.03

    def test_improves_pair_force_accuracy_with_spectral(self):
        """With spectral differencing (no differencing error masking
        the aliasing), interlacing reduces the rms pair-force error."""
        n = 16
        split = S2ForceSplit(3.0 / n)
        ewald = EwaldSummation()
        mass = np.array([1.0])

        def rms(solver, nsamp=40):
            rng = np.random.default_rng(1)
            errs = []
            for _ in range(nsamp):
                v = rng.standard_normal(3)
                v *= rng.uniform(0.05, 0.5) / np.linalg.norm(v)
                src = rng.random(3)
                tgt = (src + v) % 1.0
                apm = solver.forces(src[None], mass, targets=tgt[None])[0]
                r = np.linalg.norm(v)
                ash = -split.short_range_factor(np.array([r]))[0] * v / r**3
                aex = ewald.pair_acceleration(v)
                errs.append(
                    np.linalg.norm(apm + ash - aex) / np.linalg.norm(aex)
                )
            return float(np.sqrt(np.mean(np.array(errs) ** 2)))

        plain = rms(PMSolver(n, split=split, differencing="spectral"))
        inter = rms(
            PMSolver(n, split=split, differencing="spectral", interlace=True)
        )
        assert inter < plain
