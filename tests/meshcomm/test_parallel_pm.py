"""Tests of the full distributed PM cycle, including relay mesh mode.

The defining property: the distributed solver (any rank count, any
group count) produces the same long-range forces as the serial
:class:`repro.mesh.poisson.PMSolver` — the relay mesh method is a pure
communication optimization and must not change the physics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ValidationConfig
from repro.forces.cutoff import S2ForceSplit
from repro.mesh.poisson import PMSolver
from repro.meshcomm import parallel_pm
from repro.meshcomm.parallel_pencil_pm import ParallelPencilPM
from repro.meshcomm.parallel_pm import ParallelPM
from repro.mpi.runtime import MPIRuntime, run_spmd
from repro.validate import Validator
from repro.validate.checks import check_mesh_mass

N_MESH = 16


def _slab_domains(n_ranks):
    """1-D x-slice spatial domains."""
    doms = []
    for r in range(n_ranks):
        doms.append(
            (np.array([r / n_ranks, 0.0, 0.0]), np.array([(r + 1) / n_ranks, 1.0, 1.0]))
        )
    return doms


def _grid_domains(div):
    """3-D rectangular domains from a (dx, dy, dz) division."""
    doms = []
    for i in range(div[0]):
        for j in range(div[1]):
            for k in range(div[2]):
                lo = np.array([i / div[0], j / div[1], k / div[2]])
                hi = np.array([(i + 1) / div[0], (j + 1) / div[1], (k + 1) / div[2]])
                doms.append((lo, hi))
    return doms


def _owned(pos, lo, hi):
    return np.all((pos >= lo) & (pos < hi), axis=1)


def _run_parallel(pos, mass, domains, split=None, n_fft=None, n_groups=1):
    n_ranks = len(domains)

    def fn(comm):
        lo, hi = domains[comm.rank]
        sel = _owned(pos, lo, hi)
        ppm = ParallelPM(
            comm, N_MESH, split=split, n_fft=n_fft, n_groups=n_groups
        )
        acc = ppm.forces(pos[sel], mass[sel], lo, hi)
        return sel, acc

    results = run_spmd(n_ranks, fn)
    acc = np.full_like(pos, np.nan)
    covered = np.zeros(len(pos), dtype=bool)
    for sel, a in results:
        acc[sel] = a
        covered |= sel
    assert covered.all(), "domains must cover every particle"
    return acc


@pytest.fixture(scope="module")
def particles():
    rng = np.random.default_rng(2012)
    pos = rng.random((200, 3))
    mass = rng.random(200) / 200 + 1e-3
    return pos, mass


@pytest.fixture(scope="module")
def serial_ref(particles):
    pos, mass = particles
    split = S2ForceSplit(3.0 / N_MESH)
    return PMSolver(N_MESH, split=split).forces(pos, mass)


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("n_ranks,n_fft", [(1, 1), (2, 2), (4, 2), (4, 4)])
    def test_slab_domains(self, particles, serial_ref, n_ranks, n_fft):
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        acc = _run_parallel(pos, mass, _slab_domains(n_ranks), split, n_fft)
        np.testing.assert_allclose(acc, serial_ref, atol=1e-11)

    def test_3d_domains(self, particles, serial_ref):
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        acc = _run_parallel(pos, mass, _grid_domains((2, 2, 2)), split, n_fft=4)
        np.testing.assert_allclose(acc, serial_ref, atol=1e-11)

    def test_pure_pm_no_split(self, particles):
        pos, mass = particles
        ref = PMSolver(N_MESH).forces(pos, mass)
        acc = _run_parallel(pos, mass, _slab_domains(2))
        np.testing.assert_allclose(acc, ref, atol=1e-11)


class TestRelayMesh:
    @pytest.mark.parametrize("n_ranks,n_fft,n_groups", [
        (4, 2, 2),
        (6, 2, 3),
        (6, 3, 2),
        (8, 2, 4),
        (9, 3, 3),
    ])
    def test_relay_equals_direct(self, particles, serial_ref, n_ranks, n_fft, n_groups):
        """The relay mesh method is physics-neutral for every group
        layout (paper: replaces the global exchange only)."""
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        acc = _run_parallel(
            pos, mass, _slab_domains(n_ranks), split, n_fft, n_groups
        )
        np.testing.assert_allclose(acc, serial_ref, atol=1e-11)

    def test_relay_reduces_senders_per_fft_process(self, particles):
        """The whole point of the method: with groups, the number of
        distinct sources sending to an FFT process during the mesh
        conversion drops from ~p to ~(group size)."""
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        n_ranks, n_fft = 8, 2

        def job(n_groups):
            rt = MPIRuntime(n_ranks)
            domains = _slab_domains(n_ranks)

            def fn(comm):
                lo, hi = domains[comm.rank]
                sel = _owned(pos, lo, hi)
                ppm = ParallelPM(
                    comm, N_MESH, split=split, n_fft=n_fft, n_groups=n_groups
                )
                ppm.forces(pos[sel], mass[sel], lo, hi)

            rt.run(fn)
            ph = rt.traffic.phase("pm:mesh_to_slab")
            return ph.max_senders_per_receiver()

        direct = job(1)
        relay = job(4)
        assert relay < direct

    def test_invalid_group_config(self):
        def fn(comm):
            ParallelPM(comm, N_MESH, n_fft=4, n_groups=2)  # 8 > 4 ranks

        with pytest.raises(RuntimeError, match="n_groups"):
            run_spmd(4, fn)

    def test_invalid_n_fft(self):
        def fn(comm):
            ParallelPM(comm, N_MESH, n_fft=99)

        with pytest.raises(RuntimeError, match="n_fft"):
            run_spmd(2, fn)


class TestTimingAndTraffic:
    def test_table1_phase_names(self, particles):
        from repro.utils.timer import TimingLedger

        pos, mass = particles
        domains = _slab_domains(2)

        def fn(comm):
            lo, hi = domains[comm.rank]
            sel = _owned(pos, lo, hi)
            ppm = ParallelPM(comm, N_MESH)
            timing = TimingLedger()
            ppm.forces(pos[sel], mass[sel], lo, hi, timing=timing)
            return set(timing.as_dict())

        out = run_spmd(2, fn)
        expected = {
            "PM/density assignment",
            "PM/communication",
            "PM/FFT",
            "PM/acceleration on mesh",
            "PM/force interpolation",
        }
        for phases in out:
            assert expected <= phases

    def test_traffic_phases_recorded(self, particles):
        pos, mass = particles
        domains = _slab_domains(4)
        rt = MPIRuntime(4)

        def fn(comm):
            lo, hi = domains[comm.rank]
            sel = _owned(pos, lo, hi)
            ppm = ParallelPM(comm, N_MESH, n_fft=2)
            ppm.forces(pos[sel], mass[sel], lo, hi)

        rt.run(fn)
        m2s = rt.traffic.phase("pm:mesh_to_slab")
        s2m = rt.traffic.phase("pm:slab_to_mesh")
        assert m2s.total_bytes > 0
        assert s2m.total_bytes > 0


PM_ROWS = {
    "PM/density assignment",
    "PM/communication",
    "PM/FFT",
    "PM/acceleration on mesh",
    "PM/force interpolation",
}


class TestCrossSolverParity:
    """Slab solver, pencil solver and serial ``PMSolver`` on the same
    particles: the two distributed solvers agree with the serial one to
    rounding of the differently ordered FFTs (the tolerances of the
    tests above), and neither moves by a single bit when the native
    mesh kernels (assignment, slab conversion, gradient-gather) are
    swapped for their numpy references.  ``(2, 2, 1)`` makes the y
    extents of neighbouring potential blocks overlap and wrap."""

    @staticmethod
    def _solve(pos, mass, div, split):
        from repro.utils.timer import TimingLedger

        domains = _grid_domains(div)

        def fn(comm):
            lo, hi = domains[comm.rank]
            sel = _owned(pos, lo, hi)
            out = {"sel": sel}
            for name, solver in (
                ("slab", ParallelPM(comm, N_MESH, split=split)),
                ("pencil", ParallelPencilPM(comm, N_MESH, split=split)),
            ):
                timing = TimingLedger()
                out[name] = solver.forces(pos[sel], mass[sel], lo, hi, timing=timing)
                out[name + "_rows"] = set(timing.as_dict())
            return out

        results = run_spmd(len(domains), fn)
        acc = {}
        for name in ("slab", "pencil"):
            acc[name] = np.full_like(pos, np.nan)
            for r in results:
                acc[name][r["sel"]] = r[name]
                assert PM_ROWS <= r[name + "_rows"]
        return acc

    @pytest.mark.parametrize("div", [(2, 1, 1), (2, 2, 1)])
    def test_slab_pencil_serial_agree_native_and_numpy(
        self, particles, serial_ref, div, monkeypatch
    ):
        pos, mass = particles
        split = S2ForceSplit(3.0 / N_MESH)
        native = self._solve(pos, mass, div, split)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        numpy_ = self._solve(pos, mass, div, split)
        serial_numpy = PMSolver(N_MESH, split=split).forces(pos, mass)

        assert np.array_equal(serial_numpy, serial_ref)
        for name, atol in (("slab", 1e-11), ("pencil", 1e-10)):
            assert np.array_equal(native[name], numpy_[name]), name
            np.testing.assert_allclose(native[name], serial_ref, atol=atol)
        np.testing.assert_allclose(native["slab"], native["pencil"], atol=1e-10)

    @pytest.mark.parametrize("div", [(2, 1, 1), (2, 2, 1)])
    def test_one_cycle_two_layouts_same_mass_checks(
        self, particles, div, monkeypatch
    ):
        """The pencil solver has no cycle of its own, so with validation
        on both layouts run the same two collective mass checks, after
        the assignment and after the conversion, with the same verdicts."""
        assert ParallelPencilPM.forces is ParallelPM.forces
        assert "forces" not in vars(ParallelPencilPM)
        pos, mass = particles
        domains = _grid_domains(div)
        seen = []

        def recording(mesh_mass, total_mass, **kw):
            verdict = check_mesh_mass(mesh_mass, total_mass, **kw)
            seen.append((kw["rank"], kw["stage"], mesh_mass, total_mass, verdict))
            return verdict

        monkeypatch.setattr(parallel_pm, "check_mesh_mass", recording)

        def fn(comm):
            lo, hi = domains[comm.rank]
            sel = _owned(pos, lo, hi)
            v = Validator(ValidationConfig(policy="abort"), rank=comm.rank)
            for solver in (
                ParallelPM(comm, N_MESH),
                ParallelPencilPM(comm, N_MESH),
            ):
                solver.forces(pos[sel], mass[sel], lo, hi, validator=v)

        run_spmd(len(domains), fn)
        for rank in range(len(domains)):
            mine = [row[1:] for row in seen if row[0] == rank]
            slab, pencil = mine[:2], mine[2:]
            assert [row[0] for row in slab] == ["mesh/assignment", "meshcomm/convert"]
            assert [row[0] for row in pencil] == [row[0] for row in slab]
            for (_, mesh_s, total_s, verdict_s), (_, mesh_p, total_p, verdict_p) in zip(
                slab, pencil
            ):
                assert verdict_s is None and verdict_p is None
                assert total_s == total_p
                assert mesh_s == pytest.approx(total_s, rel=1e-12)
                assert mesh_p == pytest.approx(total_p, rel=1e-12)
