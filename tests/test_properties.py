"""Cross-cutting property-based tests (hypothesis) on core invariants.

These complement the per-module tests with randomized structural
checks: tree bookkeeping, kernel symmetries, mesh conservation laws,
communicator algebra and decomposition partitions under arbitrary
inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp.multisection import MultisectionDecomposition
from repro.forces.cutoff import S2ForceSplit, gp3m_cutoff, gp3m_potential_cutoff
from repro.mesh.assignment import assign_mass, interpolate_mesh
from repro.mpi.runtime import run_spmd
from repro.pp.kernel import PPKernel
from repro.tree.octree import Octree
from repro.pp.plan import multi_arange


def _positions(n, seed):
    return np.random.default_rng(seed).random((n, 3))


class TestMultiArange:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)), max_size=8))
    def test_matches_naive(self, spans):
        lo = np.array([a for a, _ in spans], dtype=np.int64)
        hi = lo + np.array([b for _, b in spans], dtype=np.int64)
        got = multi_arange(lo, hi)
        ref = np.concatenate(
            [np.arange(a, b) for a, b in zip(lo, hi)] or [np.empty(0, dtype=np.int64)]
        )
        np.testing.assert_array_equal(got, ref)


class TestOctreeProperties:
    @given(st.integers(2, 200), st.integers(1, 16), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_structure_and_moments(self, n, leaf, seed):
        pos = _positions(n, seed)
        mass = np.random.default_rng(seed + 1).random(n) + 0.1
        tree = Octree(pos, mass, leaf_size=leaf)
        tree.validate()
        assert tree.node_mass[0] == pytest.approx(mass.sum(), rel=1e-12)
        # every particle is inside the root cube and counted once
        assert tree.node_hi[0] - tree.node_lo[0] == n

    @given(st.integers(2, 100), st.integers(1, 50), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_groups_partition(self, n, gsize, seed):
        pos = _positions(n, seed)
        tree = Octree(pos, np.ones(n), leaf_size=4)
        groups = tree.group_nodes(gsize)
        spans = sorted(
            (int(tree.node_lo[g]), int(tree.node_hi[g])) for g in groups
        )
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans[:-1], spans[1:]))


class TestKernelProperties:
    @given(st.integers(2, 24), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_newton_third_law(self, n, seed):
        """Equal masses: sum of forces vanishes (pairwise symmetry)."""
        pos = _positions(n, seed)
        mass = np.ones(n)
        kern = PPKernel(eps=0.05)
        acc = kern.accumulate(pos, pos, mass)
        np.testing.assert_allclose(acc.sum(axis=0), 0.0, atol=1e-8 * n)

    @given(st.floats(0.01, 0.4), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_cutoff_locality(self, rcut, seed):
        """No force reaches beyond the cutoff radius, ever."""
        rng = np.random.default_rng(seed)
        split = S2ForceSplit(rcut)
        kern = PPKernel(split=split, box=1.0)
        tgt = rng.random((4, 3))
        # sources placed strictly farther than rcut (minimum image)
        src = np.mod(tgt[0] + rcut * 1.5 + 0.05 * rng.random((4, 3)), 1.0)
        from repro.utils.periodic import minimum_image

        d = np.sqrt(
            (minimum_image(src[None] - tgt[:, None]) ** 2).sum(-1)
        )
        acc = kern.accumulate(tgt, src, np.ones(4))
        beyond = np.all(d > rcut, axis=1)
        np.testing.assert_array_equal(acc[beyond], 0.0)


class TestCutoffFunctionProperties:
    @given(st.floats(0.0, 1.99), st.floats(0.001, 1.0))
    def test_force_potential_inequality(self, xi, scale):
        """0 <= g <= h... actually h >= g * xi/2? Just bounds: both in
        [0, 1], and h(xi) >= g(xi) * (1 - xi/2) (potential decays more
        slowly than force)."""
        g = float(gp3m_cutoff(xi))
        h = float(gp3m_potential_cutoff(xi))
        assert 0.0 <= g <= 1.0 + 1e-12
        assert 0.0 <= h <= 1.0 + 1e-12

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_monotone_pairs(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert float(gp3m_cutoff(hi)) <= float(gp3m_cutoff(lo)) + 1e-12
        assert float(gp3m_potential_cutoff(hi)) <= float(
            gp3m_potential_cutoff(lo)
        ) + 1e-12


class TestMeshProperties:
    @given(
        st.integers(1, 60),
        st.sampled_from(["ngp", "cic", "tsc"]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_mass_conservation(self, n, scheme, seed):
        pos = _positions(n, seed)
        mass = np.random.default_rng(seed).random(n)
        mesh = assign_mass(pos, mass, 8, scheme=scheme)
        assert mesh.sum() == pytest.approx(mass.sum(), rel=1e-9)

    @given(st.integers(1, 30), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_interpolation_partition_of_unity(self, n, seed):
        """Interpolating the constant-1 field returns exactly 1."""
        pos = _positions(n, seed)
        ones = np.ones((8, 8, 8))
        for scheme in ("ngp", "cic", "tsc"):
            vals = interpolate_mesh(ones, pos, scheme=scheme)
            np.testing.assert_allclose(vals, 1.0, rtol=1e-12)


class TestDecompositionProperties:
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(10, 400),
        st.integers(0, 10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_owner_partition(self, dx, dy, dz, n, seed):
        pos = _positions(n, seed)
        d = MultisectionDecomposition.from_samples(pos, (dx, dy, dz))
        owners = d.owner_of(pos)
        for r in range(d.n_domains):
            lo, hi = d.domain_bounds(r)
            sel = owners == r
            assert np.all((pos[sel] >= lo) & (pos[sel] < hi))
        assert d.domain_volumes().sum() == pytest.approx(1.0, rel=1e-9)


class TestValidationProperties:
    """Injected corruptions fire exactly the right checker — and clean
    inputs never fire any."""

    @given(
        st.integers(1, 200),
        st.integers(0, 10**6),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.integers(0, 20),
        st.integers(0, 50),
    )
    @settings(max_examples=20, deadline=None)
    def test_nan_injection_fires_finite_check(self, n, seed, bad, step, rank):
        from repro.validate import check_finite

        arr = _positions(n, seed)
        assert check_finite("pos", arr, stage="decomp/exchange") is None
        idx = seed % n
        arr[idx, seed % 3] = bad
        v = check_finite(
            "pos", arr, stage="decomp/exchange", step=step, rank=rank
        )
        assert v is not None
        assert v.check == "finite_fields"
        assert v.stage == "decomp/exchange" and v.step == step and v.rank == rank
        assert v.stats["first_bad_index"] == idx * 3 + seed % 3

    @given(st.integers(0, 10**6), st.integers(-5, 5), st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_particle_loss_fires_count_check(self, n, delta, step):
        from repro.validate import check_particle_count

        v = check_particle_count(
            n, n + delta, stage="decomp/exchange", step=step, rank=0
        )
        if delta == 0:
            assert v is None
        else:
            assert v is not None and v.check == "particle_count"
            assert v.step == step and v.rank == 0

    @given(
        st.floats(0.1, 100.0),
        st.floats(-0.5, 0.5),
        st.floats(1e-6, 1e-2),
    )
    @settings(max_examples=25, deadline=None)
    def test_mass_skew_fires_conservation_check(self, total, skew, tol):
        from repro.validate import check_mesh_mass

        v = check_mesh_mass(
            total * (1.0 + skew), total, stage="mesh/assignment", rel_tol=tol
        )
        # guard band on both sides of the threshold: the check scales
        # the error by max(|mesh|, |particle|) — the *skewed* total —
        # so a positive skew fires only above tol/(1-tol), and floats
        # round at the boundary (tol <= 1e-2 keeps 2% conservative)
        if abs(skew) > tol * 1.02:
            assert v is not None and v.check == "mass_conservation"
            assert v.stage == "mesh/assignment"
        elif abs(skew) < tol * 0.5:
            assert v is None

    @given(st.integers(2, 64), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_clean_octree_never_fires(self, n, seed):
        from repro.validate import check_octree

        pos = _positions(n, seed)
        mass = np.random.default_rng(seed + 1).random(n) + 0.1
        assert check_octree(Octree(pos, mass)) is None

    @given(st.integers(4, 64), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_corrupted_octree_mass_always_caught(self, n, seed):
        from repro.validate import check_octree

        pos = _positions(n, seed)
        tree = Octree(pos, np.ones(n))
        tree.node_mass[0] += 0.5 * n  # skew far beyond tolerance
        v = check_octree(tree, step=3, rank=1)
        assert v is not None and v.check == "octree_moments"
        assert v.step == 3 and v.rank == 1


class TestCommProperties:
    @given(st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_allreduce_matches_local_sum(self, size, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 100, size=size)

        def fn(comm):
            return comm.allreduce(int(values[comm.rank]), op="sum")

        out = run_spmd(size, fn)
        assert all(o == values.sum() for o in out)

    @given(st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_alltoall_is_transpose(self, size, seed):
        def fn(comm):
            sends = [(comm.rank, d) for d in range(comm.size)]
            return comm.alltoall(sends)

        out = run_spmd(size, fn)
        for r, got in enumerate(out):
            assert got == [(s, r) for s in range(size)]
