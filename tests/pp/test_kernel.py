"""Tests of the PP force kernel against the direct-summation reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.forces.direct import direct_forces_cutoff, direct_forces_open
from repro.pp.kernel import InteractionCounter, PPKernel, pp_forces


class TestPPKernelPlain:
    def test_matches_direct_open(self, clustered_particles):
        pos, mass = clustered_particles
        acc = pp_forces(pos, mass, eps=1e-3)
        ref = direct_forces_open(pos, mass, eps=1e-3)
        np.testing.assert_allclose(acc, ref, rtol=1e-13, atol=1e-13)

    def test_fast_rsqrt_close_to_exact(self, clustered_particles):
        pos, mass = clustered_particles
        exact = pp_forces(pos, mass, eps=1e-3, use_fast_rsqrt=False)
        fast = pp_forces(pos, mass, eps=1e-3, use_fast_rsqrt=True)
        mag = np.linalg.norm(exact, axis=1)
        err = np.linalg.norm(fast - exact, axis=1)
        assert np.max(err / np.maximum(mag, 1e-30)) < 1e-6

    def test_self_interaction_zero_without_softening(self):
        kern = PPKernel(eps=0.0)
        pos = np.array([[0.5, 0.5, 0.5]])
        acc = kern.accumulate(pos, pos, np.array([1.0]))
        np.testing.assert_array_equal(acc, 0.0)
        assert np.all(np.isfinite(acc))

    def test_self_interaction_zero_with_softening(self):
        kern = PPKernel(eps=0.01)
        pos = np.array([[0.5, 0.5, 0.5]])
        acc = kern.accumulate(pos, pos, np.array([1.0]))
        np.testing.assert_array_equal(acc, 0.0)


class TestPPKernelCutoff:
    def test_matches_direct_cutoff(self, clustered_particles):
        """Kernel + explicit neighbor offsets == direct cutoff forces.

        Run the kernel with all sources (no minimum image needed because
        the blob is central and rcut is small)."""
        pos, mass = clustered_particles
        split = S2ForceSplit(rcut=0.12)
        kern = PPKernel(split=split, eps=1e-4)
        acc = kern.accumulate(pos, pos, mass)
        ref = direct_forces_cutoff(pos, mass, split, box=1.0, eps=1e-4)
        # boundary particles may interact across the box in ref; select
        # interior targets only
        interior = np.all((pos > 0.15) & (pos < 0.85), axis=1)
        np.testing.assert_allclose(acc[interior], ref[interior], atol=1e-10)

    def test_force_exactly_zero_beyond_cutoff(self):
        split = S2ForceSplit(rcut=0.1)
        kern = PPKernel(split=split)
        tgt = np.array([[0.0, 0.0, 0.0]])
        src = np.array([[0.11, 0.0, 0.0], [0.0, 0.5, 0.0]])
        acc = kern.accumulate(tgt, src, np.ones(2))
        np.testing.assert_array_equal(acc, 0.0)

    def test_box_applies_periodic_images(self):
        split = S2ForceSplit(rcut=0.1)
        tgt = np.array([[0.02, 0.5, 0.5]])
        src = np.array([[0.98, 0.5, 0.5]])
        # open geometry: separation 0.96 > rcut -> zero
        a0 = PPKernel(split=split).accumulate(tgt, src, np.ones(1))
        np.testing.assert_array_equal(a0, 0.0)
        # periodic box: nearest image at separation 0.04 -> attractive -x
        a1 = PPKernel(split=split, box=1.0).accumulate(tgt, src, np.ones(1))
        assert a1[0, 0] < 0


class TestInteractionCounter:
    def test_counts_all_pairs(self, uniform_particles):
        pos, mass = uniform_particles
        counter = InteractionCounter()
        pp_forces(pos, mass, eps=1e-3, chunk=10, counter=counter)
        assert counter.interactions == len(pos) ** 2

    def test_flops_convention(self):
        counter = InteractionCounter()
        counter.record(10, 20)
        assert counter.interactions == 200
        assert counter.flops == 51 * 200

    def test_group_and_list_statistics(self):
        counter = InteractionCounter()
        counter.record(100, 2000)
        counter.record(120, 2600)
        assert counter.mean_group_size == pytest.approx(110.0)
        assert counter.mean_list_length == pytest.approx(2300.0)

    def test_reset_and_merge(self):
        a, b = InteractionCounter(), InteractionCounter()
        a.record(2, 3)
        b.record(4, 5)
        a.merge(b)
        assert a.interactions == 26
        assert a.calls == 2
        a.reset()
        assert a.interactions == 0
        assert a.mean_group_size == 0.0

    def test_streaming_memory_is_constant(self):
        """Regression: the counter must not grow with the call count
        (it used to append per-call Python lists without bound)."""
        import sys

        c = InteractionCounter()
        c.record(1, 1)
        size_small = sys.getsizeof(c) + sum(
            sys.getsizeof(v) for v in vars(c).values()
        )
        for _ in range(10_000):
            c.record(100, 2300)
        size_large = sys.getsizeof(c) + sum(
            sys.getsizeof(v) for v in vars(c).values()
        )
        assert size_large <= size_small + 64  # int widening only
        assert c.calls == 10_001

    def test_streaming_means_match_per_call_log(self):
        """The streamed <Ni>/<Nj> equal averaging an explicit log
        exactly (integer sums are exact below 2**53)."""
        rng = np.random.default_rng(5)
        ni = rng.integers(1, 200, size=500)
        nj = rng.integers(1, 4000, size=500)
        c = InteractionCounter()
        for a, b in zip(ni, nj):
            c.record(int(a), int(b))
        assert c.mean_group_size == np.mean(ni)
        assert c.mean_list_length == np.mean(nj)
        assert c.interactions == int(np.dot(ni, nj))

    def test_record_many_equals_record_loop(self):
        rng = np.random.default_rng(6)
        ni = rng.integers(0, 100, size=64)
        nj = rng.integers(0, 3000, size=64)
        loop, batch = InteractionCounter(), InteractionCounter()
        for a, b in zip(ni, nj):
            loop.record(int(a), int(b))
        batch.record_many(ni, nj)
        assert loop == batch

    def test_merge_after_streaming_conversion(self):
        """merge still composes: combined means weight every call once."""
        a, b = InteractionCounter(), InteractionCounter()
        a.record(10, 100)
        a.record(20, 200)
        b.record(30, 300)
        a.merge(b)
        assert a.calls == 3
        assert a.mean_group_size == pytest.approx(20.0)
        assert a.mean_list_length == pytest.approx(200.0)


class TestPPKernelPotential:
    def test_potential_matches_force_gradient(self):
        split = S2ForceSplit(rcut=0.3)
        kern = PPKernel(split=split, eps=0.0)
        src = np.array([[0.0, 0.0, 0.0]])
        mass = np.array([1.0])
        h = 1e-6
        for x in (0.05, 0.1, 0.14):
            tgt = np.array([[x, 0.0, 0.0]])
            tp = np.array([[x + h, 0.0, 0.0]])
            tm = np.array([[x - h, 0.0, 0.0]])
            dphi = (kern.potential(tp, src, mass) - kern.potential(tm, src, mass)) / (
                2 * h
            )
            acc = kern.accumulate(tgt, src, mass)[0, 0]
            assert acc == pytest.approx(-dphi[0], rel=1e-5)

    def test_potential_zero_beyond_cutoff(self):
        split = S2ForceSplit(rcut=0.1)
        kern = PPKernel(split=split)
        phi = kern.potential(
            np.array([[0.0, 0.0, 0.0]]),
            np.array([[0.2, 0.0, 0.0]]),
            np.array([1.0]),
        )
        np.testing.assert_array_equal(phi, 0.0)
