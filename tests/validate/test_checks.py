"""Unit tests of the composable invariant checkers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decomp.multisection import MultisectionDecomposition
from repro.tree.octree import Octree
from repro.validate import (
    InvariantViolation,
    array_stats,
    check_domain_containment,
    check_domain_partition,
    check_finite,
    check_in_box,
    check_mesh_mass,
    check_momentum,
    check_octree,
    check_particle_count,
    check_positive,
    first_violation,
)


class TestArrayStats:
    def test_counts_and_extremes(self):
        arr = np.array([1.0, np.nan, -3.0, np.inf, 2.0])
        s = array_stats(arr, "x")
        assert s["n_nan"] == 1 and s["n_inf"] == 1
        assert s["first_bad_index"] == 1
        assert s["min"] == -3.0 and s["max"] == 2.0

    def test_clean_array(self):
        s = array_stats(np.arange(4.0), "x")
        assert s["n_nan"] == 0 and s["n_inf"] == 0


class TestViolation:
    def test_message_carries_context(self):
        v = InvariantViolation(
            "boom", check="finite_fields", stage="decomp/exchange",
            step=3, rank=1,
        )
        msg = str(v)
        assert "finite_fields" in msg and "decomp/exchange" in msg
        assert "step 3" in msg and "rank 1" in msg

    def test_summary_round_trip(self):
        v = InvariantViolation(
            "boom", check="particle_count", stage="decomp/exchange",
            step=2, rank=0, stats={"n": np.int64(5)},
        )
        back = InvariantViolation.from_summary(v.summary())
        assert back.check == v.check and back.stage == v.stage
        assert back.step == v.step and back.rank == v.rank
        assert str(back) == str(v)  # no double prefixing


class TestFieldSweeps:
    def test_finite_clean(self):
        assert check_finite("pos", np.random.rand(10, 3), stage="s") is None

    def test_finite_detects_nan_and_inf(self):
        arr = np.ones((4, 3))
        arr[2, 1] = np.nan
        v = check_finite("pos", arr, stage="decomp/exchange", step=5, rank=2)
        assert v is not None
        assert v.check == "finite_fields"
        assert v.stage == "decomp/exchange"
        assert v.step == 5 and v.rank == 2
        assert v.stats["n_nan"] == 1

    def test_finite_empty_ok(self):
        assert check_finite("pos", np.zeros((0, 3)), stage="s") is None

    def test_positive_flags_zero_negative_nan(self):
        for bad in (0.0, -1.0, np.nan):
            v = check_positive("mass", np.array([1.0, bad]), stage="s")
            assert v is not None and v.check == "positive_mass"
        assert check_positive("mass", np.array([1.0, 2.0]), stage="s") is None

    def test_in_box(self):
        assert check_in_box("pos", np.random.rand(8, 3), stage="s") is None
        v = check_in_box("pos", np.array([[0.5, 1.5, 0.5]]), stage="s")
        assert v is not None and v.check == "in_box"
        # NaN counts as out of box
        assert check_in_box("pos", np.array([[np.nan, 0, 0]]), stage="s")


class TestConservation:
    def test_particle_count(self):
        assert check_particle_count(10, 10, stage="s") is None
        v = check_particle_count(10, 9, stage="decomp/exchange", rank=1)
        assert v is not None and v.check == "particle_count"
        assert "-1" in str(v)

    def test_momentum_exact(self):
        p = np.array([1.0, -2.0, 0.5])
        assert check_momentum(p, p.copy(), stage="s") is None
        v = check_momentum(p, p + 1e-3, stage="s", scale=1.0)
        assert v is not None and v.check == "momentum_conservation"

    def test_momentum_tolerates_reassociation(self):
        p = np.array([1.0, -2.0, 0.5])
        assert check_momentum(p, p + 1e-13, stage="s", scale=1.0) is None

    def test_mesh_mass(self):
        assert check_mesh_mass(1.0, 1.0 + 1e-12, stage="s") is None
        v = check_mesh_mass(0.9, 1.0, stage="mesh/assignment")
        assert v is not None and v.check == "mass_conservation"
        assert check_mesh_mass(np.nan, 1.0, stage="s") is not None


class TestOctreeCheck:
    def test_clean_tree(self):
        rng = np.random.default_rng(0)
        tree = Octree(rng.random((64, 3)), rng.random(64) + 0.1)
        assert check_octree(tree) is None

    def test_detects_tampered_mass(self):
        rng = np.random.default_rng(1)
        tree = Octree(rng.random((64, 3)), np.ones(64))
        tree.node_mass[0] *= 2.0  # simulated in-memory corruption
        v = check_octree(tree, step=1, rank=0)
        assert v is not None and v.check == "octree_moments"

    def test_detects_tampered_com(self):
        rng = np.random.default_rng(2)
        tree = Octree(rng.random((64, 3)), np.ones(64))
        # push a node's COM far outside its cube
        idx = tree.n_nodes - 1
        tree.node_com[idx] = tree.node_center[idx] + 10.0
        v = check_octree(tree)
        assert v is not None and v.check == "octree_com_bounds"

    def test_detects_nonfinite_com(self):
        rng = np.random.default_rng(3)
        tree = Octree(rng.random((64, 3)), np.ones(64))
        tree.node_com[1, 0] = np.nan
        v = check_octree(tree)
        assert v is not None and v.check == "octree_moments"

    @pytest.mark.parametrize("corner", ["node_bmin", "node_bmax"])
    @pytest.mark.parametrize("where", ["leaf", "internal"])
    def test_detects_shrunken_box(self, corner, where):
        """A box corrupted smaller would let the walk cull in-range
        pairs: it no longer holds all its particles."""
        rng = np.random.default_rng(4)
        tree = Octree(rng.random((64, 3)), np.ones(64), leaf_size=4)
        nodes = np.flatnonzero(tree.node_is_leaf == (where == "leaf"))
        idx = int(nodes[-1])
        width = tree.node_bmax[idx] - tree.node_bmin[idx]
        box = getattr(tree, corner)
        box[idx, 1] += (0.25 if corner == "node_bmin" else -0.25) * max(width[1], 1e-3)
        v = check_octree(tree, step=2)
        assert v is not None and v.check == "octree_moments" and v.step == 2
        assert v.stats["first_node"] == idx

    def test_detects_nan_box(self):
        rng = np.random.default_rng(5)
        tree = Octree(rng.random((64, 3)), np.ones(64))
        tree.node_bmax[0, 2] = np.nan
        v = check_octree(tree)
        assert v is not None and v.check == "octree_moments"

    def test_detects_com_outside_its_box(self):
        """Inside the node's cube but outside its particles' box."""
        pos = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
        tree = Octree(pos, np.ones(3), leaf_size=1)
        idx = int(np.flatnonzero(tree.node_is_leaf)[0])
        tree.node_com[idx] = tree.node_bmax[idx] + 1e-3
        assert (np.abs(tree.node_com[idx] - tree.node_center[idx])
                < tree.node_half[idx]).all()
        v = check_octree(tree)
        assert v is not None and v.check == "octree_com_bounds"


class TestDomainChecks:
    def test_uniform_partition_clean(self):
        d = MultisectionDecomposition.uniform((2, 2, 1))
        assert check_domain_partition(d) is None

    def test_broken_bounds(self):
        d = MultisectionDecomposition.uniform((2, 1, 1))
        d.x_bounds[1] = d.x_bounds[0] - 0.1  # overlap
        v = check_domain_partition(d)
        assert v is not None and v.check == "domain_partition"

    def test_containment(self):
        d = MultisectionDecomposition.uniform((2, 1, 1))
        inside = np.array([[0.1, 0.5, 0.5]])   # rank 0's half
        outside = np.array([[0.9, 0.5, 0.5]])  # rank 1's half
        assert check_domain_containment(inside, d, 0) is None
        v = check_domain_containment(outside, d, 0, step=4)
        assert v is not None and v.check == "domain_containment"
        assert v.rank == 0 and v.step == 4


def test_first_violation():
    v = InvariantViolation("x", check="c", stage="s")
    assert first_violation(None, None) is None
    assert first_violation(None, v, None) is v
