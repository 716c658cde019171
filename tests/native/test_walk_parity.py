"""The sibling-batch walk: the reference plan at every lane width.

``_traverse.c`` tests a node's children when the node is opened, four
siblings per vector or one at a time, and must emit
``traverse_all_numpy``'s plan entry for entry with the same
``nodes_visited`` — skipping the image round of a near batch, which
numpy never skips — whether its arrays are sized from an earlier plan
or from the particle count.  The solver-level tests at the bottom also
run with ``REPRO_NO_NATIVE_TRAVERSE=1``, where they hold the numpy
fallback to the same plan shape.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.forces.cutoff import S2ForceSplit
from repro.native import traverse
from repro.tree.octree import Octree
from repro.tree.traversal import TraversalStats, TreeSolver, traverse_all_numpy

BOX = 1.0


@pytest.fixture(scope="module")
def lib():
    lib = traverse.get_lib()
    if lib is None:
        pytest.skip("native traversal kernel unavailable")
    return lib


@pytest.fixture(scope="module", params=["dispatched", "one-lane"])
def entry(request, lib):
    """Stands in for the library with one of the two instantiations."""
    if request.param == "dispatched":
        return lib
    return types.SimpleNamespace(plan_traverse=lib.plan_traverse_w1)


@pytest.fixture(scope="module")
def tree():
    """A halo over a uniform background, split down to single particles:
    internal nodes with every child count from 1 to 8, and groups on all
    sides of the periodic box."""
    rng = np.random.default_rng(2012)
    pos = np.mod(
        np.vstack(
            [0.47 + 0.05 * rng.standard_normal((500, 3)), rng.random((700, 3))]
        ),
        BOX,
    )
    tree = Octree(pos, np.full(len(pos), 1.0 / len(pos)), leaf_size=1)
    kids = (tree.node_children >= 0).sum(axis=1)[~tree.node_is_leaf]
    assert set(kids) == set(range(1, 9))
    return tree


def _groups(tree, size=16):
    groups = np.array(tree.group_nodes(size), dtype=np.int64)
    return groups[np.argsort(tree.node_lo[groups], kind="stable")]


def _assert_plan(got, ref, visited):
    assert got is not None and len(got) == len(ref) + 1 == 5
    assert got[4] == visited
    for k in range(4):
        assert got[k].dtype == ref[k].dtype and np.array_equal(got[k], ref[k])


@pytest.mark.parametrize("theta", [0.4, 0.8])
@pytest.mark.parametrize("rcut", [None, 0.11])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("remembered", [True, False])
def test_plan_is_the_reference_plan(entry, tree, remembered, periodic, rcut, theta):
    """``remembered``: the walker sizes its arrays from an earlier walk
    of the same plan (one tight walk), else from the particle count."""
    groups = _groups(tree)
    stats = TraversalStats()
    ref = traverse_all_numpy(tree, groups, rcut, theta, periodic, BOX, stats)
    walker = traverse.PlanWalker()
    if remembered:
        walker.high_water = (len(ref[1]), len(ref[3]))
    got = walker._walk(entry, tree, groups, rcut, theta, periodic, BOX)
    _assert_plan(got, ref, stats.nodes_visited)


def _mixed_batches(tree, g, theta, lanes=4):
    """Sibling batches the walk tests for group ``g`` (pure tree) in which
    some lane is past ``box/2`` of the group center and some is not."""
    center = tree.node_center[g]
    gr = tree.node_half[g] * np.sqrt(3.0)
    mixed, frontier = 0, [0]
    while frontier:
        nd = frontier.pop(0)
        kids = tree.node_children[nd][tree.node_children[nd] >= 0]
        for b in range(0, len(kids), lanes):
            dx = tree.node_com[kids[b:b + lanes]] - center
            far = (np.abs(dx) > BOX / 2).any(axis=1)
            mixed += bool(far.any() and not far.all())
        for k in kids:
            dx = tree.node_com[k] - center
            dx -= np.round(dx / BOX) * BOX
            gap = np.sqrt(dx @ dx) - gr
            accept = gap > 0 and 2.0 * tree.node_half[k] < theta * gap
            if not accept and not tree.node_is_leaf[k]:
                frontier.append(k)
    return mixed


def test_batch_straddling_half_the_box(entry, tree):
    """A group at the box edge: its far lanes take the image round, the
    near lanes of the same vector must come through it unchanged."""
    groups = _groups(tree)
    corner = groups[np.argmin(np.abs(tree.node_center[groups] - 0.02).sum(axis=1))]
    assert _mixed_batches(tree, corner, 0.4) > 0
    one = np.array([corner])
    stats = TraversalStats()
    ref = traverse_all_numpy(tree, one, None, 0.4, True, BOX, stats)
    got = traverse.PlanWalker()._walk(entry, tree, one, None, 0.4, True, BOX)
    _assert_plan(got, ref, stats.nodes_visited)


@pytest.mark.parametrize("periodic", [True, False])
def test_capacity_retry_counts_then_walks_again(entry, tree, periodic):
    groups = _groups(tree)
    stats = TraversalStats()
    ref = traverse_all_numpy(tree, groups, 0.11, 0.5, periodic, BOX, stats)
    calls = []

    def counted(*args):
        calls.append(entry.plan_traverse(*args))
        return calls[-1]

    walker = traverse.PlanWalker()
    walker.high_water = (1, 1)  # every buffer far too small
    got = walker._walk(
        types.SimpleNamespace(plan_traverse=counted),
        tree, groups, 0.11, 0.5, periodic, BOX,
    )
    assert calls == [-1, 0]
    _assert_plan(got, ref, stats.nodes_visited)
    assert walker.high_water == (len(ref[1]), len(ref[3]))
    # the retry allocated exactly what the count asked for
    assert got[1].base is None or len(got[1].base) == len(ref[1])


def test_first_walk_allocates_no_shift_arrays(lib, tree, monkeypatch):
    """The walk emits indices only: it never asks numpy for an
    ``(n, 3)`` array of per-entry image shifts."""
    shapes = []
    real_empty = np.empty

    def recording(shape, *args, **kwargs):
        shapes.append(shape)
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(traverse.np, "empty", recording)
    got = traverse.PlanWalker()._walk(lib, tree, _groups(tree), 0.11, 0.5, True, BOX)
    assert got is not None and len(got) == 5
    assert not [s for s in shapes if isinstance(s, tuple) and len(s) == 2]


def test_children_not_one_run_fall_back_to_numpy(lib, tree):
    """Neither builder makes such a tree; the walker must decline it
    rather than load the wrong siblings."""
    children = tree.node_children.copy()
    nd = int(np.flatnonzero((children >= 0).sum(axis=1) >= 2)[0])
    row = children[nd]
    a, b = np.flatnonzero(row >= 0)[:2]
    row[a], row[b] = row[b], row[a]  # same children, ids out of order
    broken = types.SimpleNamespace(
        **{
            name: getattr(tree, name)
            for name in ("n_nodes", "n_particles", "node_com", "node_center",
                         "node_half", "node_lo", "node_hi", "node_is_leaf",
                         "node_bmin", "node_bmax")
        },
        node_children=children,
    )
    groups = _groups(tree)
    stats = TraversalStats()
    assert traverse.PlanWalker().traverse_all(
        broken, groups, None, 0.5, True, BOX, stats
    ) is None
    assert stats.nodes_visited == 0
    solver = TreeSolver(theta=0.5, periodic=True, box=BOX)
    got = solver._traverse_all(broken, groups, None, TraversalStats())
    ref = traverse_all_numpy(broken, groups, None, 0.5, True, BOX, TraversalStats())
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


def test_dispatched_width_is_one_of_the_instantiations(lib):
    assert lib.plan_traverse_lanes() in (1, 4)


# -- solver level: native walk or numpy fallback, the same plan ----------------


@pytest.mark.parametrize("numpy_walk", [False, True])
@pytest.mark.parametrize("periodic", [True, False])
def test_solver_plan_matches_reference(tree, periodic, numpy_walk, monkeypatch):
    if numpy_walk:
        monkeypatch.setenv("REPRO_NO_NATIVE_TRAVERSE", "1")
    solver = TreeSolver(theta=0.5, group_size=16, periodic=periodic, box=BOX)
    groups = _groups(tree)
    stats, ref_stats = TraversalStats(), TraversalStats()
    got = solver._traverse_all(tree, groups, None, stats)
    ref = traverse_all_numpy(tree, groups, None, 0.5, periodic, BOX, ref_stats)
    assert stats.nodes_visited == ref_stats.nodes_visited
    _assert_plan(tuple(got) + (stats.nodes_visited,), ref, ref_stats.nodes_visited)


@pytest.mark.parametrize("periodic", [True, False])
def test_ghosted_plan_walks_the_reference_plan(tree, periodic):
    """A distributed rank's plan: targets only on one side of x = 0.45,
    so some groups are dropped and some keep ghost rows.  The box cull
    reads the whole group's box (ghosts included) in both walks."""
    mask = tree.pos_sorted[:, 0] < 0.45
    solver = TreeSolver(
        theta=0.5, group_size=16, periodic=periodic, box=BOX,
        split=S2ForceSplit(0.11),
    )
    stats, ref_stats = TraversalStats(), TraversalStats()
    plan = solver.build_plan(tree, mask_sorted=mask, stats=stats)
    counts = plan.target_counts
    assert 0 < counts.min() and (counts < plan.group_hi - plan.group_lo).any()
    assert plan.n_groups < len(_groups(tree))
    ref = traverse_all_numpy(
        tree, plan.group_nodes, 0.11, 0.5, periodic, BOX, ref_stats
    )
    got = (plan.part_ptr, plan.part_idx, plan.node_ptr, plan.node_idx)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    assert stats.nodes_visited == ref_stats.nodes_visited
