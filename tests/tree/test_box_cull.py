"""The short-range walk culls by particle bounding boxes.

With a force split, a node is culled when the lower bound on the
distance between its particles' box and the group's box exceeds
``rcut * (1 + 1e-9)``, and an accepted node is listed only when its
center of mass can lie that close to the group.  Past the cutoff the S2
factor is exactly zero, so these culls drop only entries that add
``+/-0`` to every target.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forces.cutoff import S2ForceSplit
from repro.native import traverse as native_traverse
from repro.tree.traversal import TraversalStats, TreeSolver, traverse_all_numpy

WALKS = ["native", "numpy"]


def _clustered(seed, n_halo=400, n_background=200):
    rng = np.random.default_rng(seed)
    halo = np.array([0.3, 0.6, 0.45]) + 0.05 * rng.standard_normal((n_halo, 3))
    return np.mod(np.vstack([halo, rng.random((n_background, 3))]), 1.0)


def _plan(walk, pos, rcut, periodic, theta=0.5, leaf_size=8, group_size=32):
    if walk == "native" and not native_traverse.available():
        pytest.skip("native traversal kernel unavailable")
    solver = TreeSolver(
        theta=theta, leaf_size=leaf_size, group_size=group_size,
        split=S2ForceSplit(rcut), periodic=periodic, box=1.0,
    )
    tree = solver.build(pos, np.ones(len(pos)))
    if walk == "native":
        return tree, solver.build_plan(tree)
    plan = solver.build_plan(tree)
    ref = traverse_all_numpy(
        tree, plan.group_nodes, rcut, theta, periodic, 1.0, TraversalStats()
    )
    plan.part_ptr, plan.part_idx, plan.node_ptr, plan.node_idx = ref[:4]
    return tree, plan


def _gap(lo, hi, glo, ghi, periodic):
    """Box-to-box distance, by trying all 27 periodic images of the
    source box (independent of the walk's short-way-round formula)."""
    shifts = [np.zeros(3)]
    if periodic:
        shifts = [np.array(s, dtype=float) for s in np.ndindex(3, 3, 3)]
        shifts = [s - 1.0 for s in shifts]
    best = np.full(len(lo), np.inf)
    for s in shifts:
        d = np.maximum(np.maximum(lo + s - ghi, glo - hi - s), 0.0)
        best = np.minimum(best, np.sqrt((d * d).sum(axis=1)))
    return best


@pytest.mark.parametrize("walk", WALKS)
@given(
    seed=st.integers(0, 10**6),
    rcut=st.floats(0.02, 0.2),
    periodic=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_no_entry_lies_past_the_cutoff(walk, seed, rcut, periodic):
    """Every listed node's com, and every dumped leaf's box, is within
    ``rcut * (1 + 1e-9)`` of its group's box (to rounding)."""
    tree, plan = _plan(walk, _clustered(seed), rcut, periodic)
    limit = rcut * (1.0 + 1e-9) * (1.0 + 1e-12)
    groups = plan.group_nodes
    gmin, gmax = tree.node_bmin[groups], tree.node_bmax[groups]

    g = np.repeat(np.arange(plan.n_groups), np.diff(plan.node_ptr))
    com = tree.node_com[plan.node_idx]
    assert (_gap(com, com, gmin[g], gmax[g], periodic) <= limit).all()

    leaves = np.flatnonzero(tree.node_is_leaf)
    leaves = leaves[np.argsort(tree.node_lo[leaves])]
    leaf = leaves[np.searchsorted(tree.node_lo[leaves], plan.part_idx, "right") - 1]
    g = np.repeat(np.arange(plan.n_groups), np.diff(plan.part_ptr))
    gap = _gap(tree.node_bmin[leaf], tree.node_bmax[leaf], gmin[g], gmax[g], periodic)
    assert (gap <= limit).all()


def _lopsided(seed):
    """A seeded halo over a background, plus a tight clump of targets
    next to the cell [0.375, 0.5)^3, whose mass sits in its far corner
    and one particle in the corner nearest the clump.  That cell must be
    opened (it is too large for its distance), and a cull by spheres
    around its com drops it with the near particle, 0.05 from the
    clump."""
    rng = np.random.default_rng(seed)
    halo = np.array([0.7, 0.6, 0.4]) + 0.05 * rng.standard_normal((1200, 3))
    background = rng.random((400, 3))
    clump = 0.35 + 0.002 * rng.standard_normal((80, 3))
    far = 0.499 - 0.002 * rng.random((60, 3))
    near = np.array([[0.376, 0.376, 0.376]])
    return np.mod(np.vstack([halo, background, clump, far, near]), 1.0)


def _min_image(d, periodic):
    if periodic:
        d -= np.round(d)
    return d


def _uncovered(tree, plan, rcut, theta, periodic):
    """``(group, source)`` pairs closer than ``rcut`` to some target of
    the group that the plan does not cover.

    Covered means: walking from the root towards the source, the first
    node that passes the acceptance test is listed (or its com lies at
    least ``rcut`` from every target, so its monopole is exactly zero),
    or, when no node on the way is accepted, the source is one of the
    group's particle entries.  No cull is assumed, so a pair a cull
    dropped wrongly shows up here.
    """
    x = tree.pos_sorted
    gi, src = [], []
    for g in range(plan.n_groups):
        lo, hi = plan.group_lo[g], plan.group_hi[g]
        d = _min_image(x[None, :, :] - x[lo:hi, None, :], periodic)
        near = np.flatnonzero((np.einsum("ijk,ijk->ij", d, d) < rcut**2).any(axis=0))
        gi.append(np.full(len(near), g))
        src.append(near)
    gi, src = np.concatenate(gi), np.concatenate(src)
    G, n, nn = plan.n_groups, len(x), tree.n_nodes
    part_keys = np.repeat(np.arange(G), np.diff(plan.part_ptr)) * n + plan.part_idx
    node_keys = np.repeat(np.arange(G), np.diff(plan.node_ptr)) * nn + plan.node_idx
    gc = tree.node_center[plan.group_nodes]
    gr = tree.node_half[plan.group_nodes] * np.sqrt(3.0)
    cur = np.zeros(len(gi), dtype=np.int64)
    bad = []
    while len(cur):
        dx = _min_image(tree.node_com[cur] - gc[gi], periodic)
        gap = np.sqrt(np.einsum("ij,ij->i", dx, dx)) - gr[gi]
        accept = (gap > 0) & (2.0 * tree.node_half[cur] < theta * gap)
        a = np.flatnonzero(accept)
        for k in a[~np.isin(gi[a] * nn + cur[a], node_keys)]:
            lo, hi = plan.group_lo[gi[k]], plan.group_hi[gi[k]]
            d = _min_image(tree.node_com[cur[k]] - x[lo:hi], periodic)
            if (np.einsum("ij,ij->i", d, d) < rcut**2).any():
                bad.append((gi[k], src[k]))
        leaf = np.flatnonzero(~accept & tree.node_is_leaf[cur])
        listed = np.isin(gi[leaf] * n + src[leaf], part_keys)
        bad += list(zip(gi[leaf][~listed], src[leaf][~listed]))
        down = np.flatnonzero(~accept & ~tree.node_is_leaf[cur])
        kids = tree.node_children[cur[down]]
        s = src[down][:, None]
        holds = (kids >= 0) & (tree.node_lo[kids] <= s) & (s < tree.node_hi[kids])
        cur = kids[np.arange(len(down)), np.argmax(holds, axis=1)]
        gi, src = gi[down], src[down]
    return bad


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("periodic", [True, False])
def test_every_pair_inside_the_cutoff_is_covered(walk, periodic):
    """No cull may drop a pair closer than ``rcut``: a cull by spheres
    around a node's com does (its particles sit up to ``2*sqrt(3)*half``
    from the com), the box cull does not."""
    tree, plan = _plan(walk, _lopsided(0), 0.12, periodic, group_size=64)
    assert _uncovered(tree, plan, 0.12, 0.5, periodic) == []
