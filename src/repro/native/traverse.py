"""Bindings for the native plan-construction traversal kernel.

:func:`traverse_all` mirrors :func:`repro.tree.traversal.traverse_all_numpy`
— same inputs, same four CSR arrays, bit for bit — and returns
``None`` when the kernel is unavailable, the stage is disabled or the
tree is not one the kernel walks (children of a node not one contiguous
id run).  ``plan_traverse`` runs the lane width picked for this
CPU (``plan_traverse_lanes()``), ``plan_traverse_w1`` always one lane.
The first successful load self-tests the kernel against the numpy
reference on periodic/open × cutoff/pure-tree configurations.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

import numpy as np

from repro.native import build as _build


def get_lib() -> Optional[ctypes.CDLL]:
    """The verified traversal library, or ``None`` (checked per call)."""
    return _build.library("traverse")


def available() -> bool:
    """Whether the native traversal kernel can be used right now."""
    return get_lib() is not None


#: Capacity allocated per remembered entry count.  Freed blocks are
#: recycled (:mod:`repro.utils.heap`), so the unused tail of a buffer is
#: resident memory, not untouched pages: the slack is what growth needs
#: and no more.  On the spine's clustered input a plan exceeded the
#: largest one before it by at most 3.3% (node entries; 1.3% particle
#: entries; 80 plans on each of seeds 1-3), and a plan that outgrows its buffer
#: only costs a second walk.
_SLACK = 1.05
#: A buffer more than this many times its filled length is copied down
#: to size instead of being handed out as a view.
_LOOSE = 2.0
#: Widest lane count of the C walk: the node table is padded so that a
#: vector load at the last node stays inside it.
_MAX_LANES = 4


def _fit(arr: np.ndarray, n: int) -> np.ndarray:
    """``arr[:n]``: a view while the unused tail of ``arr`` is modest
    (it stays allocated, and resident, for as long as the plan lives), a
    copy that lets the oversized buffer go when it is not."""
    head = arr[:n]
    return head if len(arr) <= _LOOSE * n + 1 else head.copy()


class PlanWalker:
    """The native traversal plus a memory of how large its plans get.

    The C walk writes into caller-allocated arrays and, when they are too
    small, counts on without writing and asks for a second walk.  A
    long-lived walker (one per :class:`~repro.tree.traversal.TreeSolver`)
    sizes its arrays from the largest plan it has produced so far, so in
    steady state every plan is built in one walk and never copied.
    """

    def __init__(self) -> None:
        #: largest (particle, node) entry counts of any plan so far
        self.high_water: Optional[Tuple[int, int]] = None

    def _walk(
        self, lib, tree, groups: np.ndarray, rcut, theta: float,
        periodic: bool, box: float,
    ) -> Optional[Tuple]:
        Gn = len(groups)
        n_nodes = tree.n_nodes
        if n_nodes >= 2**31:
            return None  # the FIFO holds int32 node ids
        groups = np.ascontiguousarray(groups, dtype=np.int64)
        # com x|y|z, half, bmin x|y|z, bmax x|y|z, one padded row each:
        # a node's children are consecutive ids, so a run of siblings is
        # one vector load
        stride = n_nodes + _MAX_LANES - 1
        node_soa = np.zeros((10, stride))
        node_soa[:3, :n_nodes] = tree.node_com.T
        node_soa[3, :n_nodes] = tree.node_half
        node_soa[4:7, :n_nodes] = tree.node_bmin.T
        node_soa[7:, :n_nodes] = tree.node_bmax.T
        node_center = np.ascontiguousarray(tree.node_center, dtype=np.float64)
        node_lo = np.ascontiguousarray(tree.node_lo, dtype=np.int64)
        node_hi = np.ascontiguousarray(tree.node_hi, dtype=np.int64)
        is_leaf = np.ascontiguousarray(tree.node_is_leaf.view(np.uint8))
        children = np.ascontiguousarray(tree.node_children, dtype=np.int64)
        queue = np.empty(n_nodes, dtype=np.int32)
        counts = np.zeros(3, dtype=np.int64)
        if self.high_water is None:
            part_cap = node_cap = max(1024, 8 * tree.n_particles)
        else:
            part_cap, node_cap = (int(_SLACK * c) + 1 for c in self.high_water)
        for _ in range(2):
            part_ptr = np.empty(Gn + 1, dtype=np.int64)
            node_ptr = np.empty(Gn + 1, dtype=np.int64)
            part_idx = np.empty(part_cap, dtype=np.int64)
            node_idx = np.empty(node_cap, dtype=np.int64)
            rc = lib.plan_traverse(
                groups, Gn, node_soa, stride,
                node_center, node_lo, node_hi, is_leaf, children,
                theta, int(periodic), box,
                int(rcut is not None), 0.0 if rcut is None else float(rcut),
                part_cap, node_cap,
                part_ptr, part_idx, node_ptr, node_idx, queue, counts,
            )
            np_count = int(counts[1])
            nn_count = int(counts[2])
            if rc == 0:
                hw = self.high_water or (0, 0)
                self.high_water = (max(hw[0], np_count), max(hw[1], nn_count))
                return (
                    part_ptr,
                    _fit(part_idx, np_count),
                    node_ptr,
                    _fit(node_idx, nn_count),
                    int(counts[0]),
                )
            if rc != -1:
                return None  # children not a contiguous run: not our tree
            # the plan outgrew the arrays: walk again into exact ones
            part_cap, node_cap = np_count, nn_count
        return None

    def traverse_all(
        self, tree, groups, rcut, theta, periodic, box, stats
    ) -> Optional[Tuple]:
        """Native drop-in for ``traverse_all_numpy``; ``None`` = fall back."""
        Gn = len(groups)
        if Gn == 0:
            return None  # the numpy path handles the empty plan shape
        lib = get_lib()
        if lib is None:
            return None
        got = self._walk(lib, tree, np.asarray(groups), rcut, theta, periodic, box)
        if got is None:
            return None
        stats.nodes_visited += got[4]
        return got[:4]


def traverse_all(tree, groups, rcut, theta, periodic, box, stats) -> Optional[Tuple]:
    """One-off :meth:`PlanWalker.traverse_all` with no memory of earlier
    plans (the first walk then usually only counts)."""
    return PlanWalker().traverse_all(tree, groups, rcut, theta, periodic, box, stats)


# -- self-test ----------------------------------------------------------------


def _self_test(lib) -> bool:
    """Bitwise plan comparison vs the numpy traversal on eight configs
    (the walk skips the image round of near batches, numpy never does),
    over all groups and over the groups of a ghosted plan (targets on
    one side of the box only)."""
    from repro.tree.octree import Octree
    from repro.tree.traversal import TraversalStats, traverse_all_numpy

    rng = np.random.default_rng(0xBEEF)
    pos = np.mod(
        np.vstack(
            [0.5 + 0.06 * rng.standard_normal((160, 3)), rng.random((96, 3))]
        ),
        1.0,
    )
    mass = np.full(len(pos), 1.0 / len(pos))
    tree = Octree(pos, mass, leaf_size=4)
    groups = np.array(tree.group_nodes(24), dtype=np.int64)
    groups = groups[np.argsort(tree.node_lo[groups], kind="stable")]
    ghosted = groups[tree.node_com[groups, 0] < 0.5]

    # one walker throughout: the plans differ in size, so both the
    # remembered-capacity walk and the count-then-retry walk are checked
    walker = PlanWalker()
    for periodic in (True, False):
        for rcut in (None, 3.0 / 16):
            for theta, gs in ((0.4, groups), (0.8, ghosted)):
                ref_stats = TraversalStats()
                ref = traverse_all_numpy(
                    tree, gs, rcut, theta, periodic, 1.0, ref_stats
                )
                got = walker._walk(lib, tree, gs, rcut, theta, periodic, 1.0)
                if got is None or got[4] != ref_stats.nodes_visited:
                    return False
                if not all(np.array_equal(got[k], ref[k]) for k in range(4)):
                    return False
    return True


__all__ = ["PlanWalker", "available", "get_lib", "traverse_all"]
