"""Array-based linear octree.

The tree is built over a cubic root volume by sorting particles along a
Morton curve and recursively partitioning the sorted key array — the
particles of every cell form a contiguous slice, so node moments
(mass, center of mass, quadrupole) are O(1) per node via prefix sums.

The structure is immutable once built; GreeM likewise rebuilds the tree
every step ("tree construction" in Table I) rather than updating it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.native import treebuild as _native_tree
from repro.tree.morton import MORTON_BITS, morton_keys

__all__ = ["Octree", "build_nodes_numpy", "node_bounds_numpy"]

_OCTANT_OFFSETS = np.array(
    [
        [1.0 if c & 4 else -1.0, 1.0 if c & 2 else -1.0, 1.0 if c & 1 else -1.0]
        for c in range(8)
    ]
)


def build_nodes_numpy(
    keys_sorted: np.ndarray,
    n: int,
    origin: np.ndarray,
    size: float,
    leaf_size: int,
    max_depth: int,
) -> Tuple[np.ndarray, ...]:
    """Reference node build over sorted Morton keys.

    Level-synchronous vectorized build: every level splits ALL its
    oversized nodes at once with a single searchsorted over the Morton
    keys — no per-node Python recursion ("tree construction" is a
    Table I row; this keeps it fast even in pure Python).  The native
    kernel (:mod:`repro.native.treebuild`) reproduces the node arrays
    bit for bit; this function is its fallback and self-test reference.

    Returns ``(center, half, lo, hi, depth, is_leaf, children)``.
    """
    centers = [origin + 0.5 * size]
    halves = [size / 2.0]
    los = [0]
    his = [n]
    depths = [0]
    children: List[np.ndarray] = [np.full(8, -1, dtype=np.int64)]
    is_leaf = [True]  # flipped when a node gets split

    frontier = np.array([0], dtype=np.int64)  # node ids at this level
    depth = 0
    while frontier.size and depth < max_depth:
        lo_arr = np.array([los[i] for i in frontier], dtype=np.int64)
        hi_arr = np.array([his[i] for i in frontier], dtype=np.int64)
        split = (hi_arr - lo_arr) > leaf_size
        if not split.any():
            break
        parents = frontier[split]
        plo = lo_arr[split]

        # child boundaries for every splitting parent in one call:
        # particles sorted by key means sorted by child-level prefix
        shift = np.uint64(3 * (max_depth - depth - 1))
        pref = keys_sorted >> shift
        parent_pref = pref[plo].astype(np.uint64) >> np.uint64(3)
        targets = (
            parent_pref[:, None] * np.uint64(8)
            + np.arange(9, dtype=np.uint64)[None, :]
        )
        bounds = np.searchsorted(pref, targets)

        next_frontier: List[int] = []
        for row, parent in enumerate(parents):
            pc = centers[parent]
            ph = halves[parent]
            is_leaf[parent] = False
            kids = children[parent]
            for c in range(8):
                clo, chi = int(bounds[row, c]), int(bounds[row, c + 1])
                if chi == clo:
                    continue
                idx = len(centers)
                centers.append(pc + _OCTANT_OFFSETS[c] * ph / 2.0)
                halves.append(ph / 2.0)
                los.append(clo)
                his.append(chi)
                depths.append(depth + 1)
                children.append(np.full(8, -1, dtype=np.int64))
                is_leaf.append(True)
                kids[c] = idx
                next_frontier.append(idx)
        frontier = np.array(next_frontier, dtype=np.int64)
        depth += 1

    return (
        np.array(centers),
        np.array(halves),
        np.array(los, dtype=np.int64),
        np.array(his, dtype=np.int64),
        np.array(depths, dtype=np.int64),
        np.array(is_leaf, dtype=bool),
        np.array(children, dtype=np.int64),
    )


def node_bounds_numpy(
    pos_sorted: np.ndarray,
    node_lo: np.ndarray,
    node_depth: np.ndarray,
    node_is_leaf: np.ndarray,
    node_children: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference per-node particle bounding boxes ``(bmin, bmax)``.

    Leaves tile the sorted particles, so one ``reduceat`` over their
    starts gives every leaf box; internal nodes then take the extremes
    of their children, one level at a time from the deepest.  Minima
    and maxima are exact and leaf boxes are stored as ``x + 0.0`` (no
    ``-0.0``, whichever zero a reduction picks), so the native kernel's
    boxes equal these bit for bit.
    """
    n_nodes = len(node_lo)
    bmin = np.empty((n_nodes, 3))
    bmax = np.empty((n_nodes, 3))
    leaves = np.flatnonzero(node_is_leaf)
    leaves = leaves[np.argsort(node_lo[leaves], kind="stable")]
    bmin[leaves] = np.minimum.reduceat(pos_sorted, node_lo[leaves], axis=0)
    bmax[leaves] = np.maximum.reduceat(pos_sorted, node_lo[leaves], axis=0)
    bmin[leaves] += 0.0
    bmax[leaves] += 0.0
    internal = np.flatnonzero(~node_is_leaf)
    for d in range(int(node_depth.max(initial=0)), -1, -1):
        nd = internal[node_depth[internal] == d]
        kids = node_children[nd]
        has = (kids >= 0)[:, :, None]
        bmin[nd] = np.where(has, bmin[kids], np.inf).min(axis=1)
        bmax[nd] = np.where(has, bmax[kids], -np.inf).max(axis=1)
    return bmin, bmax


class Octree:
    """A static Barnes-Hut octree over ``[origin, origin+size)^3``.

    Parameters
    ----------
    pos, mass:
        Particle positions ``(N, 3)`` and masses ``(N,)``.
    size, origin:
        Root cube geometry (defaults: unit cube at the origin).
    leaf_size:
        Maximum particle count of a leaf cell.
    compute_quadrupole:
        Also compute traceless quadrupole moments per node.

    Attributes
    ----------
    perm:
        Permutation sorting the input particles into Morton order; all
        per-particle arrays inside the tree (``pos_sorted`` etc.) use
        this order.
    node_center, node_half, node_lo, node_hi, node_depth, node_is_leaf,
    node_children, node_mass, node_com, node_quad, node_bmin, node_bmax:
        Per-node arrays; node 0 is the root.  ``node_children`` is
        ``(n_nodes, 8)`` with -1 for absent children; ``node_bmin`` and
        ``node_bmax`` are the corners of the bounding box of the node's
        particles (what the traversal culls by).
    """

    MAX_DEPTH = MORTON_BITS

    def __init__(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        size: float = 1.0,
        origin=0.0,
        leaf_size: int = 8,
        compute_quadrupole: bool = False,
    ) -> None:
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("pos must be (N, 3)")
        if len(mass) != len(pos):
            raise ValueError("mass and pos length mismatch")
        if len(pos) == 0:
            raise ValueError("cannot build a tree with zero particles")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.size = float(size)
        self.origin = np.broadcast_to(np.asarray(origin, dtype=np.float64), (3,))
        self.leaf_size = int(leaf_size)
        self.has_quadrupole = bool(compute_quadrupole)

        sorted_keys = _native_tree.morton_build(
            pos, self.origin, self.size, MORTON_BITS
        )
        if sorted_keys is not None:
            self._keys, self.perm = sorted_keys
        else:
            keys = morton_keys(pos, self.origin, self.size)
            self.perm = np.argsort(keys, kind="stable")
            self._keys = keys[self.perm]
        self.pos_sorted = pos[self.perm]
        self.mass_sorted = mass[self.perm]

        self._build()
        self._compute_moments()
        self.node_bmin, self.node_bmax = self.particle_bounds()

    # -- construction ---------------------------------------------------------
    #
    # The node build runs in the native kernel when available (bitwise
    # self-tested against build_nodes_numpy) and falls back to the
    # level-synchronous vectorized numpy builder otherwise.

    _OCTANT_OFFSETS = _OCTANT_OFFSETS

    def _build(self) -> None:
        n = len(self.pos_sorted)
        nodes = _native_tree.build_nodes(
            self._keys,
            self.leaf_size,
            self.MAX_DEPTH,
            self.origin + 0.5 * self.size,
            self.size / 2.0,
        )
        if nodes is None:
            nodes = build_nodes_numpy(
                self._keys, n, self.origin, self.size, self.leaf_size, self.MAX_DEPTH
            )
        (
            self.node_center,
            self.node_half,
            self.node_lo,
            self.node_hi,
            self.node_depth,
            self.node_is_leaf,
            self.node_children,
        ) = nodes

    def _compute_moments(self) -> None:
        m = self.mass_sorted
        x = self.pos_sorted
        cm = np.concatenate([[0.0], np.cumsum(m)])
        cmx = np.vstack([np.zeros(3), np.cumsum(m[:, None] * x, axis=0)])
        lo, hi = self.node_lo, self.node_hi
        self.node_mass = cm[hi] - cm[lo]
        with np.errstate(invalid="ignore"):
            self.node_com = (cmx[hi] - cmx[lo]) / self.node_mass[:, None]
        # empty nodes never exist (children with zero particles are not
        # created), but a zero-total-mass node can: park its com at the
        # geometric center.  Only zero-mass nodes get the fallback — a
        # non-finite com on a massive node means the particle data
        # itself is corrupt (NaN positions or masses), which must
        # surface instead of being silently parked.
        bad = ~np.isfinite(self.node_com).all(axis=1)
        zero_mass = self.node_mass == 0.0
        corrupt = bad & ~zero_mass
        if corrupt.any():
            from repro.validate.errors import InvariantViolation, array_stats

            idx = int(np.flatnonzero(corrupt)[0])
            raise InvariantViolation(
                f"{int(corrupt.sum())} node(s) with nonzero mass have a "
                f"non-finite center of mass (first: node {idx}, mass "
                f"{self.node_mass[idx]!r}) — particle positions or masses "
                f"contain non-finite values",
                check="octree_moments",
                stage="tree/moments",
                stats={
                    "pos": array_stats(self.pos_sorted, "pos"),
                    "mass": array_stats(self.mass_sorted, "mass"),
                    "first_node": idx,
                },
            )
        self.node_com[bad] = self.node_center[bad]

        if self.has_quadrupole:
            pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
            second = np.stack([m * x[:, a] * x[:, b] for a, b in pairs], axis=1)
            cs = np.vstack([np.zeros(6), np.cumsum(second, axis=0)])
            s = cs[hi] - cs[lo]  # raw second moments per node
            c = self.node_com
            M = self.node_mass
            quad = np.zeros((len(lo), 3, 3))
            for i, (a, b) in enumerate(pairs):
                quad[:, a, b] = s[:, i] - M * c[:, a] * c[:, b]
                quad[:, b, a] = quad[:, a, b]
            tr = np.trace(quad, axis1=1, axis2=2)
            self.node_quad = 3.0 * quad - tr[:, None, None] * np.eye(3)
        else:
            self.node_quad = None

    def particle_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each node's particle bounding box ``(bmin, bmax)``, computed
        from the particles: in the native kernel when available
        (bitwise self-tested against :func:`node_bounds_numpy`), else
        in numpy."""
        got = _native_tree.node_bounds(
            self.pos_sorted, self.node_lo, self.node_hi, self.node_is_leaf,
            self.node_children,
        )
        if got is not None:
            return got
        return node_bounds_numpy(
            self.pos_sorted, self.node_lo, self.node_depth, self.node_is_leaf,
            self.node_children,
        )

    # -- queries --------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_half)

    @property
    def n_particles(self) -> int:
        return len(self.pos_sorted)

    def leaves(self) -> np.ndarray:
        """Indices of all leaf nodes."""
        return np.flatnonzero(self.node_is_leaf)

    def group_nodes(self, group_size: int) -> List[int]:
        """Nodes used as traversal groups by Barnes' modified algorithm.

        Returns the shallowest nodes holding at most ``group_size``
        particles; every particle belongs to exactly one group.
        """
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        native = _native_tree.group_nodes(
            self.node_lo,
            self.node_hi,
            self.node_children,
            self.node_is_leaf,
            group_size,
        )
        if native is not None:
            return native
        out: List[int] = []
        stack = [0]
        while stack:
            i = stack.pop()
            if (
                self.node_hi[i] - self.node_lo[i] <= group_size
                or self.node_is_leaf[i]
            ):
                out.append(i)
            else:
                stack.extend(c for c in self.node_children[i] if c >= 0)
        return out

    def stats(self) -> dict:
        """Structural summary (depths, occupancies, branching)."""
        leaves = self.leaves()
        occupancy = self.node_hi[leaves] - self.node_lo[leaves]
        n_children = (self.node_children >= 0).sum(axis=1)
        internal = ~self.node_is_leaf
        return {
            "n_nodes": self.n_nodes,
            "n_leaves": int(len(leaves)),
            "max_depth": int(self.node_depth.max()),
            "mean_leaf_depth": float(self.node_depth[leaves].mean()),
            "mean_leaf_occupancy": float(occupancy.mean()),
            "max_leaf_occupancy": int(occupancy.max()),
            "mean_branching": float(n_children[internal].mean())
            if internal.any()
            else 0.0,
            "nodes_per_particle": self.n_nodes / self.n_particles,
        }

    def validate(self) -> None:
        """Internal consistency checks (used by tests; cheap)."""
        assert self.node_lo[0] == 0 and self.node_hi[0] == self.n_particles
        for i in range(self.n_nodes):
            kids = self.node_children[i][self.node_children[i] >= 0]
            if self.node_is_leaf[i]:
                assert len(kids) == 0
            else:
                assert len(kids) > 0
                los = sorted(self.node_lo[k] for k in kids)
                his = sorted(self.node_hi[k] for k in kids)
                assert los[0] == self.node_lo[i]
                assert his[-1] == self.node_hi[i]
                # children tile the parent range
                assert all(h == l for h, l in zip(his[:-1], los[1:]))
