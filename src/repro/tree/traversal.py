"""Barnes' modified tree traversal and the tree force solver.

A single traversal per *group* of particles builds one interaction list
shared by the whole group (Barnes 1990), reducing traversal cost by the
group size ``<Ni>`` at the price of longer lists ``<Nj>`` — the paper
discusses exactly this trade-off (optimum ``<Ni> ~ 100`` on K computer).

With a force split attached, a node whose particles' bounding box lies
farther than the cutoff radius from the group's box is culled, and an
accepted node is listed only when its center of mass lies within the
cutoff of the group's box (:func:`box_gap2`).  The S2 factor is exactly
zero past the cutoff, so the culls drop only entries that would add
``+/-0`` to every target, and the list length saturates as the paper
describes (``<Nj> ~ 2300`` vs ~6x more for the pure tree of the
2009-2010 Gordon Bell codes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.native import certify as _native_certify
from repro.native import traverse as _native_traverse
from repro.pp.kernel import InteractionCounter, PPKernel
from repro.pp.plan import InteractionPlan, PlanExecutor, multi_arange
from repro.tree.octree import Octree
from repro.utils.periodic import minimum_image

__all__ = [
    "TraversalStats",
    "TreeSolver",
    "box_gap2",
    "certify_no_wrap_numpy",
    "traverse_all_numpy",
    "tree_forces",
]

@dataclass
class TraversalStats:
    """Counters describing one force evaluation."""

    n_groups: int = 0
    nodes_visited: int = 0
    pp_from_particles: int = 0
    pp_from_nodes: int = 0
    counter: InteractionCounter = field(default_factory=InteractionCounter)

    @property
    def mean_group_size(self) -> float:
        """The paper's <Ni>."""
        return self.counter.mean_group_size

    @property
    def mean_list_length(self) -> float:
        """The paper's <Nj> (particles + accepted nodes per list)."""
        return self.counter.mean_list_length

    @property
    def interactions(self) -> int:
        return self.counter.interactions


class TreeSolver:
    """Short-range force solver: octree + group traversal + PP kernel.

    Parameters
    ----------
    box:
        Periodic box size (ignored when ``periodic=False``).
    theta:
        Opening angle of the multipole acceptance criterion.
    leaf_size, group_size:
        Tree construction / traversal granularity.
    split:
        Force split for TreePM mode (``None`` = pure tree, the
        Gordon-Bell-1990s baseline).
    eps:
        Plummer softening.
    periodic:
        Apply minimum-image displacements during traversal (requires
        the interaction range to be < box/2 when a split is present).
    use_quadrupole:
        Include node quadrupole moments (pure-tree mode; with a split
        the quadrupole term is scaled by the same cutoff factor, a
        second-order approximation).
    use_fast_rsqrt:
        Forward the emulated HPC-ACE rsqrt path to the PP kernel.
    ewald_correction:
        Add the tabulated Ewald image-lattice correction to every pair
        interaction — the exact-periodic pure-tree configuration
        (GADGET-style).  Requires ``periodic=True`` and no force split.

    Every evaluation is two phases: :meth:`build_plan` traverses all
    groups once into a flat :class:`~repro.pp.plan.InteractionPlan`,
    then a :class:`~repro.pp.plan.PlanExecutor` sweeps it in the
    paper's single-precision Phantom-GRAPE tier — through the compiled
    kernel when available (``REPRO_NO_NATIVE_PP=1`` pins the
    bitwise-identical numpy executor).
    """

    def __init__(
        self,
        box: float = 1.0,
        theta: float = 0.5,
        leaf_size: int = 8,
        group_size: int = 64,
        split=None,
        eps: float = 0.0,
        G: float = 1.0,
        periodic: bool = True,
        use_quadrupole: bool = False,
        use_fast_rsqrt: bool = False,
        ewald_correction: bool = False,
    ) -> None:
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.box = float(box)
        self.theta = float(theta)
        self.leaf_size = int(leaf_size)
        self.group_size = int(group_size)
        self.split = split
        self.eps = float(eps)
        self.G = float(G)
        self.periodic = bool(periodic)
        self.use_quadrupole = bool(use_quadrupole)
        self.use_fast_rsqrt = bool(use_fast_rsqrt)
        self._executor = PlanExecutor()
        # sizes each plan's arrays from the plans before it
        self._walker = _native_traverse.PlanWalker()
        #: when True, every ``forces`` call keeps the inputs
        #: and monopole output of its sweep in ``last_sweep`` so the SDC
        #: auditor can re-execute a sampled sub-plan through the
        #: reference pipeline and compare bitwise (ABFT spot-check)
        self.retain_last_sweep = False
        self.last_sweep: Optional[dict] = None
        if split is not None and periodic and split.cutoff_radius > box / 2:
            raise ValueError("cutoff radius must be < box/2 for periodic runs")
        self._ewald_table = None
        if ewald_correction:
            if not periodic or split is not None:
                raise ValueError(
                    "ewald_correction needs periodic pure-tree mode"
                )
            from repro.forces.ewald_table import get_correction_table

            self._ewald_table = get_correction_table(box=self.box)

    # -- public API -----------------------------------------------------------

    def build(self, pos: np.ndarray, mass: np.ndarray) -> Octree:
        """Construct the octree (the paper's "tree construction" phase)."""
        origin = 0.0 if self.periodic else np.min(pos, axis=0)
        size = self.box if self.periodic else float(
            np.max(np.ptp(pos, axis=0)) * (1 + 1e-12) + 1e-300
        )
        return Octree(
            pos,
            mass,
            size=size,
            origin=origin,
            leaf_size=self.leaf_size,
            compute_quadrupole=self.use_quadrupole,
        )

    def forces(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        tree: Optional[Octree] = None,
        targets_mask: Optional[np.ndarray] = None,
        ledger=None,
    ) -> Tuple[np.ndarray, TraversalStats]:
        """Short-range accelerations on all particles.

        Returns ``(acc, stats)`` with ``acc`` in input particle order.

        Parameters
        ----------
        targets_mask:
            Optional boolean mask over the input particles; groups
            containing no masked particle are skipped entirely (used by
            the distributed driver, where ghost particles are sources
            but not targets) and unmasked particles of the remaining
            groups are not swept.  Unmasked rows of the result are zero.
        ledger:
            Optional :class:`repro.utils.timer.TimingLedger` receiving
            the paper's "PP/tree traversal" and "PP/force calculation"
            phase split.
        """
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if tree is None:
            tree = self.build(pos, mass)
        stats = TraversalStats()
        kernel = PPKernel(
            split=self.split,
            eps=self.eps,
            G=self.G,
            use_fast_rsqrt=self.use_fast_rsqrt,
            counter=stats.counter,
            box=self.box if self.periodic else None,
            ewald_table=self._ewald_table,
        )
        mask_sorted = None
        if targets_mask is not None:
            targets_mask = np.asarray(targets_mask, dtype=bool)
            if len(targets_mask) != len(pos):
                raise ValueError("targets_mask length mismatch")
            mask_sorted = targets_mask[tree.perm]
        acc_sorted = np.zeros_like(tree.pos_sorted)
        t0 = time.perf_counter()
        plan = self.build_plan(tree, mask_sorted=mask_sorted, stats=stats)
        t1 = time.perf_counter()
        native_before = self._executor.native_runs
        self._executor.execute(
            plan,
            kernel,
            tree.pos_sorted,
            tree.mass_sorted,
            tree.node_com,
            tree.node_mass,
            out=acc_sorted,
        )
        if self.retain_last_sweep:
            # monopole output *before* quadrupole terms: exactly what
            # re-executing the plan reproduces
            self.last_sweep = {
                "plan": plan,
                "pos_sorted": tree.pos_sorted,
                "mass_sorted": tree.mass_sorted,
                "node_com": tree.node_com,
                "node_mass": tree.node_mass,
                "acc_sorted": acc_sorted.copy(),
                "mask_sorted": mask_sorted,
                "native_used": self._executor.native_runs > native_before,
                "kernel_config": {
                    "split": self.split,
                    "eps": self.eps,
                    "G": self.G,
                    "use_fast_rsqrt": self.use_fast_rsqrt,
                    "box": self.box if self.periodic else None,
                    "ewald_table": self._ewald_table,
                },
            }
        if self.use_quadrupole:
            self._plan_quadrupole(tree, plan, acc_sorted)
        if ledger is not None:
            ledger.add("PP/tree traversal", t1 - t0)
            ledger.add("PP/force calculation", time.perf_counter() - t1)
        acc = np.empty_like(acc_sorted)
        acc[tree.perm] = acc_sorted
        return acc, stats

    # -- the interaction plan ----------------------------------------------------

    def build_plan(
        self,
        tree: Octree,
        mask_sorted: Optional[np.ndarray] = None,
        stats: Optional[TraversalStats] = None,
    ) -> InteractionPlan:
        """Traverse every group once and emit the flat interaction plan.

        Groups containing no masked target are omitted entirely (the
        ghost-as-source-only case of the distributed driver) and the
        mask rides along as ``plan.target_mask``, so the executors sweep
        masked targets only.  For periodic solvers the plan carries the
        per-group ``no_wrap`` certificate the executor uses to drop the
        minimum-image round where it is provably a no-op.
        """
        if stats is None:
            stats = TraversalStats()
        rcut = self.split.cutoff_radius if self.split is not None else None
        groups = np.array(tree.group_nodes(self.group_size), dtype=np.int64)
        groups = groups[np.argsort(tree.node_lo[groups], kind="stable")]
        tcnt = None
        if mask_sorted is not None:
            mask_sorted = np.asarray(mask_sorted, dtype=bool)
            cs = np.concatenate([[0], np.cumsum(mask_sorted)])
            tcnt = cs[tree.node_hi[groups]] - cs[tree.node_lo[groups]]
            groups = groups[tcnt > 0]
            tcnt = tcnt[tcnt > 0]

        part_ptr, part_idx, node_ptr, node_idx = self._traverse_all(
            tree, groups, rcut, stats
        )
        plan = InteractionPlan(
            group_nodes=groups,
            group_lo=tree.node_lo[groups],
            group_hi=tree.node_hi[groups],
            part_ptr=part_ptr,
            part_idx=part_idx,
            node_ptr=node_ptr,
            node_idx=node_idx,
            target_mask=mask_sorted,
        )
        if tcnt is not None:
            plan.target_counts = tcnt  # the mask scan above counted them
        tcnt = plan.target_counts
        stats.n_groups += len(groups)
        stats.pp_from_particles += int(np.dot(np.diff(part_ptr), tcnt))
        stats.pp_from_nodes += int(np.dot(np.diff(node_ptr), tcnt))
        if self.periodic and plan.n_groups:
            plan.no_wrap = self._certify_no_wrap(tree, plan)
        return plan

    def _traverse_all(self, tree, groups, rcut, stats):
        """Plan-construction traversal over all groups at once.

        Runs in the native kernel when available (bitwise self-tested
        against :func:`traverse_all_numpy`), else in the vectorized
        numpy sweep.  Both return identical plans bit for bit.
        """
        native = self._walker.traverse_all(
            tree, groups, rcut, self.theta, self.periodic, self.box, stats
        )
        if native is not None:
            return native
        return traverse_all_numpy(
            tree, groups, rcut, self.theta, self.periodic, self.box, stats
        )

    def _certify_no_wrap(self, tree: Octree, plan: InteractionPlan) -> np.ndarray:
        """Per-group proof that every pair displacement fits in box/2.

        Runs in the native kernel when available (bitwise self-tested
        against :func:`certify_no_wrap_numpy`), else in the vectorized
        numpy sweep.  Both return identical verdicts bit for bit.
        """
        native = _native_certify.certify(tree, plan, self.box)
        if native is not None:
            return native
        return certify_no_wrap_numpy(tree, plan, self.box)

    def _plan_quadrupole(
        self, tree: Octree, plan: InteractionPlan, acc_sorted: np.ndarray
    ) -> None:
        """Per-group quadrupole corrections from the plan's accepted
        nodes onto the plan's targets (optional mode)."""
        mask = plan.target_mask
        for i in range(plan.n_groups):
            nlo, nhi = plan.node_ptr[i], plan.node_ptr[i + 1]
            if nhi == nlo:
                continue
            glo, ghi = plan.group_lo[i], plan.group_hi[i]
            rows = slice(glo, ghi)
            if mask is not None:
                rows = glo + np.flatnonzero(mask[rows])
            nidx = plan.node_idx[nlo:nhi]
            acc_sorted[rows] += self._quadrupole_acc(
                tree.pos_sorted[rows],
                tree.node_com[nidx],
                tree.node_quad[nidx],
            )

    # -- internals --------------------------------------------------------------

    def _quadrupole_acc(
        self, targets: np.ndarray, node_pos: np.ndarray, quads: np.ndarray
    ) -> np.ndarray:
        """Quadrupole correction (traceless Q convention):

        ``a = G [ (Q r) / r^5 - (5/2) (r.Q.r) r / r^7 ]`` with
        ``r = target - node``, Plummer-softened denominators, and an
        extra factor of the split's short-range cutoff when one is
        attached.  The cutoff is evaluated at the *unsoftened*
        separation, matching the monopole kernel — evaluating it at the
        softened radius (a former bug) under-weighted the correction
        whenever ``eps`` is comparable to ``rcut``.
        """
        r = targets[:, None, :] - node_pos[None, :, :]  # (T, S, 3)
        if self.periodic:
            minimum_image(r, self.box, out=r)
        r2 = np.einsum("tsk,tsk->ts", r, r)
        r2s = r2 + self.eps**2
        inv5 = r2s**-2.5
        qr = np.einsum("sab,tsb->tsa", quads, r)
        rqr = np.einsum("tsa,tsa->ts", qr, r)
        acc = qr * inv5[..., None] - 2.5 * (rqr * inv5 / r2s)[..., None] * r
        if self.split is not None:
            acc = acc * self.split.short_range_factor(np.sqrt(r2))[..., None]
        return self.G * np.sum(acc, axis=1)


def box_gap2(lo, hi, glo, ghi, box=None):
    """Squared lower bound on the distance between the boxes ``[lo, hi]``
    and ``[glo, ghi]`` (one pair per row), taken the short way round a
    periodic box of side ``box`` (``None``: open); 0 where they overlap.

    The native walk evaluates the same expression lane by lane, so both
    walks cull the same entries.
    """
    gap = np.maximum(lo - ghi, glo - hi)
    if box is not None:
        np.minimum(gap, box - (np.maximum(hi, ghi) - np.minimum(lo, glo)), out=gap)
    np.maximum(gap, 0.0, out=gap)
    return (gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1]) + gap[:, 2] * gap[:, 2]


def traverse_all_numpy(tree, groups, rcut, theta, periodic, box, stats):
    """One batched breadth-first sweep over ``(group, node)`` pairs
    for every group at once.

    Each pair is culled, accepted, dumped as a leaf or opened with
    elementwise array arithmetic (the cull: the node's box, or for an
    accepted node its com, farther than ``rcut * (1 + 1e-9)`` from the
    group's box), and the final stable regrouping by
    group index restores each group's own breadth-first emission
    order (nodes shallow to deep, leaves in frontier order).  The
    native kernel
    (:mod:`repro.native.traverse`) emits the same plan group by group;
    this function is its fallback and self-test reference.
    """
    Gn = len(groups)
    empty_idx = np.empty(0, dtype=np.int64)
    if Gn == 0:
        zp = np.zeros(1, dtype=np.int64)
        return zp, empty_idx, zp.copy(), empty_idx.copy()

    sqrt3 = np.sqrt(3.0)
    gcenters = tree.node_center[groups]
    gradii = tree.node_half[groups] * sqrt3
    gmin = tree.node_bmin[groups]
    gmax = tree.node_bmax[groups]
    wrap_box = box if periodic else None
    if rcut is not None:
        rc = rcut * (1.0 + 1e-9)
        rc2 = rc * rc
    gidx = np.arange(Gn, dtype=np.int64)
    nodes = np.zeros(Gn, dtype=np.int64)  # every group starts at the root

    acc_g, acc_n = [], []
    leaf_g, leaf_lo, leaf_hi = [], [], []
    while nodes.size:
        stats.nodes_visited += nodes.size
        dx = tree.node_com[nodes] - gcenters[gidx]
        if periodic:
            minimum_image(dx, box, out=dx)  # the image nearest the group center
        dist = np.sqrt(np.einsum("ij,ij->i", dx, dx))
        half = tree.node_half[nodes]
        gr = gradii[gidx]
        keep = np.ones(nodes.size, dtype=bool)
        if rcut is not None:
            glo, ghi = gmin[gidx], gmax[gidx]
            keep = box_gap2(
                tree.node_bmin[nodes], tree.node_bmax[nodes], glo, ghi, wrap_box
            ) <= rc2
        gap = dist - gr
        accept = keep & (gap > 0) & (2.0 * half < theta * gap)
        rest = keep & ~accept
        if rcut is not None:
            # an accepted node acts from its com: list it only when that
            # point is in range of the group
            com = tree.node_com[nodes]
            accept &= box_gap2(com, com, glo, ghi, wrap_box) <= rc2
        is_leaf = rest & tree.node_is_leaf[nodes]
        to_open = rest & ~tree.node_is_leaf[nodes]

        if accept.any():
            acc_g.append(gidx[accept])
            acc_n.append(nodes[accept])
        if is_leaf.any():
            nl = nodes[is_leaf]
            leaf_g.append(gidx[is_leaf])
            leaf_lo.append(tree.node_lo[nl])
            leaf_hi.append(tree.node_hi[nl])
        if to_open.any():
            kids = tree.node_children[nodes[to_open]]
            gk = np.repeat(gidx[to_open], kids.shape[1])
            kk = kids.ravel()
            sel = kk >= 0
            nodes = kk[sel]
            gidx = gk[sel]
        else:
            nodes = empty_idx
            gidx = empty_idx

    if acc_n:
        ag = np.concatenate(acc_g)
        an = np.concatenate(acc_n)
        ncounts = np.bincount(ag, minlength=Gn)
        order = np.argsort(ag, kind="stable")
        node_idx = an[order]
    else:
        node_idx = empty_idx
        ncounts = np.zeros(Gn, dtype=np.int64)
    if leaf_lo:
        lg = np.concatenate(leaf_g)
        llo = np.concatenate(leaf_lo)
        lhi = np.concatenate(leaf_hi)
        # integer leaf lengths are exact as float weights (< 2**53)
        pcounts = np.bincount(lg, weights=lhi - llo, minlength=Gn)
        pcounts = pcounts.astype(np.int64)
        order = np.argsort(lg, kind="stable")
        llo = llo[order]
        lhi = lhi[order]
        part_idx = multi_arange(llo, lhi)
    else:
        part_idx = empty_idx
        pcounts = np.zeros(Gn, dtype=np.int64)

    part_ptr = np.concatenate([[0], np.cumsum(pcounts)]).astype(np.int64)
    node_ptr = np.concatenate([[0], np.cumsum(ncounts)]).astype(np.int64)
    return part_ptr, part_idx, node_ptr, node_idx


def certify_no_wrap_numpy(tree, plan, box: float) -> np.ndarray:
    """Numpy reference for the per-group no-wrap certification.

    Compares each group's exact target bounding box against the
    bounding box of its (unshifted) list entries; when the extreme
    displacement stays within ``box/2`` minus a safety margin, the
    per-pair ``np.round`` returns exactly zero and can be skipped
    without changing a single bit.
    """
    G = plan.n_groups
    tcnt = plan.group_hi - plan.group_lo  # every row, swept or not
    tpos = tree.pos_sorted[multi_arange(plan.group_lo, plan.group_hi)]
    tptr = np.concatenate([[0], np.cumsum(tcnt)])
    tmin = np.minimum.reduceat(tpos, tptr[:-1], axis=0)
    tmax = np.maximum.reduceat(tpos, tptr[:-1], axis=0)

    smin = np.full((G, 3), np.inf)
    smax = np.full((G, 3), -np.inf)
    for vals, ptr in (
        (tree.pos_sorted[plan.part_idx], plan.part_ptr),
        (tree.node_com[plan.node_idx], plan.node_ptr),
    ):
        if not len(vals):
            continue
        counts = np.diff(ptr)
        nz = np.flatnonzero(counts > 0)
        if not len(nz):
            continue
        starts = ptr[:-1][nz]
        smin[nz] = np.minimum(smin[nz], np.minimum.reduceat(vals, starts, axis=0))
        smax[nz] = np.maximum(smax[nz], np.maximum.reduceat(vals, starts, axis=0))
    # margin absorbs the few-ulp rounding of the bound arithmetic
    half_box_safe = 0.5 * box - 1e-9 * box
    ok = (smax - tmin <= half_box_safe) & (tmax - smin <= half_box_safe)
    empty = (np.diff(plan.part_ptr) + np.diff(plan.node_ptr)) == 0
    return np.all(ok, axis=1) | empty


def tree_forces(
    pos: np.ndarray,
    mass: np.ndarray,
    theta: float = 0.5,
    eps: float = 0.0,
    G: float = 1.0,
    split=None,
    box: float = 1.0,
    periodic: bool = False,
    group_size: int = 64,
    leaf_size: int = 8,
    use_quadrupole: bool = False,
    ewald_correction: bool = False,
) -> Tuple[np.ndarray, TraversalStats]:
    """One-shot convenience wrapper around :class:`TreeSolver`."""
    solver = TreeSolver(
        box=box,
        theta=theta,
        leaf_size=leaf_size,
        group_size=group_size,
        split=split,
        eps=eps,
        G=G,
        periodic=periodic,
        use_quadrupole=use_quadrupole,
        ewald_correction=ewald_correction,
    )
    return solver.forces(pos, mass)
