"""Composable, vectorized invariant checkers.

Every checker inspects one conservation law or structural invariant of
the TreePM pipeline and returns either ``None`` (invariant holds) or an
:class:`repro.validate.errors.InvariantViolation` carrying the stage,
step, rank and offending-array statistics.  Checkers never raise and
never loop over particles in Python — they are meant to be cheap enough
to leave enabled (``warn`` policy) on production runs.

The invariants mirror what the GreeM method paper (Ishiyama, Fukushige
& Makino 2009) validates for the production code: particle count and
momentum across the multisection exchange, mass through mesh assignment
and the relay/slab conversions, octree moment consistency, domain
partition disjointness/coverage, and finite particle fields everywhere.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.validate.errors import InvariantViolation, array_stats

__all__ = [
    "check_finite",
    "check_positive",
    "check_in_box",
    "check_particle_count",
    "check_momentum",
    "check_mesh_mass",
    "check_octree",
    "check_domain_partition",
    "check_domain_containment",
    "check_recovery_totals",
    "first_violation",
    "EXACT_REL_TOL",
]

#: Relative tolerance for conservation sums that differ only by
#: floating-point reassociation (exchange, mesh conversions).
EXACT_REL_TOL = 1.0e-9


def check_finite(
    name: str,
    arr: np.ndarray,
    *,
    stage: str,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Finite-field sweep: every entry of ``arr`` must be finite."""
    arr = np.asarray(arr)
    if arr.size == 0 or bool(np.isfinite(arr).all()):
        return None
    stats = array_stats(arr, name)
    return InvariantViolation(
        f"non-finite values in '{name}': {stats['n_nan']} NaN, "
        f"{stats['n_inf']} inf (first at flat index {stats['first_bad_index']})",
        check="finite_fields",
        stage=stage,
        step=step,
        rank=rank,
        stats=stats,
    )


def check_positive(
    name: str,
    arr: np.ndarray,
    *,
    stage: str,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Strict positivity (particle masses: negative mass is corruption)."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return None
    bad = ~(arr > 0.0)  # catches negatives, zeros and NaNs in one pass
    if not bad.any():
        return None
    idx = int(np.flatnonzero(bad.ravel())[0])
    return InvariantViolation(
        f"non-positive values in '{name}': {int(bad.sum())} of {arr.size} "
        f"(first at flat index {idx}, value {arr.ravel()[idx]!r})",
        check="positive_mass",
        stage=stage,
        step=step,
        rank=rank,
        stats=array_stats(arr, name),
    )


def check_in_box(
    name: str,
    pos: np.ndarray,
    *,
    stage: str,
    box: float = 1.0,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Positions must lie inside the periodic box ``[0, box)``.

    Every wrapped particle satisfies this, so an out-of-box position in
    an exchanged payload is a transport-corruption signature.
    """
    pos = np.asarray(pos)
    if pos.size == 0:
        return None
    bad = ~((pos >= 0.0) & (pos < box))  # NaN compares false -> flagged
    if not bad.any():
        return None
    idx = int(np.flatnonzero(bad.ravel())[0])
    return InvariantViolation(
        f"positions in '{name}' outside [0, {box}): {int(bad.sum())} "
        f"coordinate(s), first at flat index {idx} "
        f"(value {pos.ravel()[idx]!r})",
        check="in_box",
        stage=stage,
        step=step,
        rank=rank,
        stats=array_stats(pos, name),
    )


def check_particle_count(
    n_before: int,
    n_after: int,
    *,
    stage: str,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Global particle count must be conserved across an exchange."""
    if int(n_before) == int(n_after):
        return None
    return InvariantViolation(
        f"global particle count changed: {int(n_before)} -> {int(n_after)} "
        f"({int(n_after) - int(n_before):+d})",
        check="particle_count",
        stage=stage,
        step=step,
        rank=rank,
        stats={"n_before": int(n_before), "n_after": int(n_after)},
    )


def check_momentum(
    p_before: np.ndarray,
    p_after: np.ndarray,
    *,
    stage: str,
    scale: Optional[float] = None,
    rel_tol: float = EXACT_REL_TOL,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Total momentum must be conserved (to summation-order noise).

    A particle exchange only moves arrays between ranks, so the global
    ``sum(m * p)`` may change only by floating-point reassociation.
    ``scale`` sets the magnitude the tolerance is relative to (default:
    the larger momentum norm, floored at 1).
    """
    p_before = np.asarray(p_before, dtype=np.float64)
    p_after = np.asarray(p_after, dtype=np.float64)
    diff = float(np.max(np.abs(p_after - p_before))) if p_before.size else 0.0
    if scale is None:
        scale = max(
            float(np.max(np.abs(p_before), initial=0.0)),
            float(np.max(np.abs(p_after), initial=0.0)),
            1.0,
        )
    if not np.isfinite(diff) or diff > rel_tol * scale:
        return InvariantViolation(
            f"total momentum changed by {diff:.6g} "
            f"(tolerance {rel_tol * scale:.6g}): "
            f"{p_before.tolist()} -> {p_after.tolist()}",
            check="momentum_conservation",
            stage=stage,
            step=step,
            rank=rank,
            stats={"before": p_before.tolist(), "after": p_after.tolist()},
        )
    return None


def check_mesh_mass(
    mesh_mass: float,
    particle_mass: float,
    *,
    stage: str,
    rel_tol: float = EXACT_REL_TOL,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Mass on the mesh must equal the mass of the assigned particles.

    The assignment windows sum to one and the slab/relay conversions
    assign every cell exactly one owner (summing overlapping ghost
    contributions), so the two totals may differ only by reassociation.
    """
    mesh_mass = float(mesh_mass)
    particle_mass = float(particle_mass)
    scale = max(abs(particle_mass), abs(mesh_mass), 1.0e-300)
    err = abs(mesh_mass - particle_mass)
    if np.isfinite(err) and err <= rel_tol * scale:
        return None
    return InvariantViolation(
        f"mesh mass {mesh_mass:.12g} != particle mass {particle_mass:.12g} "
        f"(relative error {err / scale:.3g}, tolerance {rel_tol:.3g})",
        check="mass_conservation",
        stage=stage,
        step=step,
        rank=rank,
        stats={"mesh_mass": mesh_mass, "particle_mass": particle_mass},
    )


def check_octree(
    tree,
    *,
    stage: str = "tree/build",
    rel_tol: float = 1.0e-9,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Structural octree invariants, vectorized over all nodes.

    * the root holds every particle and the total mass;
    * every node's mass equals the prefix-sum mass of its particle
      slice (guards in-memory corruption of the moment arrays);
    * every positive-mass node's center of mass lies inside the node
      cube (to a relative slack of ``rel_tol`` times the node size);
    * every node's particle bounding box holds all its particles (so a
      parent's holds its children's) and, for a positive-mass node, its
      center of mass (to ``rel_tol`` times the root size).  The
      traversal culls by these boxes: one corrupted smaller would
      silently drop in-range pairs, which re-sweeping the same plan
      (the SDC spot check) cannot see.
    """
    total = float(tree.mass_sorted.sum())
    root_mass = float(tree.node_mass[0])
    scale = max(abs(total), 1.0e-300)
    if not np.isfinite(root_mass) or abs(root_mass - total) > rel_tol * scale:
        return InvariantViolation(
            f"root node mass {root_mass:.12g} != total particle mass "
            f"{total:.12g}",
            check="octree_moments",
            stage=stage,
            step=step,
            rank=rank,
            stats={"root_mass": root_mass, "total_mass": total},
        )
    if int(tree.node_lo[0]) != 0 or int(tree.node_hi[0]) != tree.n_particles:
        return InvariantViolation(
            f"root node spans [{int(tree.node_lo[0])}, {int(tree.node_hi[0])}) "
            f"but the tree holds {tree.n_particles} particles",
            check="octree_moments",
            stage=stage,
            step=step,
            rank=rank,
        )
    if not bool(np.isfinite(tree.node_com).all()):
        return InvariantViolation(
            "non-finite node center of mass",
            check="octree_moments",
            stage=stage,
            step=step,
            rank=rank,
            stats=array_stats(tree.node_com, "node_com"),
        )
    # COM inside the node cube, for nodes with positive mass
    positive = tree.node_mass > 0.0
    slack = tree.node_half[:, None] * (1.0 + rel_tol) + 1.0e-12
    outside = np.abs(tree.node_com - tree.node_center) > slack
    bad = positive & outside.any(axis=1)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        return InvariantViolation(
            f"{int(bad.sum())} node(s) have a center of mass outside their "
            f"cube (first: node {idx}, com "
            f"{tree.node_com[idx].tolist()}, center "
            f"{tree.node_center[idx].tolist()}, half {tree.node_half[idx]!r})",
            check="octree_com_bounds",
            stage=stage,
            step=step,
            rank=rank,
            stats={"n_bad": int(bad.sum()), "first_node": idx},
        )
    # the boxes the traversal culls by: a box corrupted smaller would
    # silently drop in-range pairs (written so a NaN corner fails)
    bmin, bmax = tree.node_bmin, tree.node_bmax
    lo, hi = tree.particle_bounds()
    bad = ~((bmin <= lo) & (hi <= bmax)).all(axis=1)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        return InvariantViolation(
            f"{int(bad.sum())} node bounding box(es) do not hold their "
            f"particles (first: node {idx}, box {bmin[idx].tolist()} - "
            f"{bmax[idx].tolist()}, particles {lo[idx].tolist()} - "
            f"{hi[idx].tolist()})",
            check="octree_moments",
            stage=stage,
            step=step,
            rank=rank,
            stats={"n_bad": int(bad.sum()), "first_node": idx},
        )
    slack = rel_tol * tree.size
    bad = positive & ~((bmin - slack <= tree.node_com)
                       & (tree.node_com <= bmax + slack)).all(axis=1)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        return InvariantViolation(
            f"{int(bad.sum())} node(s) have a center of mass outside their "
            f"particles' bounding box (first: node {idx}, com "
            f"{tree.node_com[idx].tolist()}, box {bmin[idx].tolist()} - "
            f"{bmax[idx].tolist()})",
            check="octree_com_bounds",
            stage=stage,
            step=step,
            rank=rank,
            stats={"n_bad": int(bad.sum()), "first_node": idx},
        )
    return None


def check_domain_partition(
    decomp,
    *,
    stage: str = "decomp/multisection",
    rel_tol: float = 1.0e-9,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Domains must tile the box: disjoint, covering, volumes sum to 1.

    Multisection boundaries are per-axis sorted arrays; monotonicity per
    level plus total volume equal to the box volume is equivalent to a
    disjoint exact cover by construction of the rectangles.
    """

    def _monotone(bounds: np.ndarray) -> bool:
        b = np.asarray(bounds, dtype=np.float64)
        return bool(np.isfinite(b).all() and (np.diff(b, axis=-1) > 0).all())

    if not (
        _monotone(decomp.x_bounds)
        and _monotone(decomp.y_bounds)
        and _monotone(decomp.z_bounds)
    ):
        return InvariantViolation(
            "decomposition boundaries are not strictly increasing "
            "(overlapping or empty domains)",
            check="domain_partition",
            stage=stage,
            step=step,
            rank=rank,
            stats={
                "x_bounds": np.asarray(decomp.x_bounds).tolist(),
            },
        )
    vol = float(decomp.domain_volumes().sum())
    if abs(vol - 1.0) > rel_tol:
        return InvariantViolation(
            f"domain volumes sum to {vol:.12g}, not 1 (coverage broken)",
            check="domain_partition",
            stage=stage,
            step=step,
            rank=rank,
            stats={"volume_sum": vol},
        )
    return None


def check_domain_containment(
    pos: np.ndarray,
    decomp,
    rank: int,
    *,
    stage: str = "decomp/exchange",
    step: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """After an exchange, every local particle must belong to this rank.

    Uses the decomposition's own ``owner_of`` predicate, so the check is
    exactly the assignment rule the exchange used — a mismatch means the
    payload changed in flight.
    """
    pos = np.asarray(pos)
    if len(pos) == 0:
        return None
    owners = decomp.owner_of(pos)
    bad = owners != rank
    if not bad.any():
        return None
    idx = int(np.flatnonzero(bad)[0])
    return InvariantViolation(
        f"{int(bad.sum())} particle(s) landed on rank {rank} but belong to "
        f"other domains (first: index {idx}, position "
        f"{pos[idx].tolist()}, owner {int(owners[idx])})",
        check="domain_containment",
        stage=stage,
        step=step,
        rank=rank,
        stats={"n_bad": int(bad.sum()), "first_index": idx},
    )


def check_recovery_totals(
    count: int,
    mass: float,
    momentum: np.ndarray,
    reference: Dict,
    *,
    stage: str = "recovery",
    rel_tol: float = EXACT_REL_TOL,
    step: Optional[int] = None,
    rank: Optional[int] = None,
) -> Optional[InvariantViolation]:
    """Post-recovery sweep: restored global totals must match the
    conservation reference of the restored epoch's manifest
    (:func:`repro.sim.checkpoint.manifest_totals`).

    ``reference`` carries ``count`` (exact match required), ``mass``
    (relative) and ``momentum`` with its ``mom_scale`` (absolute per
    component, relative to the sum of ``|m p|`` magnitudes — the
    restored arrays are bit-identical copies, so only summation
    reassociation may move the totals).
    """
    if int(count) != int(reference["count"]):
        return InvariantViolation(
            f"recovered particle count {int(count)} != reference "
            f"{int(reference['count'])}",
            check="recovery_totals",
            stage=stage,
            step=step,
            rank=rank,
            stats={"count": int(count), "reference": int(reference["count"])},
        )
    want = float(reference["mass"])
    diff = abs(float(mass) - want)
    if not np.isfinite(diff) or diff > rel_tol * max(abs(want), 1.0e-300):
        return InvariantViolation(
            f"recovered total mass {float(mass):.17g} differs from "
            f"reference {want:.17g} by {diff:.6g}",
            check="recovery_totals",
            stage=stage,
            step=step,
            rank=rank,
            stats={"mass": float(mass), "reference": want},
        )
    ref_p = np.asarray(reference["momentum"], dtype=np.float64)
    got_p = np.asarray(momentum, dtype=np.float64)
    scale = max(float(reference["mom_scale"]), 1.0e-300)
    diff = float(np.max(np.abs(got_p - ref_p), initial=0.0))
    if not np.isfinite(diff) or diff > rel_tol * scale:
        return InvariantViolation(
            f"recovered total momentum {got_p.tolist()} differs from "
            f"reference {ref_p.tolist()} by {diff:.6g} "
            f"(tolerance {rel_tol * scale:.6g})",
            check="recovery_totals",
            stage=stage,
            step=step,
            rank=rank,
            stats={"momentum": got_p.tolist(), "reference": ref_p.tolist()},
        )
    return None


def first_violation(*violations: Optional[InvariantViolation]) -> Optional[
    InvariantViolation
]:
    """The first non-None violation of an argument list (or None)."""
    for v in violations:
        if v is not None:
            return v
    return None
