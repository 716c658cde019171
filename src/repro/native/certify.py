"""Bindings for the native no-wrap certification kernel.

:func:`certify` mirrors :func:`repro.tree.traversal.certify_no_wrap_numpy`
— same inputs, same per-group boolean verdicts, bit for bit — and
returns ``None`` when the kernel is unavailable or the stage is
disabled.  The first successful load self-tests the kernel against the
numpy reference on periodic plans built from clustered and uniform
particle sets.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from repro.native import build as _build


def get_lib() -> Optional[ctypes.CDLL]:
    """The verified certification library, or ``None`` (checked per call)."""
    return _build.library("certify")


def available() -> bool:
    """Whether the native certification kernel can be used right now."""
    return get_lib() is not None


def _certify_with(lib, tree, plan, box: float) -> np.ndarray:
    i64 = lambda a: np.ascontiguousarray(a, dtype=np.int64)
    f64 = lambda a: np.ascontiguousarray(a, dtype=np.float64)
    out = np.zeros(plan.n_groups, dtype=np.uint8)
    lib.certify_no_wrap(
        plan.n_groups,
        i64(plan.group_lo), i64(plan.group_hi),
        i64(plan.part_ptr), i64(plan.part_idx),
        i64(plan.node_ptr), i64(plan.node_idx),
        f64(tree.pos_sorted), f64(tree.node_com),
        box,
        out,
    )
    return out.view(np.bool_)


def certify(tree, plan, box: float) -> Optional[np.ndarray]:
    """Native drop-in for ``certify_no_wrap_numpy``; ``None`` = fall back."""
    if plan.n_groups == 0:
        return None
    lib = get_lib()
    if lib is None:
        return None
    return _certify_with(lib, tree, plan, box)


# -- self-test ----------------------------------------------------------------


def _self_test(lib) -> bool:
    """Bitwise verdict comparison vs the numpy reference on periodic plans.

    Plans are constructed through :func:`traverse_all_numpy` directly
    (never through the solver, whose certification step would recurse
    back into :func:`get_lib` mid-verification).
    """
    from repro.pp.plan import InteractionPlan
    from repro.tree.octree import Octree
    from repro.tree.traversal import (
        TraversalStats,
        certify_no_wrap_numpy,
        traverse_all_numpy,
    )

    rng = np.random.default_rng(0xCE47)
    pos = np.mod(
        np.vstack(
            [0.5 + 0.05 * rng.standard_normal((140, 3)), rng.random((100, 3))]
        ),
        1.0,
    )
    mass = np.full(len(pos), 1.0 / len(pos))
    tree = Octree(pos, mass, leaf_size=4)
    groups = np.array(tree.group_nodes(24), dtype=np.int64)
    groups = groups[np.argsort(tree.node_lo[groups], kind="stable")]

    for rcut in (None, 3.0 / 16):
        for theta in (0.4, 0.8):
            stats = TraversalStats()
            (part_ptr, part_idx, node_ptr, node_idx,
             part_shift, node_shift) = traverse_all_numpy(
                tree, groups, rcut, theta, True, 1.0, stats
            )
            plan = InteractionPlan(
                group_nodes=groups,
                group_lo=tree.node_lo[groups],
                group_hi=tree.node_hi[groups],
                part_ptr=part_ptr,
                part_idx=part_idx,
                node_ptr=node_ptr,
                node_idx=node_idx,
                part_shift=part_shift,
                node_shift=node_shift,
            )
            ref = certify_no_wrap_numpy(tree, plan, 1.0)
            got = _certify_with(lib, tree, plan, 1.0)
            if got.shape != ref.shape or not np.array_equal(got, ref):
                return False
    return True


__all__ = ["available", "certify", "get_lib"]
