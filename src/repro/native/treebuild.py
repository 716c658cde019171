"""Bindings for the native octree-construction kernel.

Four entry points mirror the phases of :class:`repro.tree.octree.Octree`
construction — :func:`morton_build` (keys + stable argsort),
:func:`build_nodes` (the level-synchronous node build),
:func:`node_bounds` (each node's particle bounding box) and
:func:`group_nodes` (Barnes' group selection).  Each returns ``None``
when the kernel is unavailable, the stage is disabled, or the inputs are
out of contract, and the caller falls back to the numpy reference.

The first successful load runs a bitwise self-test against the numpy
builder on a synthetic clustered particle set (duplicates included, to
exercise sort stability); a mismatch permanently disables the kernel for
the process.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional, Tuple

import numpy as np

from repro.native import build as _build


def get_lib() -> Optional[ctypes.CDLL]:
    """The verified tree-build library, or ``None``.

    Stage gating (``REPRO_NO_NATIVE`` / ``REPRO_NO_NATIVE_TREE``) is
    checked on every call so it can be toggled within a process.
    """
    return _build.library("tree")


def available() -> bool:
    """Whether the native tree-build kernel can be used right now."""
    return get_lib() is not None


# -- kernel wrappers ----------------------------------------------------------


def _morton_build_with(
    lib, pos: np.ndarray, origin: np.ndarray, size: float, bits: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    n = len(pos)
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    origin = np.ascontiguousarray(origin, dtype=np.float64)
    keys = np.empty(n, dtype=np.uint64)
    rc = lib.morton_keys(pos, n, origin, size, bits, keys)
    if rc != 0:
        return None  # out-of-cube / non-finite: numpy path raises properly
    keys_sorted = np.empty(n, dtype=np.uint64)
    perm = np.empty(n, dtype=np.int64)
    tmp_k = np.empty(n, dtype=np.uint64)
    tmp_p = np.empty(n, dtype=np.int64)
    lib.radix_argsort(keys, n, keys_sorted, perm, tmp_k, tmp_p)
    return keys_sorted, perm


def morton_build(
    pos: np.ndarray, origin: np.ndarray, size: float, bits: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(sorted_keys, perm)`` for positions in the root cube, or ``None``."""
    lib = get_lib()
    if lib is None or len(pos) == 0:
        return None
    return _morton_build_with(lib, pos, origin, size, bits)


def _build_nodes_with(
    lib,
    keys_sorted: np.ndarray,
    leaf_size: int,
    max_depth: int,
    root_center: np.ndarray,
    root_half: float,
) -> Optional[Tuple]:
    n = len(keys_sorted)
    keys_sorted = np.ascontiguousarray(keys_sorted, dtype=np.uint64)
    root_center = np.ascontiguousarray(root_center, dtype=np.float64)
    cap = max(512, (8 * n) // max(1, leaf_size) + 64)
    hard_cap = 8 * (n + 8) * max_depth + 64
    while True:
        center = np.empty((cap, 3), dtype=np.float64)
        half = np.empty(cap, dtype=np.float64)
        lo = np.empty(cap, dtype=np.int64)
        hi = np.empty(cap, dtype=np.int64)
        depth = np.empty(cap, dtype=np.int64)
        is_leaf = np.empty(cap, dtype=np.uint8)
        children = np.empty((cap, 8), dtype=np.int64)
        ret = lib.octree_build(
            keys_sorted, n, leaf_size, max_depth, root_center, root_half, cap,
            center, half, lo, hi, depth, is_leaf, children,
        )
        if ret >= 0:
            k = int(ret)
            return (
                center[:k].copy(),
                half[:k].copy(),
                lo[:k].copy(),
                hi[:k].copy(),
                depth[:k].copy(),
                is_leaf[:k].copy().view(np.bool_),
                children[:k].copy(),
            )
        if cap >= hard_cap:
            return None
        cap = min(cap * 4, hard_cap)


def build_nodes(
    keys_sorted: np.ndarray,
    leaf_size: int,
    max_depth: int,
    root_center: np.ndarray,
    root_half: float,
) -> Optional[Tuple]:
    """Node arrays ``(center, half, lo, hi, depth, is_leaf, children)``."""
    lib = get_lib()
    if lib is None or len(keys_sorted) == 0:
        return None
    return _build_nodes_with(lib, keys_sorted, leaf_size, max_depth, root_center, root_half)


def _node_bounds_with(
    lib, pos_sorted, node_lo, node_hi, node_is_leaf, node_children
) -> Tuple[np.ndarray, np.ndarray]:
    n_nodes = len(node_lo)
    bmin = np.empty((n_nodes, 3))
    bmax = np.empty((n_nodes, 3))
    lib.node_bounds(
        np.ascontiguousarray(pos_sorted, dtype=np.float64),
        n_nodes,
        np.ascontiguousarray(node_lo, dtype=np.int64),
        np.ascontiguousarray(node_hi, dtype=np.int64),
        np.ascontiguousarray(node_is_leaf.view(np.uint8)),
        np.ascontiguousarray(node_children, dtype=np.int64),
        bmin,
        bmax,
    )
    return bmin, bmax


def node_bounds(
    pos_sorted: np.ndarray,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_is_leaf: np.ndarray,
    node_children: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-node particle bounding boxes ``(bmin, bmax)``, or ``None``."""
    lib = get_lib()
    if lib is None or len(node_lo) == 0:
        return None
    return _node_bounds_with(
        lib, pos_sorted, node_lo, node_hi, node_is_leaf, node_children
    )


def _group_nodes_with(
    lib,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_children: np.ndarray,
    node_is_leaf: np.ndarray,
    group_size: int,
) -> List[int]:
    n_nodes = len(node_lo)
    lo = np.ascontiguousarray(node_lo, dtype=np.int64)
    hi = np.ascontiguousarray(node_hi, dtype=np.int64)
    children = np.ascontiguousarray(node_children, dtype=np.int64)
    is_leaf = np.ascontiguousarray(node_is_leaf.view(np.uint8))
    out = np.empty(n_nodes, dtype=np.int64)
    stack = np.empty(n_nodes + 8, dtype=np.int64)
    ret = lib.group_nodes(
        lo, hi, children, is_leaf, n_nodes, group_size, n_nodes, out, stack
    )
    return out[: int(ret)].tolist()


def group_nodes(
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_children: np.ndarray,
    node_is_leaf: np.ndarray,
    group_size: int,
) -> Optional[List[int]]:
    """Group node ids in the reference emission order, or ``None``."""
    lib = get_lib()
    if lib is None or len(node_lo) == 0:
        return None
    return _group_nodes_with(
        lib, node_lo, node_hi, node_children, node_is_leaf, group_size
    )


# -- self-test ----------------------------------------------------------------


def _self_test(lib) -> bool:
    """Bitwise comparison against the numpy builder on a synthetic set."""
    from repro.tree.morton import morton_keys
    from repro.tree.octree import build_nodes_numpy, node_bounds_numpy

    rng = np.random.default_rng(0xC0FFEE)
    clustered = 0.5 + 0.07 * rng.standard_normal((96, 3))
    uniform = rng.random((64, 3))
    pos = np.mod(np.vstack([clustered, uniform]), 1.0)
    pos[:4] = pos[4:8]  # exact duplicates: sort stability must matter
    pos[8] = 0.0
    pos[9] = 1.0  # upper-boundary clamp
    pos[10] = [0.0, 1.0, 0.5]
    origin = np.zeros(3)
    size = 1.0
    bits = 21

    ref_keys = morton_keys(pos, origin, size, bits)
    ref_perm = np.argsort(ref_keys, kind="stable")
    ref_sorted = ref_keys[ref_perm]

    got = _morton_build_with(lib, pos, origin, size, bits)
    if got is None:
        return False
    keys_sorted, perm = got
    if not (
        np.array_equal(keys_sorted, ref_sorted) and np.array_equal(perm, ref_perm)
    ):
        return False

    # out-of-cube input must be refused (numpy path raises instead)
    bad = pos.copy()
    bad[0, 0] = 1.5
    if _morton_build_with(lib, bad, origin, size, bits) is not None:
        return False

    root_center = origin + 0.5 * size
    for leaf_size in (1, 8):
        ref_nodes = build_nodes_numpy(ref_sorted, len(pos), origin, size, leaf_size, bits)
        got_nodes = _build_nodes_with(
            lib, ref_sorted, leaf_size, bits, root_center, size / 2.0
        )
        if got_nodes is None:
            return False
        for a, b in zip(got_nodes, ref_nodes):
            if a.dtype != b.dtype or not np.array_equal(a, b):
                return False
        lo, hi = ref_nodes[2], ref_nodes[3]
        is_leaf, children = ref_nodes[5], ref_nodes[6]
        pos_sorted = pos[ref_perm]
        ref_box = node_bounds_numpy(
            pos_sorted, lo, ref_nodes[4], is_leaf, children
        )
        got_box = _node_bounds_with(lib, pos_sorted, lo, hi, is_leaf, children)
        for a, b in zip(got_box, ref_box):
            if a.tobytes() != b.tobytes():
                return False
        for gs in (1, 16, 64):
            ref_groups = _group_nodes_python(lo, hi, children, is_leaf, gs)
            got_groups = _group_nodes_with(lib, lo, hi, children, is_leaf, gs)
            if got_groups != ref_groups:
                return False
    return True


def _group_nodes_python(lo, hi, children, is_leaf, group_size) -> List[int]:
    out: List[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        if hi[i] - lo[i] <= group_size or is_leaf[i]:
            out.append(int(i))
        else:
            stack.extend(c for c in children[i] if c >= 0)
    return out


__all__ = [
    "available", "build_nodes", "get_lib", "group_nodes", "morton_build",
    "node_bounds",
]
