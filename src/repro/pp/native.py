"""Bindings for the native plan-sweep kernel.

The C source (:file:`repro/native/_plansweep.c`) is the ``pp`` entry of
:data:`repro.native.build.STAGES` and is built through the shared
compile-on-demand loader like every other stage: compiled once per
source/toolchain/flag combination into a hash-keyed on-disk cache,
bound through :mod:`ctypes`, gated by :func:`repro.native.build.library`.

The kernel is the paper's single-precision Phantom-GRAPE: a group's
interaction list is gathered once, relative to the group's own origin,
into float structure-of-arrays scratch, and the group's targets are
swept one per SIMD lane over that shared list.  One kernel body is
instantiated at eight float lanes (256-bit vectors, picked when the
library is loaded on an x86-64 CPU with AVX2) and at one lane (plain
C, every other host) by the lane header shared with the walk
(:file:`repro/native/_lanes.h`); ``plan_sweep`` runs the dispatched
width, ``plan_sweep_w1`` always the one-lane instantiation, and
``plan_sweep_lanes()`` reports which width was dispatched.  Lanes are
targets, so each lane performs exactly the individually rounded IEEE
operations of the numpy single-precision executor for its own target,
in the same order: the translation unit is built for the baseline
architecture with ``-ffp-contract=off`` — only the eight-lane functions
carry an AVX2 target attribute, nothing enables FMA contraction or
reassociation, and square root and divide are the IEEE instructions,
never a reciprocal estimate — so the forces are bitwise identical to
the numpy pipeline at either width.

When the toolchain supports OpenMP the library is built with
``-fopenmp`` and exposes ``plan_sweep_threads``, a parallel-over-groups
variant selected when ``REPRO_NATIVE_THREADS`` requests more than one
thread.  Plan groups own disjoint output rows, so the threaded sweep is
bitwise identical to the serial one for any thread count.

The loader degrades gracefully: if no compiler is present (or the build
fails, or the first load's bitwise self-test against the numpy executor
fails, or ``REPRO_NO_NATIVE`` / ``REPRO_NO_NATIVE_PP`` is set — checked
on every call) the executor silently falls back to the numpy pipeline.
Nothing outside this module needs to know whether the native kernel is
in use, and no third-party build machinery is involved.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from repro.native import build as _build


def get_lib() -> Optional[ctypes.CDLL]:
    """The verified plan-sweep library, or ``None`` (checked per call)."""
    return _build.library("pp")


def available() -> bool:
    """Whether the native plan-sweep kernel can be used right now."""
    return get_lib() is not None


def threaded_available() -> bool:
    """Whether the sweep can actually run multi-threaded (OpenMP built)."""
    return _build.openmp_available() and available()


def sweep(
    lib,
    group_lo,
    group_hi,
    part_ptr,
    part_idx,
    node_ptr,
    node_idx,
    pos,
    mass,
    node_com,
    node_mass,
    wrap,
    target_mask,
    box,
    eps2,
    use_split,
    rcut,
    rc2,
    G,
    scratch,
    out,
    nthreads: int = 1,
    scratch_stride: int = 0,
) -> None:
    """Invoke ``plan_sweep`` (arrays must be C-contiguous and typed;
    ``target_mask`` is one byte per sorted particle or ``None``).

    With ``nthreads > 1`` the OpenMP entry point is used; ``scratch``
    must then hold ``nthreads * scratch_stride`` floats (one board per
    thread).  Results are bitwise identical either way.
    """
    args = (
        len(group_lo), group_lo, group_hi, part_ptr, part_idx, node_ptr,
        node_idx, pos, mass, node_com, node_mass, wrap, target_mask,
        box, eps2, use_split, rcut, rc2, G, scratch, out,
    )
    if nthreads > 1:
        lib.plan_sweep_threads(*args, scratch_stride, nthreads)
    else:
        lib.plan_sweep(*args)


# -- self-test ----------------------------------------------------------------


def _self_test(lib) -> bool:
    """Bitwise comparison of the compiled sweep vs the numpy executor.

    The native sweep replays the numpy single-precision arithmetic
    operation by operation.  Rather than trust the compiler and numpy
    build to keep every rounding, the sweep is checked on a small
    synthetic plan exercising wrap and no-wrap groups, whole and
    partial lane blocks, self pairs and a duplicate position, softened
    and unsoftened kernels, both split modes, and a target mask.
    """
    from dataclasses import replace

    from repro.forces.cutoff import S2ForceSplit
    from repro.pp.kernel import PPKernel
    from repro.pp.plan import InteractionPlan, PlanExecutor

    rng = np.random.default_rng(20120416)
    N, M = 54, 6
    pos = rng.random((N, 3))
    pos[7] = pos[3]  # a duplicate position: r2 == 0 between two rows
    mass = rng.random(N) + 0.5
    ncom = rng.random((M, 3))
    nmass = rng.random(M) + 1.0
    pidx = rng.integers(0, N, 80).astype(np.int64)
    pidx[:12] = np.arange(12)  # include self pairs
    pidx[60:65] = np.arange(48, 53)
    # four groups of 12 targets (whole lane blocks), then one of 5 and
    # one of 1 so the gate covers a tail block at every lane width
    plan = InteractionPlan(
        group_nodes=np.zeros(6, dtype=np.int64),
        group_lo=np.array([0, 12, 24, 36, 48, 53], dtype=np.int64),
        group_hi=np.array([12, 24, 36, 48, 53, 54], dtype=np.int64),
        part_ptr=np.array([0, 20, 30, 50, 60, 73, 80], dtype=np.int64),
        part_idx=pidx,
        node_ptr=np.array([0, 3, 6, 6, 10, 12, 14], dtype=np.int64),
        node_idx=rng.integers(0, M, 14).astype(np.int64),
        no_wrap=np.array([True, False, True, False, False, True]),
    )
    kernels = [
        PPKernel(split=S2ForceSplit(0.4), eps=0.0, G=2.0, box=1.0),
        PPKernel(split=S2ForceSplit(0.4), eps=1e-3, box=1.0),
        PPKernel(split=None, eps=1e-3, box=None),
        PPKernel(split=None, eps=0.0, box=1.0),
    ]
    # ghosts scattered through the blocks; group 2 keeps no target
    masked = rng.random(N) < 0.6
    masked[24:36] = False
    executor = PlanExecutor(use_native=False)
    for kern in kernels:
        for mask in (None, masked):
            p = replace(plan, target_mask=mask)
            # non-target rows must come back as they went in
            want = executor.execute(p, kern, pos, mass, ncom, nmass, out=pos.copy())
            got = pos.copy()
            executor._execute_native(lib, p, kern, pos, mass, ncom, nmass, got)
            if not np.array_equal(want, got):
                return False
    return True


__all__ = ["available", "get_lib", "sweep", "threaded_available"]
