"""Compile-on-demand native kernels for the per-step hot path.

Every per-step stage of the TreePM cycle — octree construction, plan
traversal, PM mesh scatter/gather, the kick-drift update, and the plan
sweep itself (:mod:`repro.pp.native`) — has a small C kernel compiled
on first use with the system compiler and bound through :mod:`ctypes`.
Every stage is one entry of :data:`repro.native.build.STAGES` (C source,
symbol signatures, flags, self-test) behind one gate,
:func:`repro.native.build.library`; the per-stage modules hold the
wrappers and the bitwise self-test against the numpy reference
pipeline, so a kernel is only ever a speedup, never a behavior change.

Opt-outs (checked per call, so they can be toggled within a process):

``REPRO_NO_NATIVE``
    Disable every native kernel.
``REPRO_NO_NATIVE_TREE`` / ``..._TRAVERSE`` / ``..._CERTIFY`` /
``..._MESH`` / ``..._UPDATE`` / ``..._PP`` / ``..._FRAME``
    Disable one stage (tree build, plan construction, no-wrap
    certification, mesh scatter/gather, kick-drift update, plan sweep,
    the shared-memory frames' fused copy + CRC-32).
``REPRO_NATIVE_THREADS``
    OpenMP thread count for the plan sweep (default 1).  Threading is
    deterministic: groups own disjoint output rows, so the result is
    bitwise identical for any thread count.
``REPRO_NATIVE_CACHE``
    Directory for compiled ``.so`` artifacts (default: a per-user
    directory under the system temp dir).  Cache entries are keyed by a
    hash of the C source, the local headers it includes and the compiler
    command line, so editing a kernel source can never load a stale
    binary.
"""

from repro.native.build import (
    native_threads,
    openmp_available,
    stage_enabled,
)

__all__ = ["native_threads", "openmp_available", "stage_enabled"]
