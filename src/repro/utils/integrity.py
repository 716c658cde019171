"""Canonical array-integrity helpers shared by checkpointing, buddy
replication and the silent-data-corruption (SDC) auditor.

Layers historically grew private copies of "hash an array":
:mod:`repro.sim.checkpoint` (checkpoints) and :mod:`repro.mpi.recovery`
(buddy replicas).  They now all call :func:`array_digest` here, so a digest
computed by one layer can be compared against a digest computed by any
other — which is exactly what the SDC two-out-of-three attribution vote
does.

Digests are computed over ``(dtype, shape, bytes)`` after
``np.ascontiguousarray``, so non-C-contiguous views (transposes,
strided slices) and zero-length arrays hash identically to their
contiguous copies.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping

import numpy as np

__all__ = [
    "array_digest",
    "digest_arrays",
    "fingerprint_particles",
]


def array_digest(arr: np.ndarray) -> str:
    """sha256 over an array's dtype, shape and bytes.

    Safe for non-C-contiguous views and zero-length arrays: the input
    is materialised with ``np.ascontiguousarray`` first, so logically
    equal arrays always produce equal digests regardless of memory
    layout.
    """
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def digest_arrays(arrays: Mapping[str, np.ndarray]) -> Dict[str, str]:
    """Per-array digests for a named array bundle (key-sorted order)."""
    return {name: array_digest(arrays[name]) for name in sorted(arrays)}


# Multiplier from splitmix64; any odd constant with good avalanche works.
_FP_MULT = np.uint64(0xBF58476D1CE4E5B9)
_FP_SEED = np.uint64(0x9E3779B97F4A7C15)


def fingerprint_particles(ids: np.ndarray, mass: np.ndarray) -> int:
    """Order- and partition-independent fingerprint of (id, mass) pairs.

    Each particle contributes a 64-bit mix of its id and the raw bits
    of its mass; contributions combine by wrapping summation mod 2**64,
    so the result is invariant under any permutation or re-partitioning
    of the particles across ranks: summing the per-rank fingerprints
    (again mod 2**64) reproduces the global fingerprint no matter how
    the domain decomposition shuffled ownership.  Positions and momenta
    evolve every step, but ids and masses are conserved for the whole
    run, making this the one live-state invariant cheap to audit
    mid-run against a run-start reference.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64).view(np.uint64)
    bits = np.ascontiguousarray(mass, dtype=np.float64).view(np.uint64)
    if ids.shape != bits.shape:
        raise ValueError("ids and mass must have matching lengths")
    with np.errstate(over="ignore"):
        mixed = (ids + _FP_SEED) * _FP_MULT
        mixed ^= mixed >> np.uint64(31)
        mixed = (mixed ^ bits) * _FP_MULT
        mixed ^= mixed >> np.uint64(29)
        total = np.add.reduce(mixed, dtype=np.uint64) + np.uint64(mixed.size)
    return int(total)
