"""The particle-particle force loop (Phantom-GRAPE port, numpy edition).

Evaluates eq. (2) of the paper: softened Newtonian pair accelerations
multiplied by the ``g_P3M`` cutoff (or any force split's short-range
factor), fully vectorized over a block of targets times an interaction
list of sources — the exact shape of the work Barnes' modified traversal
produces (forces from list members onto all particles of a group).

Flop accounting follows the paper's convention of 51 floating-point
operations per interaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import FLOPS_PER_INTERACTION
from repro.pp.rsqrt import fast_rsqrt
from repro.utils.periodic import minimum_image

__all__ = ["InteractionCounter", "PPKernel", "pp_forces"]


@dataclass
class InteractionCounter:
    """Counts particle-particle interactions and derived flops.

    The paper's ``<Ni>``/``<Nj>`` statistics are per-call means of the
    target count and interaction-list length.  Only streaming sums are
    kept — integer sums are exact (well below 2**53), so the means are
    identical to averaging a per-call log, without the unbounded memory
    growth such a log shows over a long run.
    """

    interactions: int = 0
    calls: int = 0
    sum_group_size: int = 0
    sum_list_length: int = 0

    def record(self, n_targets: int, n_sources: int) -> None:
        self.interactions += n_targets * n_sources
        self.calls += 1
        self.sum_group_size += n_targets
        self.sum_list_length += n_sources

    def record_many(self, n_targets: np.ndarray, n_sources: np.ndarray) -> None:
        """Record one call per row of ``n_targets``/``n_sources`` at once
        (the plan executor's whole-evaluation form)."""
        n_targets = np.asarray(n_targets, dtype=np.int64)
        n_sources = np.asarray(n_sources, dtype=np.int64)
        self.interactions += int(np.dot(n_targets, n_sources))
        self.calls += len(n_targets)
        self.sum_group_size += int(n_targets.sum())
        self.sum_list_length += int(n_sources.sum())

    @property
    def flops(self) -> int:
        """Total flops under the paper's 51 flops/interaction convention."""
        return FLOPS_PER_INTERACTION * self.interactions

    @property
    def mean_group_size(self) -> float:
        """The paper's <Ni>: average number of particles per group."""
        return self.sum_group_size / self.calls if self.calls else 0.0

    @property
    def mean_list_length(self) -> float:
        """The paper's <Nj>: average interaction-list length."""
        return self.sum_list_length / self.calls if self.calls else 0.0

    def reset(self) -> None:
        self.interactions = 0
        self.calls = 0
        self.sum_group_size = 0
        self.sum_list_length = 0

    def merge(self, other: "InteractionCounter") -> None:
        self.interactions += other.interactions
        self.calls += other.calls
        self.sum_group_size += other.sum_group_size
        self.sum_list_length += other.sum_list_length


class PPKernel:
    """Vectorized short-range force kernel.

    Parameters
    ----------
    split:
        A force split providing ``short_range_factor(r)`` (use ``None``
        for plain softened Newtonian gravity, the pure-tree baseline).
    eps:
        Plummer softening length.
    G:
        Gravitational constant.
    use_fast_rsqrt:
        Emulate the HPC-ACE approximate-rsqrt path (24-bit accuracy)
        instead of the exact square root.
    counter:
        Optional shared :class:`InteractionCounter`.
    box:
        When set, pair displacements are reduced to their minimum image
        in a periodic box of this size (per-pair exact periodicity).
    ewald_table:
        Optional :class:`repro.forces.ewald_table.EwaldCorrectionTable`
        adding the tabulated image-lattice correction to every pair
        (the GADGET-style exact-periodic pure-tree configuration; not
        meaningful together with a force split, whose PM part already
        carries the periodic images).
    """

    def __init__(
        self,
        split=None,
        eps: float = 0.0,
        G: float = 1.0,
        use_fast_rsqrt: bool = False,
        counter: InteractionCounter | None = None,
        box: float | None = None,
        ewald_table=None,
    ) -> None:
        if split is not None and ewald_table is not None:
            raise ValueError(
                "ewald_table applies to full (unsplit) gravity only"
            )
        self.split = split
        self.eps = float(eps)
        self.G = float(G)
        self.use_fast_rsqrt = bool(use_fast_rsqrt)
        self.counter = counter if counter is not None else InteractionCounter()
        self.box = None if box is None else float(box)
        self.ewald_table = ewald_table

    def _inv_r3(self, r2s: np.ndarray) -> np.ndarray:
        """(r^2 + eps^2)^(-3/2) via the selected rsqrt path."""
        if self.use_fast_rsqrt:
            y = fast_rsqrt(r2s)
        else:
            y = 1.0 / np.sqrt(r2s)
        return y * y * y

    def accumulate(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        masses: np.ndarray,
    ) -> np.ndarray:
        """Accelerations on ``targets`` from the list ``sources``.

        Parameters
        ----------
        targets:
            ``(T, 3)`` positions of the group particles.
        sources:
            ``(S, 3)`` positions of interaction-list members.
        masses:
            ``(S,)`` masses of list members.

        Returns ``(T, 3)`` accelerations.  Zero-separation pairs (a
        particle interacting with itself inside its own group) are
        skipped, matching GRAPE semantics where self-force vanishes.
        """
        targets = np.asarray(targets, dtype=np.float64)
        sources = np.asarray(sources, dtype=np.float64)
        masses = np.asarray(masses, dtype=np.float64)
        self.counter.record(len(targets), len(sources))

        dx = sources[None, :, :] - targets[:, None, :]  # (T, S, 3)
        if self.box is not None:
            minimum_image(dx, self.box, out=dx)
        r2 = np.einsum("tsk,tsk->ts", dx, dx)
        r2s = r2 + self.eps * self.eps
        if self.eps == 0.0:
            # guard exact zeros so the rsqrt path stays finite
            zero = r2 == 0.0
            r2s = np.where(zero, 1.0, r2s)
        f = self._inv_r3(r2s)
        if self.split is not None:
            r = np.sqrt(r2)
            f = f * self.split.short_range_factor(r)
        f = np.where(r2 == 0.0, 0.0, f)
        acc = self.G * np.einsum("s,ts,tsk->tk", masses, f, dx)
        if self.ewald_table is not None:
            # the table convention is dx = r_i - r_j (the Ewald pair
            # kernel); our dx is r_j - r_i, and the correction is odd
            corr = -self.ewald_table.correction(dx)
            acc += self.G * np.einsum("s,tsk->tk", masses, corr)
        return acc

    def potential(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        masses: np.ndarray,
    ) -> np.ndarray:
        """Short-range potential on targets (for energy diagnostics)."""
        targets = np.asarray(targets, dtype=np.float64)
        sources = np.asarray(sources, dtype=np.float64)
        masses = np.asarray(masses, dtype=np.float64)
        dx = sources[None, :, :] - targets[:, None, :]
        if self.box is not None:
            minimum_image(dx, self.box, out=dx)
        r2 = np.einsum("tsk,tsk->ts", dx, dx)
        r2s = r2 + self.eps * self.eps
        zero = r2 == 0.0
        r2s = np.where(zero & (self.eps == 0.0), 1.0, r2s)
        p = -1.0 / np.sqrt(r2s)
        if self.split is not None:
            r = np.sqrt(r2)
            # h(r)/r with the softened 1/r
            p = p * self.split.short_range_potential_factor(r)
        p = np.where(zero, 0.0, p)
        return self.G * np.einsum("s,ts->t", masses, p)


def pp_forces(
    pos: np.ndarray,
    mass: np.ndarray,
    split=None,
    eps: float = 0.0,
    G: float = 1.0,
    use_fast_rsqrt: bool = False,
    chunk: int = 512,
    counter: InteractionCounter | None = None,
) -> np.ndarray:
    """All-pairs short-range forces through the kernel (O(N^2) driver).

    This is the microbenchmark configuration of section II-A: a simple
    O(N^2) kernel sweep, used to measure kernel throughput.
    """
    kern = PPKernel(
        split=split, eps=eps, G=G, use_fast_rsqrt=use_fast_rsqrt, counter=counter
    )
    pos = np.asarray(pos, dtype=np.float64)
    acc = np.empty_like(pos)
    for lo in range(0, len(pos), chunk):
        hi = min(lo + chunk, len(pos))
        acc[lo:hi] = kern.accumulate(pos[lo:hi], pos, mass)
    return acc
