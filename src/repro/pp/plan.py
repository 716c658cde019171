"""Flat interaction-plan representation and batched executor.

A short-range force evaluation has two phases, as in the paper: Barnes'
modified traversal builds every group's interaction list, then the PP
kernel consumes the lists in bulk.

1. **Plan construction** (:meth:`repro.tree.traversal.TreeSolver.build_plan`)
   runs the traversal for *all* groups and emits one flat CSR-style
   :class:`InteractionPlan`: per-group target slices (and the mask of
   the rows in them that are targets at all), the concatenated
   source-particle indices, accepted-node indices, a per-group
   ``no_wrap`` certificate (every pair displacement provably within
   ``box/2``, so the per-pair ``np.round`` is exactly a no-op) and, for
   the float32 executor, precomputed periodic image shifts per list
   entry.
2. **Plan execution** (:class:`PlanExecutor`) sweeps the plan — in the
   compiled kernel when it is available and covers the configuration,
   else in large numpy batches of groups bucketed by list length, with
   reused scratch buffers and zero-mass column padding.  In float64
   mode the arithmetic is elementwise identical to feeding each group's
   list to :meth:`repro.pp.kernel.PPKernel.accumulate`, so forces match
   it bitwise; an optional float32 mode mirrors the paper's
   single-precision Phantom-GRAPE kernel.

The executor deliberately knows nothing about trees: it consumes the
plan plus the Morton-sorted particle arrays and node moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.forces.cutoff import S2ForceSplit
from repro.native.build import native_threads as _native_threads
from repro.pp import native as _native
from repro.pp.rsqrt import fast_rsqrt
from repro.utils.periodic import minimum_image

__all__ = ["InteractionPlan", "PlanExecutor", "multi_arange", "slice_plan"]

#: Default cap on target-rows x padded-list-columns per numpy batch.
DEFAULT_PAIR_BUDGET = 1 << 17


def multi_arange(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[i], hi[i])`` without a Python loop."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    lens = hi - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens) + np.repeat(
        lo, lens
    )


def slice_plan(plan: "InteractionPlan", groups: np.ndarray) -> "InteractionPlan":
    """A sub-plan containing only the selected groups.

    The CSR pointer arrays are rebuilt over the kept groups while every
    index keeps referring to the *full* Morton-sorted particle/node
    arrays, and each group's target slice ``[group_lo, group_hi)`` and
    the target mask are untouched — so executing the sub-plan against
    the same sorted inputs reproduces, bitwise, exactly the rows the
    full sweep produced for those groups (groups own disjoint target
    rows and each group's arithmetic depends only on its own
    interaction list).  This is what the ABFT force spot-check leans
    on: re-sweep a sampled subset of groups through the reference
    pipeline and compare rows.
    """
    groups = np.asarray(groups, dtype=np.int64)
    if groups.ndim != 1:
        raise ValueError("groups must be a 1-D index array")
    if groups.size and (groups.min() < 0 or groups.max() >= plan.n_groups):
        raise IndexError("group index out of range")
    plo, phi = plan.part_ptr[groups], plan.part_ptr[groups + 1]
    nlo, nhi = plan.node_ptr[groups], plan.node_ptr[groups + 1]
    psel = multi_arange(plo, phi)
    nsel = multi_arange(nlo, nhi)
    zero = np.zeros(1, dtype=np.int64)
    return InteractionPlan(
        group_nodes=plan.group_nodes[groups],
        group_lo=plan.group_lo[groups],
        group_hi=plan.group_hi[groups],
        part_ptr=np.concatenate([zero, np.cumsum(phi - plo)]).astype(np.int64),
        part_idx=plan.part_idx[psel],
        node_ptr=np.concatenate([zero, np.cumsum(nhi - nlo)]).astype(np.int64),
        node_idx=plan.node_idx[nsel],
        part_shift=None if plan.part_shift is None else plan.part_shift[psel],
        node_shift=None if plan.node_shift is None else plan.node_shift[nsel],
        no_wrap=None if plan.no_wrap is None else plan.no_wrap[groups],
        target_mask=plan.target_mask,
    )


@dataclass
class InteractionPlan:
    """CSR-style description of one whole short-range force evaluation.

    All index arrays refer to the tree's Morton-sorted particle order.
    Group ``i`` owns rows ``[group_lo[i], group_hi[i])``, particle
    sources ``part_idx[part_ptr[i]:part_ptr[i+1]]`` and accepted nodes
    ``node_idx[node_ptr[i]:node_ptr[i+1]]``.  Each source slot of a
    group's list is ordered particles first, then nodes.

    ``target_mask`` (boolean, one entry per sorted particle, ``None`` =
    all) marks the rows that are targets: both executors sweep only
    those and leave every other row of the output as they found it (the
    distributed driver's ghosts are sources, never targets), and
    ``target_counts``/``n_pairs`` count them alone.

    ``part_shift``/``node_shift`` hold the periodic image shift of each
    list entry relative to the group center (``box`` times an integer
    vector; subtracting it moves the source next to the group).  Only
    the float32 executor reads them, so only a ``plan_float32`` solver's
    periodic plans carry them; everywhere else they are ``None``.
    ``no_wrap[i]`` certifies that every pair displacement of group ``i``
    lies within ``box/2`` in all coordinates, so the per-pair
    minimum-image round is exactly zero.
    """

    group_nodes: np.ndarray
    group_lo: np.ndarray
    group_hi: np.ndarray
    part_ptr: np.ndarray
    part_idx: np.ndarray
    node_ptr: np.ndarray
    node_idx: np.ndarray
    part_shift: Optional[np.ndarray] = None
    node_shift: Optional[np.ndarray] = None
    no_wrap: Optional[np.ndarray] = None
    target_mask: Optional[np.ndarray] = None

    @property
    def n_groups(self) -> int:
        return len(self.group_nodes)

    @property
    def target_counts(self) -> np.ndarray:
        """Swept targets per group (the per-call ``Ni``)."""
        if self.target_mask is None:
            return self.group_hi - self.group_lo
        below = np.concatenate([[0], np.cumsum(self.target_mask)])
        return below[self.group_hi] - below[self.group_lo]

    @property
    def list_lengths(self) -> np.ndarray:
        """Interaction-list length per group (the per-call ``Nj``)."""
        return np.diff(self.part_ptr) + np.diff(self.node_ptr)

    @property
    def n_pairs(self) -> int:
        """Total pairwise interactions the plan encodes."""
        if self.n_groups == 0:
            return 0
        return int(np.dot(self.target_counts, self.list_lengths))


class PlanExecutor:
    """Batched sweep over an :class:`InteractionPlan`.

    Parameters
    ----------
    dtype:
        ``np.float64`` (default) computes bitwise-identically to
        :meth:`PPKernel.accumulate` applied group by group to the
        plan's lists.  ``np.float32`` mirrors the
        paper's single-precision kernel: sources are re-centered on the
        group via the plan's baked image shifts (keeping float32
        coordinates well-conditioned), the wrap is dropped entirely, and
        all pair arithmetic runs in single precision.
    pair_budget:
        Approximate cap on target-rows x padded-list-columns per batch;
        bounds scratch memory at roughly ``40 * pair_budget`` bytes in
        float64.  Small budgets keep every scratch board resident in
        cache, which matters far more than batching overhead on the
        memory-bound sweep.
    use_native:
        Sweep through the compiled plan-sweep kernel when one can be
        built (see :mod:`repro.pp.native`); float64 only, bitwise
        identical to the numpy pipeline.  Falls back silently to the
        numpy pipeline when unavailable or unsupported for the kernel
        configuration.

    Scratch buffers are owned by the executor and grown on demand, so a
    long-lived executor (one per :class:`TreeSolver`) allocates nothing
    in steady state.
    """

    def __init__(
        self,
        dtype=np.float64,
        pair_budget: int = DEFAULT_PAIR_BUDGET,
        use_native: bool = True,
    ) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError("dtype must be float64 or float32")
        if pair_budget < 1:
            raise ValueError("pair_budget must be >= 1")
        self.pair_budget = int(pair_budget)
        self.use_native = bool(use_native)
        self._scratch: dict = {}
        #: batches executed since construction (diagnostic)
        self.batches_run = 0
        #: native-kernel sweeps executed since construction (diagnostic)
        self.native_runs = 0

    # -- scratch management ---------------------------------------------------

    def _buf(self, name: str, shape, dtype) -> np.ndarray:
        """A reusable contiguous scratch view of the requested shape."""
        n = 1
        for s in shape:
            n *= int(s)
        key = (name, dtype)
        buf = self._scratch.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype=dtype)
            self._scratch[key] = buf
        return buf[:n].reshape(shape)

    def scratch_bytes(self) -> int:
        """Current scratch footprint (diagnostic)."""
        return sum(b.nbytes for b in self._scratch.values())

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        plan: InteractionPlan,
        kernel,
        pos_sorted: np.ndarray,
        mass_sorted: np.ndarray,
        node_com: np.ndarray,
        node_mass: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Accumulate the plan's monopole forces into the target rows
        of ``out`` (sorted particle order); other rows are not touched.
        ``kernel`` is a :class:`repro.pp.kernel.PPKernel` supplying the
        physics (split, softening, G, rsqrt path, box, Ewald table,
        counter)."""
        if out is None:
            out = np.zeros_like(pos_sorted)
        if plan.n_groups == 0:
            return out
        T = plan.target_counts
        S = plan.list_lengths
        kernel.counter.record_many(T, S)

        if (
            self.use_native
            and self._native_ok(kernel)
            and out.flags.c_contiguous
            and out.dtype == np.dtype(np.float64)
        ):
            lib = _native.get_lib()
            if lib is not None:
                self._execute_native(
                    lib, plan, kernel, pos_sorted, mass_sorted,
                    node_com, node_mass, out,
                )
                return out

        # gather the concatenated source streams once
        spos = pos_sorted[plan.part_idx]
        smass = mass_sorted[plan.part_idx]
        npos = node_com[plan.node_idx]
        nmass = node_mass[plan.node_idx]

        f32 = self.dtype == np.dtype(np.float32)
        box = kernel.box
        if f32 and box is not None and plan.part_shift is not None:
            # bake the image shifts: every source lands next to its
            # group, the per-pair wrap is dropped below
            spos = spos - plan.part_shift
            npos = npos - plan.node_shift

        G = plan.n_groups
        if box is None:
            wrap = np.zeros(G, dtype=bool)
        elif f32 and plan.part_shift is not None:
            wrap = np.zeros(G, dtype=bool)
        elif plan.no_wrap is not None:
            wrap = ~plan.no_wrap
        else:
            wrap = np.ones(G, dtype=bool)

        pcnt = np.diff(plan.part_ptr)
        order = np.argsort(S, kind="stable")[::-1]
        # empty lists contribute nothing, a chunk of ghosts has no target
        order = order[(S[order] > 0) & (T[order] > 0)]
        for need_wrap in (False, True):
            sel = order[wrap[order] == need_wrap]
            i = 0
            while i < len(sel):
                smax = int(S[sel[i]])
                ttot = int(T[sel[i]])
                j = i + 1
                while (
                    j < len(sel)
                    and (ttot + int(T[sel[j]])) * smax <= self.pair_budget
                ):
                    ttot += int(T[sel[j]])
                    j += 1
                self._run_batch(
                    plan, sel[i:j], T[sel[i:j]], smax, ttot, need_wrap, kernel,
                    pos_sorted, spos, smass, npos, nmass, pcnt, out,
                )
                i = j
        return out

    def _native_ok(self, kernel) -> bool:
        """Whether the compiled kernel covers this configuration.

        The native sweep implements the exact-arithmetic float64
        pipeline for plain softened Newtonian gravity and the S2 split;
        everything else (float32 mode, fast rsqrt, Ewald tables, other
        split shapes) stays on the numpy path.
        """
        return (
            self.dtype == np.dtype(np.float64)
            and kernel.ewald_table is None
            and not kernel.use_fast_rsqrt
            and (kernel.split is None or type(kernel.split) is S2ForceSplit)
        )

    def _execute_native(
        self,
        lib,
        plan: InteractionPlan,
        kernel,
        pos_sorted: np.ndarray,
        mass_sorted: np.ndarray,
        node_com: np.ndarray,
        node_mass: np.ndarray,
        out: np.ndarray,
    ) -> None:
        self.native_runs += 1
        i64 = lambda a: np.ascontiguousarray(a, dtype=np.int64)
        f64 = lambda a: np.ascontiguousarray(a, dtype=np.float64)
        G = plan.n_groups
        box = kernel.box
        if box is None:
            wrap = np.zeros(G, dtype=np.uint8)
        elif plan.no_wrap is not None:
            wrap = (~plan.no_wrap).astype(np.uint8)
        else:
            wrap = np.ones(G, dtype=np.uint8)
        split = kernel.split
        if split is not None:
            rcut = split.cutoff_radius
            rc2 = (rcut * (1.0 + 1e-9)) ** 2
        else:
            rcut = rc2 = 0.0
        smax = int(plan.list_lengths.max()) if G else 0
        stride = 4 * max(smax, 1)
        # one scratch board per OpenMP thread; groups own disjoint output
        # rows so any thread count gives bitwise-identical forces
        nthreads = max(1, min(_native_threads(), G)) if G else 1
        scratch = self._buf("native_scratch", (nthreads * stride,), np.float64)
        eps2 = float(np.float64(kernel.eps) * np.float64(kernel.eps))
        tmask = plan.target_mask
        if tmask is not None:
            tmask = np.ascontiguousarray(tmask, dtype=bool).view(np.uint8)
        _native.sweep(
            lib,
            i64(plan.group_lo),
            i64(plan.group_hi),
            i64(plan.part_ptr),
            i64(plan.part_idx),
            i64(plan.node_ptr),
            i64(plan.node_idx),
            f64(pos_sorted),
            f64(mass_sorted),
            f64(node_com),
            f64(node_mass),
            wrap,
            tmask,
            0.0 if box is None else float(box),
            eps2,
            0 if split is None else 1,
            float(rcut),
            float(rc2),
            float(kernel.G),
            scratch,
            out,
            nthreads=nthreads,
            scratch_stride=stride,
        )

    def _fill_padded(
        self, rows_lo, rows_hi, col_offset, vals_pos, vals_mass, sb, mb, B
    ) -> None:
        """Scatter CSR entry ranges into the padded (B, smax) buffers."""
        cnt = rows_hi - rows_lo
        total = int(cnt.sum())
        if total == 0:
            return
        idx = multi_arange(rows_lo, rows_hi)
        row = np.repeat(np.arange(B), cnt)
        starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        col = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts, cnt)
            + np.repeat(col_offset, cnt)
        )
        sb[row, col] = vals_pos[idx]
        mb[row, col] = vals_mass[idx]

    def _run_batch(
        self,
        plan,
        groups,
        tcnt,
        smax,
        ttot,
        need_wrap,
        kernel,
        pos_sorted,
        spos,
        smass,
        npos,
        nmass,
        pcnt,
        out,
    ) -> None:
        self.batches_run += 1
        dt = self.dtype
        B = len(groups)

        # padded per-group source boards; zero masses neutralize padding
        # (their products append exact +0.0 terms to the sequential
        # einsum reduction, preserving bitwise results).  Only the
        # padding tail of each row is zeroed — every other column is
        # overwritten by the scatter fills below.
        sb = self._buf("src_pos", (B, smax, 3), dt)
        mb = self._buf("src_mass", (B, smax), dt)
        bp = pcnt[groups]
        bn = plan.node_ptr[groups + 1] - plan.node_ptr[groups]
        off = np.arange(B, dtype=np.int64) * smax
        pad = multi_arange(off + bp + bn, off + smax)
        sb.reshape(B * smax, 3)[pad] = 0.0
        mb.reshape(B * smax)[pad] = 0.0
        self._fill_padded(
            plan.part_ptr[groups], plan.part_ptr[groups + 1],
            np.zeros(B, dtype=np.int64), spos, smass, sb, mb, B,
        )
        self._fill_padded(
            plan.node_ptr[groups], plan.node_ptr[groups + 1],
            bp, npos, nmass, sb, mb, B,
        )

        trows = multi_arange(plan.group_lo[groups], plan.group_hi[groups])
        if plan.target_mask is not None:
            trows = trows[plan.target_mask[trows]]
        tgt = pos_sorted[trows]
        if dt != tgt.dtype:
            tgt = tgt.astype(dt)
        rend = np.cumsum(tcnt)

        # dx = source - target, PPKernel.accumulate's orientation;
        # one broadcast subtraction per group row-block avoids a full
        # gathered copy of the source board
        dx = self._buf("dx", (ttot, smax, 3), dt)
        for i in range(B):
            r1 = rend[i]
            r0 = r1 - tcnt[i]
            np.subtract(sb[i][None, :, :], tgt[r0:r1, None, :], out=dx[r0:r1])
        if need_wrap:
            minimum_image(dx, kernel.box, out=dx)

        r2 = self._buf("r2", (ttot, smax), dt)
        np.einsum("tsk,tsk->ts", dx, dx, out=r2)
        eps2 = dt.type(kernel.eps) * dt.type(kernel.eps)

        split = kernel.split
        f = self._buf("f", (ttot, smax), dt)
        zero = self._buf("zero", (ttot, smax), bool)
        np.equal(r2, 0.0, out=zero)
        r2s = self._buf("r2s", (ttot, smax), dt)
        np.add(r2, eps2, out=r2s)
        if kernel.eps == 0.0:
            # guard exact zeros so the rsqrt path stays finite
            np.copyto(r2s, dt.type(1.0), where=zero)
        if kernel.use_fast_rsqrt:
            y = fast_rsqrt(r2s)
            np.multiply(y, y, out=f)
            f *= y
            if split is not None:
                r = self._buf("r", (ttot, smax), dt)
                np.sqrt(r2, out=r)
                f *= split.short_range_factor(r)
        elif split is not None and kernel.eps == 0.0:
            # sqrt(r2s) is bitwise sqrt(r2) away from the guarded
            # zeros (x + 0.0 == x), so one sqrt serves both the
            # inverse cube and the cutoff argument; the guarded
            # entries are overwritten by the zero mask below
            y = self._buf("y", (ttot, smax), dt)
            np.sqrt(r2s, out=y)
            inv = self._buf("r", (ttot, smax), dt)
            np.divide(dt.type(1.0), y, out=inv)
            np.multiply(inv, inv, out=f)
            f *= inv
            f *= split.short_range_factor(y)
        else:
            y = self._buf("y", (ttot, smax), dt)
            np.sqrt(r2s, out=y)
            np.divide(dt.type(1.0), y, out=y)
            np.multiply(y, y, out=f)
            f *= y
            if split is not None:
                r = self._buf("r", (ttot, smax), dt)
                np.sqrt(r2, out=r)
                f *= split.short_range_factor(r)
        np.copyto(f, dt.type(0.0), where=zero)

        # fold the source masses into f one group row-block at a time
        # ((m*f)*dx is einsum's own product order, so this is bitwise
        # equal to PPKernel.accumulate's three-operand contraction)
        for i in range(B):
            r1 = rend[i]
            r0 = r1 - tcnt[i]
            np.multiply(f[r0:r1], mb[i][None, :], out=f[r0:r1])
        acc = self._buf("acc", (ttot, 3), dt)
        np.einsum("ts,tsk->tk", f, dx, out=acc)
        acc *= dt.type(kernel.G)
        if kernel.ewald_table is not None:
            m2 = self._buf("m2", (ttot, smax), dt)
            gid = np.repeat(np.arange(B), tcnt)
            np.take(mb, gid, axis=0, out=m2)
            corr = -kernel.ewald_table.correction(dx)
            acc += dt.type(kernel.G) * np.einsum("ts,tsk->tk", m2, corr)
        # += onto the zeroed rows normalizes any -0.0 component, exactly
        # like adding a PPKernel.accumulate result to a zeroed array
        out[trows] += acc
